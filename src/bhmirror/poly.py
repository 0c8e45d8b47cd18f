"""Invertible quasi-homogeneous polynomials.

A polynomial with as many monomials as variables is encoded by its square
exponent matrix E (row i = exponent vector of monomial i).  All arithmetic
is exact: weights solve E*q = 1 over the rationals and are scaled to the
least integer degree.  Every polynomial decomposes into Fermat, chain and
loop atoms; inputs for which no such decomposition exists are rejected,
and so are inputs of more than MAX_VARIABLES variables, before any
elimination.  A symmetry g of P or of its transpose lies in (1/N)Z^n,
N = |det E|, and is held as its code N*g mod N (`encode`, `decoder`).
`encode` checks that an outside vector fixes P, and E*B = N*I checks
B = N*E^{-1} and so the codes A = B mod N once: the dual characters,
Aut's generators and j (`grading_code`).  A code made from checked
codes needs no second check, so `restrict` reads the fixed set straight
off the code.  `format_vector` renders every symmetry or key shown, and
`format_ratio` every numerator over N, on integers: `fractions` is
imported, inside the function that needs it, only for a rational input
(`common_denominator`) or a `Fraction` view (`decoder`,
`exponent_inverse`).

E^{-1} is held on integers: one fraction-free (Bareiss) elimination of
[E | I] gives det E and adj E, so B = +-adj E.  The weights and degree
are read off the row sums of B, the Milnor number is a ratio of integer
products, and `exponent_inverse`, E^{-1} as `Fraction`s, is an output
view.  Cached (bounded, keyed on frozen values), each because calls
reuse it: that elimination once per pair {E, E^T}, whose one entry holds
B for E and B^T for E^T, each checked against its own matrix, and which
serves the weights, `exponent_determinant` and `dual_characters` of a
polynomial and of its transpose; and `transpose` per polynomial, so that
a polynomial has one transpose object.  A function that needs N and the
dual characters reads both at once (`inverse_codes`).

The atoms are found once per parsed polynomial, by `classify_atoms` in
`from_exponents`: one product of the monomials' readings and one forward
walk (at most 2^12 combinations, as only x*y monomials have two
readings).  The transpose and the inner polynomial f of W = x0^k + f
read theirs off the parent's atoms (`transpose`, `split_cyclic`).  A
restriction to a fixed set is a sum of whole Fermat atoms, chain tails
and whole loops of P, so `restrict` reads its blocks off `P.atoms`.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Callable, Sequence
from functools import lru_cache
from itertools import product
from math import gcd, lcm

from .errors import (
    DegenerateRestrictionError,
    DegenerateShapeError,
    InputError,
    InternalError,
    NonPositiveWeightError,
    NonSquareError,
    NotCyclicSplitError,
    NotInGroupError,
    PolynomialSyntaxError,
    SingularExponentMatrixError,
    TooManyVariablesError,
)

MAX_VARIABLES = 12

Matrix = tuple[tuple[int, ...], ...]
Code = tuple[int, ...]  # a diagonal symmetry g as N*g mod N, N = |det E|


class Atom(namedtuple("Atom", "kind variables exponents")):
    """One block of the Fermat/chain/loop decomposition: its variables in
    atom order, each pointing at the next (a loop's last at its first), and
    exponents[l], the self-exponent of variables[l]."""

    # kind: str, "fermat" | "chain" | "loop"; variables, exponents: tuple[int, ...]
    __slots__ = ()


class InvertiblePolynomial(namedtuple(
        "InvertiblePolynomial", "num_vars exponents weights degree atoms var_names")):
    # num_vars: int; exponents: Matrix; weights: tuple[int, ...]; degree: int;
    # atoms: tuple[Atom, ...]; var_names: tuple[str, ...]
    __slots__ = ()

    def __str__(self) -> str:
        return format_polynomial(self)


class RestrictedPolynomial(namedtuple("RestrictedPolynomial", "parent fixed_vars blocks")):
    """Restriction of a polynomial to a subset of variables.

    `blocks` are its Fermat, chain and loop atoms, each as its variables in
    parent coordinates, sorted by first variable; each is what one atom of
    the parent keeps (a chain a tail, a loop all of it), in that atom's
    order.  The grading is the parent's (never re-normalized).
    """

    # parent: InvertiblePolynomial; fixed_vars: tuple[int, ...];
    # blocks: tuple[tuple[int, ...], ...]
    __slots__ = ()

    @property
    def milnor_dimension(self) -> int:
        return milnor_number(self.parent, self.fixed_vars)


def _weights_of(P: InvertiblePolynomial, variables: Sequence[int]) -> list[int]:
    """The weights of the given variables, each an index in range(num_vars)."""
    for i in variables:
        if not 0 <= i < P.num_vars:
            raise InputError(f"variable index {i} is not in range({P.num_vars})")
    return [P.weights[i] for i in variables]


def milnor_number(P: InvertiblePolynomial, variables: Sequence[int]) -> int:
    """prod (d - w_i) / w_i over the variables: the Milnor number of the
    restriction of P to them, when it is non-degenerate."""
    d = P.degree
    numerator = denominator = 1
    for w in _weights_of(P, variables):
        numerator *= d - w
        denominator *= w
    if numerator % denominator or numerator <= 0:  # the weights are positive
        raise InternalError(
            f"Milnor number {format_ratio(numerator, denominator)} is not a positive integer")
    return numerator // denominator


def socle_degree(P: InvertiblePolynomial, variables: Sequence[int]) -> int:
    """sum (d - w_i) over the variables: the top degree of the Milnor algebra
    of the restriction to them, volume form included, in units of 1/d."""
    return sum(P.degree - w for w in _weights_of(P, variables))


# ---------------------------------------------------------------------------
# exact linear algebra (tiny fixed-size systems, integer entries)
# ---------------------------------------------------------------------------

def adjugate(rows: Sequence[Sequence[int]]) -> tuple[int, Matrix]:
    """det E and adj E by fraction-free (Bareiss) Gauss-Jordan elimination on
    [E | I]: each entry stays an integer minor, so every division is exact,
    and [E | I] ends as [p*I | p*E^{-1}] with p = +-det E."""
    n = len(rows)
    aug = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    sign, previous = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularExponentMatrixError("exponent matrix is singular")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            sign = -sign
        top = aug[col]
        p = top[col]
        for r in range(n):
            if r != col:
                c = aug[r][col]
                aug[r] = [(p * x - c * y) // previous for x, y in zip(aug[r], top)]
        previous = p
    return sign * previous, tuple(tuple(sign * x for x in row[n:]) for row in aug)


def common_denominator(vector: Sequence) -> tuple[int, tuple[int, ...]]:
    """The least common denominator D of a rational vector, and D times it."""
    from fractions import Fraction

    entries = [a if isinstance(a, Fraction) else Fraction(a) for a in vector]
    D = lcm(*(a.denominator for a in entries))
    return D, tuple(a.numerator * (D // a.denominator) for a in entries)


def monomial_phases(P: InvertiblePolynomial, D: int, scaled: Sequence[int]) -> tuple[int, ...]:
    """E*g for the diagonal symmetry g = scaled/D, on integers: entry i is
    the phase, in turns, by which g multiplies monomial i.  Raises
    NotInGroupError unless g has one entry per variable and every entry of
    E*g is an integer (g fixes P).  Takes a code and N, or `common_denominator(g)`."""
    if len(scaled) != P.num_vars:
        raise NotInGroupError(f"{len(scaled)} entries for {P.num_vars} variables")
    phases = []
    for i, row in enumerate(P.exponents):
        phase, rest = divmod(sum(e * x for e, x in zip(row, scaled)), D)
        if rest != 0:
            raise NotInGroupError(f"symmetry does not fix monomial {i}")
        phases.append(phase)
    return tuple(phases)


# One entry per pair {E, E^T}, keyed on the lesser orientation: a
# polynomial and its transpose share one elimination.
@lru_cache(maxsize=256)
def _exact_inverse(E: Matrix) -> tuple[tuple[int, Matrix, Matrix], ...]:
    """N = |det E|, B = N*E^{-1} (+-adj E) and the rows of A = B mod N, for E
    and then for E^T, from one elimination of E: N*(E^T)^{-1} is B^T.  Each
    orientation's E*B = N*I is checked once on integers and gives A*E = N*I:
    the columns and row sums of A are codes of symmetries of that
    polynomial, and its rows of the transpose's, never checked again."""
    det, adj = adjugate(E)
    N = abs(det)
    B = adj if det > 0 else tuple(tuple(-x for x in row) for row in adj)
    facts = []
    for M, inverse in ((E, B), (tuple(zip(*E)), tuple(zip(*B)))):
        if any(sum(e * b for e, b in zip(row, col)) != (N if i == j else 0)
               for i, row in enumerate(M) for j, col in enumerate(zip(*inverse))):
            raise InternalError(f"N*E^-1 for N = |det E| = {N} is not an integer inverse of E")
        facts.append((N, inverse, tuple(tuple(b % N for b in row) for row in inverse)))
    return tuple(facts)


def _inverse(E: Matrix) -> tuple[int, Matrix, Matrix]:
    """N, B and A of E, read off the one cache entry of {E, E^T}."""
    ET = tuple(zip(*E))
    return _exact_inverse(E)[0] if E <= ET else _exact_inverse(ET)[1]


def exponent_inverse(P: InvertiblePolynomial) -> tuple[tuple[Fraction, ...], ...]:
    """E^{-1} as `Fraction`s, the output view of the checked N*E^{-1}."""
    from fractions import Fraction

    N, B, _ = _inverse(P.exponents)
    return tuple(tuple(Fraction(b, N) for b in row) for row in B)


def exponent_determinant(P: InvertiblePolynomial) -> int:
    return _inverse(P.exponents)[0]


def fixes(P: InvertiblePolynomial, N: int, code: Code) -> bool:
    """True iff the symmetry code/N multiplies every monomial of P by 1;
    a code of the wrong length is a NotInGroupError."""
    if len(code) != P.num_vars:
        raise NotInGroupError(f"{len(code)} entries for {P.num_vars} variables")
    return all(sum(e * x for e, x in zip(row, code)) % N == 0 for row in P.exponents)


def encode(P: InvertiblePolynomial, g: Sequence) -> Code:
    """The code N*g mod N of a diagonal symmetry g of P, N = |det E|; raises
    NotInGroupError unless g has one entry per variable and fixes P."""
    if len(g) != P.num_vars:
        raise NotInGroupError(f"{format_vector(g)} has {len(g)} entries for {P.num_vars} variables")
    N = exponent_determinant(P)
    D, scaled = common_denominator(g)
    code = tuple(x * (N // D) % N for x in scaled)
    if N % D or not fixes(P, N, code):
        raise NotInGroupError(f"{format_vector(g)} does not fix the polynomial")
    return code


def decoder(N: int) -> Callable[[Code], tuple[Fraction, ...]]:
    """code -> code/N as a `Fraction` vector; each distinct entry is made once per decoder."""
    from fractions import Fraction

    entry = lru_cache(maxsize=None)(lambda x: Fraction(x, N))
    return lambda code: tuple(map(entry, code))


def dual_characters(P: InvertiblePolynomial) -> tuple[Code, ...]:
    """Row i of N*E^{-1} mod N, the dual character of x_i: a code of the
    transpose.  The columns generate Aut of P, and the row sums are j."""
    return _inverse(P.exponents)[2]


def inverse_codes(P: InvertiblePolynomial) -> tuple[int, tuple[Code, ...]]:
    """N = |det E| and the dual characters, from one read of the inverse."""
    N, _, A = _inverse(P.exponents)
    return N, A


def grading_code(P: InvertiblePolynomial) -> Code:
    """The code of j = E^{-1}*1 = [w_0/d, ..., w_n/d]: the row sums of N*E^{-1} mod N."""
    N, _, A = _inverse(P.exponents)
    return tuple(sum(row) % N for row in A)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def solve_weights(exponents: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Solve E*q = 1 exactly and scale to integer weights and degree.

    The degree is the least positive integer d such that all w_i = d*q_i are
    integral; that keeps every later charge denominator minimal.
    """
    n = len(exponents)
    if any(len(row) != n for row in exponents):
        raise NonSquareError("exponent matrix must be square")
    N, B, _ = _inverse(tuple(tuple(row) for row in exponents))
    sums = [sum(row) for row in B]  # N*q, as E^{-1}*1 = q
    if any(x <= 0 for x in sums):
        raise NonPositiveWeightError(
            f"weight vector {format_vector(sums, N)} has a non-positive entry")
    degree = N // gcd(N, *sums)
    return tuple(x * degree // N for x in sums), degree


# ---------------------------------------------------------------------------
# atom classification
# ---------------------------------------------------------------------------

def _row_candidates(row: Sequence[int], row_index: int) -> list[tuple[int, int | None]]:
    """Ways to read one monomial: (head variable, successor variable or None).

    A monomial can only be a pure power x_i^a (a >= 2) or a link x_i^a * x_j;
    anything else admits no Fermat/chain/loop decomposition.
    """
    support = [(j, e) for j, e in enumerate(row) if e > 0]
    if len(support) == 1:
        j, e = support[0]
        if e < 2:
            raise DegenerateShapeError(
                f"monomial {row_index} is a bare variable; tail exponents must be >= 2")
        return [(j, None)]
    if len(support) == 2:
        (i, ei), (j, ej) = support
        cands = []
        if ej == 1:
            cands.append((i, j))
        if ei == 1:
            cands.append((j, i))
        if not cands:
            raise DegenerateShapeError(
                f"monomial {row_index} is not of the form x^a or x^a*y")
        return sorted(cands)
    raise DegenerateShapeError(
        f"monomial {row_index} involves {len(support)} variables; at most 2 allowed")


def _check_variable_count(n: int) -> None:
    if n > MAX_VARIABLES:
        raise TooManyVariablesError(
            f"{n} variables exceed the supported maximum of {MAX_VARIABLES}")


def classify_atoms(exponents: Sequence[Sequence[int]]) -> tuple[Atom, ...]:
    """Decompose the exponent matrix into Fermat/chain/loop atoms.

    A reading of E picks, for each monomial, its head variable and the
    variable it points at (`_row_candidates`).  The readings are tried as
    one product over the rows, in row order and each row's readings in
    order, and the first that heads every variable once and points at each
    variable at most once is taken, so the result is deterministic.  Only
    x*y monomials (both exponents 1) have two readings, so with at most
    MAX_VARIABLES = 12 rows that is at most 2^12 combinations.  The atoms
    are read off that reading by one forward walk: from each variable that
    nothing points at (a chain, or a Fermat atom if it points nowhere),
    then around each loop from its lowest remaining variable.
    """
    n = len(exponents)
    _check_variable_count(n)
    E = tuple(tuple(int(e) for e in row) for row in exponents)
    for j in range(n):
        if all(E[i][j] == 0 for i in range(n)):
            raise DegenerateShapeError(f"variable {j} appears in no monomial")
    for reading in product(*(_row_candidates(E[i], i) for i in range(n))):
        targets = [s for _, s in reading if s is not None]
        if len({h for h, _ in reading}) == n and len(set(targets)) == len(targets):
            break
    else:
        raise DegenerateShapeError("no Fermat/chain/loop decomposition exists")
    succ = dict(reading)
    exponent = {h: E[r][h] for r, (h, _) in enumerate(reading)}
    atoms, seen = [], set()
    # from each chain's head first; every variable not yet walked lies on a loop
    for start in [*(v for v in range(n) if v not in targets), *range(n)]:
        walk, v = [], start
        while v is not None and v not in seen:
            seen.add(v)
            walk.append(v)
            v = succ[v]
        if walk:
            kind = "loop" if v is not None else "chain" if len(walk) > 1 else "fermat"
            atoms.append(Atom(kind, tuple(walk), tuple(exponent[u] for u in walk)))
    atoms.sort(key=lambda a: a.variables[0])
    return tuple(atoms)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def from_exponents(exponents: Sequence[Sequence[int]],
                   var_names: Sequence[str] | None = None) -> InvertiblePolynomial:
    """Build and validate a polynomial from its exponent matrix."""
    n = len(exponents)
    if any(len(row) != n for row in exponents):
        raise NonSquareError(
            f"{n} monomials on {len(exponents[0]) if exponents else 0} variables")
    _check_variable_count(n)  # before the cubic elimination in solve_weights
    E = tuple(tuple(int(e) for e in row) for row in exponents)
    if any(e < 0 for row in E for e in row):
        raise DegenerateShapeError("negative exponent")
    weights, degree = solve_weights(E)
    atoms = classify_atoms(E)
    names = tuple(var_names) if var_names is not None else tuple(f"x{i}" for i in range(n))
    return InvertiblePolynomial(n, E, weights, degree, atoms, names)


_TOKEN = re.compile(r"\s*(?:(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<num>\d+)|(?P<op>[+*^]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise PolynomialSyntaxError(f"unexpected character {text[pos:].strip()[0]!r}",
                                        len(text) - len(text[pos:].lstrip()))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


def parse_polynomial(text: str) -> InvertiblePolynomial:
    """Parse `mono (+ mono)*`, each mono `factor (* factor)*`,
    each factor `ident (^ uint)?`; whitespace is insignificant.

    Coefficients other than a literal 1 are rejected: the theory normalizes
    all coefficients to 1 by rescaling variables.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialSyntaxError("empty polynomial", 0)

    var_order: list[str] = []
    monomials: list[dict[str, int]] = []
    i = 0

    def expect_factor(mono: dict[str, int]) -> None:
        nonlocal i
        if i >= len(tokens):
            raise PolynomialSyntaxError("expected a variable", len(text))
        kind, value, pos = tokens[i]
        if kind == "num":
            if value != "1":
                raise PolynomialSyntaxError(f"coefficient {value} not allowed (must be 1)", pos)
            i += 1
            return
        if kind != "ident":
            raise PolynomialSyntaxError(f"expected a variable, found {value!r}", pos)
        name = value
        i += 1
        exp = 1
        if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "^":
            i += 1
            if i >= len(tokens) or tokens[i][0] != "num":
                raise PolynomialSyntaxError("expected an integer exponent",
                                            tokens[i][2] if i < len(tokens) else len(text))
            try:
                exp = int(tokens[i][1])
            except ValueError:  # more digits than `int` converts from text
                raise PolynomialSyntaxError("exponent has too many digits",
                                            tokens[i][2]) from None
            if exp < 1:
                raise PolynomialSyntaxError("exponent must be a positive integer", tokens[i][2])
            i += 1
        if name not in var_order:
            var_order.append(name)
        mono[name] = mono.get(name, 0) + exp

    while True:
        mono: dict[str, int] = {}
        expect_factor(mono)
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "*":
            i += 1
            expect_factor(mono)
        if not mono:
            raise PolynomialSyntaxError("monomial has no variables", tokens[i - 1][2])
        monomials.append(mono)
        if i >= len(tokens):
            break
        kind, value, pos = tokens[i]
        if kind != "op" or value != "+":
            raise PolynomialSyntaxError(f"expected '+', found {value!r}", pos)
        i += 1

    if len(monomials) != len(var_order):
        raise NonSquareError(
            f"{len(monomials)} monomials on {len(var_order)} variables")
    E = tuple(tuple(mono.get(name, 0) for name in var_order) for mono in monomials)
    return from_exponents(E, var_order)


def format_ratio(a: int, N: int) -> str:
    """a/N in lowest terms, for integers a and N > 0, on integers: the text
    `str(Fraction(a, N))` gives."""
    g = gcd(a, N)
    return str(a // g) if g == N else f"{a // g}/{N // g}"


def format_vector(g: Sequence, N: int = 1) -> str:
    """Render a code mod N, or a rational vector, as [a, b, ...]; every
    message and output line that shows a symmetry or key uses it.  Each
    entry, an int or a `Fraction`, is formatted on its numerator and
    denominator: the text `str(Fraction(a, N))` gives."""
    return "[" + ", ".join(format_ratio(a.numerator, a.denominator * N) for a in g) + "]"


def format_polynomial(P: InvertiblePolynomial) -> str:
    """Render back to the input grammar (deterministic)."""
    monos = []
    for row in P.exponents:
        factors = []
        for name, e in zip(P.var_names, row):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        monos.append("*".join(factors))
    return " + ".join(monos)


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def transpose(P: InvertiblePolynomial) -> InvertiblePolynomial:
    """Transpose the exponent matrix; variable order is preserved.

    Built from P's checked facts, with no second elimination or atom
    search: the weights are solved on E^T from the elimination of {E, E^T}
    and checked positive before anything else is read (`solve_weights`),
    and the atoms are read off P's (`_transposed_atoms`).  Memoized on P,
    so every request for the transpose of one polynomial returns the same
    object.  An input error names the polynomial whose transpose could not
    be built.
    """
    E = tuple(zip(*P.exponents))
    try:
        weights, degree = solve_weights(E)
    except InputError as exc:
        exc.args = (f"transpose of {format_polynomial(P)}: {exc}",)
        raise
    return InvertiblePolynomial(P.num_vars, E, weights, degree, _transposed_atoms(P), P.var_names)


def _transposed_atoms(P: InvertiblePolynomial) -> tuple[Atom, ...]:
    """The atoms of P^T, as `classify_atoms` reads them off E^T.

    The variables of P^T are the monomials of P: for an atom v_1 ... v_m of
    P, let r_i be the row headed by v_i.  Column v_i of E holds a_i in row
    r_i and 1 in row r_{i-1}, so in P^T monomial v_i is headed by r_i and
    points at r_{i-1}: a chain becomes r_m -> ... -> r_1 and a loop
    r_1 -> r_m -> ... -> r_2, walked from its lowest variable.  A loop whose
    exponents are all 1 is read either way round; `classify_atoms` takes
    the reading in which monomial min(v_i), the first of the loop's rows,
    is headed by the lesser of its two variables, and so does this.  The
    weights of P^T are positive (checked first), so a chain of P does not
    begin with exponent 1 and every monomial of P^T is a power or a link.
    """
    rows = {tuple((j, e) for j, e in enumerate(row) if e): i for i, row in enumerate(P.exponents)}
    atoms = []
    for kind, variables, exponents in P.atoms:
        m = len(variables)
        nexts = (*variables[1:], variables[0] if kind == "loop" else None)
        r = [rows[((v, a),) if w is None else tuple(sorted(((v, a), (w, 1))))]
             for v, a, w in zip(variables, exponents, nexts)]  # r[i] is headed by v_i
        if kind != "loop":
            order = [*range(m - 1, -1, -1)]
        else:
            first = variables.index(min(variables))
            if set(exponents) == {1} and r[first] > r[first - 1]:
                order = [*range(m)]  # the other way round: r_1 -> r_2 -> ... -> r_m
            else:
                order = [0, *range(m - 1, 0, -1)]
            start = order.index(min(order, key=r.__getitem__))
            order = order[start:] + order[:start]
        atoms.append(Atom(kind, tuple(r[i] for i in order), tuple(exponents[i] for i in order)))
    atoms.sort(key=lambda a: a.variables[0])
    return tuple(atoms)


def direct_sum(P: InvertiblePolynomial, Q: InvertiblePolynomial) -> InvertiblePolynomial:
    """Sum of two polynomials in disjoint variables (block-diagonal matrix)."""
    if set(P.var_names) & set(Q.var_names):
        raise NonSquareError("direct sum requires disjoint variable names")
    n, m = P.num_vars, Q.num_vars
    E = [row + (0,) * m for row in P.exponents]
    E += [(0,) * n + row for row in Q.exponents]
    return from_exponents(E, P.var_names + Q.var_names)


def is_calabi_yau(P: InvertiblePolynomial) -> bool:
    return sum(P.weights) == P.degree


def is_fermat_diagonal(P: InvertiblePolynomial) -> bool:
    return all(a.kind == "fermat" for a in P.atoms)


def split_cyclic(P: InvertiblePolynomial) -> tuple[int, InvertiblePolynomial]:
    """Split W = x0^k + f(x1..xn): x0 must occur exactly once, as a pure
    power in the first monomial (where the parser puts it), so that row 0 of
    E, and of its transpose, is x0^k.

    f is E without row and column 0.  Its weights are solved on that
    matrix; its atoms are W's without the Fermat atom (0,), the first, each
    index lowered by one: row 0 has one reading, so W's reading of the
    other rows is the one `classify_atoms` takes for f."""
    rows_with_x0 = [i for i in range(P.num_vars) if P.exponents[i][0] > 0]
    if len(rows_with_x0) != 1:
        raise NotCyclicSplitError(
            f"first variable {P.var_names[0]} occurs in {len(rows_with_x0)} monomials")
    r0 = rows_with_x0[0]
    row = P.exponents[r0]
    if any(e > 0 for j, e in enumerate(row) if j != 0):
        raise NotCyclicSplitError(
            f"the monomial containing {P.var_names[0]} is not a pure power")
    if r0 != 0:
        raise NotCyclicSplitError(
            f"{P.var_names[0]}^{row[0]} is row {r0} of the exponent matrix, not row 0")
    if P.num_vars < 2:
        raise NotCyclicSplitError("no remaining variables for the inner polynomial")
    E = tuple(other[1:] for other in P.exponents[1:])
    atoms = tuple(Atom(kind, tuple(v - 1 for v in variables), exponents)
                  for kind, variables, exponents in P.atoms[1:])
    return row[0], InvertiblePolynomial(P.num_vars - 1, E, *solve_weights(E), atoms,
                                        P.var_names[1:])


def restrict(P: InvertiblePolynomial, symmetry: Code) -> RestrictedPolynomial:
    """Restriction of P to the variables fixed by the symmetry with this code.

    The fixed set is read off the code's zero entries: a code lies in
    [0, N) and fixes P, checked where it was made (`encode`, or the group
    kernel in `symmetry`), not again here.  The restriction keeps the
    monomials whose variables are all fixed.  It is non-degenerate (as many
    monomials as fixed variables) exactly when each atom of P keeps none
    of its variables, a tail of its chain (a Fermat atom is a chain of
    one) or the whole loop; each kept part is a block, in the atom's order.
    Any other fixed set, or a code of the wrong length, is an error.
    """
    if len(symmetry) != P.num_vars:
        raise NotInGroupError(f"{len(symmetry)} entries for {P.num_vars} variables")
    fixed = fixed_variables(symmetry)
    blocks = []
    for atom in P.atoms:
        block = tuple([v for v in atom.variables if symmetry[v] == 0])
        if not block:
            continue
        if block != (atom.variables if atom.kind == "loop" else atom.variables[-len(block):]):
            survivors = sum(all(e == 0 or symmetry[j] == 0 for j, e in enumerate(row))
                            for row in P.exponents)
            raise DegenerateRestrictionError(
                f"{survivors} monomials survive on {len(fixed)} fixed variables")
        blocks.append(block)
    return RestrictedPolynomial(P, fixed, tuple(sorted(blocks)))


def fixed_variables(code: Code) -> tuple[int, ...]:
    """The variables a symmetry fixes: the zero entries of its code."""
    return tuple(i for i, x in enumerate(code) if x == 0)
