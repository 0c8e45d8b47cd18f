"""Equivariant graded Milnor algebras of restricted polynomials.

The general engine is a power series in one variable t with coefficients
in the monoid ring over the dual symmetry group: the factor contributed by
a fixed variable x_i of weight w is

    chi_i t^w * (1 - chi_i^{-1} t^{d-w}) / (1 - chi_i t^w),

where chi_i is row i of the inverse exponent matrix of the parent (the
dual-group character of x_i).  The leading chi_i t^w accounts for the
volume-form factor dx_i, so a basis form prod x^{b-1} dx carries the key
prod chi_i^{b_i} at degree sum b_i w_i.

A non-degenerate restriction is a Thom-Sebastiani sum of Fermat, chain and
loop blocks (`RestrictedPolynomial.blocks`, which `restrict` reads off the
parent's atoms), so its algebra is the tensor product of theirs.  A
block's series, the product of its variables' factors, is exactly the
block's Hilbert polynomial, of degree the block's own socle degree
sum (d - w_i).  It is expanded by exact division: the numerators
chi_i t^w_i - t^d are multiplied out up to the socle degree, and the
product is divided by each 1 - chi_i t^w_i in turn with the one-term
recurrence Q[m] = S[m] + chi_i Q[m - w_i], one pass over the occupied
degrees rather than a convolution; an entry is dropped when it cancels to
0.  The series is checked when it is made (every multiplicity positive,
their sum the block's Milnor number) and cached on (P, block), since one
block recurs across fixed sets and tables.  A fixed set's series is the
product of its blocks' series.  That product is exact, so nothing is
truncated and nothing cancels, and it needs no reduction mod N: E^{-1} is
block-diagonal over the atoms of the parent, each block lies inside one of
them and no two inside the same one, so the keys of different blocks have
disjoint support.

Keys are codes mod N = |det E| (see `poly`), sums of the checked dual
characters, never checked again.  Direct monomial enumeration is kept for
Fermat-supported restrictions as an oracle independent of the series engine.

The series depends only on the parent and the fixed-variable set, not on
the sector, so `equivariant_hilbert` is memoized on the restriction (a
bounded cache keyed on parent and fixed variables; the returned series is
shared and never mutated).  Its checks run once per distinct fixed set.
`shifted_cells` is the one builder of a sector's cells: it turns each
distinct fixed set's series into terms (key, p, q, dimension) once,
keeping only the keys asked for, and adds each sector's age shift to them.
p and q are integer numerators over N, so a sector stays on integers until
a label or a report decodes it (see `statespace`).  `sector_algebra` is the
view of one sector.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Container, Iterable
from functools import lru_cache
from itertools import product
from operator import add

from .errors import InternalError, NotFermatError
from .poly import (
    Code,
    InvertiblePolynomial,
    RestrictedPolynomial,
    exponent_determinant,
    format_vector,
    inverse_codes,
    milnor_number,
    restrict,
    socle_degree,
)

SeriesCoefficients = dict[int, dict[Code, int]]  # keys as codes mod |det E|


class GroupRingSeries(namedtuple("GroupRingSeries", "coefficients")):
    """Finite map degree -> (dual-group key, a code -> positive multiplicity)."""

    # coefficients: SeriesCoefficients
    __slots__ = ()

    @property
    def total_dimension(self) -> int:
        return sum(sum(keys.values()) for keys in self.coefficients.values())


def _add_into(bucket: dict[Code, int], keys: dict[Code, int], sign: int,
              char: Code | None, N: int) -> None:
    """bucket += sign * chi * keys (chi = 1 when char is None), dropping
    each entry that reaches 0."""
    for key, c in keys.items():
        if char is not None:
            key = tuple([(x + y) % N for x, y in zip(key, char)])
        c = bucket.get(key, 0) + sign * c
        if c:
            bucket[key] = c
        else:
            del bucket[key]


def _binomials(P: InvertiblePolynomial, block: tuple[int, ...], bound: int,
               N: int, chars: tuple[Code, ...]) -> SeriesCoefficients:
    """prod (chi_i t^{w_i} - t^d) over the block's variables, up to the bound,
    chi_i = chars[i] being the dual characters of P.  Every factor raises the
    degree, so pruning each partial product at the bound loses nothing
    below it."""
    d = P.degree
    series: SeriesCoefficients = {0: {(0,) * P.num_vars: 1}}
    for i in block:
        char, w = chars[i], P.weights[i]
        out: SeriesCoefficients = {}
        for m, keys in series.items():
            if m + w <= bound:
                _add_into(out.setdefault(m + w, {}), keys, 1, char, N)
            if m + d <= bound:
                _add_into(out.setdefault(m + d, {}), keys, -1, None, N)
        series = {m: keys for m, keys in out.items() if keys}
    return series


def _divide(S: SeriesCoefficients, char: Code, w: int, bound: int, N: int) -> SeriesCoefficients:
    """S / (1 - chi t^w) up to the bound, by Q[m] = S[m] + chi Q[m - w].

    Each degree of S not yet reached starts a walk m, m + w, ... that goes
    on while the last Q[m] is non-zero or S has a term at the next step, so
    only occupied degrees are visited.  S is consumed: its buckets become
    Q's."""
    Q: SeriesCoefficients = {}
    for m in sorted(S):
        carry: dict[Code, int] = {}
        while m in S or carry:
            bucket = S.pop(m, {})
            _add_into(bucket, carry, 1, char, N)
            if bucket:
                Q[m] = bucket
            m += w
            if m > bound:
                break
            carry = bucket
    return Q


def _check_series(series: SeriesCoefficients, milnor: int, P: InvertiblePolynomial) -> None:
    """Every multiplicity is positive and they sum to the Milnor number."""
    total = 0
    for m, keys in series.items():  # each key is a sum of dual characters
        for key, mult in keys.items():
            if mult <= 0:
                raise InternalError(f"multiplicity {mult} of key "
                                    f"{format_vector(key, exponent_determinant(P))} at "
                                    f"degree {m} is not positive")
            total += mult
    if total != milnor:
        raise InternalError(f"series dimension {total} is not the Milnor number {milnor}")


# Blocks recur across the fixed sets of P and across its tables; each is
# expanded and checked once.
@lru_cache(maxsize=256)
def _block_series(P: InvertiblePolynomial, block: tuple[int, ...]) -> SeriesCoefficients:
    """The series of one block of a restriction, the block's Hilbert
    polynomial: the product of its variables' numerators up to the block's
    own socle degree, divided exactly by each denominator."""
    N, chars = inverse_codes(P)
    bound = socle_degree(P, block)
    series = _binomials(P, block, bound, N, chars)
    for i in block:
        series = _divide(series, chars[i], P.weights[i], bound, N)
    _check_series(series, milnor_number(P, block), P)
    return series


def _product(A: SeriesCoefficients, B: SeriesCoefficients) -> SeriesCoefficients:
    """The exact product of the series of disjoint blocks.  Their keys have
    disjoint support, so they add with no reduction mod N; the
    multiplicities are positive, so nothing cancels."""
    out: SeriesCoefficients = {}
    for ma, keys_a in A.items():
        for mb, keys_b in B.items():
            bucket = out.setdefault(ma + mb, {})
            for ka, ca in keys_a.items():
                for kb, cb in keys_b.items():
                    key = tuple(map(add, ka, kb))
                    bucket[key] = bucket.get(key, 0) + ca * cb
    return out


# A table asks for each of its fixed sets once; the cache serves the series
# again to the Milnor and oracle checks of `mirror.check_pair` and to later
# tables of P.
@lru_cache(maxsize=128)
def equivariant_hilbert(R: RestrictedPolynomial) -> GroupRingSeries:
    """Dual-group-graded Hilbert series of the Milnor algebra of R.

    Exact for every non-degenerate restriction: the partial derivatives of
    the restriction are simultaneous eigenvectors of the dual grading, so
    the Koszul closed form holds with characters attached.  R is the
    Thom-Sebastiani sum of its blocks, so the series is the product of
    theirs.
    """
    P = R.parent
    blocks = [_block_series(P, block) for block in R.blocks]
    series = blocks[0] if blocks else {0: {(0,) * P.num_vars: 1}}
    for block_series in blocks[1:]:
        series = _product(series, block_series)
    _check_series(series, R.milnor_dimension, P)
    return GroupRingSeries(series)


def fermat_monomial_basis(R: RestrictedPolynomial) -> list[tuple[tuple[int, ...], Code, int]]:
    """Monomial basis (b, key, degree) for Fermat-supported restrictions.

    Valid when every atom of the parent meeting the fixed set is a Fermat
    x_i^{k_i}; the basis is all b with 1 <= b_i <= k_i - 1 on the fixed
    variables, the first fixed variable outermost.  Serves as the
    independent oracle for the series engine.
    """
    P = R.parent
    fixed = set(R.fixed_vars)
    tops: dict[int, int] = {}
    for atom in P.atoms:
        touching = [v for v in atom.variables if v in fixed]
        if not touching:
            continue
        if atom.kind != "fermat":
            raise NotFermatError(
                f"variables {touching} lie in a {atom.kind} atom")
        tops[atom.variables[0]] = atom.exponents[0]
    N, chars = inverse_codes(P)
    basis = []
    for b in product(*(range(1, tops[i]) for i in R.fixed_vars)):
        terms = list(zip(b, R.fixed_vars))
        key = tuple(sum(bi * chars[i][v] for bi, i in terms) % N for v in range(P.num_vars))
        basis.append((b, key, sum(bi * P.weights[i] for bi, i in terms)))
    return basis


def shifted_cells(P: InvertiblePolynomial, sectors: Iterable[Code],
                  keys: Container[Code] | None = None) -> dict[tuple[Code, Code, int, int], int]:
    """The age-shifted algebras of the sectors, in the order given, as the
    cells (sector, key, p, q) -> dimension, with p and q integer numerators
    over N = |det E|.

    Degree m of the series of h's fixed set sits at q = m/d and
    p = #fixed - m/d, shifted by age(h) = sum(h)/N, because the entries of h
    lie in [0, N); so p + q - 2 age(h) = #fixed on every cell.  The fixed
    set is read off h's zero entries: the sectors are bucketed by which
    entries are zero, and each bucket's fixed set is restricted, and its
    series fetched and filtered to `keys` (every key when None), once, for
    its first sector, and shared by every later one.  d divides N, because
    every weight is a row sum of E^{-1}; that is checked once per call.
    """
    N = exponent_determinant(P)
    if N % P.degree:
        raise InternalError(f"degree {P.degree} does not divide |det E| = {N}")
    step = N // P.degree
    by_fixed_set: dict[tuple[bool, ...], list[tuple[Code, int, int, int]]] = {}
    cells = {}
    for h in sectors:
        moved = tuple(map(bool, h))  # the fixed set, as the entries h moves
        terms = by_fixed_set.get(moved)
        if terms is None:
            R = restrict(P, h)
            top = len(R.fixed_vars) * N
            terms = by_fixed_set[moved] = [
                (key, top - m * step, m * step, mult)
                for m, by_key in equivariant_hilbert(R).coefficients.items()
                for key, mult in by_key.items() if keys is None or key in keys]
        shift = sum(h)
        for key, p, q, mult in terms:
            cells[h, key, p + shift, q + shift] = mult
    return cells


def sector_algebra(P: InvertiblePolynomial, h: Code) -> list[tuple[tuple[Code, int, int], int]]:
    """Age-shifted algebra of the sector with code h as ((key, p, q),
    dimension) pairs, with every key kept; `dict()` of the list is its
    table.  p and q are integer numerators over N = |det E| (see
    `shifted_cells`)."""
    return [((key, p, q), mult) for (_, key, p, q), mult in shifted_cells(P, (h,)).items()]
