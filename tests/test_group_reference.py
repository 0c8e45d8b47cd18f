"""The integer-coded group kernel against a plain `Fraction` reference.

The reference below is the straightforward encoding: a `Fraction`
Gauss-Jordan inverse, Aut's generators as the columns of E^{-1} mod 1, a
breadth-first closure over `Fraction` vectors mod 1, the pairing
(E*g) . h mod 1 in `Fraction` arithmetic, an annihilator that filters the
transpose's group by that pairing (and the same filter on codes, which
the kernel-basis annihilator replaced), key charges as dot products with
E*j and E*s, SL as the elements of integral age, the dual-group-graded
Milnor series expanded on `Fraction` keys and shifted by the age into a
sector algebra, the same series on codes as one product of per-variable
factors over the whole fixed set (the engine before the block product),
a block's series as its variables' truncated geometric expansions
convolved up to its socle degree (the engine before exact division),
the k^2 cosets j^a s^b K of a cyclic setup labelled by a triple loop, and
a restriction's blocks found by a second atom search on its surviving
rows (the engine before they were read off the parent's atoms), a report
that records one `CheckItem` per compared cell as it compares (the
engine before reports kept their maps), a state label assembled cell
by cell with four `Fraction`s of its own (the engine before labels were
assembled from per-sector and per-key parts), the atoms found by a
recursive search for a matching of monomials to head variables (the
engine before one product of readings and a forward walk), <j>, SL
and Aut spanned by `Fraction` vectors that `enumerate_group` encodes
(the engine before they were spanned by codes read off N*E^{-1}), and
the Fermat monomial basis by a recursion over the fixed variables (the
oracle before one product over their exponents).  The library holds
symmetries as codes mod |det E|; decoded, they must agree with the
reference element for element on random invertible polynomials of up to
four variables.
"""

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from bhmirror.catalog import ADMISSIBLE_CASES, KRAWITZ_POLYNOMIALS
from bhmirror.errors import (
    DegenerateRestrictionError,
    BHMirrorError,
    DegenerateShapeError,
    DualityViolationError,
    GradingCollisionError,
    NotAdmissibleError,
    NotFermatError,
    SideMismatchError,
    SingularExponentMatrixError,
    TooManyVariablesError,
    ZOutOfRangeError,
)
from bhmirror.milnor import (
    _block_series,
    equivariant_hilbert,
    fermat_monomial_basis,
    sector_algebra,
)
from bhmirror.mirror import (
    CheckItem,
    VerificationReport,
    build_mirror_pair,
    verify_krawitz,
    verify_lg_mirror,
    verify_order2_exchange,
    verify_pair_duality,
)
from bhmirror.poly import (
    MAX_VARIABLES,
    RestrictedPolynomial,
    _row_candidates,
    adjugate,
    classify_atoms,
    common_denominator,
    decoder,
    encode,
    exponent_inverse,
    fixed_variables,
    fixes,
    format_vector,
    from_exponents,
    grading_code,
    is_fermat_diagonal,
    monomial_phases,
    parse_polynomial,
    restrict,
    socle_degree,
    solve_weights,
    split_cyclic,
    transpose,
)
from bhmirror.statespace import (
    FIXED,
    MOVING,
    StateLabel,
    _coordinates,
    elevator_fixed,
    elevator_moving,
    twist,
    unprojected_cells,
    unprojected_state_space,
)
from bhmirror.symmetry import (
    SymmetryGroup,
    admissible_setup,
    annihilator,
    aut_group,
    dual_group,
    enumerate_group,
    grading_group,
    j_element,
    pairing,
    s_element,
    sl_subgroup,
    symmetry,
)


def identity(num_vars):
    """The identity symmetry as a `Fraction` vector."""
    return (Fraction(0),) * num_vars


def age(g):
    """Sum of the entries, taken with representatives in [0, 1), read off
    the integer code D*g mod D."""
    D, scaled = common_denominator(g)
    return Fraction(sum(x % D for x in scaled), D)


def ref_invert_matrix(rows):
    """Exact inverse and determinant by `Fraction` Gauss-Jordan elimination."""
    n = len(rows)
    aug = [[Fraction(rows[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularExponentMatrixError("exponent matrix is singular")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            det = -det
        det *= aug[col][col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug), det


def aut_generators(P):
    """Columns of the inverse exponent matrix, reduced mod 1."""
    inv = exponent_inverse(P)
    n = P.num_vars
    return tuple(symmetry(inv[i][j] for i in range(n)) for j in range(n))


def in_sl(g):
    """True iff the symmetry has determinant 1, i.e. integral age."""
    return age(g) % 1 == 0


def ref_symmetry(g):
    return tuple(Fraction(a) % 1 for a in g)


def ref_add(g, h):
    return tuple((a + b) % 1 for a, b in zip(g, h))


def ref_neg(g):
    return tuple((-a) % 1 for a in g)


def ref_scale(g, m):
    return tuple((m * a) % 1 for a in g)


def ref_closure(P, generators):
    gens = [ref_symmetry(g) for g in generators]
    elements = {(Fraction(0),) * P.num_vars}
    frontier = list(elements)
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                candidate = ref_add(e, g)
                if candidate not in elements:
                    elements.add(candidate)
                    nxt.append(candidate)
        frontier = nxt
    return tuple(sorted(elements))


def ref_pairing(P, g, h):
    total = Fraction(0)
    for i, row in enumerate(P.exponents):
        entry = sum(Fraction(e) * Fraction(a) for e, a in zip(row, g))
        assert entry % 1 == 0, f"left argument does not fix monomial {i}"
        total += entry * Fraction(h[i])
    return total % 1


def ref_annihilator(P, generators):
    Pv = transpose(P)
    full = ref_closure(Pv, aut_generators(Pv))
    return tuple(h for h in full if all(ref_pairing(P, g, h) == 0 for g in generators))


def old_annihilator(P, generators):
    """The closure-and-filter that the kernel-basis annihilator replaced:
    the codes of Aut of the transpose, sorted, with (E*g) . h = 0 mod N
    for every generator g."""
    N = P.N
    vectors = [monomial_phases(P, N, g) for g in generators]
    return tuple(h for h in aut_group(transpose(P)).codes
                 if all(sum(x * y for x, y in zip(v, h)) % N == 0 for v in vectors))


def old_key_charges(setup):
    """Each key's charges (k*Q_j mod k, k*Q_s mod k) as dot products of the
    key with E*j/N and E*s/N, the grading the setup read before."""
    k, W, N = setup.k, setup.W, setup.N
    vectors = (monomial_phases(W, N, setup.j), monomial_phases(W, N, setup.s))
    return {key: tuple(k * sum(x * y for x, y in zip(v, key)) // N % k for v in vectors)
            for key in setup.keys}


# kept per restriction: a table's sectors share few fixed sets, and no
# caller changes the map
@lru_cache(maxsize=256)
def ref_series(R):
    """Product over the fixed variables of chi t^w (1 - chi^{-1} t^{d-w}) /
    (1 - chi t^w), truncated at the socle degree, with `Fraction` keys."""
    P = R.parent
    n, d, bound = P.num_vars, P.degree, socle_degree(P, R.fixed_vars)
    series = {(0, ref_symmetry([0] * n)): 1}
    for i in R.fixed_vars:
        char, w = ref_symmetry(exponent_inverse(P)[i]), P.weights[i]
        factor = {}
        for r in range(1, bound // w + 1):
            factor[r * w, ref_symmetry(r * a for a in char)] = 1
        for r in range((bound - d) // w + 1 if bound >= d else 0):
            term = (d + r * w, ref_symmetry(r * a for a in char))
            factor[term] = factor.get(term, 0) - 1
        product = {}
        for (m1, k1), c1 in series.items():
            for (m2, k2), c2 in factor.items():
                if m1 + m2 <= bound:
                    term = (m1 + m2, ref_symmetry(a + b for a, b in zip(k1, k2)))
                    product[term] = product.get(term, 0) + c1 * c2
        series = product
    out = {}
    for (m, key), c in series.items():
        if c:
            out.setdefault(m, {})[key] = c
    return out


def multiply(A, B, bound, N):
    """The product of two series on codes, truncated at the bound."""
    out = {}
    for ma, keys_a in A.items():
        for mb, keys_b in B.items():
            m = ma + mb
            if m > bound:
                continue
            bucket = out.setdefault(m, {})
            for ka, ca in keys_a.items():
                for kb, cb in keys_b.items():
                    key = tuple((x + y) % N for x, y in zip(ka, kb))
                    c = bucket.get(key, 0) + ca * cb
                    if c == 0:
                        bucket.pop(key, None)
                    else:
                        bucket[key] = c
    return {m: keys for m, keys in out.items() if keys}


def variable_factor(char, w, d, bound, N):
    """chi t^w (1 - chi^{-1} t^{d-w}) / (1 - chi t^w), expanded to the bound."""
    out = {}
    r = 0
    while (r + 1) * w <= bound:
        bucket = out.setdefault((r + 1) * w, {})
        key = tuple((r + 1) * x % N for x in char)
        bucket[key] = bucket.get(key, 0) + 1
        r += 1
    r = 0
    while d + r * w <= bound:
        bucket = out.setdefault(d + r * w, {})
        key = tuple(r * x % N for x in char)
        c = bucket.get(key, 0) - 1
        if c == 0:
            del bucket[key]
        else:
            bucket[key] = c
        r += 1
    return {m: keys for m, keys in out.items() if keys}


def ref_block_series(P, block):
    """The product of the factors of the variables in `block`, each a
    truncated geometric expansion, convolved up to their socle degree."""
    N = P.N
    chars = P.characters
    bound = socle_degree(P, block)
    series = {0: {(0,) * P.num_vars: 1}}
    for i in block:
        series = multiply(series, variable_factor(chars[i], P.weights[i], P.degree, bound, N),
                          bound, N)
    return series


def ref_equivariant_hilbert(R):
    """The series of R on codes as one product of per-variable factors over
    all its fixed variables, truncated at the socle degree of the whole
    fixed set, where the terms past each block's own socle degree cancel."""
    return ref_block_series(R.parent, R.fixed_vars)


def ref_sector_algebra(P, h):
    """The series of the variables fixed by h, on `Fraction` keys, at
    q = age(h) + m/d and p = age(h) + #fixed - m/d."""
    fixed = tuple(i for i, a in enumerate(h) if a == 0)
    shift = sum(h, Fraction(0))
    out = {}
    for m, keys in ref_series(RestrictedPolynomial(P, fixed, ())).items():
        charge = Fraction(m, P.degree)
        for key, c in keys.items():
            out[key, shift + len(fixed) - charge, shift + charge] = c
    return out


def ref_fermat_monomial_basis(R):
    """The monomial basis (b, key, degree) of a Fermat-supported restriction
    by a recursion over its fixed variables, the first outermost, carrying
    the key and the degree down each branch."""
    P = R.parent
    fixed = set(R.fixed_vars)
    tops = {}
    for atom in P.atoms:
        touching = [v for v in atom.variables if v in fixed]
        if not touching:
            continue
        if atom.kind != "fermat":
            raise NotFermatError(f"variables {touching} lie in a {atom.kind} atom")
        tops[atom.variables[0]] = atom.exponents[0]
    N = P.N
    chars = P.characters
    basis = []

    def rec(pos, b, key, degree):
        if pos == len(R.fixed_vars):
            basis.append((tuple(b), key, degree))
            return
        i = R.fixed_vars[pos]
        for bi in range(1, tops[i]):
            rec(pos + 1, b + [bi], tuple((x + bi * c) % N for x, c in zip(key, chars[i])),
                degree + bi * P.weights[i])

    rec(0, [], (0,) * P.num_vars, 0)
    return basis


def ref_restriction_blocks(P, fixed):
    """The blocks of the restriction of P to the variables `fixed`: the rows
    of E supported on them must be as many as they are, and the atoms that
    `classify_atoms` finds in that square sub-matrix, in variables of P."""
    E = P.exponents
    rows = [i for i, row in enumerate(E)
            if all(e == 0 for j, e in enumerate(row) if j not in fixed)]
    if len(rows) != len(fixed):
        raise DegenerateRestrictionError(
            f"{len(rows)} monomials survive on {len(fixed)} fixed variables")
    if not fixed:
        return ()
    try:
        atoms = classify_atoms([[E[r][j] for j in fixed] for r in rows])
    except DegenerateShapeError as exc:
        raise DegenerateRestrictionError(f"restriction is degenerate: {exc}") from exc
    return tuple(tuple(fixed[v] for v in atom.variables) for atom in atoms)


def ref_atoms_from_matching(E, head, succ, head_row):
    """Turn a monomial/variable matching into atoms (kind, variables,
    exponents), chains walked back from their ends, or None if invalid."""
    n = len(head)
    indegree = [0] * n
    for v in range(n):
        if succ[v] is not None:
            indegree[succ[v]] += 1
            if indegree[succ[v]] > 1:
                return None
    pred = [None] * n
    for v in range(n):
        if succ[v] is not None:
            pred[succ[v]] = v
    atoms = []
    seen = [False] * n
    for t in range(n):
        if succ[t] is not None:
            continue
        chain = [t]
        while pred[chain[0]] is not None:
            chain.insert(0, pred[chain[0]])
        for v in chain:
            seen[v] = True
        exps = tuple(E[head_row[v]][v] for v in chain)
        atoms.append(("fermat" if len(chain) == 1 else "chain", tuple(chain), exps))
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        v = succ[start]
        while v is not None and v != start:
            if seen[v]:
                return None
            cycle.append(v)
            seen[v] = True
            v = succ[v]
        atoms.append(("loop", tuple(cycle), tuple(E[head_row[v]][v] for v in cycle)))
    atoms.sort(key=lambda a: a[1][0])
    return atoms


def ref_classify_atoms(exponents):
    """The atoms by a recursive search for a perfect matching of monomials to
    their head variables, rows in order and each row's readings in order,
    backtracking past a reused head or an invalid matching."""
    n = len(exponents)
    if n > MAX_VARIABLES:
        raise TooManyVariablesError(
            f"{n} variables exceed the supported maximum of {MAX_VARIABLES}")
    E = tuple(tuple(int(e) for e in row) for row in exponents)
    for j in range(n):
        if all(E[i][j] == 0 for i in range(n)):
            raise DegenerateShapeError(f"variable {j} appears in no monomial")
    candidates = [_row_candidates(E[i], i) for i in range(n)]
    head = [-1] * n
    head_row = [-1] * n
    succ = [None] * n

    def search(row):
        if row == n:
            return ref_atoms_from_matching(E, head, succ, head_row)
        for h, s in candidates[row]:
            if head_row[h] != -1:
                continue
            head[row], head_row[h], succ[h] = h, row, s
            result = search(row + 1)
            if result is not None:
                return result
            head[row], head_row[h], succ[h] = -1, -1, None
        return None

    atoms = search(0)
    if atoms is None:
        raise DegenerateShapeError("no Fermat/chain/loop decomposition exists")
    return atoms


def ref_coset_labels(W, generators):
    """The cosets j^a s^b K of W = x0^k + f, a outer and b inner, each
    element labelled (a, b) by a triple loop on `Fraction` vectors; the
    message of the first repeated element instead, if any."""
    k, f = split_cyclic(W)
    j, s = j_element(W), s_element(W)
    labels = {}
    for a in range(k):
        for b in range(k):
            shift = tuple((a * x + b * y) % 1 for x, y in zip(j, s))
            for g in ref_closure(f, generators):
                element = tuple((x + y) % 1 for x, y in zip(shift, (Fraction(0),) + g))
                if element in labels:
                    return (f"cosets {labels[element]} and {(a, b)} coincide; "
                            "the (d_j, d_s) grading is not single-valued")
                labels[element] = (a, b)
    return labels


def ref_report_items(calls):
    """The eager report: each compare call (statement, lhs, rhs, empty)
    records one `CheckItem` per cell of either map, in sorted order, a
    missing cell reading 0; two empty maps with `empty` given record that
    statement once at the cell (), zero against zero."""
    items = []
    for statement, lhs, rhs, empty in calls:
        if not (lhs or rhs) and empty is not None:
            statement, lhs = empty, {(): 0}
        for cell in sorted({*lhs, *rhs}):
            items.append(CheckItem(statement, cell, lhs.get(cell, 0), rhs.get(cell, 0)))
    return items


def ref_label(setup, sector, key, p, q, decode):
    """The label of an entry assembled cell by cell: the codes decoded and
    the four gradings made as `Fraction`s over k for this entry alone."""
    k = setup.k
    a, b = setup.labels[sector]
    kqj, weight = setup.keys[key]
    side, y, z = _coordinates(setup, sector, key)
    return StateLabel(decode(sector), decode(key), p, q, Fraction(a, k), Fraction(b, k),
                      Fraction(kqj, k), Fraction(weight, k), weight, side, a, y, z)


def ref_relabel(setup, label, name, side, out_side, z_new, sector_power, key_power, dp, dq):
    """The twist and the elevators with the image assembled by `ref_label`
    and its bidegree shifted by (dp, dq)/k in `Fraction` arithmetic."""
    if label.side != side:
        raise SideMismatchError(f"{name} applies to {side} entries")
    k, N = setup.k, setup.N
    if not 0 < z_new < k:
        raise ZOutOfRangeError(f"target level {z_new} outside 1..{k - 1}")
    sector = tuple((x + sector_power * y) % N
                   for x, y in zip(encode(setup.W, label.sector), setup.s))
    key = tuple((x + key_power * y) % N
                for x, y in zip(encode(transpose(setup.W), label.key), setup.s))
    out = ref_label(setup, sector, key, label.p + Fraction(dp, k), label.q + Fraction(dq, k),
                    decoder(N))
    if (out.side, out.x, out.y, out.z) != (out_side, label.x, label.y, z_new):
        raise DualityViolationError(f"{name} broke (X, Y, Z) at {format_vector(label.sector)}")
    return out


def ref_twist(setup, lab):
    z = lab.z
    return ref_relabel(setup, lab, "twist", MOVING, FIXED, z, z, -z, 2 * z - setup.k, 0)


def ref_elevator_moving(setup, lab, z_new):
    delta = z_new - lab.z
    return ref_relabel(setup, lab, "moving elevator", MOVING, MOVING, z_new, 0, delta, -delta, delta)


def ref_elevator_fixed(setup, lab, z_new):
    delta = z_new - lab.z
    return ref_relabel(setup, lab, "fixed elevator", FIXED, FIXED, z_new, delta, 0, delta, delta)


ATOMS = {
    "fermat": lambda a, b, c: [[a]],
    "chain2": lambda a, b, c: [[a, 1], [0, b]],
    "loop2": lambda a, b, c: [[a, 1], [1, b]],
    "chain3": lambda a, b, c: [[a, 1, 0], [0, b, 1], [0, 0, c]],
    "loop3": lambda a, b, c: [[a, 1, 0], [0, b, 1], [1, 0, c]],
}


@st.composite
def small_polynomials(draw, max_vars=4):
    """Block sums of Fermat, chain and loop atoms on at most `max_vars`
    variables, with exponents 2..4 and the variables shuffled; |det E| <= 260."""
    blocks = []
    n = 0
    for kind in draw(st.lists(st.sampled_from(sorted(ATOMS)), min_size=1, max_size=max_vars)):
        block = ATOMS[kind](*(draw(st.integers(2, 4)) for _ in range(3)))
        if n + len(block) <= max_vars:
            blocks.append(block)
            n += len(block)
    rows = []
    offset = 0
    for block in blocks:
        for row in block:
            rows.append([0] * offset + row + [0] * (n - offset - len(row)))
        offset += len(block)
    perm = draw(st.permutations(range(n)))
    return from_exponents([[row[perm[j]] for j in range(n)] for row in rows])


@st.composite
def polynomial_and_generators(draw):
    """A polynomial and a few elements of its group as generators, some
    written with unreduced entries."""
    P = draw(small_polynomials())
    elements = ref_closure(P, aut_generators(P))
    picks = draw(st.lists(st.integers(0, len(elements) - 1), max_size=3))
    shifts = draw(st.lists(st.integers(-2, 2), min_size=len(picks), max_size=len(picks)))
    gens = [tuple(a + s for a in elements[i]) for i, s in zip(picks, shifts)]
    return P, gens


@st.composite
def cyclic_setups(draw):
    """W = x0^k + f with f on at most 3 variables and k <= 12 a multiple of
    the denominator of age(j_f), and generators of K: j_f^k and up to two
    elements of SL_f.  K lies in SL_f; the cosets collide when j_f^a lies
    in K for some a < k.  x0^k is the first monomial, as the parser makes
    it and `split_cyclic` requires."""
    f = draw(small_polynomials(max_vars=3))
    k = age(j_element(f)).denominator * draw(st.integers(1, 3))
    assume(2 <= k <= 12)
    picks = draw(st.lists(st.sampled_from(sl_subgroup(f).elements), max_size=2))
    rows = [[0, *row] for row in f.exponents]
    W = from_exponents([[k] + [0] * f.num_vars] + rows)
    return W, [symmetry(k * a for a in j_element(f))] + picks


@settings(deadline=None, max_examples=40)
@given(small_polynomials())
def test_aut_group_matches_reference(P):
    group = aut_group(P)
    decode = decoder(P.N)
    assert tuple(map(decode, group.generators)) == tuple(ref_symmetry(g) for g in aut_generators(P))
    assert group.elements == ref_closure(P, aut_generators(P))


@settings(deadline=None, max_examples=40)
@given(polynomial_and_generators())
def test_enumerate_group_matches_reference(case):
    P, gens = case
    group = enumerate_group(P, gens)
    decode = decoder(P.N)
    assert tuple(map(decode, group.generators)) == tuple(ref_symmetry(g) for g in gens)
    assert group.elements == ref_closure(P, gens)


@settings(deadline=None, max_examples=40)
@given(polynomial_and_generators())
def test_annihilator_and_dual_match_reference(case):
    P, gens = case
    H = enumerate_group(P, gens)
    expected = ref_annihilator(P, gens)
    codes = annihilator(P, [encode(P, g) for g in gens], H.order)
    decode = decoder(P.N)
    assert tuple(map(decode, codes)) == expected
    dual = dual_group(H)
    assert dual.polynomial == transpose(P)
    assert tuple(map(decode, dual.generators)) == dual.elements == expected


@settings(deadline=None, max_examples=40)
@given(polynomial_and_generators(), st.data())
def test_pairing_matches_reference(case, data):
    P, gens = case
    duals = ref_closure(transpose(P), aut_generators(transpose(P)))
    h = duals[data.draw(st.integers(0, len(duals) - 1))]
    for g in gens:
        assert pairing(P, g, h) == ref_pairing(P, g, h)


def old_groups(P):
    """<j>, SL (the dual of <j^T>) and Aut by the old path: j and the
    columns of E^{-1} as `Fraction` vectors, each encoded by `enumerate_group`."""
    Pv = transpose(P)
    return (enumerate_group(P, (j_element(P),)),
            dual_group(enumerate_group(Pv, (j_element(Pv),))),
            enumerate_group(P, aut_generators(P)))


def assert_groups_match_old_path(P):
    """j's code decodes to `j_element`, and each group spanned by codes has
    the old group's generators and codes."""
    assert decoder(P.N)(grading_code(P)) == j_element(P)
    assert (grading_group(P), sl_subgroup(P), aut_group(P)) == old_groups(P)


@settings(deadline=None, max_examples=40)
@given(small_polynomials())
def test_groups_from_codes_match_old_path(P):
    assert_groups_match_old_path(P)


@pytest.mark.parametrize("text", sorted({case.polynomial for case in ADMISSIBLE_CASES}
                                        | set(KRAWITZ_POLYNOMIALS)))
def test_catalog_groups_from_codes_match_old_path(text):
    P = parse_polynomial(text)
    for Q in {P, transpose(P)}:
        assert_groups_match_old_path(Q)


@settings(deadline=None, max_examples=40)
@given(small_polynomials())
def test_sl_subgroup_matches_integral_age(P):
    expected = tuple(g for g in ref_closure(P, aut_generators(P)) if sum(g) % 1 == 0)
    assert sl_subgroup(P).elements == expected


@settings(deadline=None, max_examples=40)
@given(small_polynomials())
def test_series_matches_fraction_expansion(P):
    decode = decoder(P.N)
    fixed_sets = {restrict(P, h).fixed_vars: restrict(P, h) for h in aut_group(P).codes}
    for R in fixed_sets.values():
        series = equivariant_hilbert.__wrapped__(R).coefficients
        assert {m: {decode(key): c for key, c in keys.items()}
                for m, keys in series.items()} == ref_series(R)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=24), max_size=6))
def test_age_matches_fraction_sum(g):
    # entries >= 1 and negative entries reduce mod 1 like the `Fraction` sum
    assert age(g) == sum((a % 1 for a in g), Fraction(0))


@settings(deadline=None, max_examples=40)
@given(small_polynomials(), st.data())
def test_sector_algebra_matches_reference(P, data):
    # the sector is given unnormalized; its code reduces it mod 1
    elements = aut_group(P).elements
    h = elements[data.draw(st.integers(0, len(elements) - 1))]
    shift = data.draw(st.lists(st.integers(-2, 2), min_size=P.num_vars, max_size=P.num_vars))
    code = encode(P, tuple(a + s for a, s in zip(h, shift)))
    N = P.N
    decode = decoder(N)
    assert decode(code) == h
    assert {(decode(key), Fraction(p, N), Fraction(q, N)): dim
            for (key, p, q), dim in sector_algebra(P, code)} == ref_sector_algebra(P, h)


@settings(deadline=None, max_examples=25)
@given(small_polynomials())
def test_unprojected_map_matches_reference(P):
    # the integer map (codes, numerators over N) decoded by hand is the
    # public `Fraction` view, and both equal every sector's reference algebra
    N = P.N
    decode = decoder(N)
    decoded = {(decode(h), decode(key), Fraction(p, N), Fraction(q, N)): dim
               for (h, key, p, q), dim in unprojected_cells(P).items()}
    reference = {(h, *cell): dim
                 for h in aut_group(P).elements
                 for cell, dim in ref_sector_algebra(P, h).items()}
    assert unprojected_state_space(P) == decoded == reference


@pytest.mark.parametrize("name", [case.name for case in ADMISSIBLE_CASES])
def test_tables_match_key_filtered_reference(pair_cache, name):
    # each table's cells, in cell order, against the reference algebras of
    # its sectors with the keys outside Ann(K) left out: sector by sector
    # in label order, a sector's cells in the order of its one-sector
    # view, every dimension the reference's, and no reference cell missed
    pair = pair_cache(name)
    for table in (pair.source_table, pair.target_table):
        setup = table.setup
        W, N, decode = setup.W, setup.N, decoder(setup.N)
        keys = {decode(key) for key in setup.keys}
        expected = []
        for h in setup.labels:
            reference = {cell: dim for cell, dim in ref_sector_algebra(W, decode(h)).items()
                         if cell[0] in keys}
            for (key, p, q), _ in sector_algebra(W, h):
                if key in setup.keys:
                    cell = (decode(key), Fraction(p, N), Fraction(q, N))
                    expected.append(((h, key, p, q), reference.pop(cell, None)))
            assert reference == {}, f"cells of {decode(h)} left out: {sorted(reference)}"
        assert list(table.cells.items()) == expected


@pytest.mark.parametrize("text", sorted({case.polynomial for case in ADMISSIBLE_CASES}
                                        | {text for text in KRAWITZ_POLYNOMIALS
                                           if is_fermat_diagonal(parse_polynomial(text))}))
def test_fermat_basis_matches_recursion(text):
    # on every restriction, of W and of its transpose, to a fixed set of
    # Aut: the same basis in the same order where every atom it meets is
    # Fermat, and a `NotFermatError` from both elsewhere
    P = parse_polynomial(text)
    for Q in {P, transpose(P)}:
        restrictions = {fixed_variables(h): restrict(Q, h) for h in aut_group(Q).codes}
        for R in restrictions.values():
            try:
                expected = ref_fermat_monomial_basis(R)
            except NotFermatError:
                with pytest.raises(NotFermatError):
                    fermat_monomial_basis(R)
            else:
                assert fermat_monomial_basis(R) == expected


@settings(deadline=None, max_examples=60)
@given(cyclic_setups())
def test_coset_labels_match_reference(case):
    # the closure order of (K, s, j) against the triple loop: same labels
    # in the same coset order, or the same collision message; and the keys
    # are Ann(K)
    W, gens = case
    expected = ref_coset_labels(W, gens)
    try:
        setup = admissible_setup(W, enumerate_group(split_cyclic(W)[1], gens))
    except GradingCollisionError as exc:
        assert str(exc) == expected
    else:
        decode = decoder(setup.N)
        labels = {decode(code): ab for code, ab in setup.labels.items()}
        assert labels == expected
        assert list(labels.values()) == list(expected.values())
        assert {decode(key) for key in setup.keys} == \
            set(ref_annihilator(W, [(0, *g) for g in gens]))


def assert_members(P, codes):
    """Each code lies in [0, N)^n, N = |det E|, and fixes P."""
    N = P.N
    for code in codes:
        assert len(code) == P.num_vars and all(0 <= x < N for x in code), code
        assert fixes(P, N, code), code


@settings(deadline=None, max_examples=40)
@given(polynomial_and_generators())
def test_kernel_codes_are_members(case):
    # membership is checked where a code is made (`encode`, `_closure`,
    # `annihilator`) and nowhere later, so every code the kernel returns
    # must already be a member
    P, gens = case
    H = enumerate_group(P, gens)
    for group in (H, aut_group(P), sl_subgroup(P), dual_group(H)):
        assert_members(group.polynomial, group.generators + group.codes)


@settings(deadline=None, max_examples=40)
@given(small_polynomials())
def test_fixed_set_is_read_off_the_code(P):
    decode = decoder(P.N)
    for h in aut_group(P).codes:
        assert restrict(P, h).fixed_vars == \
            tuple(i for i, a in enumerate(ref_symmetry(decode(h))) if a == 0)


@settings(deadline=None, max_examples=40)
@given(cyclic_setups())
def test_setup_and_mirror_codes_are_members(case):
    # the labels and keys of both setups, and the mirror's K, which is made
    # from the annihilator's codes in `build_mirror_pair`
    W, gens = case
    try:
        pair = build_mirror_pair(W, enumerate_group(split_cyclic(W)[1], gens))
    except GradingCollisionError:
        return
    for setup in (pair.source, pair.target):
        K = setup.K_inner
        assert_members(K.polynomial, K.generators + K.codes)
        assert_members(setup.W, setup.labels)
        assert_members(transpose(setup.W), setup.keys)


@settings(deadline=None, max_examples=40)
@given(small_polynomials())
def test_checked_inverse_matches_encoded_fractions(P):
    # the codes read off N*E^{-1} mod N against the old path, each
    # `Fraction` column and row of E^{-1} encoded on its own: the columns
    # generate Aut, and the rows are the dual characters
    N = P.N
    columns = tuple(encode(P, g) for g in aut_generators(P))
    assert tuple(zip(*P.characters)) == aut_group(P).generators == columns
    assert P.characters == tuple(tuple(a.numerator * (N // a.denominator) % N for a in row)
                                       for row in exponent_inverse(P))


@settings(deadline=None, max_examples=40)
@given(small_polynomials(), st.integers(2, 5))
def test_records_carry_a_fresh_inverse(P, k):
    # P, its transpose, W = x0^k + P, the inner f that W splits off and f's
    # transpose each carry N = |det E|, N*E^{-1} and its residues mod N as
    # a fresh elimination of their own matrix gives them, though only a
    # parse eliminates; a transpose's atoms are those of its own matrix
    W = from_exponents([[k] + [0] * P.num_vars] + [[0, *row] for row in P.exponents],
                       ["w", *P.var_names])
    _, f = split_cyclic(W)
    assert f == P
    for Q in (P, transpose(P), W, f, transpose(f)):
        det, adj = adjugate(Q.exponents)
        assert Q.N == abs(det)
        assert Q.inverse == (adj if det > 0 else tuple(tuple(-b for b in row) for row in adj))
        assert Q.characters == tuple(tuple(b % Q.N for b in row) for row in Q.inverse)
    for Q in (P, W):
        assert transpose(Q).atoms == classify_atoms(tuple(zip(*Q.exponents)))


@settings(deadline=None, max_examples=40)
@given(cyclic_setups())
def test_setup_codes_match_encoded_fractions(case):
    # j_f^k (named by the trivial K when it is not the identity), j and s
    # of a setup against `encode` of `j_element` and `s_element`
    W, gens = case
    k, f = split_cyclic(W)
    N_f = f.N
    jf_k = tuple(k * x % N_f for x in encode(f, j_element(f)))
    if any(jf_k):
        message = f"j_f^{k} = {format_vector(jf_k, N_f)} is not in K"
        with pytest.raises(NotAdmissibleError, match=re.escape(message)):
            admissible_setup(W, enumerate_group(f, ()))
    try:
        setup = admissible_setup(W, enumerate_group(f, gens))
    except GradingCollisionError:
        return
    assert setup.j == encode(W, j_element(W))
    assert setup.s == encode(W, s_element(W))


@settings(deadline=None, max_examples=40)
@given(small_polynomials())
def test_series_keys_are_dual_characters(P):
    # the series checks no key: each is a sum of dual characters, read off
    # the checked inverse, so each must fix the transpose
    Pv, N = transpose(P), P.N
    fixed_sets = {restrict(P, h).fixed_vars: restrict(P, h) for h in aut_group(P).codes}
    for R in fixed_sets.values():
        for keys in equivariant_hilbert(R).coefficients.values():
            assert all(fixes(Pv, N, key) for key in keys)


@st.composite
def integer_matrices(draw):
    """Square integer matrices up to 6x6, sparse like exponent matrices but
    with negative entries too, so that pivots need row swaps, determinants
    take both signs and some matrices are singular."""
    n = draw(st.integers(1, 6))
    entries = st.sampled_from([0, 0, 0, 1, 1, 2, 3, 5, -1, -2])
    return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]


@settings(deadline=None, max_examples=200)
@given(integer_matrices())
def test_adjugate_matches_fraction_gauss_jordan(rows):
    try:
        inverse, det = ref_invert_matrix(rows)
    except SingularExponentMatrixError:
        with pytest.raises(SingularExponentMatrixError, match="exponent matrix is singular"):
            adjugate(rows)
        return
    assert adjugate(rows) == (det, tuple(tuple(det * a for a in row) for row in inverse))


@settings(deadline=None, max_examples=60)
@given(small_polynomials(), st.data())
def test_integer_inverse_matches_fraction_gauss_jordan(P, data):
    # the rows of E in every order: swaps in the elimination, and both signs
    # of det E; the inverse, N, the weights and the Milnor numbers match the
    # `Fraction` path
    perm = data.draw(st.permutations(range(P.num_vars)))
    E = [P.exponents[i] for i in perm]
    inverse, det = ref_invert_matrix(E)
    Q = from_exponents(E)
    assert Q.N == abs(det)
    assert exponent_inverse(Q) == inverse
    q = [sum(row) for row in inverse]
    degree = lcm(*(a.denominator for a in q))
    assert solve_weights(E) == (tuple(int(a * degree) for a in q), degree)
    for h in aut_group(Q).codes:
        R = restrict(Q, h)
        expected = Fraction(1)
        for i in R.fixed_vars:
            expected *= Fraction(degree - Q.weights[i], Q.weights[i])
        assert R.milnor_dimension == expected


@st.composite
def polynomial_and_subgroup(draw):
    """A polynomial and a subgroup of its symmetries, named by a preset or
    spanned by random elements, or a random subgroup with every code a
    generator, as the SL preset and the mirror's K are."""
    P, gens = draw(polynomial_and_generators())
    kind = draw(st.sampled_from(("trivial", "J", "SL", "full", "random", "all-codes")))
    if kind == "trivial":
        return P, enumerate_group(P, ())
    if kind == "J":
        return P, enumerate_group(P, (j_element(P),))
    if kind == "SL":
        return P, sl_subgroup(P)
    if kind == "full":
        return P, aut_group(P)
    H = enumerate_group(P, gens)
    return P, (H if kind == "random" else SymmetryGroup(P, H.codes, H.codes))


@settings(deadline=None, max_examples=80)
@given(polynomial_and_subgroup())
def test_kernel_basis_annihilator_matches_closure_and_filter(case):
    P, H = case
    assert annihilator(P, H.generators, H.order) == old_annihilator(P, H.generators)


@settings(deadline=None, max_examples=40)
@given(cyclic_setups())
def test_key_charges_match_dot_products(case):
    # sum(key) and key[0] against the dot products with E*j/N and E*s/N
    W, gens = case
    try:
        setup = admissible_setup(W, enumerate_group(split_cyclic(W)[1], gens))
    except GradingCollisionError:
        return
    assert list(setup.keys.items()) == list(old_key_charges(setup).items())


def assert_block_product(P):
    """Every fixed set of P: its blocks split it, one per atom of P met, and
    the product of their series is the per-variable product."""
    atom_of = {v: a for a, atom in enumerate(P.atoms) for v in atom.variables}
    for h in {fixed_variables(h): h for h in aut_group(P).codes}.values():
        R = restrict(P, h)
        homes = [{atom_of[v] for v in block} for block in R.blocks]
        assert all(len(home) == 1 for home in homes)
        assert len(set.union(set(), *homes)) == len(homes)
        assert sorted(v for block in R.blocks for v in block) == list(R.fixed_vars)
        assert all(_block_series(P, block) == ref_block_series(P, block) for block in R.blocks)
        assert equivariant_hilbert(R).coefficients == ref_equivariant_hilbert(R)


@pytest.mark.parametrize("text", sorted({case.polynomial for case in ADMISSIBLE_CASES}
                                        | set(KRAWITZ_POLYNOMIALS)))
def test_block_product_matches_per_variable_product(text):
    P = parse_polynomial(text)
    for Q in {P, transpose(P)}:
        assert_block_product(Q)


@settings(deadline=None, max_examples=40)
@given(small_polynomials())
def test_block_product_matches_on_shuffled_atoms(P):
    assert_block_product(P)


@pytest.mark.parametrize("text", ["x^20*y+y^20*x", "x^12*y+y^12*z+z^12*x",
                                  "x^10*y+y^10*z+z^11", "x^6*y+y^6*z+z^6*w+w^6*x"])
def test_block_series_matches_convolution_on_large_atoms(text):
    # long loops and chains, whose partial quotients cancel on the way to
    # the Hilbert polynomial: every block of every fixed set, divided afresh
    P = parse_polynomial(text)
    for Q in {P, transpose(P)}:
        blocks = {block for h in {fixed_variables(h): h for h in aut_group(Q).codes}.values()
                  for block in restrict(Q, h).blocks}
        assert blocks
        for block in blocks:
            assert _block_series.__wrapped__(Q, block) == ref_block_series(Q, block)


def assert_restrictions_match_reference(P):
    """Every subset of the variables, not only the fixed sets of symmetries:
    `restrict` gives the reference's blocks, or both raise alike."""
    n = P.num_vars
    for mask in range(1 << n):
        fixed = tuple(i for i in range(n) if mask >> i & 1)
        code = tuple(0 if i in fixed else 1 for i in range(n))
        try:
            blocks = ref_restriction_blocks(P, fixed)
        except DegenerateRestrictionError as exc:
            with pytest.raises(DegenerateRestrictionError) as info:
                restrict(P, code)
            assert str(info.value) == str(exc)
        else:
            R = restrict(P, code)
            assert (R.fixed_vars, R.blocks) == (fixed, blocks)


@pytest.mark.parametrize("text", sorted({case.polynomial for case in ADMISSIBLE_CASES}
                                        | set(KRAWITZ_POLYNOMIALS)))
def test_restriction_blocks_match_second_atom_search(text):
    P = parse_polynomial(text)
    for Q in {P, transpose(P)}:
        assert_restrictions_match_reference(Q)


@settings(deadline=None)
@given(small_polynomials())
def test_restriction_blocks_match_second_atom_search_on_shuffled_atoms(P):
    for Q in {P, transpose(P)}:
        assert_restrictions_match_reference(Q)


def assert_atoms_match_reference(E):
    """`classify_atoms` gives the reference's atoms, or both raise alike."""
    try:
        expected = ref_classify_atoms(E)
    except BHMirrorError as exc:
        with pytest.raises(BHMirrorError) as info:
            classify_atoms(E)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
    else:
        assert [tuple(atom) for atom in classify_atoms(E)] == expected


@pytest.mark.parametrize("text", sorted({case.polynomial for case in ADMISSIBLE_CASES}
                                        | set(KRAWITZ_POLYNOMIALS)))
def test_atoms_match_recursive_search(text):
    # the polynomial, its transpose and every square sub-matrix of rows
    # supported on a subset of the variables, which a restriction can pick
    P = parse_polynomial(text)
    for Q in {P, transpose(P)}:
        assert_atoms_match_reference(Q.exponents)
        E, n = Q.exponents, Q.num_vars
        for mask in range(1, 1 << n):
            fixed = [i for i in range(n) if mask >> i & 1]
            rows = [row for row in E if all(e == 0 for j, e in enumerate(row) if j not in fixed)]
            if len(rows) == len(fixed):
                assert_atoms_match_reference([[row[j] for j in fixed] for row in rows])


@st.composite
def two_term_matrices(draw):
    """Square matrices of up to 6 variables, row i x_h^a or x_h^a * x_t^b
    with h the i-th of a drawn permutation, so every variable occurs;
    exponents 1 are drawn often (x*y rows have two readings, a bare x_h
    none), and a pointer may meet another, so some have no decomposition."""
    n = draw(st.integers(1, 6))
    rows = []
    for h in draw(st.permutations(range(n))):
        row = [0] * n
        two = n > 1 and draw(st.integers(0, 3)) > 0
        row[h] = draw(st.sampled_from([1, 1, 2, 3] if two else [1, 2, 2, 3, 3]))
        if two:
            t = draw(st.integers(0, n - 2))
            row[t + (t >= h)] = draw(st.sampled_from([1, 1, 1, 2]))
        rows.append(row)
    return rows


@settings(deadline=None, max_examples=500)
@given(two_term_matrices())
def test_atoms_match_recursive_search_on_drawn_matrices(E):
    assert_atoms_match_reference(E)


def xy_path(n):
    """x0*x1 + x1*x2 + ... + x(n-2)*x(n-1) + x0^2 as an exponent matrix."""
    return [[int(j in (i, i + 1)) for j in range(n)] for i in range(n - 1)] + \
        [[2] + [0] * (n - 1)]


def test_every_xy_monomial_takes_its_second_reading():
    # x0^2 heads x0, so each x_i*x_(i+1) must head x_(i+1) and point at x_i:
    # the last of the 2^11 combinations, one chain from x11 down to x0
    E = xy_path(MAX_VARIABLES)
    atoms = classify_atoms(E)
    assert atoms == (("chain", tuple(range(11, -1, -1)), (1,) * 11 + (2,)),)
    assert [tuple(atom) for atom in atoms] == ref_classify_atoms(E)


@pytest.mark.parametrize("n", range(2, 9))
def test_xy_loops_match_recursive_search(n):
    assert_atoms_match_reference([[int(j in (i, (i + 1) % n)) for j in range(n)]
                                  for i in range(n)])


def test_twelve_variables_without_a_reading():
    # x0^2 heads x0, so every x0*x_k must point at x0: no combination is valid
    E = [[2] + [0] * 11] + [[1] + [int(j == k) for j in range(1, 12)] for k in range(1, 12)]
    with pytest.raises(DegenerateShapeError, match="no Fermat/chain/loop decomposition"):
        classify_atoms(E)
    assert_atoms_match_reference(E)


def assert_report_matches_reference(report, calls):
    """items, violations, cells_checked and passed as the eager report has them."""
    items = ref_report_items(calls)
    violations = [item for item in items if not item.ok]
    assert report.items == items
    assert report.violations == violations
    assert report.cells_checked == len(items)
    assert report.passed == (not violations)


report_cells = st.tuples(st.integers(0, 3), st.integers(0, 3))
report_maps = st.dictionaries(report_cells, st.integers(0, 2), max_size=6)


@st.composite
def comparisons(draw):
    """(statement, lhs, rhs, empty): equal maps, maps differing by explicit
    zeros on either side, maps on disjoint cells, unrelated maps, or two
    empty maps; `empty` is None or a statement."""
    lhs = draw(report_maps)
    kind = draw(st.sampled_from(["equal", "zeros", "disjoint", "unrelated", "empty"]))
    if kind == "equal":
        rhs = dict(lhs)
    elif kind == "zeros":
        # lhs's own zeros left out, and zeros at cells lhs lacks put in
        rhs = {cell: dim for cell, dim in lhs.items() if dim}
        rhs.update(dict.fromkeys(set(draw(st.lists(report_cells, max_size=3))) - set(lhs), 0))
    elif kind == "disjoint":
        rhs = {(a + 4, b): dim for (a, b), dim in draw(report_maps).items()}
    elif kind == "unrelated":
        rhs = draw(report_maps)
    else:
        lhs, rhs = {}, {}
    if draw(st.booleans()):
        lhs, rhs = rhs, lhs
    empty = draw(st.sampled_from([None, "vacuous"]))
    return draw(st.sampled_from(["s", "t"])), lhs, rhs, empty


@settings(deadline=None, max_examples=150)
@given(st.lists(comparisons(), max_size=5))
def test_report_matches_eager_reference(calls):
    report = VerificationReport([])
    for statement, lhs, rhs, empty in calls:
        report.compare(statement, dict(lhs), dict(rhs), empty)
    assert_report_matches_reference(report, calls)


@pytest.fixture
def compare_calls(monkeypatch):
    """The arguments of every `VerificationReport.compare` call, copied as
    they were passed."""
    calls = []
    real = VerificationReport.compare

    def recording(self, statement, lhs, rhs, empty=None):
        calls.append((statement, dict(lhs), dict(rhs), empty))
        real(self, statement, lhs, rhs, empty)

    monkeypatch.setattr(VerificationReport, "compare", recording)
    return calls


@pytest.mark.parametrize("case", ADMISSIBLE_CASES, ids=lambda case: case.name)
def test_catalog_reports_match_eager_reference(pair_cache, compare_calls, case):
    pair = pair_cache(case.name)
    checks = [verify_pair_duality, verify_lg_mirror]
    if pair.source.k == 2:
        checks.append(verify_order2_exchange)
    for verify in checks:
        compare_calls.clear()
        assert_report_matches_reference(verify(pair), compare_calls)


@pytest.mark.parametrize("text", KRAWITZ_POLYNOMIALS)
def test_krawitz_reports_match_eager_reference(compare_calls, text):
    report = verify_krawitz(parse_polynomial(text))
    assert_report_matches_reference(report, compare_calls)


def field_types(label):
    return [tuple(map(type, x)) if isinstance(x, tuple) else type(x) for x in label]


def relabel_outcome(relabel, *args):
    """The image with its field types, or the type of the error raised."""
    try:
        image = relabel(*args)
    except (SideMismatchError, ZOutOfRangeError) as exc:
        return type(exc)
    return image, field_types(image)


@pytest.mark.parametrize("name", [case.name for case in ADMISSIBLE_CASES] + ["octic"])
def test_labels_match_cell_by_cell_reference(pair_cache, name):
    # every entry of both tables, decoded through `entries`, against the label
    # assembled cell by cell; then the twist and the elevators of the source
    # entries, at every level, against the images assembled that way
    pair = (build_mirror_pair(parse_polynomial("x0^8+x1^8+x2^4+x3^2")) if name == "octic"
            else pair_cache(name))
    for table in (pair.source_table, pair.target_table):
        setup = table.setup
        decode = decoder(setup.N)
        labels = list(table.entries)
        assert len(labels) == len(table.cells)
        for lab, cell in zip(labels, table.cells):
            expected = ref_label(setup, cell[0], cell[1], *decode(cell[2:]), decode)
            assert lab == expected
            assert field_types(lab) == field_types(expected)
    setup = pair.source
    for lab in pair.source_table.entries:
        assert relabel_outcome(twist, setup, lab) == relabel_outcome(ref_twist, setup, lab)
        for z_new in range(setup.k + 1):
            for relabel, ref in ((elevator_moving, ref_elevator_moving),
                                 (elevator_fixed, ref_elevator_fixed)):
                assert (relabel_outcome(relabel, setup, lab, z_new)
                        == relabel_outcome(ref, setup, lab, z_new))
