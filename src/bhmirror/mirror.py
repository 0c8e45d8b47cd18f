"""Mirror constructions and dimension-level theorem verifiers.

The mirror of (W, K) is (transpose of W, dual of the coset group <K, j, s>,
the source's keys of charge (0, 0)); K is a `SymmetryGroup` on both sides,
made for the mirror from those key codes without decoding.  The induced state
spaces satisfy three families of exact bigraded-dimension identities
relating weight spaces of the slices of one side to those of the other.
All checks here are exact integer identities per bidegree cell; a report
keeps the integer maps it compared and decodes none, so a passing check is
one map equality, and its cells are listed only when read.  Transpose duality
(the Krawitz scan and pair duality) compares two maps on integer cells, the
source cells and the reflected mirror cells (for pair duality, the cells of
the two tables; for a self-transposed polynomial, its one map and itself):
sector and key are codes and p, q numerators over N = |det E|, which a
polynomial shares with its transpose.  The LG identities and the order-2
exchange compare (p, q) cells over the same N: N = k*|det E_f|, so the
shifts b/k, the pads 1 and the reflections at n and n+1 are the integers
b*N/k, N, n*N and (n+1)*N.  Cells keep state-space bidegrees;
`geometry.sector_grid` applies the (-1, -1) Calabi-Yau shift.
`check_pair` runs every check of one pair, as `bhmirror verify` does.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DualityViolationError, NotAdmissibleError, NotFermatError, ZOutOfRangeError
from .milnor import equivariant_hilbert, fermat_monomial_basis
from .poly import (
    InvertiblePolynomial,
    exponent_determinant,
    is_fermat_diagonal,
    restrict,
    transpose,
)
from .statespace import (
    build_state_space,
    moving_vanishing_violations,
    slice_weight_bidegrees,
    unprojected_cells,
)
from .symmetry import (
    Symmetry,
    SymmetryGroup,
    admissible_setup,
    symmetry,
)

Cell = tuple


class CheckItem(namedtuple("CheckItem", "statement cell lhs rhs")):
    """One compared cell: the integer cell at which lhs and rhs were read
    (numerators over N = |det E|, with codes for sector and key), or () for
    a statement recorded once, zero against zero, when both sides are empty."""

    # statement: str; cell: Cell; lhs, rhs: int
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


class VerificationReport(namedtuple("VerificationReport", "comparisons")):
    """The comparisons of one check, (statement, lhs, rhs) in call order,
    an equal pair kept as lhs against itself.  Each report is made as
    `VerificationReport([])`, so it owns its list.  A report passes when
    every pair is equal, or else when no cell of either map differs; the
    cells are derived on read, comparison by comparison and sorted within
    each, so a passing check makes no `CheckItem`."""

    # comparisons: list[tuple[str, dict[Cell, int], dict[Cell, int]]]
    __slots__ = ()

    @property
    def items(self) -> list[CheckItem]:
        return [CheckItem(statement, cell, lhs.get(cell, 0), rhs.get(cell, 0))
                for statement, lhs, rhs in self.comparisons
                for cell in sorted({*lhs, *rhs})]

    @property
    def cells_checked(self) -> int:
        return sum(len(lhs) if lhs is rhs else len({*lhs, *rhs})
                   for _, lhs, rhs in self.comparisons)

    @property
    def violations(self) -> list[CheckItem]:
        return [item for item in self.items if not item.ok]

    @property
    def passed(self) -> bool:
        return all(lhs is rhs for _, lhs, rhs in self.comparisons) or not self.violations

    def compare(self, statement: str, lhs: dict[Cell, int], rhs: dict[Cell, int],
                empty: str | None = None) -> None:
        """Record lhs against rhs, both maps cell -> dimension, compared at
        every cell of either map; a missing cell has dimension 0.  Equal
        maps are kept as lhs against itself, so rhs is not held.  When both
        maps are empty and `empty` is given, record that statement once at
        the empty cell (), zero against zero."""
        if not (lhs or rhs) and empty is not None:
            statement, lhs, rhs = empty, {(): 0}, {(): 0}
        self.comparisons.append((statement, lhs, lhs if lhs == rhs else rhs))


# ---------------------------------------------------------------------------
# mirror pair construction
# ---------------------------------------------------------------------------

# source, target: AdmissibleSetup; source_table, target_table: StateTable
MirrorPair = namedtuple("MirrorPair", "source source_table target target_table")


def build_mirror_pair(W: InvertiblePolynomial, K: SymmetryGroup | None = None) -> MirrorPair:
    """Construct the transposed setup with the dual invariance group.

    K is a group of f, for W = x0^k + f; None is the trivial group.  The
    invariance group of the mirror is the dual of the whole coset group of
    the source, the keys of charge (0, 0), of order |det E| / |G|: a group
    of the transpose of f whose codes mod N/k are h[1:] / k.  The mirror's
    own coset group must then coincide with the annihilator of K, and the
    source's coset group with the annihilator of the mirror's K.  These
    facts are verified and any failure is reported as a duality violation
    (a bug, not bad input).
    """
    setup = admissible_setup(W, K)
    K_mirror_embedded = tuple(h for h, charges in setup.keys.items() if charges == (0, 0))
    if any(h[0] != 0 or any(x % setup.k for x in h) for h in K_mirror_embedded):
        raise DualityViolationError("the mirror's K is not a group of the transpose of f")
    if len(K_mirror_embedded) * setup.group_order != setup.N:
        raise DualityViolationError(
            f"mirror K of order {len(K_mirror_embedded)} times group order "
            f"{setup.group_order} differs from |det E| = {setup.N}")
    codes = tuple(tuple(x // setup.k for x in h[1:]) for h in K_mirror_embedded)
    K_mirror = SymmetryGroup(transpose(setup.K_inner.polynomial), codes, codes)
    try:
        mirror_setup = admissible_setup(transpose(W), K_mirror)
    except NotAdmissibleError as exc:
        raise DualityViolationError(f"mirror group is not admissible: {exc}") from exc
    if mirror_setup.k != setup.k:
        raise DualityViolationError("cyclic exponents of the pair differ")
    if setup.keys.keys() != mirror_setup.labels.keys() or mirror_setup.keys.keys() != setup.labels.keys():
        raise DualityViolationError(
            "dual of K does not equal the mirror coset group")

    return MirrorPair(setup, build_state_space(setup),
                      mirror_setup, build_state_space(mirror_setup))


# ---------------------------------------------------------------------------
# transpose duality of unprojected state spaces
# ---------------------------------------------------------------------------

def verify_krawitz(P: InvertiblePolynomial) -> VerificationReport:
    """Check dim U_h^key(P) at (p, q) = dim U_key^h(transpose) at (n-p, q)
    for every sector/key pair, n the number of variables.  A self-transposed
    P builds its map once and compares it with itself."""
    lhs = unprojected_cells(P)
    Pv = transpose(P)
    return _transpose_duality("krawitz", P, lhs, lhs if Pv == P else unprojected_cells(Pv))


def _transpose_duality(statement: str, P: InvertiblePolynomial, lhs: dict[Cell, int],
                       rhs: dict[Cell, int]) -> VerificationReport:
    """Compare lhs, a map (sector, key, p, q) -> dimension on integers over
    N = |det E| of P, against rhs, the mirror's map over the same N, read
    at (key, sector, n*N - p, q), n the number of variables."""
    N = exponent_determinant(P)
    top = P.num_vars * N
    report = VerificationReport([])
    report.compare(statement, lhs, {(key, sector, top - p, q): dim
                                    for (sector, key, p, q), dim in rhs.items()})
    return report


def thom_sebastiani_convolution(U1: dict, U2: dict) -> dict:
    """Label-level convolution of two unprojected maps: sectors and keys
    concatenate, bidegrees add."""
    out: dict = {}
    for (h1, k1, p1, q1), d1 in U1.items():
        for (h2, k2, p2, q2), d2 in U2.items():
            cell = (h1 + h2, k1 + k2, p1 + p2, q1 + q2)
            out[cell] = out.get(cell, 0) + d1 * d2
    return out


# ---------------------------------------------------------------------------
# explicit basis states for Fermat-diagonal polynomials
# ---------------------------------------------------------------------------

# polynomial: InvertiblePolynomial; a, b: tuple[int, ...]
_FermatStateFields = namedtuple("_FermatStateFields", "polynomial a b")


class FermatState(_FermatStateFields):
    """Basis element of the unprojected state space of a diagonal polynomial.

    a encodes the sector as exponents of the one-variable generators, b the
    monomial form; exactly one of a_i, b_i is nonzero for every variable.
    """

    __slots__ = ()

    def __new__(cls, polynomial: InvertiblePolynomial, a: tuple[int, ...], b: tuple[int, ...]):
        P = polynomial
        if not is_fermat_diagonal(P):
            raise NotFermatError("basis states exist only for diagonal polynomials")
        if len(a) != P.num_vars or len(b) != P.num_vars:
            raise NotFermatError(
                f"a has {len(a)} and b {len(b)} entries for {P.num_vars} variables")
        for i in range(P.num_vars):
            top = P.exponents[i][i]
            if not ((a[i] == 0) == (b[i] != 0)):
                raise NotFermatError(f"exponents a={a}, b={b} clash at {i}")
            if not (0 <= a[i] < top and 0 <= b[i] < top):
                raise NotFermatError(f"exponent out of range at variable {i}")
        return super().__new__(cls, polynomial, a, b)

    @property
    def sector(self) -> Symmetry:
        from fractions import Fraction

        P = self.polynomial
        return symmetry(Fraction(self.a[i] * P.weights[i], P.degree)
                        for i in range(P.num_vars))

    @property
    def key(self) -> Symmetry:
        from fractions import Fraction

        P = self.polynomial
        return symmetry(Fraction(self.b[i] * P.weights[i], P.degree)
                        for i in range(P.num_vars))

    @property
    def bidegree(self) -> tuple[Fraction, Fraction]:
        from fractions import Fraction

        P = self.polynomial
        qa = sum(Fraction(ai * w, P.degree) for ai, w in zip(self.a, P.weights))
        qb = sum(Fraction(bi * w, P.degree) for bi, w in zip(self.b, P.weights))
        count_b = sum(1 for bi in self.b if bi != 0)
        return (count_b - qb + qa, qb + qa)

    @property
    def label(self) -> tuple[Symmetry, Symmetry, Fraction, Fraction]:
        p, q = self.bidegree
        return (self.sector, self.key, p, q)


def fermat_states(P: InvertiblePolynomial) -> list[FermatState]:
    """All basis states: independent (a_i, b_i) choices per variable."""
    if not is_fermat_diagonal(P):
        raise NotFermatError("basis states exist only for diagonal polynomials")
    states = [((), ())]
    for i in range(P.num_vars):
        top = P.exponents[i][i]
        choices = [(0, b) for b in range(1, top)] + [(a, 0) for a in range(1, top)]
        states = [(a + (ai,), b + (bi,)) for a, b in states for ai, bi in choices]
    return [FermatState(P, a, b) for a, b in states]


def fermat_mirror_map(state: FermatState) -> FermatState:
    """The transpose-duality bijection: exchange the sector and form
    exponent vectors.  Involutive; flips (p, q) to (N - p, q)."""
    return FermatState(transpose(state.polynomial), state.b, state.a)


def fermat_twist(state: FermatState) -> FermatState:
    """Basis-level twist: strip the x0-part of the form and shift the
    sector by that power of the cyclic symmetry."""
    z = state.b[0]
    if z == 0:
        raise NotFermatError("twist needs a moving state (x0 occurs in the form)")
    a = (z,) + state.a[1:]
    b = (0,) + state.b[1:]
    return FermatState(state.polynomial, a, b)


def fermat_twist_inverse(state: FermatState) -> FermatState:
    z = state.a[0]
    if z == 0:
        raise NotFermatError("inverse twist needs a fixed state")
    a = (0,) + state.a[1:]
    b = (z,) + state.b[1:]
    return FermatState(state.polynomial, a, b)


def fermat_elevator_moving(state: FermatState, z_new: int) -> FermatState:
    if state.b[0] == 0:
        raise NotFermatError("moving elevator needs a moving state")
    top = state.polynomial.exponents[0][0]
    if not 0 < z_new < top:
        raise ZOutOfRangeError(f"level {z_new} outside 1..{top - 1}")
    return FermatState(state.polynomial, state.a, (z_new,) + state.b[1:])


# ---------------------------------------------------------------------------
# the three-part mirror theorem at the Landau-Ginzburg level
# ---------------------------------------------------------------------------

def verify_lg_mirror(pair: MirrorPair) -> VerificationReport:
    """Exact per-cell comparison of the three mirror identities.

    Part 1: the weight-0 part of slice 0 at (p, q) against the sum of the
    nonzero-weight parts of the mirror slice 0 at (n+1-p, q).

    Part 2 (each 0 < i < k): the weight-0 part of slice i shifted by
    (i/k, i/k), padded by slice-0 weight spaces shifted by (1, 0) for
    weights below k-i and by (0, 1) above, against the same construction
    on the mirror at (n-p, q).

    Part 3 (b, t nonzero): the weight-t part of slice b shifted by (b/k)
    against the weight-(k-b) part of the mirror slice k-t shifted by
    ((k-t)/k), at (n-p, q); empty-against-empty when the vanishing rule
    forces both sides to zero.

    The identities hold under the group hypothesis that the coset group
    consists of determinant-one symmetries, i.e. the weight sum is a
    multiple of the degree (weaker than the Calabi-Yau equality).

    Cells are (p, q) numerators over N = |det E|, shared by the two sides.
    """
    _require_weight_sum_multiple(pair.source.W)
    k, N = pair.source.k, pair.source.N
    n = pair.source.W.num_vars - 1
    slices = slice_weight_bidegrees(pair.source_table)
    slicesV = slice_weight_bidegrees(pair.target_table)
    report = VerificationReport([])
    report.compare("part1", *_part1(slices, slicesV, n, N, (0,), range(1, k)))
    for i in range(1, k):
        report.compare(f"part2[i={i}]", *_part2(slices, slicesV, n, N, k, i))
    for b in range(1, k):
        for t in range(1, k):
            statement = f"part3[b={b},t={t}]"
            shift_l = b * N // k
            shift_r = (k - t) * N // k
            report.compare(statement,
                           _cells((slices[b], (t,), shift_l, shift_l)),
                           _reflect(_cells((slicesV[k - t], (k - b,), shift_r, shift_r)), n * N),
                           empty=statement + ("/vacuous" if (b * t) % k != 0 else ""))
    return report


def _cells(*parts) -> dict[Cell, int]:
    """Sum weight spaces of slices into (p, q) cells.  Each part is
    (slice, weights, dp, dq): the entries (w, p, q) of the slice with w in
    weights go to the cell (p - dp, q - dq)."""
    out: dict[Cell, int] = {}
    for slc, weights, dp, dq in parts:
        for (w, p, q), dim in slc.items():
            if w in weights:
                cell = (p - dp, q - dq)
                out[cell] = out.get(cell, 0) + dim
    return out


def _reflect(cells: dict[Cell, int], m: int) -> dict[Cell, int]:
    """The mirror side of an identity: the value at (p, q) is read at (m - p, q)."""
    return {(m - p, q): dim for (p, q), dim in cells.items()}


def _part1(slices, slicesV, n, N, left, right) -> tuple[dict[Cell, int], dict[Cell, int]]:
    """The `left` weights of slice 0 at (p, q) against the `right` weights
    of the mirror slice 0 at (n+1-p, q), bidegrees over N."""
    return (_cells((slices[0], left, 0, 0)),
            _reflect(_cells((slicesV[0], right, 0, 0)), (n + 1) * N))


def _part2(slices, slicesV, n, N, k, i) -> tuple[dict[Cell, int], dict[Cell, int]]:
    """The padded weight-0 part of slice i against the same construction on
    the mirror at (n-p, q), bidegrees over N."""
    shift = i * N // k

    def padded(slc):
        return _cells((slc[i], (0,), shift, shift),
                      (slc[0], range(1, k - i), N, 0),
                      (slc[0], range(k - i + 1, k), 0, N))

    return padded(slices), _reflect(padded(slicesV), n * N)


def _require_weight_sum_multiple(W: InvertiblePolynomial) -> None:
    if sum(W.weights) % W.degree != 0:
        raise NotAdmissibleError(
            f"weight sum {sum(W.weights)} is not a multiple of the degree "
            f"{W.degree}; the grading symmetry lies outside the special "
            "linear group and the mirror identities do not apply")


def verify_pair_duality(pair: MirrorPair) -> VerificationReport:
    """Per-cell transpose duality of the two state tables: the dimension at
    (sector, key, p, q) matches the mirror at (key, sector, n - p, q), n the
    number of variables.  Holds with no condition on the weights."""
    return _transpose_duality("pair-duality", pair.source.W,
                              pair.source_table.cells, pair.target_table.cells)


def verify_order2_exchange(pair: MirrorPair) -> VerificationReport:
    """The two identities special to k = 2: the plus/minus exchange on the
    untwisted slice (LG part 1, and part 1 with the weights swapped) and the
    self-mirror identity of the s-twisted slice (LG part 2 at i = 1)."""
    _require_weight_sum_multiple(pair.source.W)
    if pair.source.k != 2:
        raise NotAdmissibleError("the exchange corollary applies to k = 2 only")
    n, N = pair.source.W.num_vars - 1, pair.source.N
    slices = slice_weight_bidegrees(pair.source_table)
    slicesV = slice_weight_bidegrees(pair.target_table)
    report = VerificationReport([])
    report.compare("exchange[plus]", *_part1(slices, slicesV, n, N, (0,), (1,)))
    report.compare("exchange[minus]", *_part1(slices, slicesV, n, N, (1,), (0,)))
    report.compare("s-slice-self-mirror", *_part2(slices, slicesV, n, N, 2, 1),
                   empty="s-slice-self-mirror/vacuous")
    return report


# ---------------------------------------------------------------------------
# the checks of one pair
# ---------------------------------------------------------------------------

def check_pair(pair: MirrorPair) -> list[tuple[str, VerificationReport]]:
    """The checks of one pair, named, in the order `bhmirror verify` prints
    them: each sector's series total against its Milnor number; for Fermat
    W, each series against monomial enumeration, degree by degree (the
    sides are key -> multiplicity maps); the cells the vanishing rule
    forces to zero against none; pair duality; the LG identities; and, when
    k = 2, the order-2 exchange.  The first two read a sector's fixed set
    only, so each distinct fixed set is restricted and expanded once.

    The Milnor check is a second reading of a fact the series engine
    already checks: `equivariant_hilbert` raises `InternalError` when a
    series' total is not the Milnor number, so with the real engine that
    report cannot fail, and a mismatch ends `verify` with exit 3."""
    W, table = pair.source.W, pair.source_table
    by_fixed_set: dict[tuple[bool, ...], list[tuple[int, ...]]] = {}
    for h in pair.source.labels:  # a fixed set is the entries h leaves at 0
        by_fixed_set.setdefault(tuple(map(bool, h)), []).append(h)
    dimensions, oracle = VerificationReport([]), VerificationReport([])
    for hs in by_fixed_set.values():
        R = restrict(W, hs[0])
        series = equivariant_hilbert(R)
        dimensions.compare("milnor-dimensions", dict.fromkeys(hs, series.total_dimension),
                           dict.fromkeys(hs, R.milnor_dimension))
        if is_fermat_diagonal(W):
            basis: dict = {}
            for _, key, degree in fermat_monomial_basis(R):
                keys = basis.setdefault(degree, {})
                keys[key] = keys.get(key, 0) + 1
            oracle.compare("fermat-oracle", basis, series.coefficients)
    vanishing = VerificationReport([])
    vanishing.compare("vanishing", {cell: table.cells[cell]
                                    for cell in moving_vanishing_violations(table)}, {})
    checks = [("milnor-dimensions", dimensions)]
    if is_fermat_diagonal(W):
        checks.append(("fermat-oracle", oracle))
    checks += [("vanishing", vanishing), ("pair-duality", verify_pair_duality(pair)),
               ("lg-mirror", verify_lg_mirror(pair))]
    if pair.source.k == 2:
        checks.append(("order2-exchange", verify_order2_exchange(pair)))
    return checks
