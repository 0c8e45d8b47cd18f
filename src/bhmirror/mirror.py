"""Mirror constructions and dimension-level theorem verifiers.

The mirror of (W, K) is (transpose of W, annihilator of the full coset
group), and the induced state spaces satisfy three families of exact
bigraded-dimension identities relating weight spaces of the slices of one
side to those of the other.  All checks here are exact integer identities
per bidegree cell; reports carry every compared cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DualityViolationError,
    NotAdmissibleError,
    NotCalabiYauError,
    NotFermatError,
)
from .poly import InvertiblePolynomial, is_calabi_yau, is_fermat_diagonal, transpose
from .statespace import (
    StateTable,
    UnprojectedTable,
    build_state_space,
    slice_weight_bidegrees,
    unprojected_state_space,
)
from .symmetry import (
    DEFAULT_GROUP_CAP,
    AdmissibleSetup,
    Symmetry,
    admissible_setup,
    annihilator,
    embed_inner,
    symmetry,
)

Cell = tuple


@dataclass(frozen=True)
class CheckItem:
    statement: str
    cell: Cell
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass
class VerificationReport:
    name: str
    items: list[CheckItem] = field(default_factory=list)
    cells_checked: int = 0

    @property
    def violations(self) -> list[CheckItem]:
        return [item for item in self.items if not item.ok]

    @property
    def passed(self) -> bool:
        return not self.violations

    def add(self, statement: str, cell: Cell, lhs: int, rhs: int) -> None:
        self.items.append(CheckItem(statement, cell, lhs, rhs))
        self.cells_checked += 1


# ---------------------------------------------------------------------------
# mirror pair construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MirrorPair:
    source: AdmissibleSetup
    source_table: StateTable
    target: AdmissibleSetup
    target_table: StateTable


def build_mirror_pair(W: InvertiblePolynomial,
                      K_generators: Iterable[Sequence[Fraction]] = (),
                      cap: int = DEFAULT_GROUP_CAP) -> MirrorPair:
    """Construct the transposed setup with the dual invariance group.

    The invariance group of the mirror is the annihilator of the whole
    coset group of the source; the mirror's own coset group must then
    coincide with the annihilator of K.  Both facts are verified and any
    failure is reported as a duality violation (a bug, not bad input).
    """
    setup = admissible_setup(W, K_generators, cap)
    K_gens = tuple(embed_inner(g) for g in setup.K_inner.generators)
    K_mirror_embedded = annihilator(W, (setup.j, setup.s) + K_gens,
                                    setup.group_order, cap)
    if any(h[0] != 0 for h in K_mirror_embedded):
        raise DualityViolationError(
            "the dual of the coset group does not fix the cyclic variable")
    K_mirror = tuple(h[1:] for h in K_mirror_embedded)
    try:
        mirror_setup = admissible_setup(transpose(W), K_mirror, cap)
    except NotAdmissibleError as exc:
        raise DualityViolationError(f"mirror group is not admissible: {exc}") from exc
    if mirror_setup.k != setup.k:
        raise DualityViolationError("cyclic exponents of the pair differ")

    if annihilator(W, K_gens, setup.K_inner.order, cap) != mirror_setup.G_elements:
        raise DualityViolationError(
            "dual of K does not equal the mirror coset group")

    return MirrorPair(setup, build_state_space(setup, cap),
                      mirror_setup, build_state_space(mirror_setup, cap))


# ---------------------------------------------------------------------------
# transpose duality of unprojected state spaces
# ---------------------------------------------------------------------------

def verify_krawitz(P: InvertiblePolynomial, cap: int = DEFAULT_GROUP_CAP) -> VerificationReport:
    """Check dim U_h^key(P) at (p, q) = dim U_key^h(transpose) at (N-p, q)
    for every sector/key pair, N the number of variables."""
    report = VerificationReport(name=f"krawitz[{P}]")
    N = P.num_vars
    U = unprojected_state_space(P, cap)
    Uv = unprojected_state_space(transpose(P), cap)
    cells = set(U.entries)
    cells.update((h, key, N - p, q) for (key, h, p, q) in Uv.entries)
    for cell in sorted(cells):
        h, key, p, q = cell
        lhs = U.entries.get(cell, 0)
        rhs = Uv.entries.get((key, h, N - p, q), 0)
        report.cells_checked += 1
        if lhs != rhs:
            report.items.append(CheckItem("krawitz", cell, lhs, rhs))
    return report


def thom_sebastiani_convolution(U1: UnprojectedTable, U2: UnprojectedTable) -> dict:
    """Label-level convolution of two unprojected tables: sectors and keys
    concatenate, bidegrees add."""
    out: dict = {}
    for (h1, k1, p1, q1), d1 in U1.entries.items():
        for (h2, k2, p2, q2), d2 in U2.entries.items():
            cell = (h1 + h2, k1 + k2, p1 + p2, q1 + q2)
            out[cell] = out.get(cell, 0) + d1 * d2
    return out


# ---------------------------------------------------------------------------
# explicit basis states for Fermat-diagonal polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FermatState:
    """Basis element of the unprojected state space of a diagonal polynomial.

    a encodes the sector as exponents of the one-variable generators, b the
    monomial form; exactly one of a_i, b_i is nonzero for every variable.
    """

    polynomial: InvertiblePolynomial
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        P = self.polynomial
        if not is_fermat_diagonal(P):
            raise NotFermatError("basis states exist only for diagonal polynomials")
        for i in range(P.num_vars):
            top = P.exponents[i][i]
            if not ((self.a[i] == 0) == (self.b[i] != 0)):
                raise ValueError(f"exponents a={self.a}, b={self.b} clash at {i}")
            if not (0 <= self.a[i] < top and 0 <= self.b[i] < top):
                raise ValueError(f"exponent out of range at variable {i}")

    @property
    def sector(self) -> Symmetry:
        P = self.polynomial
        return symmetry(Fraction(self.a[i] * P.weights[i], P.degree)
                        for i in range(P.num_vars))

    @property
    def key(self) -> Symmetry:
        P = self.polynomial
        return symmetry(Fraction(self.b[i] * P.weights[i], P.degree)
                        for i in range(P.num_vars))

    @property
    def bidegree(self) -> tuple[Fraction, Fraction]:
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
        raise ValueError(f"level {z_new} outside 1..{top - 1}")
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
    """
    _require_weight_sum_multiple(pair.source.W)
    k = pair.source.k
    n = pair.source.W.num_vars - 1
    slices = slice_weight_bidegrees(pair.source_table)
    slicesV = slice_weight_bidegrees(pair.target_table)
    report = VerificationReport(name="lg-mirror")

    # part 1
    cells = {(p, q) for (w, p, q) in slices[0] if w == 0}
    cells.update((n + 1 - p, q) for (w, p, q) in slicesV[0] if w != 0)
    for p, q in sorted(cells):
        lhs = slices[0].get((0, p, q), 0)
        rhs = sum(slicesV[0].get((i, n + 1 - p, q), 0) for i in range(1, k))
        report.add("part1", (p, q), lhs, rhs)

    # part 2
    for i in range(1, k):
        shift = Fraction(i, k)

        def padded(slc, b0, p, q):
            total = slc[i].get((0, p + shift, q + shift), 0)
            total += sum(b0.get((w, p + 1, q), 0) for w in range(1, k - i))
            total += sum(b0.get((w, p, q + 1), 0) for w in range(k - i + 1, k))
            return total

        cells = set()
        for (w, p, q) in slices[i]:
            if w == 0:
                cells.add((p - shift, q - shift))
        for (w, p, q) in slicesV[i]:
            if w == 0:
                cells.add((n - (p - shift), q - shift))
        for (w, p, q) in slices[0]:
            if 0 < w < k - i:
                cells.add((p - 1, q))
            elif w > k - i:
                cells.add((p, q - 1))
        for (w, p, q) in slicesV[0]:
            if 0 < w < k - i:
                cells.add((n - (p - 1), q))
            elif w > k - i:
                cells.add((n - p, q - 1))
        for p, q in sorted(cells):
            lhs = padded(slices, slices[0], p, q)
            rhs = padded(slicesV, slicesV[0], n - p, q)
            report.add(f"part2[i={i}]", (p, q), lhs, rhs)

    # part 3
    for b in range(1, k):
        for t in range(1, k):
            shift_l = Fraction(b, k)
            shift_r = Fraction(k - t, k)
            cells = {(p - shift_l, q - shift_l)
                     for (w, p, q) in slices[b] if w == t}
            cells.update((n - (p - shift_r), q - shift_r)
                         for (w, p, q) in slicesV[(k - t) % k] if w == (k - b) % k)
            statement = f"part3[b={b},t={t}]"
            if not cells:
                vacuous = (b * t) % k != 0
                report.add(statement + ("/vacuous" if vacuous else ""), (), 0, 0)
                continue
            for p, q in sorted(cells):
                lhs = slices[b].get((t, p + shift_l, q + shift_l), 0)
                rhs = slicesV[(k - t) % k].get(
                    ((k - b) % k, n - p + shift_r, q + shift_r), 0)
                report.add(statement, (p, q), lhs, rhs)
    return report


def _require_weight_sum_multiple(W: InvertiblePolynomial) -> None:
    if sum(W.weights) % W.degree != 0:
        raise NotAdmissibleError(
            f"weight sum {sum(W.weights)} is not a multiple of the degree "
            f"{W.degree}; the grading symmetry lies outside the special "
            "linear group and the mirror identities do not apply")


def verify_pair_duality(pair: MirrorPair) -> VerificationReport:
    """Per-cell transpose duality of the two state tables: the dimension at
    (sector, key, p, q) matches the mirror at (key, sector, N - p, q).
    Holds with no condition on the weights."""
    N = pair.source.W.num_vars
    lhs_cells = {(lab.sector, lab.key, lab.p, lab.q): dim
                 for lab, dim in pair.source_table.entries.items()}
    rhs_cells = {(lab.sector, lab.key, lab.p, lab.q): dim
                 for lab, dim in pair.target_table.entries.items()}
    report = VerificationReport(name="pair-duality")
    cells = set(lhs_cells)
    cells.update((key, sector, N - p, q) for (sector, key, p, q) in rhs_cells)
    for cell in sorted(cells):
        sector, key, p, q = cell
        lhs = lhs_cells.get(cell, 0)
        rhs = rhs_cells.get((key, sector, N - p, q), 0)
        report.cells_checked += 1
        if lhs != rhs:
            report.items.append(CheckItem("pair-duality", cell, lhs, rhs))
    return report


def verify_order2_exchange(pair: MirrorPair) -> VerificationReport:
    """The two identities special to k = 2: the plus/minus exchange on the
    untwisted slice and the self-mirror identity of the s-twisted slice."""
    _require_weight_sum_multiple(pair.source.W)
    k = pair.source.k
    if k != 2:
        raise NotAdmissibleError("the exchange corollary applies to k = 2 only")
    n = pair.source.W.num_vars - 1
    slices = slice_weight_bidegrees(pair.source_table)
    slicesV = slice_weight_bidegrees(pair.target_table)
    report = VerificationReport(name="order2-exchange")

    for sign, left, right in (("plus", 0, 1), ("minus", 1, 0)):
        cells = {(p, q) for (w, p, q) in slices[0] if w == left}
        cells.update((n + 1 - p, q) for (w, p, q) in slicesV[0] if w == right)
        for p, q in sorted(cells):
            lhs = slices[0].get((left, p, q), 0)
            rhs = slicesV[0].get((right, n + 1 - p, q), 0)
            report.add(f"exchange[{sign}]", (p, q), lhs, rhs)

    half = Fraction(1, 2)
    cells = {(p - half, q - half) for (w, p, q) in slices[1] if w == 0}
    cells.update((n - (p - half), q - half) for (w, p, q) in slicesV[1] if w == 0)
    if not cells:
        report.add("s-slice-self-mirror/vacuous", (), 0, 0)
    for p, q in sorted(cells):
        lhs = slices[1].get((0, p + half, q + half), 0)
        rhs = slicesV[1].get((0, n - p + half, q + half), 0)
        report.add("s-slice-self-mirror", (p, q), lhs, rhs)
    return report


# ---------------------------------------------------------------------------
# Calabi-Yau reindexing
# ---------------------------------------------------------------------------

def lg_to_cy_reindex(table: StateTable) -> StateTable:
    """Shift every bidegree by (-1, -1), translating state-space bidegrees
    into geometric ones.  Requires the Calabi-Yau weight condition."""
    if not is_calabi_yau(table.setup.W):
        raise NotCalabiYauError("reindexing requires sum of weights = degree")
    entries = {replace(lab, p=lab.p - 1, q=lab.q - 1): dim
               for lab, dim in table.entries.items()}
    return StateTable(table.setup, entries)
