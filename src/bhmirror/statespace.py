"""State spaces of invertible polynomials with a cyclic automorphism.

For W = x0^k + f and an admissible K, the big state space collects the
K-invariant sector algebras over the k^2 labelled cosets j^a s^b K.  Every
entry carries four mod-1 gradings: the coset labels d_j = a/k, d_s = b/k
and the charges Q_j, Q_s of its dual-group key, packed redundantly into
coordinates (X, Y, Z) that are cross-checked at construction time.

Entries split into a moving side (Q_s != 0; the sector fixes x0, so the
cyclic symmetry acts on the form with nonzero weight) and a fixed side
(Q_s = 0).  The twist exchanges the two sides at constant (X, Y, Z);
elevators move along Z on either side.  Both are dimension-preserving
relabelings with prescribed bidegree shifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import (
    DualityViolationError,
    SideMismatchError,
    ZOutOfRangeError,
)
from .milnor import sector_algebra
from .poly import InvertiblePolynomial
from .symmetry import (
    DEFAULT_GROUP_CAP,
    AdmissibleSetup,
    Symmetry,
    add,
    annihilator,
    aut_group,
    embed_inner,
    neg,
    pairing,
    scale,
)

MOVING = "moving"
FIXED = "fixed"


@dataclass(frozen=True)
class StateLabel:
    sector: Symmetry
    key: Symmetry
    p: Fraction
    q: Fraction
    dj: Fraction
    ds: Fraction
    qj: Fraction
    qs: Fraction
    weight: int
    side: str
    x: int
    y: int
    z: int


@dataclass(frozen=True)
class StateTable:
    setup: AdmissibleSetup
    entries: dict[StateLabel, int]

    @property
    def total_dimension(self) -> int:
        return sum(self.entries.values())

    def filter(self, predicate: Callable[[StateLabel], bool]) -> "StateTable":
        return StateTable(self.setup,
                          {lab: dim for lab, dim in self.entries.items() if predicate(lab)})

    def dimensions_by(self, key_fn: Callable[[StateLabel], object]) -> dict:
        out: dict = {}
        for lab, dim in self.entries.items():
            k = key_fn(lab)
            out[k] = out.get(k, 0) + dim
        return out


@dataclass(frozen=True)
class UnprojectedTable:
    """Full double decomposition over all sectors, with no invariance taken."""

    polynomial: InvertiblePolynomial
    entries: dict[tuple[Symmetry, Symmetry, Fraction, Fraction], int]

    @property
    def total_dimension(self) -> int:
        return sum(self.entries.values())


def unprojected_state_space(P: InvertiblePolynomial,
                            cap: int = DEFAULT_GROUP_CAP) -> UnprojectedTable:
    """Sum of the age-shifted sector algebras over every diagonal symmetry."""
    entries: dict[tuple[Symmetry, Symmetry, Fraction, Fraction], int] = {}
    for h in aut_group(P, cap):
        alg = sector_algebra(P, h)
        for (key, p, q), dim in alg.table.items():
            label = (h, key, p, q)
            entries[label] = entries.get(label, 0) + dim
    return UnprojectedTable(P, entries)


def _make_label(setup: AdmissibleSetup, sector: Symmetry, key: Symmetry,
                p: Fraction, q: Fraction) -> StateLabel:
    """Assemble the full label and cross-check the redundant coordinates."""
    k = setup.k
    a, b = setup.labels[sector]
    dj = Fraction(a, k)
    ds = Fraction(b, k)
    qj = pairing(setup.W, setup.j, key)
    qs = pairing(setup.W, setup.s, key)
    if (k * qs) % 1 != 0 or (k * qj) % 1 != 0:
        raise DualityViolationError(
            f"charges ({qj}, {qs}) of key {key} are not multiples of 1/{k}")
    weight = int((k * qs) % k)
    side = MOVING if qs != 0 else FIXED
    if (side == MOVING) != ((a + b) % k == 0):
        raise DualityViolationError(
            f"side of sector {sector}, key {key} contradicts its coset label")
    x = a
    y = int((k * (qs - qj)) % k)
    z = weight if side == MOVING else (a + b) % k
    if z == 0:
        raise DualityViolationError(f"Z = 0 on entry {sector}, {key}")
    return StateLabel(sector, key, p, q, dj, ds, qj, qs, weight, side, x, y, z)


def build_state_space(setup: AdmissibleSetup, cap: int = DEFAULT_GROUP_CAP) -> StateTable:
    """The K-invariant state space over the labelled cosets j^a s^b K."""
    allowed = frozenset(annihilator(
        setup.W, (embed_inner(g) for g in setup.K_inner.generators),
        setup.K_inner.order, cap))
    entries: dict[StateLabel, int] = {}
    for coset in setup.cosets.values():
        for h in coset:
            alg = sector_algebra(setup.W, h)
            for (key, p, q), dim in alg.table.items():
                if key not in allowed:
                    continue
                label = _make_label(setup, h, key, p, q)
                entries[label] = entries.get(label, 0) + dim
    return StateTable(setup, entries)


def fjrw_state_space(table: StateTable, b: int) -> StateTable:
    """The b-th FJRW slice: entries with Q_j = 0 in the cosets with d_s = b/k.

    Summing the slices over b recovers the whole Q_j = 0 part of the table.
    """
    ds = Fraction(b % table.setup.k, table.setup.k)
    return table.filter(lambda lab: lab.qj == 0 and lab.ds == ds)


def weight_decomposition(table: StateTable) -> dict[int, StateTable]:
    """Group entries by the character k*Q_s of the cyclic symmetry action."""
    out: dict[int, dict[StateLabel, int]] = {}
    for lab, dim in table.entries.items():
        out.setdefault(lab.weight, {})[lab] = dim
    return {w: StateTable(table.setup, entries) for w, entries in sorted(out.items())}


def narrow_broad_split(table: StateTable) -> tuple[StateTable, StateTable]:
    """Narrow entries sit in sectors fixing no variables; broad is the rest."""
    narrow = table.filter(lambda lab: all(a != 0 for a in lab.sector))
    broad = table.filter(lambda lab: any(a == 0 for a in lab.sector))
    return narrow, broad


# ---------------------------------------------------------------------------
# twist and elevators (dimension-preserving relabelings)
# ---------------------------------------------------------------------------

def twist(setup: AdmissibleSetup, label: StateLabel) -> StateLabel:
    """Move a moving entry to the fixed side at the same (X, Y, Z).

    Strips the x0-part of the form and multiplies the sector by s^Z; the
    bidegree transforms as (p, q) -> (p - 1 + 2Z/k, q).
    """
    if label.side != MOVING:
        raise SideMismatchError("twist applies to moving entries")
    k = setup.k
    z = label.z
    sector = add(label.sector, scale(setup.s, z))
    key = add(label.key, neg(scale(setup.s, z)))
    p = label.p - 1 + Fraction(2 * z, k)
    q = label.q
    out = _make_label(setup, sector, key, p, q)
    if (out.side, out.x, out.y, out.z) != (FIXED, label.x, label.y, label.z):
        raise DualityViolationError(f"twist broke (X, Y, Z) at {label.sector}")
    return out


def elevator_moving(setup: AdmissibleSetup, label: StateLabel, z_new: int) -> StateLabel:
    """Shift a moving entry from Z to z_new by the x0-multiplication map;
    (p, q) -> (p - (z_new - Z)/k, q + (z_new - Z)/k)."""
    if label.side != MOVING:
        raise SideMismatchError("moving elevator applied to a fixed entry")
    k = setup.k
    if not 0 < z_new < k:
        raise ZOutOfRangeError(f"target level {z_new} outside 1..{k - 1}")
    delta = z_new - label.z
    key = add(label.key, scale(setup.s, delta))
    p = label.p - Fraction(delta, k)
    q = label.q + Fraction(delta, k)
    out = _make_label(setup, label.sector, key, p, q)
    if (out.side, out.x, out.y, out.z) != (MOVING, label.x, label.y, z_new):
        raise DualityViolationError(f"moving elevator broke (X, Y, Z) at {label.sector}")
    return out


def elevator_fixed(setup: AdmissibleSetup, label: StateLabel, z_new: int) -> StateLabel:
    """Shift a fixed entry from Z to z_new by multiplying the sector by a
    power of s; (p, q) -> (p + (z_new - Z)/k, q + (z_new - Z)/k)."""
    if label.side != FIXED:
        raise SideMismatchError("fixed elevator applied to a moving entry")
    k = setup.k
    if not 0 < z_new < k:
        raise ZOutOfRangeError(f"target level {z_new} outside 1..{k - 1}")
    delta = z_new - label.z
    sector = add(label.sector, scale(setup.s, delta))
    p = label.p + Fraction(delta, k)
    q = label.q + Fraction(delta, k)
    out = _make_label(setup, sector, label.key, p, q)
    if (out.side, out.x, out.y, out.z) != (FIXED, label.x, label.y, z_new):
        raise DualityViolationError(f"fixed elevator broke (X, Y, Z) at {label.sector}")
    return out


# ---------------------------------------------------------------------------
# aggregations used by the mirror verifiers and the grids
# ---------------------------------------------------------------------------

def slice_weight_bidegrees(table: StateTable) -> dict[int, dict[tuple[int, Fraction, Fraction], int]]:
    """Per slice b: map (weight, p, q) -> dimension of the Q_j = 0 part."""
    return {b: fjrw_state_space(table, b).dimensions_by(lambda lab: (lab.weight, lab.p, lab.q))
            for b in range(table.setup.k)}


def moving_vanishing_violations(table: StateTable) -> list[StateLabel]:
    """Labels violating the vanishing rule: the moving Q_j = 0 part with
    X = b, Y = Z = t must be empty whenever k does not divide b*t."""
    k = table.setup.k
    return [lab for lab in table.entries
            if lab.side == MOVING and lab.qj == 0 and (lab.x * lab.z) % k != 0]
