"""State spaces of invertible polynomials with a cyclic automorphism.

For W = x0^k + f and an admissible K, the big state space collects the
K-invariant sector algebras (keys in the setup's Ann(K)) over the k^2
labelled cosets j^a s^b K.  Every entry carries four mod-1 gradings: the
coset labels d_j = a/k, d_s = b/k and the charges Q_j, Q_s of its
dual-group key, read off the setup's keys and packed redundantly into
coordinates (X, Y, Z) that are cross-checked at construction time.  With
no invariance taken, the unprojected state space is the plain map
(sector, key, p, q) -> dimension over every diagonal symmetry:
`unprojected_cells` on integers, `unprojected_state_space` decoded.

Entries split into a moving side (Q_s != 0; the sector fixes x0, so the
cyclic symmetry acts on the form with nonzero weight) and a fixed side
(Q_s = 0).  The twist exchanges the two sides at constant (X, Y, Z);
elevators move along Z on either side.  Both are dimension-preserving
relabelings with prescribed bidegree shifts, sharing one body.  One pass
over the Q_j = 0 part, `sector_cells`, feeds the LG slices and the grid;
every other view of a table is one `dimensions_by` pass.  Sectors and keys
are codes (see `poly`) and the bidegrees p, q are integer numerators over
N = |det E| until a label, the unprojected map or a failed check decodes
them; `cell_decoder` is that decoding for a cell, and `table_cells` reads a
table's labels back as integer cells.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import (
    DualityViolationError,
    SideMismatchError,
    ZOutOfRangeError,
)
from .milnor import sector_algebra
from .poly import (
    Code,
    InvertiblePolynomial,
    decoder,
    encode,
    exponent_determinant,
    format_vector,
    transpose,
)
from .symmetry import AdmissibleSetup, Symmetry, aut_group

MOVING = "moving"
FIXED = "fixed"


class StateLabel(NamedTuple):
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


class StateTable(NamedTuple):
    setup: AdmissibleSetup
    entries: dict[StateLabel, int]

    @property
    def total_dimension(self) -> int:
        return sum(self.entries.values())

    def dimensions_by(self, key_fn: Callable[[StateLabel], object]) -> dict:
        out: dict = {}
        for lab, dim in self.entries.items():
            k = key_fn(lab)
            out[k] = out.get(k, 0) + dim
        return out


IntegerCell = tuple[Code, Code, int, int]  # (sector, key, N*p, N*q)


def unprojected_cells(P: InvertiblePolynomial) -> dict[IntegerCell, int]:
    """Sum of the age-shifted sector algebras over every diagonal symmetry,
    with no invariance taken, on integers: the map (sector, key, p, q) ->
    dimension with sector and key codes and p, q numerators over N = |det E|."""
    return {(h, key, p, q): dim
            for h in aut_group(P).codes
            for (key, p, q), dim in sector_algebra(P, h)}


def cell_decoder(N: int) -> Callable[[IntegerCell], tuple[Symmetry, Symmetry, Fraction, Fraction]]:
    """(sector, key, p, q) on integers over N -> the same cell as rationals."""
    decode = decoder(N)
    return lambda cell: (decode(cell[0]), decode(cell[1]), *decode(cell[2:]))


def unprojected_state_space(P: InvertiblePolynomial
                            ) -> dict[tuple[Symmetry, Symmetry, Fraction, Fraction], int]:
    """The decoded view of `unprojected_cells`: the map (sector, key, p, q)
    -> dimension with `Fraction` vectors and bidegrees."""
    decode = cell_decoder(exponent_determinant(P))
    return {decode(cell): dim for cell, dim in unprojected_cells(P).items()}


def _make_label(setup: AdmissibleSetup, sector: Code, coset: tuple[int, int], key: Code,
                p: Fraction, q: Fraction, decode: Callable[[Code], Symmetry]) -> StateLabel:
    """Assemble the label in coset (a, b) from codes, with the key's charges
    as the setup graded them; cross-check the redundant coordinates."""
    k, N = setup.k, setup.N
    a, b = coset
    kqj, weight = setup.keys[key]
    side = MOVING if weight != 0 else FIXED
    if (side == MOVING) != ((a + b) % k == 0):
        raise DualityViolationError(
            f"side of sector {format_vector(sector, N)}, key {format_vector(key, N)} "
            "contradicts its coset label")
    y = (weight - kqj) % k
    z = weight if side == MOVING else (a + b) % k
    if z == 0:
        raise DualityViolationError(
            f"Z = 0 on entry {format_vector(sector, N)}, {format_vector(key, N)}")
    return StateLabel(decode(sector), decode(key), p, q, Fraction(a, k), Fraction(b, k),
                      Fraction(kqj, k), Fraction(weight, k), weight, side, a, y, z)


def build_state_space(setup: AdmissibleSetup) -> StateTable:
    """The K-invariant state space over the labelled cosets j^a s^b K: the
    entries of each sector whose key lies in the setup's keys, Ann(K)."""
    decode = lru_cache(maxsize=None)(decoder(setup.N))  # each distinct code once
    rational = lru_cache(maxsize=None)(lambda x: Fraction(x, setup.N))  # each numerator once
    return StateTable(setup, {_make_label(setup, h, coset, key, rational(p), rational(q), decode): dim
                              for h, coset in setup.labels.items()
                              for (key, p, q), dim in sector_algebra(setup.W, h)
                              if key in setup.keys})


def table_cells(table: StateTable) -> dict[IntegerCell, int]:
    """The entries of a state table as integer cells (sector, key, p, q),
    read off the labels as numerators over N = |det E|."""
    N = table.setup.N

    def numerators(v: tuple[Fraction, ...]) -> tuple[int, ...]:
        return tuple(x.numerator * (N // x.denominator) for x in v)

    return {(numerators(lab.sector), numerators(lab.key), *numerators((lab.p, lab.q))): dim
            for lab, dim in table.entries.items()}


def fjrw_state_space(table: StateTable, b: int) -> StateTable:
    """The b-th FJRW slice: entries with Q_j = 0 in the cosets with d_s = b/k.

    Summing the slices over b recovers the whole Q_j = 0 part of the table.
    """
    ds = Fraction(b % table.setup.k, table.setup.k)
    return StateTable(table.setup, {lab: dim for lab, dim in table.entries.items()
                                    if lab.qj == 0 and lab.ds == ds})


# ---------------------------------------------------------------------------
# twist and elevators (dimension-preserving relabelings)
# ---------------------------------------------------------------------------

def _relabel(setup: AdmissibleSetup, label: StateLabel, name: str, side: str, out_side: str,
             z_new: int, sector_power: int, key_power: int, dp: int, dq: int) -> StateLabel:
    """The twist and the elevators: sector * s^sector_power, key * s^key_power,
    (p, q) + (dp, dq)/k, and the image checked to land at (out_side, X, Y, z_new)."""
    if label.side != side:
        raise SideMismatchError(f"{name} applies to {side} entries")
    k, N = setup.k, setup.N
    if not 0 < z_new < k:
        raise ZOutOfRangeError(f"target level {z_new} outside 1..{k - 1}")
    sector = tuple((x + sector_power * y) % N
                   for x, y in zip(encode(setup.W, label.sector), setup.s))
    key = tuple((x + key_power * y) % N
                for x, y in zip(encode(transpose(setup.W), label.key), setup.s))
    out = _make_label(setup, sector, setup.labels[sector], key,
                      label.p + Fraction(dp, k), label.q + Fraction(dq, k), decoder(N))
    if (out.side, out.x, out.y, out.z) != (out_side, label.x, label.y, z_new):
        raise DualityViolationError(f"{name} broke (X, Y, Z) at {format_vector(label.sector)}")
    return out


def twist(setup: AdmissibleSetup, label: StateLabel) -> StateLabel:
    """Move a moving entry to the fixed side at the same (X, Y, Z).

    Strips the x0-part of the form and multiplies the sector by s^Z; the
    bidegree transforms as (p, q) -> (p - 1 + 2Z/k, q).
    """
    z = label.z
    return _relabel(setup, label, "twist", MOVING, FIXED, z, z, -z, 2 * z - setup.k, 0)


def elevator_moving(setup: AdmissibleSetup, label: StateLabel, z_new: int) -> StateLabel:
    """Shift a moving entry from Z to z_new by the x0-multiplication map;
    (p, q) -> (p - (z_new - Z)/k, q + (z_new - Z)/k)."""
    delta = z_new - label.z
    return _relabel(setup, label, "moving elevator", MOVING, MOVING, z_new, 0, delta, -delta, delta)


def elevator_fixed(setup: AdmissibleSetup, label: StateLabel, z_new: int) -> StateLabel:
    """Shift a fixed entry from Z to z_new by multiplying the sector by a
    power of s; (p, q) -> (p + (z_new - Z)/k, q + (z_new - Z)/k)."""
    delta = z_new - label.z
    return _relabel(setup, label, "fixed elevator", FIXED, FIXED, z_new, delta, 0, delta, delta)


# ---------------------------------------------------------------------------
# aggregations used by the mirror verifiers and the grids
# ---------------------------------------------------------------------------

def sector_cells(table: StateTable) -> dict[tuple[int, int, int, Fraction, Fraction], int]:
    """The Q_j = 0 part in one pass, (b, a, weight, p, q) -> dimension: row
    b = k*d_s is the slice `fjrw_state_space(table, b)`, column a = X."""
    k = table.setup.k
    cells = table.dimensions_by(
        lambda lab: lab.qj == 0 and (int(lab.ds * k), lab.x, lab.weight, lab.p, lab.q))
    cells.pop(False, None)
    return cells


def slice_weight_bidegrees(table: StateTable) -> dict[int, dict[tuple[int, Fraction, Fraction], int]]:
    """Per slice b: map (weight, p, q) -> dimension of the Q_j = 0 part."""
    out: dict[int, dict] = {b: {} for b in range(table.setup.k)}
    for (b, _, weight, p, q), dim in sector_cells(table).items():
        out[b][weight, p, q] = out[b].get((weight, p, q), 0) + dim
    return out


def moving_vanishing_violations(table: StateTable) -> list[StateLabel]:
    """Labels violating the vanishing rule: the moving Q_j = 0 part with
    X = b, Y = Z = t must be empty whenever k does not divide b*t."""
    k = table.setup.k
    return [lab for lab in table.entries
            if lab.side == MOVING and lab.qj == 0 and (lab.x * lab.z) % k != 0]
