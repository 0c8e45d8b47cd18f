"""State spaces of invertible polynomials with a cyclic automorphism.

For W = x0^k + f and an admissible K, a state table collects the
K-invariant sector algebras (keys in the setup's Ann(K)) over the k^2
labelled cosets j^a s^b K, as integer cells (sector, key, p, q) ->
dimension: sector and key are codes (see `poly`), p and q numerators over
N = |det E|.  A sector's coset (a, b) is read off `setup.labels` and a
key's charges Q_j, Q_s off `setup.keys`, so every grading of an entry,
d_j = a/k, d_s = b/k and the redundant coordinates (X, Y, Z), follows
from its cell; side and Z are cross-checked when the table is built.
Entries split into a moving side (Q_s != 0) and a fixed side (Q_s = 0).
The twist exchanges the sides at constant (X, Y, Z) and elevators move
along Z: they act on cells, and one body, the library's only copy of
these maps, shifts a cell with p and q kept as numerators over N.  Both
builders take their cells from `milnor.shifted_cells`, which expands
each fixed set's series once and shifts it per sector; the slices,
`sector_cells` (the Q_j = 0 part, summed once per table) and the
vanishing check read the cells.  A label is only output: `entries`
decodes cells with one labeler, and nothing turns a label back into its
cell (a lookup reads a map from label to dimension that the view
decodes once).  With no invariance taken, the unprojected state space
is the map over every diagonal symmetry: `unprojected_cells` on
integers, `unprojected_state_space` decoded.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, ItemsView, Iterator, Mapping, ValuesView
from functools import lru_cache

from .errors import (
    DualityViolationError,
    NoSuchEntryError,
    SideMismatchError,
    ZOutOfRangeError,
)
from .milnor import shifted_cells
from .poly import (
    Code,
    InvertiblePolynomial,
    decoder,
    format_vector,
)
from .symmetry import AdmissibleSetup, Symmetry, aut_group

MOVING = "moving"
FIXED = "fixed"


# sector, key: Symmetry; p, q, dj, ds, qj, qs: Fraction; weight: int;
# side: str (MOVING or FIXED); x, y, z: int
StateLabel = namedtuple("StateLabel", "sector key p q dj ds qj qs weight side x y z")


IntegerCell = tuple[Code, Code, int, int]  # (sector, key, N*p, N*q)


class StateTable:
    """A state space as its integer cells (sector, key, N*p, N*q) ->
    dimension; the coset of a sector is `setup.labels[sector]` and the
    charges of a key are `setup.keys[key]`.  The cells are not changed
    once the table is made, so `sector_cells` sums them once per table."""

    __slots__ = ("setup", "cells", "_sector_cells")

    def __init__(self, setup: AdmissibleSetup, cells: dict[IntegerCell, int]):
        self.setup, self.cells = setup, cells
        self._sector_cells: dict[tuple[int, int, int, int, int], int] | None = None

    @property
    def entries(self) -> StateEntries:
        """The table as the read-only map `StateLabel` -> dimension."""
        return StateEntries(self.setup, self.cells)

    @property
    def total_dimension(self) -> int:
        return sum(self.cells.values())

    def dimensions_by(self, key_fn: Callable[[StateLabel], object]) -> dict:
        out: dict = {}
        for lab, dim in self.entries.items():
            k = key_fn(lab)
            out[k] = out.get(k, 0) + dim
        return out


class StateEntries(Mapping):
    """The cells of a table viewed as `StateLabel` -> dimension.  Iteration
    decodes the labels in cell order; the first lookup decodes the whole
    table once into a map label -> dimension, which later lookups share."""

    __slots__ = ("_cells", "_label", "_by_label")

    def __init__(self, setup: AdmissibleSetup, cells: dict[IntegerCell, int]):
        self._cells, self._label = cells, _labeler(setup)
        self._by_label: dict[StateLabel, int] | None = None

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self) -> Iterator[StateLabel]:
        return map(self._label, self._cells)

    def __getitem__(self, label: StateLabel) -> int:
        if self._by_label is None:
            self._by_label = dict(self.items())
        try:
            return self._by_label[label]
        except (KeyError, TypeError):  # TypeError: an unhashable key names no entry
            raise NoSuchEntryError(label) from None

    def items(self) -> ItemsView:
        return _DecodedItems(self)

    def values(self) -> ValuesView:
        return self._cells.values()


class _DecodedItems(ItemsView):
    """(label, dimension) pairs decoded in cell order, with no lookup per label."""

    def __iter__(self) -> Iterator[tuple[StateLabel, int]]:
        view = self._mapping
        return ((view._label(cell), dim) for cell, dim in view._cells.items())


def unprojected_cells(P: InvertiblePolynomial) -> dict[IntegerCell, int]:
    """Sum of the age-shifted sector algebras over every diagonal symmetry,
    with no invariance taken, on integers: the map (sector, key, p, q) ->
    dimension with sector and key codes and p, q numerators over N = |det E|."""
    return shifted_cells(P, aut_group(P).codes)


def unprojected_state_space(P: InvertiblePolynomial
                            ) -> dict[tuple[Symmetry, Symmetry, Fraction, Fraction], int]:
    """The decoded view of `unprojected_cells`: the map (sector, key, p, q)
    -> dimension with `Fraction` vectors and bidegrees."""
    decode = decoder(P.N)
    return {(decode(h), decode(key), *decode((p, q))): dim
            for (h, key, p, q), dim in unprojected_cells(P).items()}


def _coordinates(setup: AdmissibleSetup, sector: Code, key: Code) -> tuple[str, int, int]:
    """(side, Y, Z) of the entry of this sector and key, with the key's
    charges as the setup graded them; cross-check the redundant coordinates
    against the sector's coset (a, b)."""
    k, N = setup.k, setup.N
    a, b = setup.labels[sector]
    kqj, weight = setup.keys[key]
    side = MOVING if weight != 0 else FIXED
    if (side == MOVING) != ((a + b) % k == 0):
        raise DualityViolationError(
            f"side of sector {format_vector(sector, N)}, key {format_vector(key, N)} "
            "contradicts its coset label")
    z = weight if side == MOVING else (a + b) % k
    if z == 0:
        raise DualityViolationError(
            f"Z = 0 on entry {format_vector(sector, N)}, {format_vector(key, N)}")
    return side, (weight - kqj) % k, z


def _labeler(setup: AdmissibleSetup) -> Callable[[IntegerCell], StateLabel]:
    """cell -> its `StateLabel`, assembled from the part of its sector (code,
    d_j = a/k, d_s = b/k, X = a), the part of its key (code, Q_j, Q_s,
    weight), its decoded (p, q) and the side, Y and Z of `_coordinates`,
    checked per cell; each part, numerator over N and i/k is made once."""
    from fractions import Fraction

    decode, over_k = decoder(setup.N), [Fraction(i, setup.k) for i in range(setup.k)]
    sector_part = lru_cache(maxsize=None)(
        lambda h: (decode(h), *(over_k[c] for c in setup.labels[h]), setup.labels[h][0]))
    key_part = lru_cache(maxsize=None)(
        lambda key: (decode(key), *(over_k[c] for c in setup.keys[key]), setup.keys[key][1]))

    def label(cell: IntegerCell) -> StateLabel:
        sector, key, p, q = cell
        h, dj, ds, x = sector_part(sector)
        g, qj, qs, weight = key_part(key)
        side, y, z = _coordinates(setup, sector, key)
        return StateLabel(h, g, *decode((p, q)), dj, ds, qj, qs, weight, side, x, y, z)

    return label


def build_state_space(setup: AdmissibleSetup) -> StateTable:
    """The K-invariant state space over the labelled cosets j^a s^b K: the
    cells of each sector whose key lies in the setup's keys, Ann(K), with the
    side and Z of every entry cross-checked against its coset."""
    cells = shifted_cells(setup.W, setup.labels, setup.keys)
    for sector, key, _, _ in cells:
        _coordinates(setup, sector, key)
    return StateTable(setup, cells)


def fjrw_state_space(table: StateTable, b: int) -> StateTable:
    """The b-th FJRW slice: entries with Q_j = 0 in the cosets with d_s = b/k.

    Summing the slices over b recovers the whole Q_j = 0 part of the table.
    """
    setup = table.setup
    b %= setup.k
    return StateTable(setup, {cell: dim for cell, dim in table.cells.items()
                              if setup.keys[cell[1]][0] == 0 and setup.labels[cell[0]][1] == b})


# ---------------------------------------------------------------------------
# twist and elevators (dimension-preserving relabelings)
# ---------------------------------------------------------------------------

def _relabel(setup: AdmissibleSetup, cell: IntegerCell, name: str, side: str, out_side: str,
             z_new: int | None, move: Callable[[int], tuple[int, int, int, int]]
             ) -> IntegerCell:
    """The twist and the elevators on a cell at level Z: with (sector_power,
    key_power, dp, dq) = move(Z), sector * s^sector_power, key *
    s^key_power, (p, q) + (dp, dq)/k as numerators over N, and the image
    checked to land at (out_side, X, Y, z_new).  The twist changes the side
    and keeps Z; an elevator keeps the side and takes Z to z_new.  A cell
    that is not a 4-tuple of a sector and a key of the setup and two ints,
    all of type int (a float or bool hashes like one), names no entry."""
    k, N, labels = setup.k, setup.N, setup.labels
    try:  # not four fields, off the setup, an unhashable code, or a pair that no entry has
        sector, key, p, q = cell
        at_side, y, z = _coordinates(setup, sector, key)
    except (KeyError, TypeError, ValueError, DualityViolationError):
        raise NoSuchEntryError(cell) from None
    if not isinstance(cell, tuple) or not all(type(x) is int for x in (*sector, *key, p, q)):
        raise NoSuchEntryError(cell)
    if at_side != side:
        raise SideMismatchError(f"{name} applies to {side} entries")
    if out_side != side:
        z_new = z
    elif not isinstance(z_new, int) or not 0 < z_new < k:
        raise ZOutOfRangeError(f"target level {z_new!r} is not an integer in 1..{k - 1}")
    sector_power, key_power, dp, dq = move(z)
    image = (tuple((c + sector_power * t) % N for c, t in zip(sector, setup.s)),
             tuple((c + key_power * t) % N for c, t in zip(key, setup.s)))
    if ((*_coordinates(setup, *image), labels[image[0]][0])
            != (out_side, y, z_new, labels[sector][0])):
        raise DualityViolationError(f"{name} broke (X, Y, Z) at {format_vector(sector, N)}")
    return (*image, p + dp * N // k, q + dq * N // k)


def twist(setup: AdmissibleSetup, cell: IntegerCell) -> IntegerCell:
    """Move a moving cell to the fixed side at the same (X, Y, Z).

    Strips the x0-part of the form and multiplies the sector by s^Z; the
    bidegree transforms as (p, q) -> (p - 1 + 2Z/k, q).
    """
    return _relabel(setup, cell, "twist", MOVING, FIXED, None,
                    lambda z: (z, -z, 2 * z - setup.k, 0))


def elevator_moving(setup: AdmissibleSetup, cell: IntegerCell, z_new: int) -> IntegerCell:
    """Shift a moving cell from Z to z_new by the x0-multiplication map;
    (p, q) -> (p - (z_new - Z)/k, q + (z_new - Z)/k)."""
    return _relabel(setup, cell, "moving elevator", MOVING, MOVING, z_new,
                    lambda z: (0, z_new - z, z - z_new, z_new - z))


def elevator_fixed(setup: AdmissibleSetup, cell: IntegerCell, z_new: int) -> IntegerCell:
    """Shift a fixed cell from Z to z_new by multiplying the sector by a
    power of s; (p, q) -> (p + (z_new - Z)/k, q + (z_new - Z)/k)."""
    return _relabel(setup, cell, "fixed elevator", FIXED, FIXED, z_new,
                    lambda z: (z_new - z, 0, z_new - z, z_new - z))


# ---------------------------------------------------------------------------
# aggregations used by the mirror verifiers and the grids
# ---------------------------------------------------------------------------

def sector_cells(table: StateTable) -> dict[tuple[int, int, int, int, int], int]:
    """The Q_j = 0 part in one pass, (b, a, weight, p, q) -> dimension: row
    b = k*d_s is the slice `fjrw_state_space(table, b)`, column a = X, and
    p, q numerators over N.  Summed on the first call and kept by the
    table: the LG identities, the order-2 exchange and the sector grid of
    one table share it, and none of them changes it."""
    if table._sector_cells is None:
        table._sector_cells = _sum_sector_cells(table)
    return table._sector_cells


def _sum_sector_cells(table: StateTable) -> dict[tuple[int, int, int, int, int], int]:
    labels, keys = table.setup.labels, table.setup.keys
    sums: dict[tuple[int, int, int, int, int], int] = {}
    for (h, key, p, q), dim in table.cells.items():
        kqj, weight = keys[key]
        if kqj == 0:
            a, b = labels[h]
            cell = (b, a, weight, p, q)
            sums[cell] = sums.get(cell, 0) + dim
    return sums


def slice_weight_bidegrees(table: StateTable) -> dict[int, dict[tuple[int, int, int], int]]:
    """Per slice b: map (weight, p, q) -> dimension of the Q_j = 0 part, p
    and q numerators over N."""
    out: dict[int, dict] = {b: {} for b in range(table.setup.k)}
    for (b, _, weight, p, q), dim in sector_cells(table).items():
        out[b][weight, p, q] = out[b].get((weight, p, q), 0) + dim
    return out


def moving_vanishing_violations(table: StateTable) -> list[IntegerCell]:
    """Cells violating the vanishing rule: the moving Q_j = 0 part with
    X = b, Y = Z = t must be empty whenever k does not divide b*t."""
    setup = table.setup
    bad = []
    for cell in table.cells:
        kqj, weight = setup.keys[cell[1]]  # on the moving side, Z is the weight
        if weight != 0 and kqj == 0 and setup.labels[cell[0]][0] * weight % setup.k != 0:
            bad.append(cell)
    return bad
