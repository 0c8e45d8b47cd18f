"""Geometric presentation: sector grids, K3 table patterns, lattice mirrors.

A sector grid arranges the Q_j = 0 part of a state table into a k x k
array: row b collects the cosets with d_s = b/k, column a those with
d_j = a/k.  In the Calabi-Yau case bidegrees are reindexed by (-1, -1)
and then shifted down by (b/k, b/k) per row, which lands every cell on
integer positions (the cohomology of the corresponding fixed locus).  The
grid keeps one map, read off `statespace.sector_cells`, whose bidegrees
are numerators over N = |det E|: a Calabi-Yau grid subtracts N + b*N/k on
integers and divides by N, and any other grid decodes them to rationals
for display.

For K3 setups (four variables, Calabi-Yau) with a cyclic order k in
K3_ORDERS (4, or an odd prime p with p - 1 dividing 24), the whole grid is
one closed-form pattern in a handful of integer parameters: row b is the
cohomology of Fix(s^b).  Row 0 holds the untwisted middle, then columns
f_1 ... f_{k-1}; each row b >= 1 opens with f0, the fixed curves, and
cell (b, t) is empty where k divides b + t, f_t where b + t < k, and f_t
shifted by (-1, -1) beyond.  Order 4 overrides one cell: (2, 2) holds the
fixed locus of s^2.  One fit reads the parameters off designated cells
and rebuilds the grid; fitting is strict, any residual cell mismatch is
an error.  `k3_read_off` fits both tables of a mirror pair and reads the
K3 relations of the two fits (`k3_corollaries`): the fixed-locus
invariants, and at a prime order the invariant lattices, of both sides.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (
    DualityViolationError,
    NonIntegralLatticeError,
    PatternMismatchError,
)
from .poly import decoder, format_ratio, is_calabi_yau
from .statespace import StateTable, sector_cells

Diamond = dict[tuple, int]
WeightedDiamond = dict[tuple, int]   # (p, q, weight) -> dim


class SectorGrid(namedtuple("SectorGrid", "k num_vars calabi_yau weighted")):
    # k, num_vars: int; calabi_yau: bool; weighted: dict[tuple[int, int], WeightedDiamond]
    __slots__ = ()

    def total(self, b: int, a: int) -> int:
        return sum(self.weighted.get((b, a), {}).values())

    def row_totals(self) -> list[list[int]]:
        return [[self.total(b, a) for a in range(self.k)] for b in range(self.k)]

    def cell(self, b: int, a: int) -> Diamond:
        """The (p, q) diamond of a cell, summed over the weights."""
        out: Diamond = {}
        for (p, q, _), dim in self.weighted.get((b, a), {}).items():
            out[(p, q)] = out.get((p, q), 0) + dim
        return out

    def weighted_cell(self, b: int, a: int) -> WeightedDiamond:
        return dict(self.weighted.get((b, a), {}))


def sector_grid(table: StateTable) -> SectorGrid:
    """Arrange the Q_j = 0 part by (d_s, d_j); reindex when Calabi-Yau."""
    k, N = table.setup.k, table.setup.N
    cy = is_calabi_yau(table.setup.W)
    decode = None if cy else decoder(N)
    weighted: dict[tuple[int, int], WeightedDiamond] = {}
    for (b, a, weight, p, q), dim in sector_cells(table).items():
        if cy:
            shift = N + b * N // k
            p, q = p - shift, q - shift
            if p % N or q % N:
                raise DualityViolationError(
                    f"non-integral display bidegree ({format_ratio(p, N)}, {format_ratio(q, N)}) "
                    f"in cell ({b}, {a})")
            p, q = p // N, q // N
        else:
            p, q = decode((p, q))
        weighted.setdefault((b, a), {})[(p, q, weight)] = dim
    return SectorGrid(k, table.setup.W.num_vars, cy, weighted)


# ---------------------------------------------------------------------------
# K3 pattern fitting
# ---------------------------------------------------------------------------

class K3Report(namedtuple("K3Report", "order params")):
    # order: int; params: dict[str, int], a, g (+ b, c for order 4) and their duals
    __slots__ = ()

    @property
    def kind(self) -> str:
        """The pattern fitted: "order4" or "prime"."""
        return "order4" if self.order == 4 else "prime"

    def dual(self) -> "K3Report":
        swapped = {}
        for name, value in self.params.items():
            other = name[:-5] if name.endswith("_dual") else name + "_dual"
            swapped[other] = value
        return K3Report(self.order, swapped)


# The cyclic orders of the K3 patterns: 4, and the odd primes p with p - 1
# dividing 24
K3_ORDERS = (3, 4, 5, 7, 13)


def _is_prime(k: int) -> bool:
    return k > 1 and all(k % i for i in range(2, int(k**0.5) + 1))


def _expected_grid(k: int, g: int, g_dual: int, a_dual: int, middle: int,
                   m0: WeightedDiamond, extra=()) -> dict:
    """Weighted diamonds of the generic K3 grid of order k in display
    coordinates, by the one rule above: the middle columns f_2 ... f_{k-2}
    carry `middle` at (1, 1), and `extra`, cell -> diamond, overrides cells."""
    f0 = {(0, 0, 0): g_dual, (1, 0, 0): g, (0, 1, 0): g, (1, 1, 0): g_dual}
    f = {t: {(1, 1, 0): middle} for t in range(2, k - 1)}
    f[1] = {(0, 0, 0): 1, (1, 1, 0): a_dual - 1}
    f[k - 1] = {(1, 1, 0): a_dual - 1, (2, 2, 0): 1}
    grid = {(0, 0): m0} | {(0, t): f[t] for t in range(1, k)}
    for b in range(1, k):
        grid[(b, 0)] = f0
        for t in range(1, k):
            drop = 0 if b + t < k else 1
            grid[(b, t)] = {} if (b + t) % k == 0 else {
                (p - drop, q - drop, w): v for (p, q, w), v in f[t].items()}
    grid.update(extra)
    return {cell: {pos: v for pos, v in diamond.items() if v != 0}
            for cell, diamond in grid.items()}


def _match_weighted(actual: WeightedDiamond, expected: WeightedDiamond) -> bool:
    """Compare weighted diamonds; expected weight -1 entries match the
    total dimension at that (p, q) across all weights."""
    exp_exact = {pos: v for pos, v in expected.items() if pos[2] != -1}
    exp_total = {(p, q): v for (p, q, w), v in expected.items() if w == -1}
    act_rest: dict[tuple, int] = {}
    for (p, q, w), v in actual.items():
        if (p, q, w) in exp_exact:
            continue
        act_rest[(p, q)] = act_rest.get((p, q), 0) + v
    if any(actual.get(pos, 0) != v for pos, v in exp_exact.items()):
        return False
    extra = {pos: v for pos, v in act_rest.items() if v != 0}
    return extra == exp_total


def require_k3_shape(calabi_yau: bool, num_vars: int, k: int) -> None:
    """Reject setups outside the K3 patterns: Calabi-Yau in four variables,
    with a cyclic order in K3_ORDERS."""
    if not calabi_yau or num_vars != 4:
        raise PatternMismatchError(
            "pattern fitting applies to Calabi-Yau setups in four variables")
    if k in K3_ORDERS:
        return
    if k == 2 or not _is_prime(k):
        raise PatternMismatchError(f"unsupported cyclic order {k} (need 4 or an odd prime)")
    raise PatternMismatchError(f"no K3 setup exists for prime order {k}: "
                               f"{k - 1} does not divide 24")


def fit_k3_pattern(grid: SectorGrid) -> K3Report:
    """Solve the closed-form table parameters from designated cells, then
    verify every cell of the grid against the rebuilt pattern."""
    require_k3_shape(grid.calabi_yau, grid.num_vars, grid.k)
    k = grid.k
    g = grid.cell(1, 0).get((1, 0), 0)
    gd = grid.cell(1, 0).get((0, 0), 0)
    ad = grid.cell(0, 2).get((1, 1), 0) if k >= 5 else grid.cell(0, 1).get((1, 1), 0) + 1
    if k == 4:
        c00, c22 = grid.weighted_cell(0, 0), grid.weighted_cell(2, 2)
        a, b = c00.get((1, 1, 1), 0) + 1, c00.get((1, 1, 2), 0)
        bd = grid.cell(0, 2).get((1, 1), 0)
        c, cd = c22.get((0, 0, 2), 0), c22.get((1, 0, 2), 0)
        params = {"a": a, "b": b, "c": c, "g": g,
                  "a_dual": ad, "b_dual": bd, "c_dual": cd, "g_dual": gd}
        m0 = {(2, 0, 1): 1, (1, 1, 1): a - 1, (1, 1, 2): b, (1, 1, 3): a - 1, (0, 2, 3): 1}
        m2 = {(0, 0, 2): c, (1, 0, 2): cd, (0, 1, 2): cd, (1, 1, 2): c}
        expected = _expected_grid(k, g, gd, ad, bd, m0, {(2, 2): m2})
        identity, total = "2a+b+2a'+b'", 2 * a + b + 2 * ad + bd
    else:
        # the weight split of the untwisted middle is not prescribed:
        # weight -1 compares it at total level
        middle = grid.cell(0, 0).get((1, 1), 0)
        if (middle + 2) % (k - 1) != 0:
            raise PatternMismatchError(
                f"untwisted middle dimension {middle} is not (p-1)a - 2")
        a = (middle + 2) // (k - 1)
        params = {"a": a, "g": g, "a_dual": ad, "g_dual": gd}
        m0 = {(2, 0, 1): 1, (1, 1, -1): middle, (0, 2, k - 1): 1}
        expected = _expected_grid(k, g, gd, ad, ad, m0)
        identity, total = "(p-1)(a+a')", (k - 1) * (a + ad)
    _verify_pattern(grid, expected)
    if total != 24:
        raise PatternMismatchError(f"{identity} = {total} differs from 24")
    return K3Report(k, params)


def _verify_pattern(grid: SectorGrid, expected: dict) -> None:
    for cell_index in sorted(expected):
        actual = grid.weighted_cell(*cell_index)
        if not _match_weighted(actual, expected[cell_index]):
            raise PatternMismatchError(
                f"cell {cell_index}: computed {sorted(actual.items())} does not "
                f"match pattern {sorted(expected[cell_index].items())}")
    stray = {cell for cell in set(grid.weighted) - set(expected) if grid.total(*cell)}
    if stray:
        raise PatternMismatchError(f"unexpected nonzero cells {sorted(stray)}")


# ---------------------------------------------------------------------------
# fixed-locus and lattice invariants
# ---------------------------------------------------------------------------

# f1: int, isolated fixed points of the automorphism; N1: int, fixed curves;
# g1: int, total genus of the fixed curves; N2, g2: int | None, the same for
# the square of the automorphism (order 4 only)
K3Invariants = namedtuple("K3Invariants", "f1 N1 g1 N2 g2", defaults=(None, None))


def k3_invariants(report: K3Report) -> K3Invariants:
    """Read the fixed-locus invariants off the fitted parameters."""
    P = report.params
    N1 = P["g_dual"] + 1
    g1 = P["g"]
    if report.kind == "order4":
        f1 = P["a_dual"] + P["b_dual"] - 2
        N2 = P["g_dual"] + P["c"] + P["a_dual"]
        g2 = P["g"] + P["c_dual"]
        return K3Invariants(f1, N1, g1, N2, g2)
    f1 = (report.order - 2) * P["a_dual"] - 2
    return K3Invariants(f1, N1, g1)


def lattice_invariants(p: int, g: int, N: int) -> tuple[int, int]:
    """Rank and discriminant-group rank of the invariant lattice of a
    non-symplectic prime-order automorphism with a fixed curve.

    r comes from the fixed-locus count via -g + N = (r - 11 + p)/(p - 1);
    a from m = 2g + a with m = (22 - r)/(p - 1).  Both must come out as
    integers, and a nonnegative, for a valid p-elementary lattice.
    """
    if p == 4 or p not in K3_ORDERS:
        raise NonIntegralLatticeError(f"no lattice classification for order {p}")
    r = (N - g) * (p - 1) + (11 - p)
    if (22 - r) % (p - 1) != 0:
        raise NonIntegralLatticeError(f"(22 - r)/(p - 1) is not integral for r = {r}")
    m = (22 - r) // (p - 1)
    a_lat = m - 2 * g
    if a_lat < 0 or not 1 <= r <= 21:
        raise NonIntegralLatticeError(
            f"invariants (r, a) = ({r}, {a_lat}) are not a valid lattice")
    return r, a_lat


def lattice_mirror_verdict(report: K3Report, mirror_report: K3Report) -> dict:
    """Lattice invariants of both sides and whether they are mirror:
    (r', a') = (20 - r, a), the paper's K3 lattice corollary for two fits;
    `k3_corollaries` reads its verdict here."""
    inv, minv = k3_invariants(report), k3_invariants(mirror_report)
    r, a_lat = lattice_invariants(report.order, inv.g1, inv.N1)
    rm, am = lattice_invariants(mirror_report.order, minv.g1, minv.N1)
    return {
        "r": r, "a": a_lat, "r_mirror": rm, "a_mirror": am,
        "mirror_ok": rm == 20 - r and am == a_lat,
    }


def k3_corollaries(report: K3Report, mirror_report: K3Report
                   ) -> tuple[K3Invariants, K3Invariants, dict | None, bool]:
    """Both sides' fixed-locus invariants, the lattice verdict at a prime
    order (else None) and whether every K3 relation of the fits holds:
    N1 = g1' + 1 both ways; at order 4, 2a + b + 2a' + b' = 24; at a prime
    p, f1 + f1' + 4 = 24(p - 2)/(p - 1) and mirror lattices."""
    inv, minv = k3_invariants(report), k3_invariants(mirror_report)
    holds = inv.N1 == minv.g1 + 1 and minv.N1 == inv.g1 + 1
    if report.kind == "order4":
        P = report.params
        holds = holds and 2 * P["a"] + P["b"] + 2 * P["a_dual"] + P["b_dual"] == 24
        return inv, minv, None, holds
    p = report.order
    lattice = lattice_mirror_verdict(report, mirror_report)
    holds = holds and inv.f1 + minv.f1 + 4 == 24 * (p - 2) // (p - 1) and lattice["mirror_ok"]
    return inv, minv, lattice, holds


def k3_read_off(pair) -> tuple[K3Report, K3Report, tuple]:
    """The K3 fits of both tables of a `mirror.MirrorPair` and their
    `k3_corollaries`: (report, mirror report, corollaries)."""
    report = fit_k3_pattern(sector_grid(pair.source_table))
    mirror_report = fit_k3_pattern(sector_grid(pair.target_table))
    return report, mirror_report, k3_corollaries(report, mirror_report)
