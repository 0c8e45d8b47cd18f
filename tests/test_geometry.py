from fractions import Fraction
from itertools import product

import pytest

from bhmirror.catalog import ADMISSIBLE_CASES
from bhmirror.errors import NonIntegralLatticeError, PatternMismatchError
from bhmirror.geometry import (
    K3_ORDERS,
    SectorGrid,
    _expected_grid,
    fit_k3_pattern,
    k3_corollaries,
    k3_invariants,
    lattice_invariants,
    lattice_mirror_verdict,
    sector_grid,
)
from bhmirror.statespace import fjrw_state_space, slice_weight_bidegrees

F = Fraction

ELLIPTIC_ROWS = [
    [2, 1, 0, 0, 0, 1],
    [0, 1, 0, 0, 0, 0],
    [0, 1, 0, 0, 1, 1],
    [0, 1, 0, 2, 0, 1],
    [0, 1, 1, 0, 0, 1],
    [0, 0, 0, 0, 0, 1],
]

# Fermat quartic, invariance trivial: every cell as a (p, q) -> dim diamond.
# Rows are the slices d_s = b/4, columns d_j = a/4.
QUARTIC_CELLS = {
    (0, 0): {(2, 0): 1, (1, 1): 19, (0, 2): 1},
    (0, 1): {(0, 0): 1},
    (0, 2): {(1, 1): 1},
    (0, 3): {(2, 2): 1},
    (1, 0): {(1, 0): 3, (0, 1): 3},
    (1, 1): {(0, 0): 1},
    (1, 2): {(1, 1): 1},
    (1, 3): {},
    (2, 0): {(1, 0): 3, (0, 1): 3},
    (2, 1): {(0, 0): 1},
    (2, 2): {},
    (2, 3): {(1, 1): 1},
    (3, 0): {(1, 0): 3, (0, 1): 3},
    (3, 1): {},
    (3, 2): {(0, 0): 1},
    (3, 3): {(1, 1): 1},
}

# Mirror quartic (invariance group of order 16): the dual parameter table.
QUARTIC_MIRROR_CELLS = {
    (0, 0): {(2, 0): 1, (1, 1): 1, (0, 2): 1},
    (0, 1): {(0, 0): 1, (1, 1): 6},
    (0, 2): {(1, 1): 7},
    (0, 3): {(1, 1): 6, (2, 2): 1},
    (1, 0): {(0, 0): 3, (1, 1): 3},
    (1, 1): {(0, 0): 1, (1, 1): 6},
    (1, 2): {(1, 1): 7},
    (1, 3): {},
    (2, 0): {(0, 0): 3, (1, 1): 3},
    (2, 1): {(0, 0): 1, (1, 1): 6},
    (2, 2): {},
    (2, 3): {(0, 0): 6, (1, 1): 1},
    (3, 0): {(0, 0): 3, (1, 1): 3},
    (3, 1): {},
    (3, 2): {(0, 0): 7},
    (3, 3): {(0, 0): 6, (1, 1): 1},
}


def ref_expected_order4(a, b, c, g, ad, bd, cd, gd):
    """Weighted diamonds of the generic order-4 grid, written out cell by cell."""
    f0 = {(0, 0, 0): gd, (1, 0, 0): g, (0, 1, 0): g, (1, 1, 0): gd}
    f1 = {(0, 0, 0): 1, (1, 1, 0): ad - 1}
    f2 = {(1, 1, 0): bd}
    f3 = {(1, 1, 0): ad - 1, (2, 2, 0): 1}
    m0 = {(2, 0, 1): 1, (1, 1, 1): a - 1, (1, 1, 2): b, (1, 1, 3): a - 1, (0, 2, 3): 1}
    m2 = {(0, 0, 2): c, (1, 0, 2): cd, (0, 1, 2): cd, (1, 1, 2): c}
    drop = lambda cell: {(p - 1, q - 1, w): v for (p, q, w), v in cell.items()}
    grid = {
        (0, 0): m0, (0, 1): f1, (0, 2): f2, (0, 3): f3,
        (1, 0): f0, (1, 1): f1, (1, 2): f2, (1, 3): {},
        (2, 0): f0, (2, 1): f1, (2, 2): m2, (2, 3): drop(f3),
        (3, 0): f0, (3, 1): {}, (3, 2): drop(f2), (3, 3): drop(f3),
    }
    return {cell: {pos: v for pos, v in diamond.items() if v != 0}
            for cell, diamond in grid.items()}


def ref_expected_prime(p, a, g, ad, gd):
    """Weighted diamonds of the generic prime-order grid, row by row; the
    untwisted middle is compared at total level (weight -1)."""
    f0 = {(0, 0, 0): gd, (1, 0, 0): g, (0, 1, 0): g, (1, 1, 0): gd}
    f = {1: {(0, 0, 0): 1, (1, 1, 0): ad - 1}}
    for t in range(2, p - 1):
        f[t] = {(1, 1, 0): ad}
    f[p - 1] = {(1, 1, 0): ad - 1, (2, 2, 0): 1}
    m0 = {(2, 0, 1): 1, (1, 1, -1): (p - 1) * a - 2, (0, 2, p - 1): 1}
    grid: dict = {(0, 0): m0}
    for t in range(1, p):
        grid[(0, t)] = dict(f[t])
    for b in range(1, p):
        grid[(b, 0)] = dict(f0)
        for t in range(1, p):
            if (t + b) % p == 0:
                grid[(b, t)] = {}
            elif t + b < p:
                grid[(b, t)] = dict(f[t])
            else:
                grid[(b, t)] = {(pp - 1, qq - 1, w): v
                                for (pp, qq, w), v in f[t].items()}
    return {cell: {pos: v for pos, v in diamond.items() if v != 0}
            for cell, diamond in grid.items()}


class TestSectorGrid:
    def test_elliptic_rows(self, pair_cache):
        grid = sector_grid(pair_cache("elliptic-sextic").source_table)
        assert grid.row_totals() == ELLIPTIC_ROWS

    def test_quartic_cells(self, pair_cache):
        grid = sector_grid(pair_cache("fermat-quartic").source_table)
        for (b, a), cell in QUARTIC_CELLS.items():
            assert grid.cell(b, a) == cell, (b, a)

    def test_quartic_mirror_cells(self, pair_cache):
        grid = sector_grid(pair_cache("fermat-quartic").target_table)
        for (b, a), cell in QUARTIC_MIRROR_CELLS.items():
            assert grid.cell(b, a) == cell, (b, a)

    def test_quartic_weight_split(self, pair_cache):
        grid = sector_grid(pair_cache("fermat-quartic").source_table)
        assert grid.weighted_cell(0, 0) == {
            (2, 0, 1): 1, (1, 1, 1): 6, (1, 1, 2): 7, (1, 1, 3): 6, (0, 2, 3): 1}

    def test_quartic_curve_slice_total(self, pair_cache):
        grid = sector_grid(pair_cache("fermat-quartic").source_table)
        assert sum(grid.total(1, a) for a in range(4)) == 8

    def test_non_calabi_yau_keeps_raw_bidegrees(self, pair_cache):
        grid = sector_grid(pair_cache("k2-6squares").source_table)
        assert not grid.calabi_yau
        assert any(isinstance(p, Fraction) and p.denominator == 1
                   for cell in grid.weighted.values() for (p, _, _) in cell)


class TestOnePassViews:
    @pytest.mark.parametrize("name", [case.name for case in ADMISSIBLE_CASES])
    def test_views_match_the_slices(self, pair_cache, name):
        # the one-pass LG slices and grid against the per-slice reference;
        # the slices keep p and q as numerators over N
        pair = pair_cache(name)
        for table in (pair.source_table, pair.target_table):
            N = table.setup.N
            slices = slice_weight_bidegrees(table)
            grid = sector_grid(table)
            totals = grid.row_totals()
            for b in range(grid.k):
                reference = fjrw_state_space(table, b)
                assert slices[b] == reference.dimensions_by(
                    lambda lab: (lab.weight, lab.p * N, lab.q * N))
                assert sum(totals[b]) == reference.total_dimension
                columns = reference.dimensions_by(lambda lab: lab.x)
                for a in range(grid.k):
                    assert grid.total(b, a) == columns.get(a, 0)
                    summed: dict = {}
                    for (p, q, _), dim in grid.weighted_cell(b, a).items():
                        summed[(p, q)] = summed.get((p, q), 0) + dim
                    assert grid.cell(b, a) == summed


class TestGridInvariants:
    @pytest.mark.parametrize("name,total", [
        ("elliptic-sextic", 4), ("elliptic-cubic", 4), ("elliptic-loop", 4),
        ("fermat-quartic", 24), ("k3-loop-order4", 24), ("k3-order6", 24),
        ("k3-p3", 24), ("k3-p13", 24), ("k3-quartic-z2z2", 24),
        ("k3-order4-mixed", 24),
    ])
    def test_row_zero_is_the_orbifold_total(self, pair_cache, name, total):
        grid = sector_grid(pair_cache(name).source_table)
        assert sum(grid.row_totals()[0]) == total

    @pytest.mark.parametrize("name", ["elliptic-sextic", "fermat-quartic",
                                      "k3-p5", "k3-order4-mixed"])
    def test_row_zero_weight_mirror(self, pair_cache, name):
        # invariant cells of row 0 match the moving cells of the mirror's
        # row 0 with p flipped across the geometric dimension
        pair = pair_cache(name)
        grid = sector_grid(pair.source_table)
        mirror = sector_grid(pair_cache(name).target_table)
        dim = grid.num_vars - 2
        k = grid.k
        lhs: dict = {}
        rhs: dict = {}
        for a in range(k):
            for (p, q, w), v in grid.weighted_cell(0, a).items():
                if w == 0:
                    lhs[(p, q)] = lhs.get((p, q), 0) + v
            for (p, q, w), v in mirror.weighted_cell(0, a).items():
                if w != 0:
                    cell = (dim - p, q)
                    rhs[cell] = rhs.get(cell, 0) + v
        assert lhs == rhs


class TestK3Fit:
    def test_quartic_parameters(self, pair_cache):
        rep = fit_k3_pattern(sector_grid(pair_cache("fermat-quartic").source_table))
        assert rep.kind == "order4"
        assert rep.params == {"a": 7, "b": 7, "c": 0, "g": 3,
                              "a_dual": 1, "b_dual": 1, "c_dual": 0, "g_dual": 0}

    def test_mirror_parameters_are_swapped(self, pair_cache):
        pair = pair_cache("fermat-quartic")
        rep = fit_k3_pattern(sector_grid(pair.source_table))
        mrep = fit_k3_pattern(sector_grid(pair.target_table))
        assert mrep.params == rep.dual().params

    @pytest.mark.parametrize("name,a,a_dual,g,g_dual", [
        ("k3-p3", 9, 3, 3, 0),
        ("k3-p5", 5, 1, 2, 0),
        ("k3-p7", 3, 1, 1, 0),
        ("k3-p13", 1, 1, 0, 0),
    ])
    def test_prime_parameters(self, pair_cache, name, a, a_dual, g, g_dual):
        rep = fit_k3_pattern(sector_grid(pair_cache(name).source_table))
        assert rep.kind == "prime"
        assert rep.params == {"a": a, "a_dual": a_dual, "g": g, "g_dual": g_dual}
        assert (rep.order - 1) * (a + a_dual) == 24

    def test_wrong_dimension_rejected(self, pair_cache):
        grid = sector_grid(pair_cache("elliptic-sextic").source_table)
        with pytest.raises(PatternMismatchError):
            fit_k3_pattern(grid)

    def test_unsupported_order_rejected(self, pair_cache):
        grid = sector_grid(pair_cache("k3-order6").source_table)
        with pytest.raises(PatternMismatchError):
            fit_k3_pattern(grid)

    def test_prime_divisibility_gates_eleven(self):
        fake = SectorGrid(11, 4, True, {})
        with pytest.raises(PatternMismatchError, match="divide 24"):
            fit_k3_pattern(fake)


    def test_one_rule_matches_the_order4_reference(self):
        for a, b, c, g, ad, bd, cd, gd in product(range(3), repeat=8):
            m0 = {(2, 0, 1): 1, (1, 1, 1): a - 1, (1, 1, 2): b, (1, 1, 3): a - 1, (0, 2, 3): 1}
            m2 = {(0, 0, 2): c, (1, 0, 2): cd, (0, 1, 2): cd, (1, 1, 2): c}
            assert (_expected_grid(4, g, gd, ad, bd, m0, {(2, 2): m2})
                    == ref_expected_order4(a, b, c, g, ad, bd, cd, gd))

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_one_rule_matches_the_prime_reference(self, p):
        for a, g, ad, gd in product(range(4), repeat=4):
            m0 = {(2, 0, 1): 1, (1, 1, -1): (p - 1) * a - 2, (0, 2, p - 1): 1}
            assert _expected_grid(p, g, gd, ad, ad, m0) == ref_expected_prime(p, a, g, ad, gd)

    @pytest.mark.parametrize("name,cell,pos", [
        ("fermat-quartic", (3, 3), (1, 1, 0)),
        ("k3-p7", (4, 5), (0, 0, 0)),
    ])
    def test_a_raised_cell_is_named(self, pair_cache, name, cell, pos):
        grid = sector_grid(pair_cache(name).source_table)
        weighted = dict(grid.weighted)
        weighted[cell] = {**weighted[cell], pos: weighted[cell][pos] + 1}
        with pytest.raises(PatternMismatchError, match=rf"^cell \({cell[0]}, {cell[1]}\):"):
            fit_k3_pattern(grid._replace(weighted=weighted))

    @pytest.mark.parametrize("name,fits", [("k3-p7", True), ("fermat-quartic", False)])
    def test_untwisted_weights_are_free_at_a_prime_only(self, pair_cache, name, fits):
        # one (1, 1) class of the untwisted middle moved from weight 3 to
        # weight 2: a prime pattern compares that middle at total level
        # (weight -1), the order-4 pattern weight by weight
        grid = sector_grid(pair_cache(name).source_table)
        weighted = dict(grid.weighted)
        middle = dict(weighted[(0, 0)])
        middle[(1, 1, 3)] -= 1
        middle[(1, 1, 2)] += 1
        weighted[(0, 0)] = middle
        moved = grid._replace(weighted=weighted)
        if fits:
            assert fit_k3_pattern(moved) == fit_k3_pattern(grid)
        else:
            with pytest.raises(PatternMismatchError, match=r"^cell \(0, 0\):"):
                fit_k3_pattern(moved)

class TestInvariants:
    def test_quartic_fixed_locus(self, pair_cache):
        pair = pair_cache("fermat-quartic")
        inv = k3_invariants(fit_k3_pattern(sector_grid(pair.source_table)))
        assert (inv.f1, inv.N1, inv.g1, inv.N2, inv.g2) == (0, 1, 3, 1, 3)
        minv = k3_invariants(fit_k3_pattern(sector_grid(pair.target_table)))
        assert (minv.f1, minv.N1, minv.g1, minv.N2, minv.g2) == (12, 4, 0, 10, 0)

    def test_mirror_of_report_is_report_of_mirror(self, pair_cache):
        pair = pair_cache("k3-p7")
        rep = fit_k3_pattern(sector_grid(pair.source_table))
        mrep = fit_k3_pattern(sector_grid(pair.target_table))
        assert k3_invariants(rep.dual()) == k3_invariants(mrep)

    @pytest.mark.parametrize("name", ["k3-p3", "k3-p3-loop", "k3-p5",
                                      "k3-p5-fermat", "k3-p7", "k3-p13"])
    def test_prime_corollary(self, pair_cache, name):
        pair = pair_cache(name)
        rep = fit_k3_pattern(sector_grid(pair.source_table))
        mrep = fit_k3_pattern(sector_grid(pair.target_table))
        inv, minv = k3_invariants(rep), k3_invariants(mrep)
        p = rep.order
        assert inv.N1 == minv.g1 + 1
        assert minv.N1 == inv.g1 + 1
        assert inv.f1 + minv.f1 + 4 == 24 * (p - 2) // (p - 1)


class TestLattice:
    def test_p3_values(self):
        assert lattice_invariants(3, 3, 1) == (4, 3)
        assert lattice_invariants(3, 0, 4) == (16, 3)

    def test_invalid_inputs(self):
        with pytest.raises(NonIntegralLatticeError):
            lattice_invariants(11, 1, 1)
        with pytest.raises(NonIntegralLatticeError):
            lattice_invariants(13, 1, 1)

    @pytest.mark.parametrize("name", ["k3-p3", "k3-p3-loop", "k3-p5",
                                      "k3-p5-fermat", "k3-p7", "k3-p13"])
    def test_mirror_verdict(self, pair_cache, name):
        pair = pair_cache(name)
        rep = fit_k3_pattern(sector_grid(pair.source_table))
        mrep = fit_k3_pattern(sector_grid(pair.target_table))
        verdict = lattice_mirror_verdict(rep, mrep)
        assert verdict["mirror_ok"]
        assert verdict["r"] + verdict["r_mirror"] == 20
        assert verdict["a"] == verdict["a_mirror"] >= 0
        assert (22 - verdict["r"]) % (rep.order - 1) == 0

    def test_divisibility(self):
        # the odd K3 orders are the primes p <= 25 with (p - 1) | 24: a K3
        # table splits the total 24 as (p - 1)(a + a'), so p - 1 <= 24
        odd_primes = [p for p in range(3, 26, 2) if all(p % i for i in range(2, p))]
        assert [k for k in K3_ORDERS if k % 2] == [p for p in odd_primes if 24 % (p - 1) == 0]
        assert 13 in K3_ORDERS and 7 in K3_ORDERS
        assert 11 not in K3_ORDERS


@pytest.mark.parametrize("name", ["k3-p3", "k3-p5", "k3-p13"])
def test_k3_corollaries_count_the_isolated_fixed_points(pair_cache, name):
    # a_dual one larger adds p - 2 isolated fixed points on the source side
    # and leaves the curves and the lattices as they were: only
    # f1 + f1' + 4 = 24(p - 2)/(p - 1) breaks
    pair = pair_cache(name)
    report, mirror_report = (fit_k3_pattern(sector_grid(table))
                             for table in (pair.source_table, pair.target_table))
    inv, minv, lattice, holds = k3_corollaries(report, mirror_report)
    assert holds and lattice == lattice_mirror_verdict(report, mirror_report)
    assert (inv, minv) == (k3_invariants(report), k3_invariants(mirror_report))
    more = report._replace(params={**report.params, "a_dual": report.params["a_dual"] + 1})
    inv_more, _, lattice_more, holds_more = k3_corollaries(more, mirror_report)
    assert inv_more.f1 == inv.f1 + report.order - 2 and lattice_more == lattice
    assert not holds_more
