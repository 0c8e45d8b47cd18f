"""Acceptance suite: every criterion is exact; each test prints one
pass/fail line (run with -s to see them alongside the pytest verdicts)."""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from bhmirror.catalog import ADMISSIBLE_CASES, KRAWITZ_POLYNOMIALS
from bhmirror.geometry import (
    K3_ORDERS,
    fit_k3_pattern,
    k3_invariants,
    lattice_mirror_verdict,
    sector_grid,
)
from bhmirror.milnor import equivariant_hilbert, fermat_monomial_basis
from bhmirror.mirror import (
    build_mirror_pair,
    verify_krawitz,
    verify_lg_mirror,
    verify_order2_exchange,
    verify_pair_duality,
)
from bhmirror.poly import (
    is_calabi_yau,
    is_fermat_diagonal,
    parse_polynomial,
    restrict,
)
from bhmirror.statespace import (
    MOVING,
    moving_vanishing_violations,
    unprojected_state_space,
)
from test_group_reference import identity

F = Fraction


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


@pytest.fixture(scope="module")
def catalog_pairs(pair_cache):
    return {case.name: pair_cache(case.name) for case in ADMISSIBLE_CASES}


def test_criterion_1_elliptic_grid():
    with criterion(1, "elliptic-curve sector grid, exact, under 1 s"):
        start = time.monotonic()
        pair = build_mirror_pair(parse_polynomial("x0^6+x1^3+x2^2"))
        grid = sector_grid(pair.source_table)
        elapsed = time.monotonic() - start
        assert grid.row_totals() == [
            [2, 1, 0, 0, 0, 1],
            [0, 1, 0, 0, 0, 0],
            [0, 1, 0, 0, 1, 1],
            [0, 1, 0, 2, 0, 1],
            [0, 1, 1, 0, 0, 1],
            [0, 0, 0, 0, 0, 1],
        ]
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_quartic_grids():
    with criterion(2, "Fermat quartic grids cell-for-cell, mirror read-off, under 5 s"):
        from test_geometry import QUARTIC_CELLS, QUARTIC_MIRROR_CELLS

        start = time.monotonic()
        pair = build_mirror_pair(parse_polynomial("x0^4+x1^4+x2^4+x3^4"))
        grid = sector_grid(pair.source_table)
        mirror_grid = sector_grid(pair.target_table)
        for (b, a), cell in QUARTIC_CELLS.items():
            assert grid.cell(b, a) == cell, f"cell {(b, a)}"
        for (b, a), cell in QUARTIC_MIRROR_CELLS.items():
            assert mirror_grid.cell(b, a) == cell, f"mirror cell {(b, a)}"
        # weight split of the untwisted middle row
        assert grid.weighted_cell(0, 0) == {
            (2, 0, 1): 1, (1, 1, 1): 6, (1, 1, 2): 7, (1, 1, 3): 6, (0, 2, 3): 1}
        # the curve slice carries the cohomology of a genus-3 curve
        assert sum(grid.total(1, a) for a in range(4)) == 8
        # mirror fixed locus: four curves and twelve isolated points
        minv = k3_invariants(fit_k3_pattern(mirror_grid))
        assert (minv.N1, minv.f1) == (4, 12)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_3_one_variable_units():
    with criterion(3, "one-variable state spaces for k = 2..13, exact"):
        for k in range(2, 14):
            U = unprojected_state_space(parse_polynomial(f"x^{k}"))
            expected = {}
            for b in range(1, k):
                expected[((F(0),), (F(b, k),), 1 - F(b, k), F(b, k))] = 1
                expected[((F(b, k),), (F(0),), F(b, k), F(b, k))] = 1
            assert U == expected, f"k = {k}"


def test_criterion_4_krawitz_duality():
    with criterion(4, "transpose duality over the polynomial catalog, exact, under 60 s"):
        assert len(KRAWITZ_POLYNOMIALS) >= 30
        kinds = set()
        start = time.monotonic()
        cells = 0
        for text in KRAWITZ_POLYNOMIALS:
            P = parse_polynomial(text)
            assert P.num_vars <= 5
            kinds.update(a.kind for a in P.atoms)
            report = verify_krawitz(P)
            assert report.passed, f"{text}: {report.violations[:3]}"
            cells += report.cells_checked
        elapsed = time.monotonic() - start
        assert kinds == {"fermat", "chain", "loop"}
        assert cells > 0
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_5_lg_mirror_theorem(catalog_pairs):
    with criterion(5, "three-part mirror theorem on every admissible catalog case"):
        cy_orders = set()
        for case in ADMISSIBLE_CASES:
            pair = catalog_pairs[case.name]
            report = verify_lg_mirror(pair)
            assert report.passed, f"{case.name}: {report.violations[:3]}"
            assert verify_pair_duality(pair).passed, case.name
            if is_calabi_yau(pair.source.W):
                cy_orders.add(pair.source.k)
            # part 3 must be verified empty-against-empty where vanishing bites
            k = pair.source.k
            vacuous = {i.statement for i in report.items
                       if i.statement.endswith("/vacuous")}
            for b in range(1, k):
                for t in range(1, k):
                    if (b * t) % k != 0:
                        wanted = f"part3[b={b},t={t}]/vacuous"
                        covered = wanted in vacuous or any(
                            i.statement == f"part3[b={b},t={t}]" and i.ok
                            for i in report.items)
                        assert covered, (case.name, b, t)
        assert {2, 3, 4, 6} <= cy_orders


def test_criterion_6_vanishing(catalog_pairs):
    with criterion(6, "moving-part vanishing whenever k does not divide b*t"):
        for case in ADMISSIBLE_CASES:
            pair = catalog_pairs[case.name]
            assert moving_vanishing_violations(pair.source_table) == []
            assert moving_vanishing_violations(pair.target_table) == []
            # scan form: every populated moving cell with Q_j = 0 has k | X*Z
            k = pair.source.k
            for lab in pair.source_table.entries:
                if lab.side == MOVING and lab.qj == 0:
                    assert (lab.x * lab.z) % k == 0


def test_criterion_7_engine_cross_check(catalog_pairs):
    with criterion(7, "series engine equals monomial oracle on diagonal entries"):
        covered = 0
        for case in ADMISSIBLE_CASES:
            W = case.parse()
            if not is_fermat_diagonal(W):
                continue
            covered += 1
            setup = catalog_pairs[case.name].source
            for h in setup.labels:
                R = restrict(W, h)
                series = equivariant_hilbert(R)
                oracle: dict = {}
                for _, key, degree in fermat_monomial_basis(R):
                    bucket = oracle.setdefault(degree, {})
                    bucket[key] = bucket.get(key, 0) + 1
                assert oracle == series.coefficients, (case.name, h)
        assert covered >= 5


def test_criterion_8_milnor_dimensions(catalog_pairs):
    with criterion(8, "sector dimensions match the weight-product formula"):
        elliptic = parse_polynomial("x0^6+x1^3+x2^2")
        assert equivariant_hilbert(restrict(elliptic, identity(3))).total_dimension == 10
        quartic = parse_polynomial("x0^4+x1^4+x2^4+x3^4")
        assert equivariant_hilbert(restrict(quartic, identity(4))).total_dimension == 81
        for case in ADMISSIBLE_CASES:
            W = case.parse()
            setup = catalog_pairs[case.name].source
            for h in setup.labels:
                R = restrict(W, h)
                assert equivariant_hilbert(R).total_dimension == R.milnor_dimension


def test_criterion_9_k3_corollaries(catalog_pairs):
    with criterion(9, "K3 corollaries and lattice mirror on all K3 pairs"):
        primes_seen = set()
        order4_seen = 0
        for case in ADMISSIBLE_CASES:
            if "k3" not in case.tags:
                continue
            pair = catalog_pairs[case.name]
            k = pair.source.k
            if k not in (3, 4, 5, 7, 13):
                continue
            rep = fit_k3_pattern(sector_grid(pair.source_table))
            mrep = fit_k3_pattern(sector_grid(pair.target_table))
            inv, minv = k3_invariants(rep), k3_invariants(mrep)
            assert inv.N1 == minv.g1 + 1, case.name
            assert minv.N1 == inv.g1 + 1, case.name
            if rep.kind == "order4":
                order4_seen += 1
                P = rep.params
                assert 2 * P["a"] + P["b"] + 2 * P["a_dual"] + P["b_dual"] == 24
            else:
                primes_seen.add(rep.order)
                p = rep.order
                assert inv.f1 + minv.f1 + 4 == 24 * (p - 2) // (p - 1), case.name
                verdict = lattice_mirror_verdict(rep, mrep)
                assert verdict["mirror_ok"], (case.name, verdict)
                assert verdict["r_mirror"] == 20 - verdict["r"]
                assert verdict["a_mirror"] == verdict["a"]
        assert order4_seen >= 1
        assert primes_seen == {3, 5, 7, 13}
        assert primes_seen == {k for k in K3_ORDERS if k % 2}


def test_criterion_10_order_two_corollary(catalog_pairs):
    with criterion(10, "order-2 exchange and self-mirror identity"):
        covered = 0
        nonvacuous = 0
        for case in ADMISSIBLE_CASES:
            pair = catalog_pairs[case.name]
            if pair.source.k != 2:
                continue
            covered += 1
            report = verify_order2_exchange(pair)
            assert report.passed, f"{case.name}: {report.violations[:3]}"
            assert any(i.statement.startswith("exchange") for i in report.items)
            assert any(i.statement.startswith("s-slice-self-mirror")
                       for i in report.items)
            nonvacuous += any(i.statement == "s-slice-self-mirror"
                              for i in report.items)
        assert covered >= 3 and nonvacuous >= 2
