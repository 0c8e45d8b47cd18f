"""Memoized per-polynomial facts: caches never skip a check or keep an error."""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bhmirror.cli import main
from bhmirror.errors import GroupTooLargeError, InputError
from bhmirror.milnor import equivariant_hilbert, sector_algebra
from bhmirror.geometry import fit_k3_pattern, sector_grid
from bhmirror.mirror import (
    build_mirror_pair,
    verify_krawitz,
    verify_lg_mirror,
    verify_order2_exchange,
    verify_pair_duality,
)
from bhmirror.poly import (
    encode,
    exponent_inverse,
    parse_polynomial,
    restrict,
    transpose,
)
from bhmirror.statespace import moving_vanishing_violations
from bhmirror.symmetry import (
    SymmetryGroup,
    admissible_setup,
    aut_group,
    enumerate_group,
    j_element,
)

F = Fraction


def test_cap_is_checked_after_a_cached_success(monkeypatch):
    P = parse_polynomial("x0^3+x1^5+x2^2*x3+x3^3*x2")
    order = aut_group(P).order
    monkeypatch.setenv("BHMIRROR_MAX_GROUP", str(order - 1))
    with pytest.raises(GroupTooLargeError, match=f"cap of {order - 1}$"):
        aut_group(P)


def test_group_too_large_is_not_cached(monkeypatch):
    P = parse_polynomial("x0^7+x1^6*x2+x2^4")
    monkeypatch.setenv("BHMIRROR_MAX_GROUP", "10")
    with pytest.raises(GroupTooLargeError):
        aut_group(P)
    monkeypatch.setenv("BHMIRROR_MAX_GROUP", str(7 * 6 * 4))
    assert aut_group(P).order == 7 * 6 * 4


def test_library_calls_read_the_cap_variable(monkeypatch):
    # |det E| = 64 for the setup's W, 16 for its inner polynomial
    W = parse_polynomial("x0^4+x1^4+x2^2+x3^2")
    monkeypatch.setenv("BHMIRROR_MAX_GROUP", "63")
    for call in (lambda: aut_group(W), lambda: admissible_setup(W)):
        with pytest.raises(GroupTooLargeError, match="cap of 63$"):
            call()
    monkeypatch.setenv("BHMIRROR_MAX_GROUP", "64")
    assert aut_group(W).order == 64 and admissible_setup(W).group_order == 16


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1e6", "9" * 5000])
def test_library_calls_reject_a_bad_cap(monkeypatch, value):
    P = parse_polynomial("x0^4+x1^4+x2^2+x3^2")
    monkeypatch.setenv("BHMIRROR_MAX_GROUP", value)
    for call in (lambda: aut_group(P), lambda: admissible_setup(P)):
        with pytest.raises(InputError, match="BHMIRROR_MAX_GROUP must be a positive integer") \
                as caught:
            call()
        assert type(caught.value) is InputError


def test_group_too_large_fails_before_enumerating(monkeypatch):
    from bhmirror import symmetry

    def enumerate_nothing(*args):
        pytest.fail("enumerated a group larger than the cap")

    monkeypatch.setattr(symmetry, "enumerate_group", enumerate_nothing)
    with pytest.raises(GroupTooLargeError):
        aut_group(parse_polynomial("x0^2000+x1^2000+x2^2000"))


def test_subgroup_enumeration_keeps_its_cap(monkeypatch):
    # |det E| = 256 bounds the order-16 subgroup, and the cap is checked
    # against it, also once Aut is cached
    P = parse_polynomial("x0^4+x1^4+x2^4+x3^4")
    aut_group(P)
    gens = [(F(1, 4), 0, 0, 0), (0, F(1, 4), 0, 0)]
    monkeypatch.setenv("BHMIRROR_MAX_GROUP", "255")
    with pytest.raises(GroupTooLargeError):
        enumerate_group(P, gens)
    monkeypatch.setenv("BHMIRROR_MAX_GROUP", "256")
    assert enumerate_group(P, gens).order == 16


def test_memoized_series_equals_a_fresh_expansion():
    P = parse_polynomial("x0^4+x1^3*x2+x2^3*x1+x3^4")
    for h in aut_group(P).codes[:40]:
        R = restrict(P, h)
        cached = equivariant_hilbert(R)
        assert equivariant_hilbert(restrict(P, h)) is cached
        assert cached == equivariant_hilbert.__wrapped__(R)


def test_sector_shift_is_applied_per_sector():
    # two sectors with the same (empty) fixed set share one series but
    # carry their own ages
    P = parse_polynomial("x0^4+x1^4")
    ha, hb = encode(P, (F(1, 4), F(1, 4))), encode(P, (F(3, 4), F(3, 4)))
    assert (ha, hb) == ((4, 4), (12, 12))  # codes mod |det E| = 16
    a = {(key, F(p, 16), F(q, 16)) for (key, p, q), _ in sector_algebra(P, ha)}
    b = {(key, F(p, 16), F(q, 16)) for (key, p, q), _ in sector_algebra(P, hb)}
    assert restrict(P, ha).fixed_vars == restrict(P, hb).fixed_vars == ()
    assert a == {((0, 0), F(1, 2), F(1, 2))}
    assert b == {((0, 0), F(3, 2), F(3, 2))}


def test_transpose_and_inverse_are_computed_once():
    P = parse_polynomial("x^3*y+y^4")
    assert transpose(P) is transpose(parse_polynomial("x^3*y+y^4"))
    assert exponent_inverse(P) == ((F(1, 3), F(-1, 12)), (0, F(1, 4)))


def test_element_set_is_not_a_field():
    P = parse_polynomial("x0^4+x1^4+x2^4+x3^4")
    H = enumerate_group(P, [j_element(P)])
    assert j_element(P) in H.elements and (F(1, 4), 0, 0, 0) not in H.elements
    assert SymmetryGroup._fields == ("polynomial", "generators", "codes")
    fresh = SymmetryGroup(P, H.generators, H.codes)
    assert H == fresh and hash(H) == hash(fresh) and repr(H) == repr(fresh)


@pytest.mark.parametrize("polynomial, command", [
    ("x0^8+x1^8+x2^4+x3^2", lambda text: build_mirror_pair(parse_polynomial(text))),
    ("x0^5+x1^5+x2^5+x3^5+x4^5", lambda text: main(["analyze", text])),
], ids=["octic-pair", "quintic-analyze"])
def test_kernel_groups_are_never_decoded(monkeypatch, capsys, polynomial, command):
    # Aut of P and of its transpose are read as codes only; `elements`, the
    # `Fraction` view, is never read for them
    read = []
    decode = SymmetryGroup.elements.fget
    monkeypatch.setattr(SymmetryGroup, "elements",
                        property(lambda group: read.append(group) or decode(group)))
    P = parse_polynomial(polynomial)
    groups = [aut_group(Q) for Q in (P, transpose(P))]
    command(polynomial)
    for group in groups:
        assert group not in read  # by value: an Aut the command closed afresh counts too


def test_membership_is_checked_where_a_code_is_made(monkeypatch):
    # `encode` checks each outside vector once, and `annihilator` and the
    # key grading read E*g of each generator and of j and s; no sector, key
    # or label is checked again, so the octic pair's 64 + 512 sectors add
    # no calls.  The pair encodes nothing: its trivial K has no generator,
    # and Aut, j and s are read off the checked N*E^{-1}
    from bhmirror import poly
    counts = {"monomial_phases": 0, "encode": 0}
    modules = [module for name, module in sys.modules.items()
               if name == "bhmirror" or name.startswith("bhmirror.")]
    for name in counts:
        real = getattr(poly, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    build_mirror_pair(parse_polynomial("x0^8+x1^8+x2^4+x3^2"))
    assert counts == {"monomial_phases": 12, "encode": 0}


def test_transpose_duality_hashes_no_fraction(monkeypatch, pair_cache):
    # the Krawitz scan and pair duality compare integer cells, and so do the
    # LG identities and the order-2 exchange: a passing check hashes and
    # sorts no `Fraction`; nor do a Calabi-Yau grid and its K3 fit
    loop = parse_polynomial("x0^2*x1+x1^3*x2+x2^4*x3+x3^5*x0")
    octic = build_mirror_pair(parse_polynomial("x0^8+x1^8+x2^4+x3^2"))
    quartic, toy = pair_cache("fermat-quartic"), pair_cache("toy-k2")
    hashed = []
    real = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda self: hashed.append(self) or real(self))
    counts = {}
    for statement, check in (("krawitz", lambda: verify_krawitz(loop)),
                             ("pair-duality", lambda: verify_pair_duality(octic)),
                             ("lg-mirror[fermat-quartic]", lambda: verify_lg_mirror(quartic)),
                             ("lg-mirror[toy-k2]", lambda: verify_lg_mirror(toy)),
                             ("order2-exchange[toy-k2]", lambda: verify_order2_exchange(toy))):
        hashed.clear()
        report = check()
        assert report.passed and report.cells_checked > 0
        counts[statement] = len(hashed)
    for name, pair in (("fermat-quartic", quartic), ("toy-k2", toy)):
        hashed.clear()
        grids = [sector_grid(pair.source_table), sector_grid(pair.target_table)]
        assert all(grid.calabi_yau and grid.weighted for grid in grids)
        counts[f"grids[{name}]"] = len(hashed)
    hashed.clear()
    report = fit_k3_pattern(sector_grid(quartic.source_table))
    assert report.kind == "order4"
    counts["k3-fit[fermat-quartic]"] = len(hashed)
    assert counts == dict.fromkeys(counts, 0)


def test_state_tables_hash_no_fraction(monkeypatch):
    # a state table is its integer cells: building the octic pair from cold
    # caches, its pair duality and its vanishing check hash no `Fraction`
    hashed = []
    real = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda self: hashed.append(self) or real(self))
    equivariant_hilbert.cache_clear()
    pair = build_mirror_pair(parse_polynomial("x0^8+x1^8+x2^4+x3^2"))
    report = verify_pair_duality(pair)
    violations = [moving_vanishing_violations(table)
                  for table in (pair.source_table, pair.target_table)]
    assert len(pair.source_table.cells) + len(pair.target_table.cells) == 840
    assert report.passed and report.cells_checked == 420 and violations == [[], []]
    assert hashed == []


BENCHMARK_CATALOG = str(Path(__file__).parent.parent / "perfbench" / "verify_catalog.json")


def test_verify_expands_each_block_once(monkeypatch, capsys):
    # a fixed set's series is the product of its blocks' series, and each
    # block is expanded once, by exact division up to its own socle degree:
    # the benchmark catalog's verify multiplies out one numerator per block
    # cache miss, 135 from cold caches
    from bhmirror import milnor
    built = []
    real = milnor._binomials
    monkeypatch.setattr(milnor, "_binomials", lambda *args: built.append(args) or real(*args))
    equivariant_hilbert.cache_clear()
    milnor._block_series.cache_clear()
    assert main(["verify", "--catalog", BENCHMARK_CATALOG, "--format", "json"]) == 0
    capsys.readouterr()
    assert len(built) == milnor._block_series.cache_info().misses == 135
    assert len(set(built)) == len(built)


def test_verify_builds_each_fixed_set_series_once(monkeypatch, capsys):
    # the fixed-set cache (maxsize 128) evicts only series that no later call
    # asks for: the benchmark catalog's verify misses once per distinct
    # restriction, 308 from cold caches, so no series is rebuilt
    from bhmirror import milnor, mirror
    asked = []

    def record(R):
        asked.append(R)
        return equivariant_hilbert(R)

    monkeypatch.setattr(milnor, "equivariant_hilbert", record)
    monkeypatch.setattr(mirror, "equivariant_hilbert", record)
    equivariant_hilbert.cache_clear()
    assert main(["verify", "--catalog", BENCHMARK_CATALOG, "--format", "json"]) == 0
    capsys.readouterr()
    assert equivariant_hilbert.cache_info().misses == len(set(asked)) == 308
    assert equivariant_hilbert.cache_info().hits == len(asked) - 308


def test_verify_sums_each_table_once(monkeypatch, capsys):
    # the LG identities, the order-2 exchange and the K3 grid of one table
    # share one sum of its Q_j = 0 part: the built-in verify sums each of
    # its 44 tables once (74 sums before)
    from bhmirror import statespace
    summed = []
    real = statespace._sum_sector_cells
    monkeypatch.setattr(statespace, "_sum_sector_cells",
                        lambda table: summed.append(table) or real(table))
    assert main(["verify"]) == 0
    capsys.readouterr()
    assert len(summed) == len({id(table) for table in summed}) == 44


def test_self_transposed_krawitz_builds_one_map(monkeypatch):
    # a self-transposed polynomial's unprojected map is built once and
    # stands on both sides of its Krawitz check; a chain's transpose is
    # another polynomial, with its own map
    from bhmirror import mirror
    built = []
    real = mirror.unprojected_cells
    monkeypatch.setattr(mirror, "unprojected_cells", lambda P: built.append(P) or real(P))
    quartic, chain = map(parse_polynomial, ("x^4+y^4+z^4+w^4", "x^2*y+y^3"))
    assert verify_krawitz(quartic).passed and verify_krawitz(chain).passed
    assert built == [quartic, chain, transpose(chain)]


def test_verify_builds_each_polynomials_facts_once(monkeypatch, capsys):
    # P^T and the inner f of W = x0^k + f read their atoms off the parent's,
    # and P^T its inverse off the one elimination of {E, E^T}: the benchmark
    # catalog's verify searches atoms only for its 38 parsed polynomials (98
    # searches when P^T and f searched again) and eliminates each unordered
    # pair {E, E^T} at most once; each `shifted_cells` call reads each
    # distinct fixed set of its sectors once (once per sector as well before).
    # A function that needs N and the dual characters reads them at once, so
    # the verify reads N, B or A 515 times (793 before) for 39 eliminations
    from bhmirror import milnor, poly, statespace
    built, classified, eliminated, cell_calls, reads = [], [], [], [], []
    real_build, real_classify = poly.from_exponents, poly.classify_atoms
    real_adjugate, real_fixed = poly.adjugate, poly.fixed_variables
    real_inverse = poly._inverse
    real_cells = milnor.shifted_cells

    def classify(exponents):
        frame, callers = sys._getframe(1), set()
        while frame is not None:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        classified.append(callers)
        return real_classify(exponents)

    def fixed(code):
        if cell_calls and cell_calls[-1][2]:
            cell_calls[-1][1] += 1
        return real_fixed(code)

    def cells(P, sectors, keys=None):
        sectors = list(sectors)
        cell_calls.append([sectors, 0, True])
        try:
            return real_cells(P, sectors, keys)
        finally:
            cell_calls[-1][2] = False

    monkeypatch.setattr(poly, "from_exponents",
                        lambda *args: built.append(args) or real_build(*args))
    monkeypatch.setattr(poly, "classify_atoms", classify)
    monkeypatch.setattr(poly, "adjugate",
                        lambda rows: eliminated.append(tuple(map(tuple, rows)))
                        or real_adjugate(rows))
    monkeypatch.setattr(poly, "_inverse", lambda E: reads.append(E) or real_inverse(E))
    monkeypatch.setattr(poly, "fixed_variables", fixed)
    # also counted if `milnor` looks fixed sets up by its own name
    monkeypatch.setattr(milnor, "fixed_variables", fixed, raising=False)
    monkeypatch.setattr(milnor, "shifted_cells", cells)
    monkeypatch.setattr(statespace, "shifted_cells", cells)
    for cache in (poly._exact_inverse, transpose,
                  equivariant_hilbert, milnor._block_series):
        cache.cache_clear()
    assert main(["verify", "--catalog", BENCHMARK_CATALOG, "--format", "json"]) == 0
    capsys.readouterr()
    assert len(built) == len(classified) == 38
    assert not [callers for callers in classified if {"transpose", "split_cyclic"} & callers]
    pairs = {frozenset((E, tuple(zip(*E)))) for E in eliminated}
    assert len(eliminated) == len(pairs) == 39
    assert len(reads) == 515
    assert cell_calls and all(
        count == len({real_fixed(h) for h in sectors}) for sectors, count, _ in cell_calls)
