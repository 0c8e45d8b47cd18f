from fractions import Fraction

import pytest

from bhmirror import statespace
from bhmirror.catalog import ADMISSIBLE_CASES
from bhmirror.errors import (
    DualityViolationError,
    NoSuchEntryError,
    SideMismatchError,
    ZOutOfRangeError,
)
from bhmirror.poly import parse_polynomial, split_cyclic, transpose
from bhmirror.statespace import (
    FIXED,
    MOVING,
    StateTable,
    build_state_space,
    elevator_fixed,
    elevator_moving,
    fjrw_state_space,
    moving_vanishing_violations,
    twist,
    unprojected_state_space,
)
from bhmirror.symmetry import (
    admissible_setup,
    aut_group,
    enumerate_group,
    j_element,
    pairing,
    s_element,
    sl_subgroup,
    symmetry,
)
from test_group_reference import identity

F = Fraction


@pytest.fixture(scope="module")
def elliptic():
    setup = admissible_setup(parse_polynomial("x0^6+x1^3+x2^2"))
    return setup, build_state_space(setup)


@pytest.fixture(scope="module")
def quartic():
    setup = admissible_setup(parse_polynomial("x0^4+x1^4+x2^4+x3^4"))
    return setup, build_state_space(setup)


class TestUnprojected:
    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_one_variable_power(self, k):
        P = parse_polynomial(f"x^{k}")
        U = unprojected_state_space(P)
        expected = {}
        for b in range(1, k):
            expected[((F(0),), (F(b, k),), 1 - F(b, k), F(b, k))] = 1
        for i in range(1, k):
            expected[((F(i, k),), (F(0),), F(i, k), F(i, k))] = 1
        assert U == expected

    def test_quartic_untwisted_total(self):
        P = parse_polynomial("x0^4+x1^4+x2^4+x3^4")
        U = unprojected_state_space(P)
        untwisted = sum(dim for (h, _, _, _), dim in U.items()
                        if h == identity(4))
        assert untwisted == 81

    def test_sl_invariant_broad_only_untwisted(self):
        # quartic: nontrivial sectors fixing variables admit no key dual to SL
        P = parse_polynomial("x0^4+x1^4+x2^4+x3^4")
        U = unprojected_state_space(P)
        sl = sl_subgroup(P).elements
        for (h, key, _, _), dim in U.items():
            broad = any(a == 0 for a in h)
            invariant = all(pairing(P, g, key) == 0 for g in sl)
            if broad and invariant:
                assert h == identity(4)


class TestStateTable:
    def test_elliptic_total(self, elliptic):
        _, table = elliptic
        assert table.total_dimension == 80

    def test_labels_consistent(self, elliptic):
        setup, table = elliptic
        k = setup.k
        j, s = j_element(setup.W), s_element(setup.W)
        for lab in table.entries:
            assert lab.qj == pairing(setup.W, j, lab.key)
            assert lab.qs == pairing(setup.W, s, lab.key)
            assert (lab.side == MOVING) == (lab.qs != 0)
            assert (lab.side == MOVING) == ((lab.dj + lab.ds) % 1 == 0)
            assert lab.x == int(lab.dj * k)
            assert lab.y == int((k * (lab.qs - lab.qj)) % k)
            assert lab.z == (int(k * lab.qs) if lab.side == MOVING
                             else int((k * (lab.dj + lab.ds)) % k))
            assert lab.z != 0
            assert lab.weight == int((k * lab.qs) % k)

    def test_side_is_cross_checked_per_entry(self, elliptic):
        # a key graded onto the fixed side contradicts the coset of every
        # moving entry that carries it
        setup, table = elliptic
        key = next(key for _, key, _, _ in table.cells if setup.keys[key][1] != 0)
        wrong = setup._replace(keys={**setup.keys, key: (setup.keys[key][0], 0)})
        with pytest.raises(DualityViolationError, match="contradicts its coset label"):
            build_state_space(wrong)

    def test_coset_contradiction_raises_before_any_label(self, elliptic, monkeypatch):
        # a sector whose coset moves on or off a + b = 0 mod k contradicts the
        # side of each of its entries; building the table reports it, and
        # no label is assembled on the way
        setup, table = elliptic
        sector = next(iter(table.cells))[0]
        a, b = setup.labels[sector]
        wrong = setup._replace(labels={**setup.labels,
                                       sector: (a, (-a if (a + b) % setup.k else b + 1) % setup.k)})
        monkeypatch.setattr(statespace, "_labeler",
                            lambda setup: pytest.fail("a label was assembled"))
        with pytest.raises(DualityViolationError, match="contradicts its coset label"):
            build_state_space(wrong)

    def test_sector_and_key_that_no_entry_pairs_name_no_entry(self, elliptic):
        # a moving entry's sector with a fixed entry's key fails the side
        # cross-check: the label names no entry, for a lookup and a twist alike
        setup, table = elliptic
        moving = next(lab for lab in table.entries if lab.side == MOVING)
        fixed = next(lab for lab in table.entries if lab.side == FIXED)
        label = fixed._replace(sector=moving.sector, dj=moving.dj, ds=moving.ds, x=moving.x)
        assert label not in table.entries
        with pytest.raises(NoSuchEntryError):
            twist(setup, label._replace(side=MOVING))

    def test_order2_weights_split_by_side(self):
        W = parse_polynomial("x0^2+x1^4+x2^4")
        setup = admissible_setup(W, enumerate_group(split_cyclic(W)[1], [(F(1, 2), F(1, 2))]))
        table = build_state_space(setup)
        for lab in table.entries:
            assert lab.weight == (0 if lab.side == FIXED else 1)


@pytest.mark.parametrize("case", ADMISSIBLE_CASES, ids=lambda case: case.name)
def test_entries_are_a_view_of_the_cells(pair_cache, case):
    # `entries` decodes the cells in order and looks a label up by its cell;
    # a label off the table, or with a field its cell does not give, is absent
    pair = pair_cache(case.name)
    for table in (pair.source_table, pair.target_table):
        N, n = table.setup.N, table.setup.W.num_vars
        entries = table.entries
        assert len(entries) == len(table.cells)
        for (lab, dim), (cell, cell_dim) in zip(entries.items(), table.cells.items()):
            scaled = [x * N for x in (*lab.sector, *lab.key, lab.p, lab.q)]
            assert all(x.denominator == 1 for x in scaled)
            v = tuple(map(int, scaled))
            assert (v[:n], v[n:2 * n], v[-2], v[-1]) == cell
            assert dim == cell_dim and entries[lab] == cell_dim and lab in entries
            for off in (lab._replace(q=lab.q + 2 * n + 1), lab._replace(p=lab.p + F(1, 2 * N)),
                        lab._replace(weight=lab.weight + 1),
                        lab._replace(side=FIXED if lab.side == MOVING else MOVING)):
                assert off not in entries and entries.get(off) is None
        assert list(entries) == [lab for lab, _ in entries.items()]
        assert table.total_dimension == sum(table.cells.values()) == sum(entries.values())


class TestFjrwSlices:
    def test_elliptic_untwisted_slice(self, elliptic):
        _, table = elliptic
        dims = fjrw_state_space(table, 0).dimensions_by(lambda lab: (lab.p, lab.q))
        assert dims == {(F(2), F(1)): 1, (F(1), F(2)): 1,
                        (F(1), F(1)): 1, (F(2), F(2)): 1}

    @pytest.mark.parametrize("b,total", [(0, 4), (1, 1), (2, 3), (3, 4), (4, 3), (5, 1)])
    def test_elliptic_slice_totals(self, elliptic, b, total):
        _, table = elliptic
        assert fjrw_state_space(table, b).total_dimension == total

    def test_reconstruction(self, elliptic):
        setup, table = elliptic
        per_slice = sum(fjrw_state_space(table, b).total_dimension
                        for b in range(setup.k))
        whole = table.dimensions_by(lambda lab: lab.qj == 0)[True]
        assert per_slice == whole


class TestTwistAndElevators:
    def test_twist_is_dimensionwise_bijection(self, elliptic, quartic):
        for setup, table in (elliptic, quartic):
            moving = {}
            fixed = {}
            for lab, dim in table.entries.items():
                cell = (lab.x, lab.y, lab.z, lab.p, lab.q)
                if lab.side == MOVING:
                    moving[cell] = moving.get(cell, 0) + dim
                else:
                    fixed[cell] = fixed.get(cell, 0) + dim
            k = setup.k
            image = {(x, y, z, p - 1 + F(2 * z, k), q): dim
                     for (x, y, z, p, q), dim in moving.items()}
            assert image == fixed

    def test_twist_label(self, elliptic):
        setup, table = elliptic
        for lab, dim in table.entries.items():
            if lab.side != MOVING:
                continue
            out = twist(setup, lab)
            assert out in table.entries and table.entries[out] == dim
            assert out.p == lab.p - 1 + F(2 * lab.z, setup.k) and out.q == lab.q

    def test_elevators_relate_all_levels(self, elliptic, quartic):
        for setup, table in (elliptic, quartic):
            k = setup.k
            for side in (MOVING, FIXED):
                by_level: dict = {}
                for lab, dim in table.entries.items():
                    if lab.side != side:
                        continue
                    base_p = lab.p - (-F(lab.z, k) if side == MOVING else F(lab.z, k))
                    base_q = lab.q - F(lab.z, k)
                    cell = (lab.x, lab.y, base_p, base_q)
                    by_level.setdefault(lab.z, {}).setdefault(cell, 0)
                    by_level[lab.z][cell] += dim
                levels = list(by_level.values())
                assert all(lv == levels[0] for lv in levels)

    def test_elevator_labels(self, elliptic):
        setup, table = elliptic
        k = setup.k
        for lab, dim in table.entries.items():
            mover = elevator_moving if lab.side == MOVING else elevator_fixed
            assert mover(setup, lab, lab.z) == lab
            for z2 in range(1, k):
                out = mover(setup, lab, z2)
                assert out in table.entries and table.entries[out] == dim
                two_step = mover(setup, mover(setup, lab, 1 + (z2 % (k - 1))), z2)
                assert two_step == out

    def test_twist_commutes_with_elevators(self, elliptic):
        setup, table = elliptic
        k = setup.k
        for lab in table.entries:
            if lab.side != MOVING:
                continue
            for z2 in range(1, k):
                via_moving = twist(setup, elevator_moving(setup, lab, z2))
                via_fixed = elevator_fixed(setup, twist(setup, lab), z2)
                assert via_moving == via_fixed

    def test_elevator_errors(self, elliptic):
        setup, table = elliptic
        lab = next(iter(table.entries))
        wrong = elevator_fixed if lab.side == MOVING else elevator_moving
        with pytest.raises(SideMismatchError):
            wrong(setup, lab, 1)
        right = elevator_moving if lab.side == MOVING else elevator_fixed
        with pytest.raises(ZOutOfRangeError):
            right(setup, lab, 0)
        with pytest.raises(ZOutOfRangeError):
            right(setup, lab, setup.k)

    def test_label_off_the_coset_group_names_no_entry(self, pair_cache):
        # the sector shifted by (0, 1/4, 0, 3/4) still fixes W but lies in no
        # coset j^a s^b K: the twist and the elevators read the label's cell
        # as a lookup does, so they raise NoSuchEntryError, not a bare KeyError
        pair = pair_cache("k3-quartic-z2z2")
        setup, shift = pair.source, (0, F(1, 4), 0, F(3, 4))
        for side, relabels in ((MOVING, (lambda lab: twist(setup, lab),
                                         lambda lab: elevator_moving(setup, lab, 2))),
                               (FIXED, (lambda lab: elevator_fixed(setup, lab, 2),))):
            lab = next(lab for lab in pair.source_table.entries if lab.side == side)
            foreign = lab._replace(sector=tuple((a + b) % 1 for a, b in zip(lab.sector, shift)))
            assert foreign not in pair.source_table.entries
            for relabel in relabels:
                with pytest.raises(NoSuchEntryError):
                    relabel(foreign)


def _twist_elevator_failures(table: StateTable) -> list:
    """The proof's maps on one table: each entry, moved to level Z = 1 by
    its own elevator and twisted if it is moving, must land on a fixed
    entry at level 1, its base, and each base must receive 2(k - 1)
    entries, one per side and level, all of the base's dimension.  The
    bases at which this fails."""
    setup, entries = table.setup, table.entries
    received: dict = {}
    for lab, dim in entries.items():
        if lab.side == MOVING:
            base = twist(setup, elevator_moving(setup, lab, 1))
        else:
            base = elevator_fixed(setup, lab, 1)
        received.setdefault(base, []).append((lab.side, lab.z, dim))
    levels = sorted((side, z) for side in (MOVING, FIXED) for z in range(1, setup.k))
    return [base for base, got in received.items()
            if (base.side, base.z) != (FIXED, 1) or base not in entries
            or sorted((side, z) for side, z, _ in got) != levels
            or {dim for _, _, dim in got} != {entries[base]}]


@pytest.mark.parametrize("case", ADMISSIBLE_CASES, ids=lambda case: case.name)
def test_twist_and_elevators_on_every_table(pair_cache, case):
    pair = pair_cache(case.name)
    for table in (pair.source_table, pair.target_table):
        assert _twist_elevator_failures(table) == []


@pytest.mark.parametrize("case", ADMISSIBLE_CASES, ids=lambda case: case.name)
def test_dropped_moving_cell_fails_the_twist_and_elevators(pair_cache, case):
    pair = pair_cache(case.name)
    for table in (pair.source_table, pair.target_table):
        cells = dict(table.cells)
        del cells[next(cell for lab, cell in zip(table.entries, cells) if lab.side == MOVING)]
        assert _twist_elevator_failures(StateTable(table.setup, cells))


class TestWeightDecomposition:
    def test_fixed_entries_have_weight_zero(self, elliptic):
        _, table = elliptic
        by_side = table.dimensions_by(lambda lab: (lab.side, lab.weight))
        assert {w for side, w in by_side if side == FIXED} == {0}

    def test_elliptic_antidiagonal_weight_parts(self, elliptic):
        _, table = elliptic
        slice3 = fjrw_state_space(table, 3)
        by_weight = slice3.dimensions_by(lambda lab: (lab.dj, lab.weight))
        cell = sum(dim for (dj, _), dim in by_weight.items() if dj == F(1, 2))
        assert cell == 2
        assert by_weight.get((F(1, 2), 2), 0) == 1 and by_weight.get((F(1, 2), 4), 0) == 1

    def test_quartic_untwisted_middle_weights(self, quartic):
        _, table = quartic
        cells = fjrw_state_space(table, 0).dimensions_by(
            lambda lab: (lab.dj, lab.p, lab.q, lab.weight))
        weights = {w: dim for (dj, p, q, w), dim in cells.items()
                   if dj == 0 and (p, q) == (F(2), F(2))}
        assert weights == {1: 6, 2: 7, 3: 6}


def _narrow(lab) -> bool:
    """Narrow entries sit in sectors fixing no variables; broad is the rest."""
    return all(a != 0 for a in lab.sector)


class TestNarrowBroad:
    def test_elliptic_untwisted_split(self, elliptic):
        _, table = elliptic
        cells = fjrw_state_space(table, 0).dimensions_by(lambda lab: (_narrow(lab), lab.p, lab.q))
        assert {(p, q): dim for (narrow, p, q), dim in cells.items() if narrow} == {
            (F(1), F(1)): 1, (F(2), F(2)): 1}
        assert {(p, q): dim for (narrow, p, q), dim in cells.items() if not narrow} == {
            (F(2), F(1)): 1, (F(1), F(2)): 1}

    def test_untwisted_sector_is_broad(self, quartic):
        _, table = quartic
        parts = table.dimensions_by(lambda lab: (lab.sector == identity(4), _narrow(lab)))
        assert parts.get((True, True), 0) == 0
        assert parts[True, False] == table.dimensions_by(
            lambda lab: lab.sector == identity(4))[True]


class TestVanishing:
    def test_no_violations_in_examples(self, elliptic, quartic):
        for _, table in (elliptic, quartic):
            assert moving_vanishing_violations(table) == []

    def test_divisibility_holds_entrywise(self, elliptic):
        setup, table = elliptic
        k = setup.k
        for lab in table.entries:
            if lab.side == MOVING and lab.qj == 0:
                assert (lab.x * lab.z) % k == 0
