from collections import Counter
from fractions import Fraction

import pytest

from bhmirror import mirror
from bhmirror.errors import (
    DualityViolationError,
    NotAdmissibleError,
    NotFermatError,
)
from bhmirror.geometry import sector_grid
from bhmirror.milnor import sector_algebra
from bhmirror.mirror import (
    FermatState,
    MirrorPair,
    build_mirror_pair,
    check_pair,
    fermat_mirror_map,
    fermat_states,
    thom_sebastiani_convolution,
    verify_krawitz,
    verify_lg_mirror,
    verify_order2_exchange,
    verify_pair_duality,
)
from bhmirror.poly import direct_sum, from_exponents, parse_polynomial, transpose
from bhmirror.statespace import (
    MOVING,
    StateTable,
    elevator_moving,
    twist,
    unprojected_cells,
    unprojected_state_space,
)
from bhmirror.symmetry import pairing, symmetry
from test_group_reference import identity

F = Fraction


class TestMirrorPair:
    def test_elliptic_self_mirror(self, pair_cache):
        pair = pair_cache("elliptic-sextic")
        assert pair.target.W.exponents == pair.source.W.exponents
        assert pair.target.K_inner.order == 1
        assert pair.target_table.entries == pair.source_table.entries

    def test_quartic_mirror_groups(self, pair_cache):
        pair = pair_cache("fermat-quartic")
        assert pair.target.K_inner.order == 16
        assert sum(1 for _, b in pair.target.labels.values() if b == 0) == 64
        assert pair.target.group_order == 256

    def test_symmetric_loop_self_transpose(self):
        W = parse_polynomial("x0^4+x1^3*x2+x2^3*x1+x3^4")
        pair = build_mirror_pair(W)
        assert pair.target.W.exponents == W.exponents

    def test_weight_sum_hypothesis_enforced(self):
        pair = build_mirror_pair(parse_polynomial("x0^3+x1^3"))
        with pytest.raises(NotAdmissibleError):
            verify_lg_mirror(pair)


class TestKrawitz:
    def test_one_variable_cells(self):
        k = 5
        report = verify_krawitz(parse_polynomial(f"x^{k}"))
        assert report.passed
        U = unprojected_state_space(parse_polynomial(f"x^{k}"))
        # the identity-sector class of key b sits opposite the free sector b
        for b in range(1, k):
            assert U[((F(0),), (F(b, k),), 1 - F(b, k), F(b, k))] == 1
            assert U[((F(b, k),), (F(0),), F(b, k), F(b, k))] == 1

    def test_loop_full_scan(self):
        report = verify_krawitz(parse_polynomial("x^2*y+y^2*x"))
        assert report.passed and report.cells_checked > 0

    @pytest.mark.parametrize("text", ["x^3*y+y^4", "x^2+y^2*z+z^3",
                                      "x^2*y+y^3*z+z^4*x"])
    def test_mixed_shapes(self, text):
        assert verify_krawitz(parse_polynomial(text)).passed


class TestThomSebastiani:
    @pytest.mark.parametrize("left,right", [
        ("x^3", "y^4"),
        ("x^2*y+y^2*x", "z^3"),
        ("x^3*y+y^4", "z^2*w+w^2*z"),
    ])
    def test_convolution(self, left, right):
        P1 = parse_polynomial(left)
        P2 = parse_polynomial(right)
        U = unprojected_state_space(direct_sum(P1, P2))
        convolved = thom_sebastiani_convolution(
            unprojected_state_space(P1), unprojected_state_space(P2))
        assert U == convolved


class TestFermatStates:
    def test_state_count_matches_table(self):
        P = parse_polynomial("x0^6+x1^3+x2^2")
        states = fermat_states(P)
        U = unprojected_state_space(P)
        aggregated: dict = {}
        for s in states:
            aggregated[s.label] = aggregated.get(s.label, 0) + 1
        assert aggregated == U

    def test_monomials_in_any_order(self):
        # x1^2 + x0^3: each variable's exponent is its Fermat atom's, not a
        # diagonal entry of E, and each key sums the dual characters
        P = from_exponents([[0, 2], [3, 0]])
        states = fermat_states(P)
        assert len(states) == sum(unprojected_cells(P).values()) == 8
        assert Counter(s.label for s in states) == unprojected_state_space(P)

    def test_one_variable_map(self):
        P = parse_polynomial("x^6")
        for i in range(1, 6):
            state = FermatState(P, (0,), (i,))
            image = fermat_mirror_map(state)
            assert image.a == (i,) and image.b == (0,)
            assert image.sector == (F(i, 6),)

    def test_involution(self):
        P = parse_polynomial("x0^6+x1^3+x2^2")
        for state in fermat_states(P):
            back = fermat_mirror_map(fermat_mirror_map(state))
            assert (back.a, back.b) == (state.a, state.b)

    def test_bidegree_flip(self):
        P = parse_polynomial("x0^4+x1^4+x2^4+x3^4")
        for state in fermat_states(P)[:500]:
            p, q = state.bidegree
            pm, qm = fermat_mirror_map(state).bidegree
            assert (pm, qm) == (4 - p, q)

    def test_weights_become_sector_entries(self):
        P = parse_polynomial("x0^4+x1^4+x2^4+x3^4")
        for state in fermat_states(P)[:500]:
            image = fermat_mirror_map(state)
            assert image.sector[0] == F(state.b[0], 4)

    def test_elliptic_moving_composite(self, pair_cache):
        # the composite mirror/untwist/elevator sends x*y dx^dy to x^2 dx^dz:
        # the basis state's mirror image is a fixed mirror entry, the twist of
        # exactly one moving entry, whose moving elevator to level 3 lands on
        # the basis state (0, 2, 0), (3, 0, 1)
        pair = pair_cache("elliptic-sextic")
        state = FermatState(pair.source.W, (0, 0, 1), (2, 2, 0))
        assert state.sector == symmetry([0, 0, F(1, 2)])
        [_] = [lab for lab in pair.source_table.entries
               if (lab.sector, lab.key, lab.p, lab.q) == state.label]
        mirrored = fermat_mirror_map(state)
        assert (mirrored.a, mirrored.b) == ((2, 2, 0), (0, 0, 1))
        [image] = [lab for lab in pair.target_table.entries
                   if (lab.sector, lab.key, lab.p, lab.q) == mirrored.label]
        setup = pair.target
        [untwisted] = [lab for lab in pair.target_table.entries
                       if lab.side == MOVING and twist(setup, lab) == image]
        elevated = elevator_moving(setup, untwisted, 3)
        assert elevated.sector == symmetry([0, F(2, 3), 0])
        assert (elevated.p, elevated.q) == (F(5, 3), F(5, 3))
        composite = FermatState(setup.W, (0, 2, 0), (3, 0, 1))
        assert (elevated.sector, elevated.key, elevated.p, elevated.q) == composite.label

    @pytest.mark.parametrize("make, error, message", [
        (lambda P: FermatState(P, (1,), (1,)), NotFermatError, "clash at 0"),
        (lambda P: FermatState(P, (0,), (7,)), NotFermatError, "out of range at variable 0"),
    ], ids=["clash", "out-of-range"])
    def test_bad_states_raise_library_errors(self, make, error, message):
        with pytest.raises(error, match=message):
            make(parse_polynomial("x^6"))

    @pytest.mark.parametrize("a, b", [((0,), (1,)), ((0, 0, 1), (1, 1, 0))],
                             ids=["short", "long"])
    def test_wrong_length_state_is_an_error(self, a, b):
        with pytest.raises(NotFermatError) as info:
            FermatState(parse_polynomial("x^3+y^3"), a, b)
        assert str(info.value) == f"a has {len(a)} and b {len(b)} entries for 2 variables"

    @pytest.mark.parametrize("exponents", [[[0, 2], [3, 0]], [[0, 0, 4], [3, 0, 0], [0, 2, 0]]],
                             ids=["x1^2+x0^3", "x2^4+x0^3+x1^2"])
    def test_mirror_map_with_monomials_in_any_order(self, exponents):
        # the transpose's variables are P's monomials: row r holding x_i^{k_i}
        # takes (b_i, a_i); every state maps, sector and key exchange, and the
        # images are the transpose's basis
        P = from_exponents(exponents)
        n = P.num_vars
        states = fermat_states(P)
        images = [fermat_mirror_map(state) for state in states]
        for state, image in zip(states, images):
            assert (image.sector, image.key) == (state.key, state.sector)
            p, q = state.bidegree
            assert image.bidegree == (n - p, q)
            assert fermat_mirror_map(image) == state
        assert Counter(image.label for image in images) == unprojected_state_space(transpose(P))


class TestLgMirrorTheorem:
    @pytest.mark.parametrize("name", ["elliptic-sextic", "fermat-quartic",
                                      "k3-p13", "k2-elliptic"])
    def test_catalog_cases(self, pair_cache, name):
        report = verify_lg_mirror(pair_cache(name))
        assert report.passed, report.violations[:5]

    def test_pair_duality(self, pair_cache):
        for name in ("elliptic-sextic", "fermat-quartic", "k3-p7"):
            assert verify_pair_duality(pair_cache(name)).passed

    def test_reports_own_their_items(self, pair_cache):
        # a report is a NamedTuple over its list of comparisons, made as
        # VerificationReport([]), so two checks of one pair never record into
        # one list; `items` is derived from the comparisons on each read, so a
        # later check leaves the cells of an earlier report as they were
        pair = pair_cache("k2-elliptic")
        duality = verify_pair_duality(pair)
        cells = list(duality.items)
        lg = verify_lg_mirror(pair)
        assert duality.comparisons is not lg.comparisons
        assert duality.items is not lg.items and duality.items == cells
        assert {item.statement for item in duality.items} == {"pair-duality"}
        assert "pair-duality" not in {item.statement for item in lg.items}
        assert duality.passed and lg.passed and duality.cells_checked and lg.cells_checked

    def test_elliptic_part3_statement(self, pair_cache):
        # the two antidiagonal classes match the two elevator-related cells
        pair = pair_cache("elliptic-sextic")
        cells = pair.source_table.dimensions_by(lambda lab: (lab.qj == 0, lab.dj, lab.ds))
        half = cells.get((True, F(1, 2), F(1, 2)), 0)
        a24 = cells.get((True, F(1, 3), F(2, 3)), 0)
        a42 = cells.get((True, F(2, 3), F(1, 3)), 0)
        assert half == 2
        assert a24 + a42 == 2

    def test_part3_vacuous_cells_reported(self, pair_cache):
        report = verify_lg_mirror(pair_cache("fermat-quartic"))
        vacuous = [i for i in report.items if i.statement.endswith("/vacuous")]
        assert vacuous and all(i.lhs == 0 and i.rhs == 0 for i in vacuous)

    def test_order2(self, pair_cache):
        for name in ("k2-elliptic", "k2-chain", "k2-k3-sextic"):
            assert verify_order2_exchange(pair_cache(name)).passed


class TestFailurePaths:
    """A table with one dimension raised by 1 must fail at that cell."""

    @pytest.mark.parametrize("name", ["toy-k2", "k2-elliptic"])
    @pytest.mark.parametrize("verify, statement", [
        (verify_pair_duality, "pair-duality"),
        (verify_lg_mirror, "part1"),
        (verify_order2_exchange, "exchange[plus]"),
    ])
    def test_bumped_source_entry(self, pair_cache, name, verify, statement):
        pair = pair_cache(name)
        cells = dict(pair.source_table.cells)
        lab, cell = next((lab, cell) for lab, cell in zip(pair.source_table.entries, cells)
                         if lab.qj == 0 and lab.ds == 0 and lab.weight == 0)
        cells[cell] += 1
        bumped = MirrorPair(pair.source, StateTable(pair.source, cells),
                            pair.target, pair.target_table)
        report = verify(bumped)
        assert not report.passed
        [violation] = report.violations
        assert violation.statement == statement
        assert violation.cell[-2:] == cell[2:]
        assert violation.lhs == violation.rhs + 1
        assert report.cells_checked == len(report.items)

    def test_krawitz_bumped_side(self, monkeypatch):
        # the scan compares integer cells; the violation names the bumped
        # cell as it was compared
        P = parse_polynomial("x^3*y+y^4")
        real = mirror.unprojected_cells
        cell = next(iter(real(P)))

        def bumped(Q):
            U = real(Q)
            if Q == P:
                U = {**U, cell: U[cell] + 1}
            return U

        monkeypatch.setattr(mirror, "unprojected_cells", bumped)
        report = verify_krawitz(P)
        [violation] = report.violations
        assert violation.statement == "krawitz"
        assert violation.cell == cell
        assert cell in real(P)
        assert violation.lhs == violation.rhs + 1
        assert report.cells_checked == len(report.items)

    @staticmethod
    def _change_setup(monkeypatch, call, change):
        """Make the call-th `admissible_setup` of `build_mirror_pair` (1 the
        source, 2 the mirror) return change(setup); returns the setups made."""
        real = mirror.admissible_setup
        calls = []

        def changed(*args):
            setup = real(*args)
            calls.append(setup)
            return change(setup) if len(calls) == call else setup

        monkeypatch.setattr(mirror, "admissible_setup", changed)
        return calls

    @pytest.mark.parametrize("call", [1, 2], ids=["source", "mirror"])
    def test_bad_dual_of_k_is_caught(self, monkeypatch, call):
        # each setup's keys, Ann(K), must equal the other side's coset group;
        # one key of nonzero charge short on the source setup (call 1) or the
        # mirror setup (call 2) must be reported
        def short(setup):
            drop = next(h for h, charges in setup.keys.items() if charges != (0, 0))
            return setup._replace(keys={h: c for h, c in setup.keys.items() if h != drop})

        calls = self._change_setup(monkeypatch, call, short)
        with pytest.raises(DualityViolationError,
                           match="dual of K does not equal the mirror coset group"):
            build_mirror_pair(parse_polynomial("x0^4+x1^4+x2^4+x3^4"))
        assert len(calls) == 2

    @pytest.mark.parametrize("extra", [(1, 0, 0, 0), (0, 1, 0, 0)],
                             ids=["moves-x0", "not-divisible-by-k"])
    def test_mirror_K_outside_the_transpose_of_f_is_caught(self, monkeypatch, extra):
        # the mirror's K is read off the source's keys h of charge (0, 0) as
        # h[1:] / k; a code with h[0] != 0 or an entry not divisible by k is
        # no symmetry of the transpose of f
        self._change_setup(monkeypatch, 1,
                           lambda setup: setup._replace(keys={**setup.keys, extra: (0, 0)}))
        with pytest.raises(DualityViolationError, match="K is not a group of the transpose of f"):
            build_mirror_pair(parse_polynomial("x0^4+x1^4+x2^4+x3^4"))

    def test_mirror_K_order_identity_is_checked(self, monkeypatch):
        # |K'| * |G| = |det E|: the quartic's 16 keys of charge (0, 0), one
        # short, against its 16 cosets and |det E| = 256
        self._change_setup(monkeypatch, 1, lambda setup: setup._replace(
            keys={h: c for h, c in setup.keys.items() if any(h)}))
        with pytest.raises(DualityViolationError,
                           match=r"mirror K of order 15 times group order 16 differs from "
                                 r"\|det E\| = 256"):
            build_mirror_pair(parse_polynomial("x0^4+x1^4+x2^4+x3^4"))

    def test_inadmissible_mirror_K_is_reported(self, monkeypatch):
        # a charge-zero key traded for (0, 4, 0, 0), whose h[1:] / k = [1/64, 0, 0]
        # has age 1/64: the mirror's K leaves SL of the transpose of f
        def traded(setup):
            keys = dict(setup.keys)
            del keys[[h for h, c in keys.items() if c == (0, 0)][-1]]
            return setup._replace(keys={**keys, (0, 4, 0, 0): (0, 0)})

        self._change_setup(monkeypatch, 1, traded)
        with pytest.raises(DualityViolationError,
                           match=r"mirror group is not admissible: K contains \[1/64, 0, 0\]"):
            build_mirror_pair(parse_polynomial("x0^4+x1^4+x2^4+x3^4"))

    def test_cyclic_exponents_of_the_pair_are_compared(self, monkeypatch):
        self._change_setup(monkeypatch, 2, lambda setup: setup._replace(k=setup.k + 1))
        with pytest.raises(DualityViolationError, match="cyclic exponents of the pair differ"):
            build_mirror_pair(parse_polynomial("x0^4+x1^4+x2^4+x3^4"))


class TestCyReindex:
    def test_elliptic_diamond(self, pair_cache):
        # row 0 of the grid is the untwisted slice shifted by (-1, -1)
        grid = sector_grid(pair_cache("elliptic-sextic").source_table)
        dims: dict = {}
        for a in range(grid.k):
            for pq, dim in grid.cell(0, a).items():
                dims[pq] = dims.get(pq, 0) + dim
        assert dims == {(1, 0): 1, (0, 1): 1, (0, 0): 1, (1, 1): 1}


class TestMovingBecomesFixed:
    def test_dimension_identity(self):
        W = parse_polynomial("x0^4+x1^4+x2^4+x3^4")
        s = symmetry([F(1, 4), 0, 0, 0])
        U = unprojected_state_space(W)
        Uv = unprojected_state_space(transpose(W))
        invariant = sum(dim for (h, key, _, _), dim in U.items()
                        if pairing(W, s, key) == 0)
        mirror_moved = sum(dim for (h, _, _, _), dim in Uv.items()
                           if h[0] != 0)
        assert invariant == mirror_moved


@pytest.mark.parametrize("name, checks", [
    ("toy-k2", ["milnor-dimensions", "fermat-oracle", "vanishing", "pair-duality",
                "lg-mirror", "order2-exchange"]),
    ("elliptic-loop", ["milnor-dimensions", "vanishing", "pair-duality", "lg-mirror"]),
])
def test_check_pair_names_its_reports_in_verify_order(pair_cache, name, checks):
    # the oracle runs for Fermat W only, the exchange for k = 2 only; the
    # Milnor check reads one cell per sector
    pair = pair_cache(name)
    reports = check_pair(pair)
    assert [check for check, _ in reports] == checks
    assert all(report.passed for _, report in reports)
    assert dict(reports)["milnor-dimensions"].cells_checked == pair.source.group_order
