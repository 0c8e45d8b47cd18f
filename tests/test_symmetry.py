from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bhmirror.catalog import ADMISSIBLE_CASES
from bhmirror.errors import (
    DualityViolationError,
    GradingCollisionError,
    GroupTooLargeError,
    InternalError,
    NotAdmissibleError,
    NotCyclicSplitError,
    NotInGroupError,
)
from bhmirror.mirror import build_mirror_pair
from bhmirror.poly import (
    decoder,
    encode,
    exponent_inverse,
    from_exponents,
    parse_polynomial,
    split_cyclic,
    transpose,
)
from bhmirror.symmetry import (
    admissible_setup,
    annihilator,
    aut_group,
    dual_group,
    enumerate_group,
    j_element,
    pairing,
    s_element,
    sl_subgroup,
    symmetry,
)
from test_group_reference import (
    age,
    aut_generators,
    identity,
    in_sl,
    ref_add,
    ref_neg,
    ref_scale,
)

F = Fraction

ELLIPTIC = parse_polynomial("x0^6+x1^3+x2^2")
QUARTIC = parse_polynomial("x0^4+x1^4+x2^4+x3^4")
LOOP = parse_polynomial("x^2*y + y^2*x")


class TestGenerators:
    def test_one_variable(self):
        assert aut_generators(parse_polynomial("x^5")) == ((F(1, 5),),)

    def test_quartic_group_order(self):
        gens = aut_generators(QUARTIC)
        assert len(gens) == 4
        assert aut_group(QUARTIC).order == 256

    def test_loop_span_order_equals_determinant(self):
        group = enumerate_group(LOOP, aut_generators(LOOP))
        assert group.order == LOOP.N == 3

    def test_dual_generators_fix_transpose(self):
        # the rows of the inverse matrix; their codes are the characters of
        # the Milnor series
        for P in (ELLIPTIC, LOOP, parse_polynomial("x^3*y+y^4")):
            Pv = transpose(P)
            decode = decoder(P.N)
            for row, chi in zip(exponent_inverse(P), P.characters):
                assert encode(Pv, row) == chi  # raises unless the row fixes Pv
                assert decode(chi) == symmetry(row)


class TestEnumeration:
    def test_cyclic_span(self):
        group = enumerate_group(ELLIPTIC, [(F(1, 6), F(1, 3), F(1, 2))])
        assert group.order == 6

    def test_empty_span(self):
        assert enumerate_group(ELLIPTIC, []).order == 1

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("BHMIRROR_MAX_GROUP", "10")
        with pytest.raises(GroupTooLargeError):
            enumerate_group(QUARTIC, aut_generators(QUARTIC))

    def test_non_symmetry_rejected(self):
        with pytest.raises(NotInGroupError):
            enumerate_group(ELLIPTIC, [(F(1, 5), F(0), F(0))])


class TestAge:
    def test_values(self):
        assert age((F(1, 6), F(1, 3), F(1, 2))) == 1
        assert age(identity(3)) == 0
        assert age((F(5, 6), F(4, 6), F(3, 6))) == 2

    def test_age_plus_age_of_inverse(self):
        for g in aut_group(ELLIPTIC).elements:
            nonzero = sum(1 for a in g if a != 0)
            assert age(g) + age(ref_neg(g)) == nonzero


class TestDistinguishedElements:
    def test_j(self):
        assert j_element(ELLIPTIC) == (F(1, 6), F(1, 3), F(1, 2))
        assert j_element(QUARTIC) == (F(1, 4),) * 4
        assert j_element(parse_polynomial("x^9")) == (F(1, 9),)

    def test_s(self):
        assert s_element(ELLIPTIC) == (F(1, 6), F(0), F(0))
        assert s_element(QUARTIC) == (F(1, 4), F(0), F(0), F(0))
        assert s_element(parse_polynomial("x0^2+x1^4+x2^4")) == (F(1, 2), F(0), F(0))

    def test_in_sl(self):
        assert in_sl((F(1, 6), F(1, 3), F(1, 2)))
        assert not in_sl((F(1, 4), F(0), F(0), F(0)))
        assert in_sl(identity(4))


class TestPairing:
    @pytest.mark.parametrize("P", [ELLIPTIC, QUARTIC, LOOP,
                                   parse_polynomial("x^3*y+y^4")])
    def test_generator_identity(self, P):
        # pairing with the i-th column generator reads off the i-th entry
        gens = aut_generators(P)
        for h in aut_group(transpose(P)).elements:
            for i, rho in enumerate(gens):
                assert pairing(P, rho, h) == h[i]

    def test_identity_pairs_to_zero(self):
        for h in aut_group(transpose(QUARTIC)).elements[:20]:
            assert pairing(QUARTIC, identity(4), h) == 0

    def test_quartic_value(self):
        g = (F(1, 4), F(0), F(0), F(0))
        assert pairing(QUARTIC, g, g) == F(1, 4)

    def test_bilinear(self):
        elements = aut_group(QUARTIC).elements
        duals = aut_group(transpose(QUARTIC)).elements
        for g1, g2, h in [(elements[3], elements[77], duals[5]),
                          (elements[10], elements[200], duals[255])]:
            assert pairing(QUARTIC, ref_add(g1, g2), h) == \
                (pairing(QUARTIC, g1, h) + pairing(QUARTIC, g2, h)) % 1

    def test_nondegenerate(self):
        for P in (LOOP, parse_polynomial("x^3*y+y^4")):
            Pv = transpose(P)
            duals = aut_group(Pv).elements
            for g in aut_group(P).elements:
                if all(pairing(P, g, h) == 0 for h in duals):
                    assert g == identity(P.num_vars)

    def test_dimension_mismatch(self):
        with pytest.raises(NotInGroupError):
            pairing(QUARTIC, (F(1, 4),), (F(0),) * 4)


class TestDualGroup:
    def test_j_dual_is_sl(self):
        H = enumerate_group(QUARTIC, [j_element(QUARTIC)])
        Hv = dual_group(H)
        assert Hv.order == 64
        assert set(Hv.elements) == set(sl_subgroup(transpose(QUARTIC)).elements)

    def test_full_group_dual_trivial(self):
        assert dual_group(aut_group(QUARTIC)).order == 1

    def test_aut_order_is_checked_against_the_determinant(self, monkeypatch):
        # the span of the columns of N*E^{-1} must have |det E| elements
        from bhmirror import symmetry as module
        real = module._elements
        monkeypatch.setattr(module, "_elements", lambda *args: real(*args)[:-1])
        with pytest.raises(InternalError, match=r"\|Aut\| = 35 differs from \|det E\| = 36"):
            module.aut_group(ELLIPTIC)

    def test_annihilator_checks_the_order_identity(self):
        j = encode(QUARTIC, j_element(QUARTIC))
        assert len(annihilator(QUARTIC, (j,), 4)) == 64
        with pytest.raises(DualityViolationError):
            annihilator(QUARTIC, (j,), 2)

    @pytest.mark.parametrize("fault, message", [
        (lambda basis: [[basis[0][0] + 1, *basis[0][1:]], *basis[1:]],
         r"kernel image \[1/4, 0, 0, 0\] does not pair to zero with \[1/4, 1/4, 1/4, 1/4\]"),
        (lambda basis: basis[:-1],
         r"annihilator of order 16 times group order 4 differs from \|det E\| = 256"),
    ], ids=["bumped-image", "dropped-image"])
    def test_a_wrong_kernel_basis_is_caught(self, monkeypatch, fault, message):
        # Ann(<j>) of the quartic is the image of a kernel basis; an image
        # that pairs to nonzero with j trips the pairing check, and a basis
        # that spans too little trips the order identity
        from bhmirror import symmetry as module
        real = module._kernel_basis
        monkeypatch.setattr(module, "_kernel_basis", lambda *args: fault(real(*args)))
        with pytest.raises(DualityViolationError, match=message):
            annihilator(QUARTIC, (encode(QUARTIC, j_element(QUARTIC)),), 4)

    def test_kernel_basis_checks_its_integrality(self, monkeypatch):
        # N*M^{-1} is integral only if the rows of M span N*Z^n; a bumped
        # pivot of the basis of <j> breaks that, and is no kernel to round
        from bhmirror import symmetry as module
        real = module._hermite

        def bumped(*args):
            M = real(*args)
            return [[M[0][0] + 1, *M[0][1:]], *M[1:]]

        monkeypatch.setattr(module, "_hermite", bumped)
        with pytest.raises(InternalError, match=r"N\*M\^-1 for N = 256 is not an integer matrix"):
            annihilator(QUARTIC, (encode(QUARTIC, j_element(QUARTIC)),), 4)

    def test_order_product(self):
        H = enumerate_group(QUARTIC, [(F(1, 4), F(3, 4), F(0), F(0))])
        assert H.order * dual_group(H).order == 256

    def test_double_dual(self):
        for gens in ([(F(1, 6), F(1, 3), F(1, 2))], [(F(1, 2), F(0), F(1, 2))]):
            H = enumerate_group(ELLIPTIC, gens)
            back = dual_group(dual_group(H))
            assert set(back.elements) == set(H.elements)

    def test_inclusion_reversing(self):
        small = enumerate_group(QUARTIC, [j_element(QUARTIC)])
        big = enumerate_group(QUARTIC, [j_element(QUARTIC), (F(1, 2), F(1, 2), F(0), F(0))])
        assert set(dual_group(big).elements) <= set(dual_group(small).elements)

    @settings(deadline=None, max_examples=20)
    @given(st.lists(st.integers(0, 255), min_size=0, max_size=3))
    def test_double_dual_random_subgroups(self, picks):
        elements = aut_group(QUARTIC).elements
        H = enumerate_group(QUARTIC, [elements[i] for i in picks])
        assert set(dual_group(dual_group(H)).elements) == set(H.elements)


class TestAdmissibleSetup:
    def test_elliptic_trivial_K(self):
        setup = admissible_setup(ELLIPTIC)
        assert setup.k == 6
        assert setup.group_order == 36
        assert len(set(setup.labels.values())) == 36
        assert sum(1 for _, b in setup.labels.values() if b == 0) == 6

    def test_quartic_trivial_K(self):
        setup = admissible_setup(QUARTIC)
        assert setup.k == 4 and setup.group_order == 16
        assert setup.labels[encode(QUARTIC, (F(1, 2), F(1, 4), F(1, 4), F(1, 4)))] == (1, 1)

    def test_x0_power_outside_row_0_rejected(self):
        # the charges of a key are read off sum(key) and key[0], as x0^k is
        # row 0 of E and of its transpose; the parser always puts it there
        W = from_exponents(((0, 2, 1), (4, 0, 0), (0, 0, 2)))
        for build in (admissible_setup, build_mirror_pair):
            with pytest.raises(NotCyclicSplitError,
                               match=r"x0\^4 is row 1 of the exponent matrix, not row 0"):
                build(W)

    def test_K_outside_sl_rejected(self):
        with pytest.raises(NotAdmissibleError):
            admissible_setup(QUARTIC, enumerate_group(split_cyclic(QUARTIC)[1],
                                                      [(F(1, 4), F(0), F(0))]))

    def test_K_of_another_polynomial_rejected(self):
        # K must be a group of f, not of W
        with pytest.raises(NotAdmissibleError, match="K is a group of x0"):
            admissible_setup(QUARTIC, aut_group(QUARTIC))

    def test_missing_power_of_jf_rejected(self):
        with pytest.raises(NotAdmissibleError):
            admissible_setup(parse_polynomial("x0^3+x1^3+x2^4+x3^12"))

    def test_grading_collision(self):
        # K contains the inner grading symmetry itself, so the coset labelled
        # (1, 1) coincides with K and the gradings would be two-valued
        W = parse_polynomial("x0^2+x1^3+x2^3+x3^3")
        with pytest.raises(GradingCollisionError):
            admissible_setup(W, enumerate_group(split_cyclic(W)[1],
                                                [(F(1, 3), F(1, 3), F(1, 3))]))

    def test_labels_cover_group(self):
        setup = admissible_setup(ELLIPTIC)
        decode = decoder(setup.N)
        j, s = j_element(ELLIPTIC), s_element(ELLIPTIC)
        for g, (a, b) in setup.labels.items():
            expected = ref_add(ref_add(ref_scale(j, a), ref_scale(s, b)), identity(3))
            assert decode(g) == expected  # trivial K: the coset is a single element

    def test_keys_are_graded_by_pairing(self, pair_cache):
        # on both sides of every catalog pair, each key of Ann(K) carries
        # k * (pairing with j, pairing with s), and the keys of charge (0, 0)
        # are the annihilator of <K, j, s>, the other side's K
        for case in ADMISSIBLE_CASES:
            pair = pair_cache(case.name)
            for setup in (pair.source, pair.target):
                k, W = setup.k, setup.W
                decode = decoder(setup.N)
                j, s = decode(setup.j), decode(setup.s)
                for key, charges in setup.keys.items():
                    assert charges == (k * pairing(W, j, decode(key)),
                                       k * pairing(W, s, decode(key)))
                K_gens = tuple((0, *(k * x for x in g)) for g in setup.K_inner.generators)
                assert [h for h, charges in setup.keys.items() if charges == (0, 0)] == \
                    list(annihilator(W, (setup.j, setup.s) + K_gens, setup.group_order))

    def test_charge_identities_are_checked(self, monkeypatch):
        # keys are graded by sum(key) and key[r0] only because E*j = N*1 and
        # E*s = N*e_r0; a setup whose E*j reads otherwise is an internal error
        from bhmirror import symmetry as module
        monkeypatch.setattr(module, "monomial_phases", lambda P, N, g: (0,) * P.num_vars)
        with pytest.raises(InternalError, match=r"E\*j is not N\*1 or E\*s is not N\*e_0 "
                                                r"for N = 256"):
            admissible_setup(QUARTIC)

    def test_charges_off_the_1_over_k_grid_are_caught(self, monkeypatch):
        # a key of Ann(K) whose charge is not a multiple of 1/k: [1/16, 0, 0, 0]
        # pairs with j to 1/16 on the quartic, k = 4
        from bhmirror import symmetry as module
        real = module.annihilator
        monkeypatch.setattr(module, "annihilator", lambda *args: real(*args) + ((16, 0, 0, 0),))
        with pytest.raises(DualityViolationError,
                           match=r"charges of key \[1/16, 0, 0, 0\] are not multiples of 1/4"):
            admissible_setup(QUARTIC)
