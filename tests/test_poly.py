from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bhmirror import poly
from bhmirror.catalog import KRAWITZ_POLYNOMIALS
from bhmirror.cli import main
from bhmirror.errors import (
    DegenerateRestrictionError,
    DegenerateShapeError,
    InputError,
    InternalError,
    NonPositiveWeightError,
    NonSquareError,
    NotCyclicSplitError,
    NotInGroupError,
    PolynomialSyntaxError,
    SingularExponentMatrixError,
    TooManyVariablesError,
)
from bhmirror.poly import (
    classify_atoms,
    decoder,
    direct_sum,
    encode,
    format_polynomial,
    format_ratio,
    format_vector,
    from_exponents,
    is_calabi_yau,
    parse_polynomial,
    restrict,
    solve_weights,
    split_cyclic,
    transpose,
)


def reassemble(P):
    """The monomials of P's atoms, rebuilt from their kinds, variables and
    exponents: x_v^e, times the next variable unless v ends a chain."""
    rows = []
    for kind, variables, exponents in P.atoms:
        m = len(variables)
        for l, (v, e) in enumerate(zip(variables, exponents)):
            row = [0] * P.num_vars
            row[v] = e
            if kind == "loop" or kind == "chain" and l < m - 1:
                row[variables[(l + 1) % m]] += 1
            rows.append(tuple(row))
    return rows


class TestParse:
    def test_elliptic_sextic(self):
        P = parse_polynomial("x0^6 + x1^3 + x2^2")
        assert P.weights == (1, 2, 3)
        assert P.degree == 6
        assert P.var_names == ("x0", "x1", "x2")

    def test_single_fermat(self):
        P = parse_polynomial("x^2")
        assert P.weights == (1,) and P.degree == 2
        assert [a.kind for a in P.atoms] == ["fermat"]

    def test_loop_weights_solved_by_hand(self):
        # 2q0 + q1 = 1 and q0 + 2q1 = 1 give q = (1/3, 1/3)
        P = parse_polynomial("x^2*y + y^2*x")
        assert P.weights == (1, 1) and P.degree == 3
        assert [a.kind for a in P.atoms] == ["loop"]

    def test_whitespace_and_repeat_factors(self):
        assert parse_polynomial(" x ^2*  y+y^ 3 ").exponents == ((2, 1), (0, 3))
        assert parse_polynomial("x*x^2 + y^2").exponents == ((3, 0), (0, 2))

    def test_unit_coefficient_tolerated(self):
        assert parse_polynomial("1*x^2 + y^2").exponents == ((2, 0), (0, 2))

    def test_variable_order_is_first_appearance(self):
        P = parse_polynomial("b^2*a + a^2*b")
        assert P.var_names == ("b", "a")

    @pytest.mark.parametrize("text,pos", [
        ("x^2+@", 4), ("x^", 2), ("x^2 # y", 4), ("", 0),
        # more digits than `int` converts from text
        pytest.param("y^2 + x^" + "9" * 5000, 8, id="5000-digit-exponent"),
    ])
    def test_syntax_error_positions(self, text, pos):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(text)
        assert err.value.position == pos

    def test_nonunit_coefficient_rejected(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("2*x^2 + y^2")

    def test_zero_exponent_rejected(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x^0 + y^2")

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            parse_polynomial("x^2 + y^2 + x*y")

    def test_singular_matrix(self):
        with pytest.raises(SingularExponentMatrixError):
            parse_polynomial("x^2*y^2 + x*y")

    def test_duplicate_monomials_are_nonsquare(self):
        with pytest.raises(NonSquareError):
            parse_polynomial("x^2 + x^2")

    @pytest.mark.parametrize("names", [["x"], ["x", "y", "z"], ["x", "x"]],
                             ids=["too-few", "too-many", "repeated"])
    def test_names_are_one_distinct_name_per_variable(self, names):
        # a short list printed as `x^2 + `, a repeated name as `x^2 + x^3`
        with pytest.raises(NonSquareError, match="distinct variable names for 2 variables"):
            from_exponents([[2, 0], [0, 3]], names)

    def test_non_positive_weight(self):
        # q0 + q1 = 1 and 2q0 + q1 = 1 force q0 = 0
        with pytest.raises(NonPositiveWeightError):
            parse_polynomial("x*y + x^2*y")

    def test_degenerate_shape_three_variable_monomial(self):
        with pytest.raises(DegenerateShapeError):
            parse_polynomial("x^3*y*z + y^2*z + y*z^2")

    def test_degenerate_bare_variable(self):
        with pytest.raises(DegenerateShapeError):
            parse_polynomial("x + y^2")

    def test_too_many_variables(self):
        text = "+".join(f"v{i}^2" for i in range(13))
        with pytest.raises(TooManyVariablesError):
            parse_polynomial(text)


class TestSolveWeights:
    def test_fermat_quartic(self):
        weights, degree = solve_weights([[4, 0, 0, 0], [0, 4, 0, 0],
                                         [0, 0, 4, 0], [0, 0, 0, 4]])
        assert weights == (1, 1, 1, 1) and degree == 4

    def test_one_variable(self):
        assert solve_weights([[7]]) == ((1,), 7)

    def test_chain_by_back_substitution(self):
        # 4q1 = 1 then 3q0 + q1 = 1: q = (1/4, 1/4)
        assert solve_weights([[3, 1], [0, 4]]) == ((1, 1), 4)

    def test_charge_identity(self):
        for text in KRAWITZ_POLYNOMIALS:
            P = parse_polynomial(text)
            for row in P.exponents:
                assert sum(Fraction(e * w, P.degree) for e, w in zip(row, P.weights)) == 1


class TestAtoms:
    def test_diagonal(self):
        P = parse_polynomial("x^6 + y^3 + z^2")
        assert [(a.kind, a.exponents) for a in P.atoms] == [
            ("fermat", (6,)), ("fermat", (3,)), ("fermat", (2,))]

    def test_loop(self):
        P = parse_polynomial("x^2*y + y^2*x")
        assert [(a.kind, a.variables, a.exponents) for a in P.atoms] == [
            ("loop", (0, 1), (2, 2))]

    def test_chain(self):
        P = parse_polynomial("x^3*y + y^4")
        assert [(a.kind, a.variables, a.exponents) for a in P.atoms] == [
            ("chain", (0, 1), (3, 4))]

    def test_reassembly_reproduces_matrix(self):
        for text in KRAWITZ_POLYNOMIALS:
            P = parse_polynomial(text)
            assert sorted(reassemble(P)) == sorted(P.exponents)


class TestTranspose:
    def test_fermat_fixed(self):
        P = parse_polynomial("x^4+y^4")
        assert transpose(P).exponents == P.exponents

    def test_chain(self):
        P = parse_polynomial("x^3*y + y^4")
        assert format_polynomial(transpose(P)) == "x^3 + x*y^4"

    def test_symmetric_loop_fixed(self):
        P = parse_polynomial("x^2*y + y^2*x")
        assert transpose(P).exponents == P.exponents

    def test_involution(self):
        for text in KRAWITZ_POLYNOMIALS:
            P = parse_polynomial(text)
            assert transpose(transpose(P)).exponents == P.exponents

    def test_degenerate_transpose_propagates(self):
        # x*y + y^2 is itself fine, but its transpose x + x*y^2 has a
        # weight-zero variable; the solver error propagates
        P = parse_polynomial("x*y + y^2")
        assert P.weights == (1, 1)
        with pytest.raises(NonPositiveWeightError):
            transpose(P)

    def test_calabi_yau_preserved_in_catalog(self):
        # the charge total is matrix-transpose invariant, so the flag agrees
        for text in KRAWITZ_POLYNOMIALS:
            P = parse_polynomial(text)
            assert is_calabi_yau(P) == is_calabi_yau(transpose(P))


class TestCalabiYau:
    @pytest.mark.parametrize("text,expect", [
        ("x0^6+x1^3+x2^2", True),
        ("x0^4+x1^4+x2^4+x3^4", True),
        ("x^5+y^5", False),
    ])
    def test_flag(self, text, expect):
        assert is_calabi_yau(parse_polynomial(text)) is expect


class TestSplitCyclic:
    def test_elliptic(self):
        k, f = split_cyclic(parse_polynomial("x0^6+x1^3+x2^2"))
        assert k == 6 and format_polynomial(f) == "x1^3 + x2^2"

    def test_order_two(self):
        k, f = split_cyclic(parse_polynomial("x0^2+x1^4+x2^4"))
        assert k == 2 and f.num_vars == 2

    def test_not_split(self):
        with pytest.raises(NotCyclicSplitError):
            split_cyclic(parse_polynomial("x0^3*x1 + x1^2"))


class TestRestrict:
    def test_identity_keeps_everything(self):
        P = parse_polynomial("x^7")
        R = restrict(P, (Fraction(0),))
        assert R.fixed_vars == (0,) and R.blocks == ((0,),)

    def test_free_sector_is_empty(self):
        P = parse_polynomial("x^7")
        R = restrict(P, (3,))  # the code of [3/7] mod |det E| = 7
        assert R.fixed_vars == () and R.milnor_dimension == 1

    def test_quartic_partial_fix(self):
        P = parse_polynomial("x0^4+x1^4+x2^4+x3^4")
        h = encode(P, (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))
        assert h == (0, 64, 128, 64)
        R = restrict(P, h)
        assert R.fixed_vars == (0,) and R.blocks == ((0,),)
        assert R.milnor_dimension == 3

    def test_identity_restriction_full(self):
        for text in ("x^2*y+y^2*x", "x^3*y+y^4", "x0^6+x1^3+x2^2"):
            P = parse_polynomial(text)
            R = restrict(P, (Fraction(0),) * P.num_vars)
            assert R.fixed_vars == tuple(range(P.num_vars))
            assert R.blocks == tuple(atom.variables for atom in P.atoms)

    @pytest.mark.parametrize("text", ["x^2*y+y^3", "x^2*y+y^2*x"],
                             ids=["chain-cut-above-its-tail", "part-of-a-loop"])
    def test_degenerate_fixed_set_is_an_error(self, text):
        # no symmetry fixes x alone here (a fixed set keeps whole chain tails
        # and loops), so the code is written out: fix x, move y
        with pytest.raises(DegenerateRestrictionError) as info:
            restrict(parse_polynomial(text), (0, 1))
        assert str(info.value) == "0 monomials survive on 1 fixed variables"

    @pytest.mark.parametrize("code", [(0,), (0, 0, 0)], ids=["short", "long"])
    def test_wrong_length_code_is_an_error(self, code):
        # `monomial_phases` words the same check the same way
        with pytest.raises(NotInGroupError) as info:
            restrict(parse_polynomial("x^2+y^3"), code)
        assert str(info.value) == f"{len(code)} entries for 2 variables"

    @pytest.mark.parametrize("read", [poly.milnor_number, poly.socle_degree],
                             ids=["milnor-number", "socle-degree"])
    @pytest.mark.parametrize("index", [2, 5, -1])
    def test_variable_outside_the_polynomial_is_an_error(self, read, index):
        # -1 is no variable, not the last one: x^2+y^3 has two
        with pytest.raises(InputError) as info:
            read(parse_polynomial("x^2+y^3"), (0, index))
        assert str(info.value) == f"variable index {index} is not in range(2)"


class TestCodes:
    def test_round_trip(self):
        # entries reduce mod 1; the loop's |det E| = 3 is the common modulus
        P = parse_polynomial("x^2*y+y^2*x")
        g = (Fraction(-1, 3), Fraction(5, 3))
        assert encode(P, g) == (2, 2)
        assert decoder(3)(encode(P, g)) == (Fraction(2, 3), Fraction(2, 3))

    @pytest.mark.parametrize("g, message", [
        ((Fraction(1, 3),), r"\[1/3\] has 1 entries for 2 variables"),
        ((Fraction(1, 3), Fraction(2, 3)), r"\[1/3, 2/3\] does not fix the polynomial"),
        ((Fraction(1, 2), Fraction(1, 2)), r"\[1/2, 1/2\] does not fix the polynomial"),
    ], ids=["length", "not-fixed", "denominator"])
    def test_non_symmetries_rejected(self, g, message):
        with pytest.raises(NotInGroupError, match=message):
            encode(parse_polynomial("x^2*y+y^2*x"), g)

    @pytest.mark.parametrize("code", [(3,), (0, 0, 0)], ids=["short", "long"])
    def test_fixes_rejects_a_code_of_the_wrong_length(self, code):
        # zipped with a row, a short code drops the entries it lacks
        with pytest.raises(NotInGroupError) as info:
            poly.fixes(parse_polynomial("x^2+y^3"), 6, code)
        assert str(info.value) == f"{len(code)} entries for 2 variables"

    def test_decoder_makes_each_entry_once(self):
        decode = decoder(12)
        a, b = decode((3, 0)), decode((0, 3))
        assert a == (Fraction(1, 4), Fraction(0)) and a[0] is b[1] and a[1] is b[0]


class TestCheckedInverse:
    @pytest.mark.parametrize("bump", [
        lambda det, adj: (det, ((adj[0][0] + 1, *adj[0][1:]), *adj[1:])),
        lambda det, adj: (-det, adj),
    ], ids=["integral", "negated-determinant"])
    def test_bumped_inverse_is_an_internal_error(self, monkeypatch, capsys, bump):
        # E*B = N*I for B = N*E^{-1}, checked once per exponent matrix on
        # integers, is the one check of every code read off A = B mod N: a
        # wrong adjugate entry, or a determinant of the wrong sign, fails
        # it, and the CLI exits 3
        real = poly.adjugate
        monkeypatch.setattr(poly, "adjugate", lambda rows: bump(*real(rows)))
        with pytest.raises(InternalError, match=r"N\*E\^-1 for N = \|det E\| = 12 is not"):
            parse_polynomial("x^3*y+y^4")
        assert main(["analyze", "x0^6+x1^3+x2^2"]) == 3
        assert "is not an integer inverse of E" in capsys.readouterr().err

    def test_bumped_record_inverse_is_an_internal_error(self):
        # a transpose and an inner f take their inverse from the parent's
        # record and check it on their own matrix: a wrong entry of the
        # record, by any amount, fails the check (f reads
        # none of row and column 0)
        W = parse_polynomial("x0^4+x1^3*x2+x2^4")
        n = W.num_vars
        for i in range(n):
            for j in range(n):
                for bump in (1, -1, 4):
                    B = [list(row) for row in W.inverse]
                    B[i][j] += bump
                    wrong = W._replace(inverse=tuple(map(tuple, B)))
                    with pytest.raises(InternalError, match=r"N\*E\^-1 for N = \|det E\| = "):
                        transpose(wrong)
                    if i and j:
                        with pytest.raises(InternalError, match="is not an integer inverse of E"):
                            split_cyclic(wrong)


def fraction_text(g, N=1):
    """A vector as `format_vector` wrote it with a `Fraction` per entry."""
    return "[" + ", ".join(str(Fraction(a, N)) for a in g) + "]"


class TestFormatting:
    # codes and numerators are formatted on integers; the text is the one a
    # `Fraction` per entry gives, sign, lowest terms and integers included
    @settings(max_examples=400, deadline=None)
    @given(st.integers(), st.integers(min_value=1))
    @example(0, 1)
    @example(0, 12)
    @example(-3, 12)
    @example(7, 1)
    @example(-7, 1)
    @example(3 * 2**200, 2**201)
    @example(-(10**40), 10**40)
    def test_ratio_is_the_fraction_text(self, a, N):
        assert format_ratio(a, N) == str(Fraction(a, N))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=10**12).flatmap(
        lambda N: st.tuples(st.just(N), st.lists(st.integers(0, N - 1), max_size=12))))
    def test_codes_format_as_before(self, drawn):
        N, code = drawn
        assert format_vector(code, N) == format_vector(tuple(code), N) == fraction_text(code, N)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.fractions(), st.integers()), max_size=8))
    def test_rational_vectors_format_as_before(self, vector):
        assert format_vector(vector) == fraction_text(vector)

    def test_catalog_codes_format_as_their_decoded_view(self):
        for text in KRAWITZ_POLYNOMIALS:
            P = parse_polynomial(text)
            N = P.N
            for code in (*P.characters, poly.grading_code(P)):
                assert format_vector(code, N) == fraction_text(decoder(N)(code))


class TestDirectSum:
    def test_block_matrix(self):
        P = direct_sum(parse_polynomial("x^3"), parse_polynomial("y^2*z+z^2*y"))
        assert P.num_vars == 3
        assert {a.kind for a in P.atoms} == {"fermat", "loop"}

    def test_name_clash_rejected(self):
        with pytest.raises(NonSquareError):
            direct_sum(parse_polynomial("x^3"), parse_polynomial("x^2"))
