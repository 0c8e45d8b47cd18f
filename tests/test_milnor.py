import re
from fractions import Fraction

import pytest

from bhmirror.errors import InternalError, NotFermatError
from bhmirror.milnor import equivariant_hilbert, fermat_monomial_basis, sector_algebra
from bhmirror.poly import (
    decoder,
    encode,
    parse_polynomial,
    restrict,
    transpose,
)
from bhmirror.symmetry import (
    annihilator,
    aut_group,
    j_element,
    pairing,
)
from test_group_reference import age, identity

F = Fraction

ELLIPTIC = parse_polynomial("x0^6+x1^3+x2^2")
QUARTIC = parse_polynomial("x0^4+x1^4+x2^4+x3^4")


class TestSeries:
    def test_one_variable_power(self):
        # keys are codes mod |det E| = 5
        P = parse_polynomial("x^5")
        series = equivariant_hilbert(restrict(P, (0,)))
        assert series.coefficients == {b: {(b,): 1} for b in range(1, 5)}

    def test_empty_restriction(self):
        P = parse_polynomial("x^5")
        series = equivariant_hilbert(restrict(P, (2,)))
        assert series.coefficients == {0: {(0,): 1}}
        assert series.total_dimension == 1

    def test_elliptic_untwisted_dimension(self):
        # x-exponents 0..4, y-exponents 0..1, z contributes a single class
        series = equivariant_hilbert(restrict(ELLIPTIC, identity(3)))
        assert series.total_dimension == 10

    def test_ordinary_hilbert_palindrome(self):
        # with the volume shift included, the Hilbert function is symmetric
        # about half of (number of fixed variables) * degree
        for P in (ELLIPTIC, QUARTIC, parse_polynomial("x^3*y+y^2*z+z^2"),
                  parse_polynomial("x^2*y+y^2*z+z^2*x")):
            R = restrict(P, identity(P.num_vars))
            hilbert = {m: sum(keys.values())
                       for m, keys in equivariant_hilbert(R).coefficients.items()}
            D = len(R.fixed_vars) * P.degree
            for m, dim in hilbert.items():
                assert hilbert.get(D - m, 0) == dim

    def test_keys_are_dual_symmetries(self):
        for text in ("x^2*y+y^2*z+z^2*x", "x^3*y+y^4", "x0^6+x1^3+x2^2"):
            P = parse_polynomial(text)
            Pv = transpose(P)
            decode = decoder(P.N)
            for h in aut_group(P).codes:
                series = equivariant_hilbert(restrict(P, h))
                for keys in series.coefficients.values():
                    for key in keys:
                        # raises unless the key fixes the transpose
                        assert encode(Pv, decode(key)) == key

    def test_milnor_dimension_formula(self):
        for text in ("x^2*y+y^2*z+z^2*x", "x^3*y+y^4", "x0^6+x1^3+x2^2",
                     "x^2*y+y^3+z^2*w+w^2*z"):
            P = parse_polynomial(text)
            for h in aut_group(P).codes:
                R = restrict(P, h)
                assert equivariant_hilbert(R).total_dimension == R.milnor_dimension


class TestFermatOracle:
    def test_x4_exponents(self):
        P = parse_polynomial("x^4")
        basis = fermat_monomial_basis(restrict(P, (F(0),)))
        assert sorted(b for (b,), _, _ in basis) == [1, 2, 3]

    def test_quartic_untwisted_count(self):
        basis = fermat_monomial_basis(restrict(QUARTIC, identity(4)))
        assert len(basis) == 81

    def test_empty_restriction(self):
        basis = fermat_monomial_basis(restrict(QUARTIC, encode(QUARTIC, j_element(QUARTIC))))
        assert basis == [((), (0,) * 4, 0)]

    def test_not_fermat(self):
        P = parse_polynomial("x^3*y+y^4")
        with pytest.raises(NotFermatError):
            fermat_monomial_basis(restrict(P, identity(2)))

    @pytest.mark.parametrize("P", [ELLIPTIC, QUARTIC])
    def test_oracle_agrees_with_series(self, P):
        for h in aut_group(P).codes:
            R = restrict(P, h)
            series = equivariant_hilbert(R)
            aggregated: dict = {}
            for _, key, degree in fermat_monomial_basis(R):
                bucket = aggregated.setdefault(degree, {})
                bucket[key] = bucket.get(key, 0) + 1
            assert aggregated == series.coefficients


class TestSectorAlgebra:
    def test_free_sector_on_diagonal(self):
        P = parse_polynomial("x^5")
        for i in range(1, 5):
            alg = {(key, F(p, 5), F(q, 5)): dim for (key, p, q), dim in sector_algebra(P, (i,))}
            assert alg == {((0,), F(i, 5), F(i, 5)): 1}

    def test_bidegree_sum_rule(self):
        group = aut_group(ELLIPTIC)
        N = ELLIPTIC.N
        for h, code in zip(group.elements, group.codes):
            for (_, p, q), _ in sector_algebra(ELLIPTIC, code):
                assert F(p, N) + F(q, N) - 2 * age(h) == len(restrict(ELLIPTIC, code).fixed_vars)

    def test_elliptic_untwisted_grading_filter(self):
        # of the ten untwisted classes exactly two have integral j-charge
        alg = dict(sector_algebra(ELLIPTIC, identity(3)))
        assert sum(alg.values()) == 10
        j = j_element(ELLIPTIC)
        N = ELLIPTIC.N
        decode = decoder(N)
        invariant = {(F(p, N), F(q, N)): dim for (key, p, q), dim in alg.items()
                     if pairing(ELLIPTIC, j, decode(key)) == 0}
        assert invariant == {(F(2), F(1)): 1, (F(1), F(2)): 1}

    def test_invariance_filter_matches_manual(self):
        j = j_element(QUARTIC)
        alg = dict(sector_algebra(QUARTIC, identity(4)))
        keys = set(annihilator(QUARTIC, (encode(QUARTIC, j),), 4))
        kept = {lab: dim for lab, dim in alg.items() if lab[0] in keys}
        decode = decoder(QUARTIC.N)
        manual = {lab: dim for lab, dim in alg.items()
                  if pairing(QUARTIC, j, decode(lab[0])) == 0}
        assert kept == manual

    @pytest.mark.parametrize("change, block_message, product_message", [
        (lambda c: -c, "multiplicity -1 of key [4/5] at degree 4 is not positive",
         "multiplicity -1 of key [2/3, 2/3] at degree 4 is not positive"),
        (lambda c: c + 1, "series dimension 5 is not the Milnor number 4",
         "series dimension 5 is not the Milnor number 4"),
    ], ids=["negative", "milnor-number"])
    def test_series_faults_are_internal_errors(self, monkeypatch, change, block_message,
                                               product_message):
        # each key is a sum of dual characters and is not checked again;
        # every multiplicity must be positive, and they must sum to the
        # Milnor number: of a block when it is expanded (x^5 is one block,
        # read from a cleared block cache, and its last division is
        # corrupted) and of the product of blocks (x^3 + y^3 is two)
        from bhmirror import milnor

        def changed(real):
            def call(*args):
                out = real(*args)
                m, keys = max(out.items())
                key = min(keys)
                return {**out, m: {**keys, key: change(keys[key])}}
            return call

        for where, polynomial, code, message in (
                ("_divide", "x^5", (0,), block_message),
                ("_product", "x^3+y^3", (0, 0), product_message)):
            with monkeypatch.context() as patch:
                patch.setattr(milnor, where, changed(getattr(milnor, where)))
                milnor._block_series.cache_clear()
                R = restrict(parse_polynomial(polynomial), code)
                with pytest.raises(InternalError, match=re.escape(message)):
                    equivariant_hilbert.__wrapped__(R)
                if where == "_divide":  # raised by the block's own check
                    with pytest.raises(InternalError, match=re.escape(message)):
                        milnor._block_series(R.parent, (0,))

    def test_degree_not_dividing_the_modulus_is_an_internal_error(self):
        # p and q are numerators over N = |det E|, which d divides; a
        # modulus d does not divide is a bug, reported rather than rounded
        with pytest.raises(InternalError, match="degree 5 does not divide"):
            sector_algebra(parse_polynomial("x^5")._replace(N=7), (1,))
