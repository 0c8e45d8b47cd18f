"""Memoized per-polynomial facts: caches never skip a check or keep an error."""

import dataclasses
from fractions import Fraction

import pytest

from bhmirror.errors import GroupTooLargeError
from bhmirror.milnor import equivariant_hilbert, sector_algebra
from bhmirror.poly import exponent_inverse, invert_matrix, parse_polynomial, restrict, transpose
from bhmirror.symmetry import SymmetryGroup, aut_group, enumerate_group, j_element

F = Fraction


def test_cap_is_checked_after_a_cached_success():
    P = parse_polynomial("x0^3+x1^5+x2^2*x3+x3^3*x2")
    order = aut_group(P).order
    assert aut_group(P) is aut_group(P)
    with pytest.raises(GroupTooLargeError, match=f"cap of {order - 1}$"):
        aut_group(P, cap=order - 1)


def test_group_too_large_is_not_cached():
    P = parse_polynomial("x0^7+x1^6*x2+x2^4")
    with pytest.raises(GroupTooLargeError):
        aut_group(P, cap=10)
    assert aut_group(P, cap=7 * 6 * 4).order == 7 * 6 * 4


def test_group_too_large_fails_before_enumerating(monkeypatch):
    from bhmirror import symmetry

    def enumerate_nothing(*args):
        pytest.fail("enumerated a group larger than the cap")

    monkeypatch.setattr(symmetry, "enumerate_group", enumerate_nothing)
    with pytest.raises(GroupTooLargeError):
        aut_group(parse_polynomial("x0^2000+x1^2000+x2^2000"))


def test_subgroup_enumeration_keeps_its_cap():
    P = parse_polynomial("x0^4+x1^4+x2^4+x3^4")
    aut_group(P)
    with pytest.raises(GroupTooLargeError):
        enumerate_group(P, [(F(1, 4), 0, 0, 0), (0, F(1, 4), 0, 0)], cap=15)


def test_memoized_series_equals_a_fresh_expansion():
    P = parse_polynomial("x0^4+x1^3*x2+x2^3*x1+x3^4")
    for h in aut_group(P).elements[:40]:
        R = restrict(P, h)
        cached = equivariant_hilbert(R)
        assert equivariant_hilbert(restrict(P, h)) is cached
        assert cached == equivariant_hilbert.__wrapped__(R)


def test_sector_shift_is_applied_per_sector():
    # two sectors with the same (empty) fixed set share one series but
    # carry their own ages
    P = parse_polynomial("x0^4+x1^4")
    ha, hb = (F(1, 4), F(1, 4)), (F(3, 4), F(3, 4))
    a = dict(sector_algebra(P, ha))
    b = dict(sector_algebra(P, hb))
    assert restrict(P, ha).fixed_vars == restrict(P, hb).fixed_vars == ()
    assert set(a) == {((F(0), F(0)), F(1, 2), F(1, 2))}
    assert set(b) == {((F(0), F(0)), F(3, 2), F(3, 2))}


def test_transpose_and_inverse_are_computed_once():
    P = parse_polynomial("x^3*y+y^4")
    assert transpose(P) is transpose(parse_polynomial("x^3*y+y^4"))
    assert exponent_inverse(P) is exponent_inverse(parse_polynomial("x^3*y+y^4"))
    assert exponent_inverse(P) == invert_matrix(P.exponents)[0]


def test_element_set_is_not_a_field():
    P = parse_polynomial("x0^4+x1^4+x2^4+x3^4")
    H = enumerate_group(P, [j_element(P)])
    assert j_element(P) in H and (F(1, 4), 0, 0, 0) not in H
    assert [f.name for f in dataclasses.fields(SymmetryGroup)] == [
        "polynomial", "generators", "elements"]
    fresh = SymmetryGroup(P, H.generators, H.elements)
    assert H == fresh and hash(H) == hash(fresh) and repr(H) == repr(fresh)
