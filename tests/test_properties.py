"""Property tests over randomly assembled invertible polynomials."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bhmirror.milnor import equivariant_hilbert
from bhmirror.poly import (
    exponent_determinant,
    format_polynomial,
    from_exponents,
    is_calabi_yau,
    parse_polynomial,
    restrict,
    transpose,
)
from bhmirror.mirror import verify_krawitz
from bhmirror.symmetry import aut_group
from test_group_reference import age, ref_neg
from test_poly import reassemble


@st.composite
def atom_blocks(draw):
    # chain end exponents stay >= 2 so that the transpose is non-degenerate
    # too (a head exponent 1, e.g. x*y + y^2, transposes to weight zero)
    kind = draw(st.sampled_from(["fermat", "chain2", "chain3", "loop2", "loop3"]))
    if kind == "fermat":
        return [[draw(st.integers(2, 6))]]
    if kind == "chain2":
        a, b = draw(st.integers(2, 4)), draw(st.integers(2, 4))
        return [[a, 1], [0, b]]
    if kind == "chain3":
        a, b, c = draw(st.integers(2, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 3))
        return [[a, 1, 0], [0, b, 1], [0, 0, c]]
    if kind == "loop2":
        a, b = draw(st.integers(2, 4)), draw(st.integers(2, 4))
        return [[a, 1], [1, b]]
    a, b, c = (draw(st.integers(2, 3)) for _ in range(3))
    return [[a, 1, 0], [0, b, 1], [1, 0, c]]


@st.composite
def invertible_polynomials(draw):
    blocks = draw(st.lists(atom_blocks(), min_size=1, max_size=3))
    n = sum(len(b) for b in blocks)
    if n > 5:
        blocks = blocks[:1]
        n = len(blocks[0])
    rows = []
    offset = 0
    for block in blocks:
        for row in block:
            rows.append([0] * offset + row + [0] * (n - offset - len(row)))
        offset += len(block)
    rng = random.Random(draw(st.integers(0, 10**6)))
    perm = list(range(n))
    rng.shuffle(perm)
    rng.shuffle(rows)
    shuffled = [[row[perm[j]] for j in range(n)] for row in rows]
    return from_exponents(shuffled)


def _monomials(P):
    return sorted(sorted((name, e) for name, e in zip(P.var_names, row) if e)
                  for row in P.exponents)


@settings(deadline=None, max_examples=40)
@given(invertible_polynomials())
def test_format_parse_round_trip(P):
    # identical up to the parser's first-appearance variable ordering
    assert _monomials(parse_polynomial(format_polynomial(P))) == _monomials(P)


@settings(deadline=None, max_examples=40)
@given(invertible_polynomials())
def test_transpose_involution_and_charge_total(P):
    Pv = transpose(P)
    assert transpose(Pv).exponents == P.exponents
    assert Fraction(sum(P.weights), P.degree) == Fraction(sum(Pv.weights), Pv.degree)
    assert is_calabi_yau(P) == is_calabi_yau(Pv)


@settings(deadline=None, max_examples=40)
@given(invertible_polynomials())
def test_atoms_reassemble(P):
    assert sorted(reassemble(P)) == sorted(P.exponents)


@settings(deadline=None, max_examples=25)
@given(invertible_polynomials())
def test_group_order_and_age_identity(P):
    if exponent_determinant(P) > 400:
        return
    group = aut_group(P)
    assert group.order == exponent_determinant(P)
    for g in group.elements[:50]:
        assert age(g) + age(ref_neg(g)) == sum(1 for a in g if a != 0)


@settings(deadline=None, max_examples=15)
@given(invertible_polynomials())
def test_krawitz_random(P):
    if exponent_determinant(P) > 200:
        return
    assert verify_krawitz(P).passed


@settings(deadline=None, max_examples=15)
@given(invertible_polynomials())
def test_sector_dimensions_random(P):
    if exponent_determinant(P) > 200:
        return
    for h in aut_group(P).codes[:40]:
        R = restrict(P, h)
        assert equivariant_hilbert(R).total_dimension == R.milnor_dimension
