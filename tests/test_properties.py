"""Property tests over randomly assembled invertible polynomials."""

import random
import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from bhmirror.catalog import ADMISSIBLE_CASES, KRAWITZ_POLYNOMIALS
from bhmirror.errors import InputError, NotCyclicSplitError
from bhmirror.milnor import equivariant_hilbert
from bhmirror.poly import (
    format_polynomial,
    from_exponents,
    is_calabi_yau,
    parse_polynomial,
    restrict,
    split_cyclic,
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


def _shuffled(blocks, seed):
    """The block-diagonal exponent matrix of the blocks, its rows and its
    columns shuffled."""
    n = sum(len(b) for b in blocks)
    rows = []
    offset = 0
    for block in blocks:
        for row in block:
            rows.append([0] * offset + row + [0] * (n - offset - len(row)))
        offset += len(block)
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    rng.shuffle(rows)
    return [[row[perm[j]] for j in range(n)] for row in rows]


@st.composite
def invertible_polynomials(draw):
    blocks = draw(st.lists(atom_blocks(), min_size=1, max_size=3))
    if sum(len(b) for b in blocks) > 5:
        blocks = blocks[:1]
    return from_exponents(_shuffled(blocks, draw(st.integers(0, 10**6))))


@st.composite
def unit_link_polynomials(draw):
    # chains and loops whose exponents may be 1, so that a link x*y reads
    # two ways and a chain may begin with x*y (its transpose is then
    # degenerate), rows and columns shuffled; a degenerate P is skipped
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["fermat", "chain", "loop"]))
        m = 1 if kind == "fermat" else draw(st.integers(2, 3 if blocks else 5))
        exponents = [draw(st.integers(1, 3)) for _ in range(m)]
        if kind != "loop":
            exponents[-1] = max(exponents[-1], 2)  # x alone is no monomial
        block = []
        for i, a in enumerate(exponents):
            row = [0] * m
            row[i] = a
            if kind == "loop" or i < m - 1:
                row[(i + 1) % m] += 1
            block.append(row)
        blocks.append(block)
    blocks = blocks if sum(len(b) for b in blocks) <= 6 else blocks[:1]
    try:
        return from_exponents(_shuffled(blocks, draw(st.integers(0, 10**6))))
    except InputError:
        assume(False)


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
    if P.N > 400:
        return
    group = aut_group(P)
    assert group.order == P.N
    for g in group.elements[:50]:
        assert age(g) + age(ref_neg(g)) == sum(1 for a in g if a != 0)


@settings(deadline=None, max_examples=15)
@given(invertible_polynomials())
def test_krawitz_random(P):
    if P.N > 200:
        return
    assert verify_krawitz(P).passed


@settings(deadline=None, max_examples=15)
@given(invertible_polynomials())
def test_sector_dimensions_random(P):
    if P.N > 200:
        return
    for h in aut_group(P).codes[:40]:
        R = restrict(P, h)
        assert equivariant_hilbert(R).total_dimension == R.milnor_dimension


def _check_derived_facts(P):
    """transpose(P), and the inner f of P = x0^k + f where P splits, equal
    the polynomials that `from_exponents` builds from their exponent
    matrices; so do the transposes of P^T and of f.  A transpose that
    `from_exponents` rejects is rejected with the same error, named for
    the polynomial transposed."""
    polynomials = [P]
    try:
        _, f = split_cyclic(P)
    except NotCyclicSplitError:
        pass
    else:
        assert f == from_exponents([row[1:] for row in P.exponents[1:]], P.var_names[1:])
        polynomials.append(f)
    for Q in polynomials:
        try:
            expected = from_exponents([list(column) for column in zip(*Q.exponents)],
                                      Q.var_names)
        except InputError as exc:
            with pytest.raises(type(exc), match="^" + re.escape(f"transpose of {Q}: ")):
                transpose(Q)
            continue
        assert transpose(Q) == expected
        assert transpose(transpose(Q)) == from_exponents(Q.exponents, Q.var_names) == Q


@settings(deadline=None, max_examples=60)
@given(invertible_polynomials())
def test_transpose_and_inner_derive_from_the_parent(P):
    _check_derived_facts(P)


@settings(deadline=None, max_examples=150)
@given(unit_link_polynomials())
def test_derivations_with_unit_links(P):
    _check_derived_facts(P)


@pytest.mark.parametrize("text", ["x*y+y*z+z*x", "x0^2+x1*x2+x2*x3+x3*x1",
                                  "a*b+b*c+c*d+d*e+e*a", "x^3+y*z+z*w+w*y+v^2*u+u^3"])
def test_all_ones_loops_derive_in_every_order(text):
    # a loop whose exponents are all 1 reads either way round; the derived
    # transpose must take the reading that `classify_atoms` takes, for every
    # order of the monomials and of the variables
    P = parse_polynomial(text)
    n = P.num_vars
    orders = list(permutations(range(n)))
    rng = random.Random(n)
    for rows in (orders if n <= 3 else rng.sample(orders, 12)):
        for columns in (orders if n <= 3 else rng.sample(orders, 12)):
            E = [[P.exponents[r][c] for c in columns] for r in rows]
            _check_derived_facts(from_exponents(E, [P.var_names[c] for c in columns]))


@pytest.mark.parametrize("text", [case.polynomial for case in ADMISSIBLE_CASES]
                         + list(KRAWITZ_POLYNOMIALS))
def test_catalog_transposes_and_inner_polynomials_derive(text):
    _check_derived_facts(parse_polynomial(text))
