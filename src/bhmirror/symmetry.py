"""Diagonal symmetry groups of invertible polynomials.

A diagonal symmetry is a vector [a_0, ..., a_n] of rationals mod 1, acting
on variables by x_i -> exp(2*pi*i*a_i) x_i.  Groups are enumerated
explicitly as sorted element lists; the duality pairing between symmetries
of P and of its transpose is the closed form (E*g) . h mod 1.

Internally one kernel, `_closure`, closes every group by cyclic extension
over integer vectors mod D, D the least common denominator of its
generators; the annihilator tests (E*g) . (D*h) = 0 mod D.  `age` is read
off the integer code D*g.  A setup reads its `labels` (the coset group, in
coset order j^a s^b K) off the closure order of (K, s, j), and carries its
keys, Ann(K).  |det E|, checked before any closure, bounds every group.
Cached: `aut_group` enumerates once per polynomial (bounded cache keyed on
the polynomial; the cap is checked against |det E| on every call, before
the cache is consulted), a group's element set once per `SymmetryGroup`,
and the integer vectors E*j, E*s once per `AdmissibleSetup`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Iterable, Sequence

from .errors import (
    DualityViolationError,
    GradingCollisionError,
    GroupTooLargeError,
    InternalError,
    NotAdmissibleError,
    NotInGroupError,
)
from .poly import (
    InvertiblePolynomial,
    common_denominator,
    exponent_determinant,
    exponent_inverse,
    format_vector,
    monomial_phases,
    split_cyclic,
    transpose,
)

Symmetry = tuple[Fraction, ...]

DEFAULT_GROUP_CAP = 10**6


def symmetry(entries: Iterable) -> Symmetry:
    """Normalize a rational vector to entries in [0, 1)."""
    return tuple(Fraction(a) % 1 for a in entries)


def identity(num_vars: int) -> Symmetry:
    return (Fraction(0),) * num_vars


def add(g: Symmetry, h: Symmetry) -> Symmetry:
    return tuple((a + b) % 1 for a, b in zip(g, h))


def neg(g: Symmetry) -> Symmetry:
    return tuple((-a) % 1 for a in g)


def scale(g: Symmetry, m: int) -> Symmetry:
    return tuple((m * a) % 1 for a in g)


def age(g: Sequence[Fraction]) -> Fraction:
    """Sum of the entries, taken with representatives in [0, 1), read off
    the integer code D*g mod D."""
    D, scaled = common_denominator(g)
    return Fraction(sum(x % D for x in scaled), D)


def in_sl(g: Symmetry) -> bool:
    """True iff the symmetry has determinant 1, i.e. integral age."""
    return age(g) % 1 == 0


def is_symmetry_of(P: InvertiblePolynomial, g: Sequence[Fraction]) -> bool:
    try:
        monomial_phases(P, *common_denominator(g))
    except NotInGroupError:
        return False
    return True


@dataclass(frozen=True)
class SymmetryGroup:
    polynomial: InvertiblePolynomial
    generators: tuple[Symmetry, ...]
    elements: tuple[Symmetry, ...]  # closure, sorted lexicographically

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _element_set(self) -> frozenset[Symmetry]:
        return frozenset(self.elements)

    def __contains__(self, g) -> bool:
        return symmetry(g) in self._element_set

    def __iter__(self):
        return iter(self.elements)


def _closure(gens: Sequence[Symmetry], num_vars: int, cap: int
             ) -> tuple[list[Fraction], list[tuple[int, ...]]]:
    """Closure of normalized generators inside (Q/Z)^N by cyclic extension:
    a generator g in the group H so far is skipped, else the cosets H + g,
    H + 2g, ... join until one is H, so the work is linear in |G|.

    Runs on the integer vectors D*g mod D, D the least common denominator
    of the generators.  Returns the lookup table a -> a/D and the codes in
    closure order: H, then H + g, H + 2g, ... for each generator in turn.
    """
    D = lcm(*(a.denominator for g in gens for a in g))
    steps = tuple(dict.fromkeys(tuple(a.numerator * (D // a.denominator) for a in g)
                                for g in gens))
    elements = {(0,) * num_vars: None}
    for g in steps:
        if g in elements:
            continue
        coset = list(elements)
        while True:
            coset = [tuple((x + y) % D for x, y in zip(e, g)) for e in coset]
            if coset[0] in elements:
                break
            if len(elements) + len(coset) > cap:
                raise GroupTooLargeError(f"group exceeds the enumeration cap of {cap}")
            elements.update(dict.fromkeys(coset))
    # D is the exponent of the group, so it never exceeds the order
    return [Fraction(a, D) for a in range(D)], list(elements)


def enumerate_group(P: InvertiblePolynomial, generators: Iterable[Sequence[Fraction]],
                    cap: int = DEFAULT_GROUP_CAP) -> SymmetryGroup:
    """The group the generators span, closed by `_closure`; a -> a/D is
    monotone, so sorting the integer codes sorts the symmetries."""
    gens = tuple(symmetry(g) for g in generators)
    for g in gens:
        if len(g) != P.num_vars:
            raise NotInGroupError(
                f"{format_vector(g)} has {len(g)} entries for {P.num_vars} variables")
        if not is_symmetry_of(P, g):
            raise NotInGroupError(f"{format_vector(g)} does not fix the polynomial")
    fractions, codes = _closure(gens, P.num_vars, cap)
    return SymmetryGroup(P, gens, tuple(tuple(fractions[a] for a in e) for e in sorted(codes)))


def aut_generators(P: InvertiblePolynomial) -> tuple[Symmetry, ...]:
    """Columns of the inverse exponent matrix, reduced mod 1."""
    inv = exponent_inverse(P)
    n = P.num_vars
    return tuple(symmetry(inv[i][j] for i in range(n)) for j in range(n))


def dual_generators(P: InvertiblePolynomial) -> tuple[Symmetry, ...]:
    """Rows of the inverse exponent matrix: the generators dual to the
    columns, spanning the symmetry group of the transposed polynomial."""
    inv = exponent_inverse(P)
    return tuple(symmetry(row) for row in inv)


def aut_group(P: InvertiblePolynomial, cap: int = DEFAULT_GROUP_CAP) -> SymmetryGroup:
    """The full diagonal symmetry group; its order equals |det E|.

    Raises GroupTooLargeError before enumerating anything when |det E|
    exceeds the cap.
    """
    require_within_cap(P, cap)
    return _aut_group(P)


def require_within_cap(P: InvertiblePolynomial, cap: int) -> None:
    """Reject |det E| above the cap: it bounds every group of P and of its transpose."""
    if exponent_determinant(P) > cap:
        raise GroupTooLargeError(f"group exceeds the enumeration cap of {cap}")


@lru_cache(maxsize=4)
def _aut_group(P: InvertiblePolynomial) -> SymmetryGroup:
    det = exponent_determinant(P)
    try:
        group = enumerate_group(P, aut_generators(P), det)
    except GroupTooLargeError as exc:
        raise InternalError(f"|Aut| exceeds |det E| = {det}") from exc
    if group.order != det:
        raise InternalError(f"|Aut| = {group.order} differs from |det E| = {det}")
    return group


def sl_subgroup(P: InvertiblePolynomial, cap: int = DEFAULT_GROUP_CAP) -> SymmetryGroup:
    """The integral-age symmetries: pairing with j^T is the age (E^T j^T = 1)."""
    Pv = transpose(P)
    elements = annihilator(Pv, (j_element(Pv),), Pv.degree, cap)
    return SymmetryGroup(P, elements, elements)


def j_element(P: InvertiblePolynomial) -> Symmetry:
    """The grading symmetry [w_0/d, ..., w_n/d]."""
    return symmetry(Fraction(w, P.degree) for w in P.weights)


def s_element(W: InvertiblePolynomial) -> Symmetry:
    """[1/k, 0, ..., 0] for W = x0^k + f."""
    k, _ = split_cyclic(W)
    return (Fraction(1, k),) + (Fraction(0),) * (W.num_vars - 1)


def pairing(P: InvertiblePolynomial, g: Sequence[Fraction], h: Sequence[Fraction]) -> Fraction:
    """Duality pairing of g in Aut_P with h in Aut of the transpose.

    Computed as (E*g) . h mod 1.  On the generator rho_i (column i of the
    inverse matrix) this evaluates to h_i, which pins the identification of
    the dual group with the character group.
    """
    if len(h) != P.num_vars:
        raise NotInGroupError("pairing applied to vectors of the wrong length")
    v = monomial_phases(P, *common_denominator(g))
    D, scaled = common_denominator(h)
    return Fraction(sum(x * y for x, y in zip(v, scaled)) % D, D)


def annihilator(P: InvertiblePolynomial, generators: Iterable[Sequence[Fraction]],
                order: int, cap: int = DEFAULT_GROUP_CAP) -> tuple[Symmetry, ...]:
    """Sorted elements of the transpose's symmetry group that pair to zero
    with every generator.  `order` is the order of the group the generators
    span; the duality is perfect, so a product of orders other than |det E|
    raises DualityViolationError.

    With D = |det E|, every h in the transpose's group has D*h integral, so
    h is kept iff (E*g) . (D*h) = 0 mod D for every generator g.
    """
    full = aut_group(transpose(P), cap)  # its order is checked to be |det E|
    D = full.order
    vectors = [monomial_phases(P, *common_denominator(g)) for g in generators]
    elements = []
    for h in full:
        scaled = [a.numerator * (D // a.denominator) for a in h]
        if all(sum(x * y for x, y in zip(v, scaled)) % D == 0 for v in vectors):
            elements.append(h)
    if len(elements) * order != D:
        raise DualityViolationError(
            f"annihilator of order {len(elements)} times group order {order} "
            f"differs from |det E| = {D}")
    return tuple(elements)


def dual_group(H: SymmetryGroup, cap: int = DEFAULT_GROUP_CAP) -> SymmetryGroup:
    """Annihilator of H inside the symmetry group of the transpose."""
    elements = annihilator(H.polynomial, H.generators, H.order, cap)
    return SymmetryGroup(transpose(H.polynomial), elements, elements)


# ---------------------------------------------------------------------------
# cyclic-automorphism setups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibleSetup:
    """The groups attached to W = x0^k + f and K with j_f^k in K within SL_f.

    G is the union of the k*k cosets j^a s^b K; the label map records the
    single-valued gradings (a/k, b/k) of every element, coset by coset.  H is the b = 0
    part, the group generated by K and the grading symmetry of W.  The keys,
    Ann(K), are the dual-group elements a K-invariant state may carry.
    """

    W: InvertiblePolynomial
    k: int
    K_inner: SymmetryGroup  # subgroup of Aut_f, in f coordinates
    j: Symmetry
    s: Symmetry
    labels: dict[Symmetry, tuple[int, int]]  # in coset order
    keys: frozenset[Symmetry]  # Ann(K), inside the transpose's group

    @property
    def H_elements(self) -> tuple[Symmetry, ...]:
        return tuple(sorted(g for g, (a, b) in self.labels.items() if b == 0))

    @property
    def group_order(self) -> int:
        return len(self.labels)

    @cached_property
    def charge_vectors(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """E*j and E*s on integers: Q_j = (E*j) . key mod 1, and likewise Q_s."""
        return tuple(monomial_phases(self.W, *common_denominator(g)) for g in (self.j, self.s))


def embed_inner(g: Sequence[Fraction]) -> Symmetry:
    """View a symmetry of f as a symmetry of W = x0^k + f fixing x0."""
    return (Fraction(0),) + symmetry(g)


def admissible_setup(W: InvertiblePolynomial, K_generators: Iterable[Sequence[Fraction]] = (),
                     cap: int = DEFAULT_GROUP_CAP) -> AdmissibleSetup:
    """Validate j_f^k in K within SL_f and label the k^2 cosets j^a s^b K.

    The closure of (K, s, j) runs K, its s-cosets, then their j-shifts, so
    block i of |K| elements is the coset (a, b) = divmod(i, k).  A shorter
    closure means two labels name one coset (GradingCollisionError): the
    (a/k, b/k)-gradings would not be single-valued.  |det E|, checked first,
    bounds K, the coset group and Ann(K).
    """
    k, f = split_cyclic(W)
    require_within_cap(W, cap)
    K_inner = enumerate_group(f, K_generators, cap)
    jf_k = symmetry(k * a for a in j_element(f))
    if jf_k not in K_inner:
        raise NotAdmissibleError(
            f"j_f^{k} = {format_vector(jf_k)} is not in K (add it as a generator)")
    for g in K_inner:
        if not in_sl(g):
            raise NotAdmissibleError(f"K contains {format_vector(g)}, which is outside SL_f")

    j = j_element(W)
    s = s_element(W)
    K_gens = tuple(embed_inner(g) for g in K_inner.generators)
    fractions, codes = _closure(K_gens + (s, j), W.num_vars, cap)
    sk_order = k * K_inner.order  # |<s, K>|
    if len(codes) < k * sk_order:
        # j^a is the first power of j in <s, K>; its first entry a/k puts it in s^a K
        a = len(codes) // sk_order
        raise GradingCollisionError(
            f"cosets {(0, a)} and {(a, 0)} coincide; "
            "the (d_j, d_s) grading is not single-valued")
    labels = {tuple(fractions[a] for a in e): divmod(i // K_inner.order, k)
              for i, e in enumerate(codes)}
    keys = frozenset(annihilator(W, K_gens, K_inner.order, cap))
    return AdmissibleSetup(W, k, K_inner, j, s, labels, keys)
