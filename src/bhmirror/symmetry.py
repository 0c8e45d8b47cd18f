"""Diagonal symmetry groups of invertible polynomials.

A diagonal symmetry is a vector [a_0, ..., a_n] of rationals mod 1, acting
by x_i -> exp(2*pi*i*a_i) x_i.  N = |det E| is the one bound, checked by
`require_within_cap` before any closure, and the one modulus: inside the
engine a symmetry is its code N*g mod N (see `poly`).  A `SymmetryGroup`
is codes only; `elements`, its `Fraction` view, is decoded on every read.

One kernel, `_closure`, closes codes, and one constructor, `_span`, makes
every group from generators: the cap check, the closure and the sort.
Rational vectors enter once, through `enumerate_group`, which encodes
each; Aut is spanned by the columns of N*E^{-1} mod N, <j> by the code of
j (`poly.grading_code`), and SL is the dual of the transpose's <j^T>.  A
code is made only by `encode`, the checked inverse, `_closure` or
`annihilator`, and is checked to be a member there only; a setup's cosets
and keys are codes too.  Nothing is cached: no command asks twice for one
polynomial's Aut.  `j_element`, `s_element` and `pairing` give or take
rational vectors, for callers outside the engine: `analyze` prints j and
s from their codes.  Each imports `fractions` when called, so a command
that reads and prints no rational loads none.
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Iterable, Sequence
from math import gcd

from .errors import (
    DualityViolationError,
    GradingCollisionError,
    GroupTooLargeError,
    InputError,
    InternalError,
    NotAdmissibleError,
    NotInGroupError,
)
from .poly import (
    Code,
    InvertiblePolynomial,
    common_denominator,
    decoder,
    encode,
    exponent_determinant,
    format_vector,
    grading_code,
    inverse_codes,
    monomial_phases,
    split_cyclic,
    transpose,
)

Symmetry = tuple  # tuple[Fraction, ...], entries in [0, 1)


def group_cap() -> int:
    """BHMIRROR_MAX_GROUP, the only variable read: a positive integer, 10^6
    by default; any other value is an InputError."""
    text = os.environ.get("BHMIRROR_MAX_GROUP", str(10**6)).strip()
    try:
        cap = int(text) if text.isdecimal() else 0
    except ValueError:  # more digits than `int` converts from text
        cap = 0
    if cap == 0:
        shown = text if len(text) <= 40 else text[:20] + "..."
        raise InputError(f"BHMIRROR_MAX_GROUP must be a positive integer, not {shown!r}")
    return cap


def require_within_cap(P: InvertiblePolynomial) -> int:
    """Reject |det E| above the cap: it bounds every group of P and of its
    transpose.  Returns |det E|, so that a caller reads it once."""
    cap = group_cap()
    N = exponent_determinant(P)
    if N > cap:
        raise GroupTooLargeError(f"group exceeds the enumeration cap of {cap}")
    return N


def symmetry(entries: Iterable) -> Symmetry:
    """Normalize a rational vector to entries in [0, 1)."""
    from fractions import Fraction

    return tuple(Fraction(a) % 1 for a in entries)


class SymmetryGroup(namedtuple("SymmetryGroup", "polynomial generators codes")):
    """A group of diagonal symmetries of `polynomial` as codes mod |det E|:
    its generators and its closure `codes`, sorted.  code -> code/N is
    monotone, so `elements`, the `Fraction` view, is sorted too."""

    # polynomial: InvertiblePolynomial; generators, codes: tuple[Code, ...]
    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.codes)

    @property
    def elements(self) -> tuple[Symmetry, ...]:
        """The closure as rational vectors in [0, 1), decoded anew on every
        read; the engine reads `codes`, and output decodes once."""
        return tuple(map(decoder(exponent_determinant(self.polynomial)), self.codes))


def _closure(steps: Sequence[Code], num_vars: int, N: int) -> list[Code]:
    """Closure of codes mod N by cyclic extension: a step g in the group H
    so far is skipped, else the cosets H + g, H + 2g, ... join until one is
    H, so the work is linear in |G| <= N.  Returns the codes in closure
    order: H, then H + g, H + 2g, ... for each step in turn.
    """
    elements = {(0,) * num_vars: None}
    shared = {}.setdefault  # one int object per residue, shared by every code
    for g in dict.fromkeys(steps):
        if g in elements:
            continue
        coset = list(elements)
        while True:
            coset = [tuple([shared(v := (x + y) % N, v) for x, y in zip(e, g)]) for e in coset]
            if coset[0] in elements:
                break
            elements.update(dict.fromkeys(coset))
    return list(elements)


def _span(P: InvertiblePolynomial, generators: Iterable[Code]) -> SymmetryGroup:
    """The group that codes of P span, read and closed once |det E|, which
    bounds it, is within the cap; a rational vector would never close."""
    N = require_within_cap(P)
    gens = tuple(generators)
    codes = _closure(gens, P.num_vars, N)
    return SymmetryGroup(P, gens, tuple(sorted(codes)))


def enumerate_group(P: InvertiblePolynomial,
                    generators: Iterable[Sequence[Fraction]]) -> SymmetryGroup:
    """The group that rational vectors span, each encoded once: the one
    place where outside symmetries enter a group."""
    return _span(P, (encode(P, g) for g in generators))


def aut_group(P: InvertiblePolynomial) -> SymmetryGroup:
    """The full diagonal symmetry group, spanned by the columns of
    N*E^{-1} mod N, its order checked to equal |det E|; GroupTooLargeError
    before anything is closed when |det E| exceeds the cap."""
    det, chars = inverse_codes(P)
    group = _span(P, zip(*chars))
    if group.order != det:
        raise InternalError(f"|Aut| = {group.order} differs from |det E| = {det}")
    return group


def grading_group(P: InvertiblePolynomial) -> SymmetryGroup:
    """<j>, the group of the grading symmetry, spanned by its code."""
    return _span(P, (grading_code(P),))


def sl_subgroup(P: InvertiblePolynomial) -> SymmetryGroup:
    """The integral-age symmetries: the dual of <j^T>, as E^T j^T = 1 makes pairing the age."""
    return dual_group(grading_group(transpose(P)))


def j_element(P: InvertiblePolynomial) -> Symmetry:
    """The grading symmetry [w_0/d, ..., w_n/d]."""
    from fractions import Fraction

    return symmetry(Fraction(w, P.degree) for w in P.weights)


def s_element(W: InvertiblePolynomial) -> Symmetry:
    """[1/k, 0, ..., 0] for W = x0^k + f."""
    from fractions import Fraction

    k, _ = split_cyclic(W)
    return (Fraction(1, k),) + (Fraction(0),) * (W.num_vars - 1)


def pairing(P: InvertiblePolynomial, g: Sequence[Fraction], h: Sequence[Fraction]) -> Fraction:
    """Duality pairing of g in Aut_P with h in Aut of the transpose.

    Computed as (E*g) . h mod 1.  On the generator rho_i (column i of the
    inverse matrix) this evaluates to h_i, which pins the identification of
    the dual group with the character group.
    """
    from fractions import Fraction

    if len(h) != P.num_vars:
        raise NotInGroupError("pairing applied to vectors of the wrong length")
    v = monomial_phases(P, *common_denominator(g))
    D, scaled = common_denominator(h)
    return Fraction(sum(x * y for x, y in zip(v, scaled)) % D, D)


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b)."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, v0, u1, v1 = u1, v1, u0 - q * u1, v0 - q * v1
    return a, u0, v0


def _kernel_basis(generators: Iterable[Code], num_vars: int, N: int) -> list[list[int]]:
    """num_vars vectors, entries mod N, that span L mod N*Z^n, where
    L = {x : g . x = 0 mod N for every generator g}.  Per generator,
    extended-gcd column operations (unimodular, so the span is kept) fold
    the values g . b of the vectors b into one vector b' of value c, the
    others reaching 0; then b' is scaled by N / gcd(c, N), its least
    multiple of value 0.  O(n^2) per generator."""
    basis = [[int(i == j) for j in range(num_vars)] for i in range(num_vars)]
    for g in generators:
        pivot = None
        for i, b in enumerate(basis):
            c = sum(x * y for x, y in zip(g, b)) % N
            if c == 0:
                continue
            if pivot is None:
                pivot, value = i, c
                continue
            d, u, v = _extended_gcd(value, c)
            bp = basis[pivot]
            basis[pivot] = [(u * x + v * y) % N for x, y in zip(bp, b)]
            basis[i] = [(c // d * x - value // d * y) % N for x, y in zip(bp, b)]
            value = d
        if pivot is not None:
            m = N // gcd(value, N)
            basis[pivot] = [m * x % N for x in basis[pivot]]
    return basis


def annihilator(P: InvertiblePolynomial, generators: Iterable[Code], order: int) -> tuple[Code, ...]:
    """Sorted codes of the transpose's symmetries that pair to zero with
    every generator, a code of a symmetry of P.  `order` is the order of
    the group the generators span; the duality is perfect, so a product of
    orders other than |det E| raises DualityViolationError.

    The transpose's codes are x*A mod N, A = N*E^{-1} mod N, and
    (E*g/N) . (x*A) = g . x mod N, as A*E = N*I.  So Ann is the image of
    the lattice of x with g . x = 0 mod N for every generator g: its
    `_kernel_basis` is mapped through A and closed, in work proportional
    to |Ann|.  Each image is checked to pair to zero with each generator
    (by bilinearity this covers the closure) before it is closed.
    """
    require_within_cap(transpose(P))  # names a degenerate transpose first
    N, chars = inverse_codes(P)
    gens = tuple(generators)
    columns = tuple(zip(*chars))
    images = [tuple(sum(x * a for x, a in zip(b, col)) % N for col in columns)
              for b in _kernel_basis(gens, P.num_vars, N)]
    for g in gens:
        v = monomial_phases(P, N, g)
        for h in images:
            if sum(x * y for x, y in zip(v, h)) % N:
                raise DualityViolationError(
                    f"kernel image {format_vector(h, N)} does not pair to zero "
                    f"with {format_vector(g, N)}")
    elements = tuple(sorted(_closure(images, P.num_vars, N)))
    if len(elements) * order != N:
        raise DualityViolationError(
            f"annihilator of order {len(elements)} times group order {order} "
            f"differs from |det E| = {N}")
    return elements


def dual_group(H: SymmetryGroup) -> SymmetryGroup:
    """Annihilator of H inside the symmetry group of the transpose."""
    P = H.polynomial
    codes = annihilator(P, H.generators, H.order)
    return SymmetryGroup(transpose(P), codes, codes)


# ---------------------------------------------------------------------------
# cyclic-automorphism setups
# ---------------------------------------------------------------------------

class AdmissibleSetup(namedtuple("AdmissibleSetup", "W k K_inner N j s labels keys")):
    """The groups attached to W = x0^k + f and K with j_f^k in K within SL_f.

    G is the union of the k*k cosets j^a s^b K; the label map records the
    single-valued gradings (a/k, b/k) of every element, coset by coset.  The
    keys, Ann(K), are the dual-group elements a K-invariant state may carry.
    All are codes mod N = |det E| of W, and of its transpose.
    """

    # W: InvertiblePolynomial; k: int; K_inner: SymmetryGroup, a subgroup of
    # Aut_f in f coordinates; N: int; j, s: Code;
    # labels: dict[Code, tuple[int, int]], in coset order;
    # keys: dict[Code, tuple[int, int]], Ann(K) in the transpose's group -> (k*Q_j, k*Q_s) mod k
    __slots__ = ()

    @property
    def group_order(self) -> int:
        return len(self.labels)


def admissible_setup(W: InvertiblePolynomial, K: SymmetryGroup | None = None) -> AdmissibleSetup:
    """Validate j_f^k in K within SL_f and label the k^2 cosets j^a s^b K.

    K is a group of f; None (or the empty tuple) is the trivial group.  Its
    codes were checked to fix f where they were made, so only j_f^k in K
    and K in SL_f are checked here.  The closure of (K, s, j) runs K, its
    s-cosets, then their j-shifts, so block i of |K| elements is the coset
    (a, b) = divmod(i, k).  A shorter closure means two labels name one
    coset (GradingCollisionError): the (a/k, b/k)-gradings would not be
    single-valued.  |det E|, checked first, bounds K, the coset group and
    Ann(K), whose keys' charges must be multiples of 1/k.
    """
    k, f = split_cyclic(W)
    N = require_within_cap(W)
    K_inner = K or enumerate_group(f, ())
    if K_inner.polynomial != f:
        raise NotAdmissibleError(f"K is a group of {K_inner.polynomial}, not of {f}")
    N_f = exponent_determinant(f)
    jf_k = tuple(k * x % N_f for x in grading_code(f))
    if jf_k not in K_inner.codes:
        raise NotAdmissibleError(
            f"j_f^{k} = {format_vector(jf_k, N_f)} is not in K (add it as a generator)")
    for g in K_inner.codes:
        if sum(g) % N_f:  # the age sum(g)/N_f is not an integer
            raise NotAdmissibleError(f"K contains {format_vector(g, N_f)}, which is outside SL_f")

    j, s = grading_code(W), (N // k,) + (0,) * f.num_vars
    K_gens = tuple((0, *(k * x for x in g)) for g in K_inner.generators)  # N = k*N_f; fixing x0
    codes = _closure(K_gens + (s, j), W.num_vars, N)
    order = K_inner.order  # read once, for the labels of every element
    sk_order = k * order  # |<s, K>|
    if len(codes) < k * sk_order:
        # j^a is the first power of j in <s, K>; its first entry a/k puts it in s^a K
        a = len(codes) // sk_order
        raise GradingCollisionError(
            f"cosets {(0, a)} and {(a, 0)} coincide; "
            "the (d_j, d_s) grading is not single-valued")
    labels = {e: divmod(i // order, k) for i, e in enumerate(codes)}
    # Q_j = (E*j/N) . key/N mod 1, and likewise Q_s; E*j = N*1 and E*s = N*e_0,
    # x0^k being row 0, so k*Q_j*N is k*sum(key) and k*Q_s*N is k*key[0]
    if (monomial_phases(W, N, j) != (1,) * W.num_vars
            or monomial_phases(W, N, s) != (1,) + (0,) * f.num_vars):
        raise InternalError(f"E*j is not N*1 or E*s is not N*e_0 for N = {N}")
    keys = {}
    for key in annihilator(W, K_gens, order):
        kqj, kqs = k * sum(key), k * key[0]  # over N
        if kqj % N or kqs % N:
            raise DualityViolationError(
                f"charges of key {format_vector(key, N)} are not multiples of 1/{k}")
        keys[key] = (kqj // N % k, kqs // N % k)
    return AdmissibleSetup(W, k, K_inner, N, j, s, labels, keys)
