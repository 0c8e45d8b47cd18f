"""Walkthrough: transpose duality of unprojected state spaces.

Transposing the exponent matrix pairs every invertible polynomial with a
dual one; the (sector, key)-graded state spaces match cell for cell after
swapping the two group labels and flipping p to N - p.  For diagonal
polynomials the duality is realized by an explicit exchange of exponent
vectors.
"""

from bhmirror import (
    FermatState,
    fermat_mirror_map,
    fermat_states,
    parse_polynomial,
    transpose,
    unprojected_state_space,
    verify_krawitz,
)
from bhmirror.mirror import thom_sebastiani_convolution
from bhmirror.poly import direct_sum

# a chain and its dual
P = parse_polynomial("x^3*y + y^4")
print("P  =", P)
print("P' =", transpose(P))
report = verify_krawitz(P)
print(f"duality scan: {report.cells_checked} cells, "
      f"{'all match' if report.passed else 'MISMATCH'}")

# one-variable picture: x^{i-1} dx in the untwisted sector of x^6 pairs
# with the generator of the i-th twisted sector on the dual side
P6 = parse_polynomial("x^6")
for i in (1, 3, 5):
    state = FermatState(P6, (0,), (i,))
    image = fermat_mirror_map(state)
    print(f"x^{i - 1} dx  (bidegree {tuple(map(str, state.bidegree))})"
          f"  ->  sector {[str(a) for a in image.sector]}"
          f"  (bidegree {tuple(map(str, image.bidegree))})")

# the exchange is an involution on every basis state
E = parse_polynomial("x0^6+x1^3+x2^2")
states = fermat_states(E)
assert all(fermat_mirror_map(fermat_mirror_map(s)).a == s.a for s in states)
print(f"involution verified on {len(states)} basis states of {E}")

# state spaces of disjoint sums are convolutions of the factors
A = parse_polynomial("x^2*y+y^2*x")
B = parse_polynomial("z^3")
together = unprojected_state_space(direct_sum(A, B))
convolved = thom_sebastiani_convolution(
    unprojected_state_space(A), unprojected_state_space(B))
assert together == convolved
print("disjoint-sum state space equals the convolution of the factors")
