"""Walkthrough: the order-6 elliptic curve x0^6 + x1^3 + x2^2.

The zero locus of this polynomial in the (1,2,3)-weighted projective plane
is an elliptic curve with complex multiplication of order 6, acted on by
s: x0 -> exp(2*pi*i/6) x0.  The state-space machinery recovers the
cohomology of the curve and of every fixed locus of a power of s from
pure linear algebra over the rationals.
"""

from bhmirror import (
    admissible_setup,
    aut_group,
    build_state_space,
    fjrw_state_space,
    j_element,
    parse_polynomial,
    s_element,
    sector_grid,
)

W = parse_polynomial("x0^6+x1^3+x2^2")
print("W =", W)
print("weights:", W.weights, " degree:", W.degree)
print("Calabi-Yau:", sum(W.weights) == W.degree)
print("symmetry group order:", aut_group(W).order)
print("grading symmetry j =", [str(a) for a in j_element(W)])
print("cyclic symmetry  s =", [str(a) for a in s_element(W)])

# Trivial inner invariance group: the 36 sectors are the cosets j^a s^b.
setup = admissible_setup(W)
table = build_state_space(setup)
print("\nstate table: total dimension", table.total_dimension)

# Row b of the grid is the slice attached to s^b; after the Calabi-Yau
# reindexing its total is the cohomology of the s^b-fixed locus:
# the curve (4), a point (1), three points (3), four points (4), ...
grid = sector_grid(table)
print("\nsector grid (rows d_s, columns d_j):")
for b, row in enumerate(grid.row_totals()):
    label = "H[id]  " if b == 0 else f"H[s^{b}] "
    print(" ", label, row, " total", sum(row))

# The untwisted slice is the Hodge diamond of the curve (shifted by 1).
slice0 = fjrw_state_space(table, 0)
print("\nuntwisted slice by bidegree:",
      {(str(p), str(q)): d for (p, q), d
       in sorted(slice0.dimensions_by(lambda lab: (lab.p, lab.q)).items())})
parts = slice0.dimensions_by(lambda lab: "narrow" if all(lab.sector) else "broad")
print("narrow part (sectors fixing nothing):", parts.get("narrow", 0))
print("broad part  (monomial classes):      ", parts.get("broad", 0))

# Weight decomposition of the antidiagonal cell in row 3: the two classes
# carry the two nontrivial characters of the order-2 fixed locus.
slice3 = fjrw_state_space(table, 3)
cells = slice3.dimensions_by(lambda lab: (lab.dj == lab.ds, lab.weight))
for (antidiagonal, w), dim in sorted(cells.items()):
    if antidiagonal:
        print(f"row 3, antidiagonal, character {w}: dim {dim}")
