"""Walkthrough: prime-order K3 automorphisms and lattice mirror symmetry.

For K3 setups x0^p + f with p an odd prime, the fitted table parameters
determine the fixed locus of the automorphism on a resolution (isolated
points, curves, genera), and those in turn determine the rank r and
discriminant rank a of the invariant lattice.  The duality of the tables
forces the lattice mirror relation (r', a') = (20 - r, a).

Only p in {3, 5, 7, 13} can occur: the state-space total of a K3 is 24,
and the table splits it as (p - 1)(a + a'), so p - 1 must divide 24.
"""

from bhmirror import build_mirror_pair, k3_read_off
from bhmirror.catalog import find_case

print("prime orders p with p - 1 | 24:",
      [p for p in (3, 5, 7, 11, 13) if 24 % (p - 1) == 0],
      "(11 is excluded)")

for name in ("k3-p3", "k3-p5", "k3-p7", "k3-p13"):
    case = find_case(name)
    W = case.parse()
    pair = build_mirror_pair(W, case.K_group(W))
    rep, mrep, (inv, minv, verdict, _) = k3_read_off(pair)
    print(f"\n{name}: W = {W}")
    print(f"  parameters {rep.params}")
    print(f"  fixed locus: {inv.f1} points + {inv.N1} curves (genus {inv.g1});"
          f"  mirror: {minv.f1} points + {minv.N1} curves (genus {minv.g1})")
    print(f"  point count relation: {inv.f1} + {minv.f1} + 4 = "
          f"{24 * (rep.order - 2) // (rep.order - 1)}")
    print(f"  lattices: (r, a) = ({verdict['r']}, {verdict['a']})  <->  "
          f"({verdict['r_mirror']}, {verdict['a_mirror']})  "
          f"{'MIRROR' if verdict['mirror_ok'] else 'NOT MIRROR'}")
