"""The four-interval projection and the pyramid counts behind exact distances.

Splitting the circle into four arcs sends every subset to an integer point on
a rank-3 lattice.  Around the images of a four-run pair sit two opposite
pyramids; counting boundary points of one strictly inside the other gives the
cluster distance, and counting the half-open interior of the intersection
gives the move distance.  Both match their closed forms for every shape here.
"""

from weaksep import Subset, p4_counts, phi_subset

print("shape (p1,p2,p3,p4) | distance count = closed form | move count = closed form")
for k in range(2, 9):
    for p1 in range(1, k):
        for p2 in range(1, k):
            p = (p1, p2, k - p1, k - p2)
            elements = list(range(1, p1 + 1)) + [p1 + p2 + t for t in range(1, p[2] + 1)]
            counts = p4_counts(Subset.of(elements, 2 * k))
            assert counts.match
            if k <= 4:
                print(f"  {counts.p}:  {counts.z_count} = {counts.z_formula},"
                      f"   {counts.interior_pq_count} = {counts.cuboid_formula}")
print("  ... (all shapes through k = 8 verified)")

a = Subset.of([1, 2, 4], 6)
print(f"\nprojections under split (2,1,1,2): "
      f"A={a} -> {phi_subset(a, (2, 1, 1, 2))}, "
      f"complement -> {phi_subset(a.complement(), (2, 1, 1, 2))}")
