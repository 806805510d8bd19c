"""How the filtering threshold shapes the reconstruction.

A torus cloud swept across thresholds: too small and everything is deleted,
in the working band the handle survives (Euler characteristic 0), too large
and the hole fills in until the mesh degrades toward the convex hull.
"""

import numpy as np

from alphaforge import (
    SyntheticSpec,
    delaunay_complex,
    extract_boundary_faces,
    filter_tetrahedra,
    synth,
    topology,
)
from alphaforge.errors import EmptySelection

cloud, _ = synth(SyntheticSpec("torus", n=3000, fill="solid", seed=5))
complex_ = delaunay_complex(cloud)
print(f"{len(complex_)} tetrahedra; circumradius percentiles "
      f"50/90/99: {np.percentile(complex_.radii, [50, 90, 99]).round(3)}")

print(f"\n{'tau':>6}{'kept':>8}{'faces':>8}{'chi':>6}")
for tau in (0.05, 0.15, 0.3, 0.5, 0.8, 1.5):
    kept = filter_tetrahedra(complex_, tau)
    try:
        mesh, _ = extract_boundary_faces(complex_, kept)
        print(f"{tau:>6}{len(kept):>8}{mesh.num_faces:>8}"
              f"{topology(mesh).chi:>6}")
    except EmptySelection:
        print(f"{tau:>6}{len(kept):>8}{'-':>8}{'empty':>6}")

print("\nthe filter is monotone: every tetrahedron kept at a small tau"
      " is still kept at any larger tau")
sets = [frozenset(filter_tetrahedra(complex_, tau).tolist())
        for tau in (0.2, 0.3, 0.5)]
assert sets[0] <= sets[1] <= sets[2]
print("verified on taus 0.2 <= 0.3 <= 0.5")
