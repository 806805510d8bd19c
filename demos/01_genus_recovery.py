"""Reconstruct shapes of different genus from raw point clouds.

The circumradius filter acts as a solid-body classifier: tetrahedra that fit
inside the body survive, the large ones spanning holes and cavities are
deleted, and the boundary of what survives is the reconstructed surface.
Sweeping the three bundled shapes shows the topology coming out exactly
right: sphere (genus 0), torus (genus 1), and a block with two tunnels
(genus 2). The meshes are written as OBJ files into a temporary directory
that is removed when the demo ends.
"""

import tempfile
from pathlib import Path

from alphaforge import (
    SyntheticSpec,
    enclosed_volume,
    synth,
    topology,
    triangulate,
    write_mesh,
)

RECIPES = [
    ("sphere", SyntheticSpec("sphere", n=3000, fill="solid", seed=1), 0.3),
    ("torus", SyntheticSpec("torus", n=3000, fill="solid", seed=2), 0.3),
    ("stacked", SyntheticSpec("stacked", n=4000, fill="solid", seed=3), 0.15),
]

print(f"{'shape':<10}{'points':>8}{'tau':>7}{'chi':>5}{'genus':>7}"
      f"{'open edges':>12}{'volume':>9}")
with tempfile.TemporaryDirectory() as tmp:
    for name, spec, tau in RECIPES:
        cloud, reference = synth(spec)
        mesh = triangulate(cloud, tau)
        topo = topology(mesh)
        genus = (2 - topo.chi) // 2
        print(f"{name:<10}{len(cloud):>8}{tau:>7}{topo.chi:>5}{genus:>7}"
              f"{len(topo.boundary_edges):>12}{enclosed_volume(mesh):>9.3f}")
        write_mesh(mesh, Path(tmp) / f"{name}_reconstructed.obj")
        print(f"{'':10}reference mesh chi={topology(reference).chi}, "
              f"wrote {name}_reconstructed.obj")
