"""The four published evaluation protocols side by side.

Each protocol scales (or aligns) the meshes differently before the shared
metrics run: Chamfer distance, F1 at protocol radii, and normal cosine
similarity. A perturbed copy of the genus-2 block shows the numbers
degrading smoothly, and a rigidly displaced copy shows the ICP protocol
undoing the motion.
"""

import numpy as np

from alphaforge import SyntheticSpec, evaluate, synth
from alphaforge.metrics import PROTOCOLS

_, block = synth(SyntheticSpec("stacked", n=10))
rng = np.random.Generator(np.random.Philox(15))
wobbly = block.with_vertices(block.vertices
                             + 0.01 * rng.normal(size=block.vertices.shape))

print("perturbed block vs ground truth:")
print(f"{'protocol':<12}{'chamfer':>10}{'f1':>28}{'normal':>8}")
for proto in PROTOCOLS:
    rep = evaluate(wobbly, block, proto, n_samples=4000, seed=2)
    f1s = " ".join(f"{r}:{v:.1f}" for r, v in rep.f1.items())
    print(f"{proto:<12}{rep.chamfer:>10.4f}{f1s:>28}{rep.normal_cosine:>8.3f}")

angle = np.deg2rad(20)
rot = np.array([[np.cos(angle), -np.sin(angle), 0],
                [np.sin(angle), np.cos(angle), 0], [0, 0, 1.0]])
moved = block.with_vertices(block.vertices @ rot.T + [0.3, -0.1, 0.2])
print("\nrigidly moved block vs ground truth:")
for proto in ("skeleton", "tmnet"):
    rep = evaluate(moved, block, proto, n_samples=4000, seed=2)
    note = "ICP first" if proto == "tmnet" else "no alignment"
    print(f"{proto:<12}chamfer {rep.chamfer:.4g}  ({note})")
