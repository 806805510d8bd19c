"""Refining a noisy mesh by bounded-offset gradient descent.

Vertices move by tanh of a free offset, so no vertex can drift more than
one unit per stage. The objective combines the Chamfer data terms with the
Laplacian, edge-length, and normal regularizers; refinement builds the
regularization target itself, a Taubin-smoothed copy of the input. The loss
trace is written as CSV into a temporary directory that is removed when the
demo ends.
"""

import tempfile
from pathlib import Path

import numpy as np

from alphaforge import (
    RefineConfig,
    evaluate,
    icosphere,
    refine_mesh,
    sample_surface,
    smooth_weights,
    trace_to_csv,
)

rng = np.random.Generator(np.random.Philox(11))
clean = icosphere(3)
noisy = clean.with_vertices(clean.vertices + 0.05 * rng.normal(size=clean.vertices.shape))
gt_samples = sample_surface(icosphere(4), 2000, seed=21)


def surface_error(mesh):
    """Unscaled Chamfer against the clean sphere, 10000 samples each."""
    return evaluate(mesh, icosphere(4), "skeleton", n_samples=10000, seed=77).chamfer


before = surface_error(noisy)
cfg = RefineConfig(stages=2, iters_per_stage=100, step_size=3e-5,
                   weights=smooth_weights())
refined, trace = refine_mesh(noisy, gt_samples, cfg, seed=5)
after = surface_error(refined)

totals = [b.total for b in trace]
drops = sum(b <= a for a, b in zip(totals, totals[1:]))
print(f"chamfer before {before:.6f} -> after {after:.6f} "
      f"({(1 - after / before) * 100:.0f}% reduction)")
print(f"{len(totals)} iterations, loss decreased on "
      f"{drops}/{len(totals) - 1} consecutive steps")
print(f"max vertex displacement {np.abs(refined.vertices - noisy.vertices).max():.4f} "
      f"(bounded below 1 by construction)")

with tempfile.TemporaryDirectory() as tmp:
    (Path(tmp) / "refine_trace.csv").write_text(trace_to_csv(trace))
print("wrote refine_trace.csv (iteration, per-term values, total)")
