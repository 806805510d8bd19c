"""Tour of the loss terms and their gradients.

Every term comes with an analytic vertex gradient; the demo checks the
total's against central finite differences on one loss plan (the
frozen-sample objective refinement descends) and shows the property that
motivates the log Chamfer data term: its gradient grows as a match gets
closer, so far-away points move gently while near matches get pulled tight.
Each quantity comes from ``total_loss``, on a plan that weights only the
terms it needs.
"""

import numpy as np

from alphaforge import (
    LossWeights,
    Mesh,
    PointCloud,
    icosphere,
    loss_plan,
    sample_surface,
    smooth_weights,
    total_loss,
)

# one surface sample on a triangle 1e-5 across at the origin, matched both
# ways with one target point; the vertex gradients sum to the sample's
SPECK = Mesh(1e-5 * np.eye(3), np.array([[0, 1, 2]]))


def pair_pull(weights, d):
    plan = loss_plan(SPECK, PointCloud([[d, 0, 0]]), None, weights, n_samples=1, seed=0)
    return np.linalg.norm(total_loss(SPECK, plan)[1].sum(axis=0))


print("log-Chamfer gradient magnitude per matched pair (mu = 1e-4):")
for d in (10.0, 1.0, 0.1, 0.01):
    g = pair_pull(LossWeights(lambda1=1, lambda2=0), d)
    print(f"  distance {d:>5}: |grad| = {g:9.3f}")
print("closer pairs get stronger pull; plain Chamfer does the opposite:")
for d in (10.0, 0.1):
    g = pair_pull(LossWeights(lambda1=0, lambda2=1), d)
    print(f"  distance {d:>5}: |grad| = {g:9.3f}")

rng = np.random.Generator(np.random.Philox(8))
clean = icosphere(1)
noisy = clean.with_vertices(clean.vertices + 0.04 * rng.normal(size=clean.vertices.shape))
gt = sample_surface(icosphere(2), 600, seed=3)

weights = smooth_weights()
plan = loss_plan(noisy, gt, clean, weights, n_samples=500, seed=4)
breakdown, grad = total_loss(noisy, plan)
print("\nloss breakdown on a noisy icosphere (smooth preset):")
for field in ("logcmd", "cmd", "laplacian_reg", "edge_len",
              "normal_consistency", "normal_loss", "total"):
    print(f"  {field:<20}{getattr(breakdown, field):>12.5f}")

h = 1e-6
i, axis = 7, 1
vp = noisy.vertices.copy()
vp[i, axis] += h
vm = noisy.vertices.copy()
vm[i, axis] -= h
fd = (total_loss(noisy.with_vertices(vp), plan)[0].total
      - total_loss(noisy.with_vertices(vm), plan)[0].total) / (2 * h)
print(f"\nanalytic d(total)/d(vertex {i}, axis {axis}) = {grad[i, axis]:.6f}")
print(f"central finite difference              = {fd:.6f}")

cmd_plan = loss_plan(noisy, gt, None, LossWeights(lambda1=0, lambda2=1), n_samples=2000, seed=5)
print(f"\nchamfer(2000 samples of noisy, clean surface) = "
      f"{total_loss(noisy, cmd_plan)[0].cmd:.5f}")
