"""Taubin smoothing, subdivision, and mesh refinement.

Refinement anchors its Laplacian regularizer to a baseline it builds
itself: the initial mesh after ``RefineConfig.taubin_iters`` Taubin
iterations, so it shares the initial mesh's vertices and faces.

Refinement optimizes a bounded offset per vertex: stage vertices are
``v + tanh(o)`` with the offsets driven by plain gradient descent on the
total loss, so no vertex can move more than 1 along any axis within a
stage. The offsets are free variables rather than the output of a learned
network, which keeps the update rule's form while exercising every loss
gradient directly.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .errors import ConfigError, NonFinite
from .loss import LossBreakdown, LossWeights, _scatter, loss_plan, total_loss
from .mesh import Mesh, PointCloud, _edge_table
from .meshio import _csv

# tanh(OFFSET_CLIP) < 1 - 1e-12, keeping the displacement bound strict even
# if the optimizer drives an offset to saturation.
OFFSET_CLIP = 14.0
DISPLACEMENT_BOUND = 1.0 - 1e-12

# Taubin's smooth and inflate factors: TAUBIN_LAM in (0, 1), TAUBIN_MU
# negative with |TAUBIN_MU| > TAUBIN_LAM.
TAUBIN_LAM = 0.5
TAUBIN_MU = -0.53


@dataclass(frozen=True)
class RefineConfig:
    stages: int = 2
    iters_per_stage: int = 100
    step_size: float = 3e-5
    weights: LossWeights = field(default_factory=LossWeights)
    subdivide_between_stages: bool = False
    taubin_iters: int = 10

    def __post_init__(self):
        if self.stages < 1:
            raise ConfigError("stages must be >= 1")
        if self.iters_per_stage < 0:
            raise ConfigError("iters_per_stage must be >= 0")
        if not 0 < self.step_size < math.inf:
            raise ConfigError("step_size must be finite and positive")
        if self.taubin_iters < 0:
            raise ConfigError("taubin_iters must be >= 0")


def _umbrella(vertices: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Uniform-weight umbrella operator: neighbor mean minus vertex
    (zero for isolated vertices)."""
    n = len(vertices)
    i, j = edges[:, 0], edges[:, 1]
    sums = _scatter(n, [(i, np.take(vertices, j, axis=0)), (j, np.take(vertices, i, axis=0))])
    deg = np.bincount(edges.ravel(), minlength=n)
    delta = np.zeros_like(vertices)
    has = deg > 0
    delta[has] = sums[has] / deg[has, None] - vertices[has]
    return delta


def taubin_smooth(mesh: Mesh, iterations: int) -> Mesh:
    """Shrink-resistant smoothing: per iteration apply the umbrella step with
    factor TAUBIN_LAM, then again with the negative factor TAUBIN_MU.
    Connectivity is unchanged."""
    if iterations < 0:
        raise ConfigError("iterations must be >= 0")
    edges = _edge_table(mesh.faces)[0]
    v = mesh.vertices.copy()
    for _ in range(iterations):
        v = v + TAUBIN_LAM * _umbrella(v, edges)
        v = v + TAUBIN_MU * _umbrella(v, edges)
    return mesh.with_vertices(v)


def subdivide(mesh: Mesh) -> Mesh:
    """Midpoint subdivision: one new vertex per unique edge, each face
    replaced by four. Meshes with identical connectivity subdivide to
    identical vertex indexing (edges are ranked lexicographically)."""
    edges, opposite, _ = _edge_table(mesh.faces)
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    a, b, c = mesh.faces.T
    mbc, mca, mab = mesh.num_vertices + opposite
    new_faces = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca], axis=1)
    return Mesh(np.concatenate([mesh.vertices, midpoints]), new_faces.reshape(-1, 3))


def refine_mesh(
    initial: Mesh,
    gt_samples: PointCloud,
    cfg: RefineConfig,
    seed: int = 0,
) -> tuple[Mesh, list[LossBreakdown]]:
    """Gradient-descent refinement of the mesh toward the target samples.

    Per stage, per-vertex offsets (initialized to zero) are optimized so the
    working vertices are ``v + tanh(o)``; offsets are baked in at the end of
    the stage. When the Laplacian term is active (``weights.lambda3 > 0``)
    its baseline is ``taubin_smooth(initial, cfg.taubin_iters)``. Face
    connectivity never changes within a stage; with
    ``subdivide_between_stages`` both mesh and baseline are midpoint
    subdivided between stages. Each stage builds one loss plan
    (:func:`alphaforge.loss.loss_plan`), and each iteration evaluates
    ``total_loss(m, plan)``. The plan's sampling map, drawn with the
    stage's fixed seed, the target's kd-tree, the stage topology and the
    baseline's Laplacian coordinates stay fixed over the stage's
    iterations, so each stage descends a deterministic objective that is
    continuous in the offsets (samples ride their faces as vertices move).
    Returns the refined mesh and the per-iteration loss trace.

    Raises NonFinite when a loss or gradient stops being finite (step size
    too large for the geometry).
    """
    mesh = initial
    base = taubin_smooth(initial, cfg.taubin_iters) if cfg.weights.lambda3 > 0 else None
    n_samples = max(len(gt_samples), 1)
    trace: list[LossBreakdown] = []
    for stage in range(cfg.stages):
        anchor = mesh.vertices
        offsets = np.zeros_like(anchor)
        if cfg.iters_per_stage:
            plan = loss_plan(mesh, gt_samples, base, cfg.weights, n_samples, seed + stage)
        for _ in range(cfg.iters_per_stage):
            disp = np.tanh(offsets)
            current = mesh.with_vertices(anchor + disp)
            breakdown, grad = total_loss(current, plan)
            if not math.isfinite(breakdown.total) or not np.isfinite(grad).all():
                raise NonFinite("loss or gradient became non-finite; reduce step_size")
            trace.append(breakdown)
            offsets -= cfg.step_size * grad * (1.0 - disp**2)
            np.clip(offsets, -OFFSET_CLIP, OFFSET_CLIP, out=offsets)
        disp = np.tanh(offsets)
        assert np.abs(disp).max(initial=0.0) < DISPLACEMENT_BOUND
        mesh = mesh.with_vertices(anchor + disp)
        if cfg.subdivide_between_stages and stage + 1 < cfg.stages:
            mesh = subdivide(mesh)
            if base is not None:
                base = subdivide(base)
    return mesh, trace


def trace_to_csv(trace: list[LossBreakdown]) -> str:
    """Loss trace as CSV (iteration, per-term values, total)."""
    return _csv(["iteration", *(f.name for f in fields(LossBreakdown))],
                ((i, *astuple(b)) for i, b in enumerate(trace)))
