"""Evaluation metrics and the four published comparison protocols.

Protocols: ``pixel2mesh`` (rescale by 0.57, F1 at radii 0.1/0.2),
``meshrcnn`` (rescale so the longest bounding-box edge is 10, F1 at
0.1/0.3/0.5), ``tmnet`` (unscaled, ICP alignment before the Chamfer
metric), ``skeleton`` (unscaled, per-class Chamfer reporting).

The metrics read the loss module's two-way nearest-neighbor correspondence
(``loss._match``) through the same kind of term helpers the loss uses: one
evaluation makes one correspondence, from which the Chamfer, the F1 at
every radius and the normal cosine are all read, under tmnet on ICP's
aligned points. One kd-tree over the ground-truth samples serves that
correspondence and, under tmnet, every ICP iteration, so an evaluation
builds two kd-trees under every protocol. ICP re-queries only the points
whose certificate has lapsed (``loss._NeighborList`` with two
candidates): a point keeps its neighbor while its movement since its last
query stays under the gap between its nearest candidate now and the
runner-up of that query, so each iteration matches exactly as a query of
every point would. ICP (``_icp``) has no entry point of its own: it runs
inside ``evaluate``, in the frame of the two protocol-scaled meshes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateConfiguration, EmptyMesh
from .loss import (
    _chamfer_value,
    _Match,
    _match,
    _NeighborList,
    _normal_cosines,
    _tree_sq_distances,
    FIXED_CANDIDATES,
)
from .mesh import Mesh, PointCloud, _frame
from .sampling import METRIC_SAMPLES, sample_surface

PROTOCOLS = ("pixel2mesh", "meshrcnn", "tmnet", "skeleton")

PIXEL2MESH_SCALE = 0.57
MESHRCNN_BBOX_EDGE = 10.0

# F1 radii per protocol; pixel2mesh/meshrcnn values come from the published
# table headers, the ICP/per-class protocols report at the small default.
F1_RADII: dict[str, tuple[float, ...]] = {
    "pixel2mesh": (0.1, 0.2),
    "meshrcnn": (0.1, 0.3, 0.5),
    "tmnet": (0.1,),
    "skeleton": (0.1,),
}


@dataclass(frozen=True)
class EvalReport:
    protocol: str
    chamfer: float
    f1: dict[float, float]
    normal_cosine: float
    per_class: dict[str, float] | None = None
    precision: dict[float, float] = field(default_factory=dict)
    recall: dict[float, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "protocol": self.protocol,
            "chamfer": self.chamfer,
            "f1": {repr(r): v for r, v in self.f1.items()},
            "precision": {repr(r): v for r, v in self.precision.items()},
            "recall": {repr(r): v for r, v in self.recall.items()},
            "normal_cosine": self.normal_cosine,
            "per_class": self.per_class,
        }


def _f1(m: _Match, r: float) -> tuple[float, float, float]:
    """(precision, recall, f1) on a 0-100 scale at match radius r.

    Precision: share of P with a Q point within r. Recall: share of Q with a
    P point within r. F1: harmonic mean, zero when both vanish.
    """
    precision = 100.0 * float((m.d2_pq <= r * r).mean())
    recall = 100.0 * float((m.d2_qp <= r * r).mean())
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def _mean_abs_cosine(pn: np.ndarray, qn: np.ndarray, m: _Match) -> float:
    """Mean |cos| of matched normals over both-direction nearest neighbors."""
    _, cos_fwd, cos_rev = _normal_cosines(pn, qn, m)
    return float((np.abs(cos_fwd).sum() + np.abs(cos_rev).sum()) / (len(pn) + len(qn)))


def _best_rigid_fit(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rotation r and translation t with src @ r.T + t
    nearest dst (SVD/Procrustes with the determinant sign fix)."""
    cs = src.mean(axis=0)
    cd = dst.mean(axis=0)
    h = (src - cs).T @ (dst - cd)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return r, cd - r @ cs


def _icp(p: PointCloud, q: PointCloud, tree, max_iters: int = 50, tol: float = 1e-10,
         history: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Iterative closest point: align P onto Q from an identity start.

    Alternates nearest-neighbor correspondence against ``tree``, a kd-tree
    built over Q's points that the caller may query again, with the optimal
    rigid fit, until the mean-squared correspondence error improves by less
    than tol or max_iters is reached. Returns the accumulated rotation and
    P's points as the loop aligned them, step by step. Pass a list as
    ``history`` to collect the per-iteration MSE values (non-increasing).
    ``evaluate`` runs it in the frame of its two meshes, so tol does not
    depend on their scale.

    Raises DegenerateConfiguration when P's spread is rank-deficient
    (e.g. collinear points), for which the rotation is not identifiable.
    """
    pts = p.points
    centered = pts - pts.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if len(pts) < 3 or svals[1] <= 1e-12 * max(svals[0], 1e-300):
        raise DegenerateConfiguration("point spread is rank-deficient (collinear)")

    rotation = np.eye(3)
    aligned = pts.copy()
    neighbors = _NeighborList(len(pts), len(q), FIXED_CANDIDATES, tree)
    prev_mse = np.inf
    for _ in range(max_iters):
        idx, d2 = neighbors(aligned, q.points)
        matched = np.take(q.points, idx, axis=0)
        if d2.max() == 0.0:
            # exact correspondence: a further fit would only add roundoff
            if history is not None:
                history.append(0.0)
            break
        r, t = _best_rigid_fit(aligned, matched)
        aligned = aligned @ r.T + t
        rotation = r @ rotation
        mse = float(_tree_sq_distances((aligned - matched).T).mean())
        if history is not None:
            history.append(mse)
        if prev_mse - mse < tol:
            break
        prev_mse = mse
    return rotation, aligned


def apply_protocol_scaling(mesh: Mesh, protocol: str) -> Mesh:
    """Rescale a mesh per the named protocol (identity for tmnet/skeleton)."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}, expected one of {PROTOCOLS}")
    if mesh.num_vertices == 0:
        raise EmptyMesh("cannot scale an empty mesh")
    if protocol == "pixel2mesh":
        return mesh.with_vertices(mesh.vertices * PIXEL2MESH_SCALE)
    if protocol == "meshrcnn":
        extent = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
        longest = extent.max()
        if longest <= 0:
            raise EmptyMesh("mesh bounding box has no extent")
        return mesh.with_vertices(mesh.vertices * (MESHRCNN_BBOX_EDGE / longest))
    return mesh


def evaluate(
    pred: Mesh,
    gt: Mesh,
    protocol: str,
    n_samples: int = METRIC_SAMPLES,
    seed: int = 0,
    class_label: str | None = None,
) -> EvalReport:
    """Protocol evaluation of a predicted mesh against ground truth.

    Both meshes are protocol-scaled and surface-sampled with the same seed
    (common random numbers), so identical meshes hit the exact fixed point
    chamfer 0 / F1 100 / cosine 1. One nearest-neighbor correspondence
    between the final clouds serves the Chamfer, every F1 radius and the
    normal cosine. The tmnet protocol first ICP-aligns the prediction: its
    final cloud is ICP's incrementally aligned points, with the normals
    turned by ICP's rotation.

    Sampling, ICP and the correspondence run in the joint frame
    (``mesh._frame``) of the two protocol-scaled meshes: the F1 radii go in
    scaled by 2^-k and the Chamfer comes back scaled by 4^k.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    pred_s = apply_protocol_scaling(pred, protocol)
    gt_s = apply_protocol_scaling(gt, protocol)
    k = _frame(pred_s.vertices, gt_s.vertices)
    pred_cloud, gt_cloud = (sample_surface(m.with_vertices(np.ldexp(m.vertices, -k)),
                                           n_samples, seed) for m in (pred_s, gt_s))

    tree = cKDTree(gt_cloud.points)
    points, normals = pred_cloud.points, pred_cloud.normals
    if protocol == "tmnet":
        rotation, points = _icp(pred_cloud, gt_cloud, tree)
        normals = normals @ rotation.T
    match = _match(points, gt_cloud.points, tree)
    cd = float(np.ldexp(_chamfer_value(match), 2 * k))

    f1 = {}
    precision = {}
    recall = {}
    for r in F1_RADII[protocol]:
        precision[r], recall[r], f1[r] = _f1(match, np.ldexp(r, -k))
    ncos = _mean_abs_cosine(normals, gt_cloud.normals, match)
    per_class = {class_label: cd} if (protocol == "skeleton" and class_label) else None
    return EvalReport(protocol=protocol, chamfer=cd, f1=f1,
                      normal_cosine=ncos, per_class=per_class,
                      precision=precision, recall=recall)
