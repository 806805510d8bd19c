"""Loss suite for mesh fitting: Chamfer terms, Laplacian and normal
regularizers, edge-length penalty, and their analytic vertex gradients.

Every term comes in a (value, gradient) pair whose gradient is validated
against central finite differences in the test suite. Nearest-neighbor
assignments are held fixed when differentiating (a subgradient where a
point is equidistant from two neighbors).

The total loss and its gradient come from one entry point,
``total_loss(m, plan)``. The :class:`LossPlan` (built by
:func:`loss_plan`) holds what stays fixed while only the vertices move, as
within one refinement stage: the target cloud and its kd-tree, the frozen
sampling map (face and barycentric coordinates per sample), the stage
topology (unique edges, cotangent slots, adjacent face pairs) and the
baseline's Laplacian coordinates, plus one neighbor list per direction
(:class:`_NeighborList`): the samples' candidate targets over the
target's kd-tree and the target's candidate samples. One evaluation makes
one two-way nearest-neighbor correspondence between the samples and the
target, which the log-Chamfer, Chamfer and normal-loss terms and their
gradients all read; each direction re-queries only the rows whose
certificate has lapsed, so the correspondence is bit for bit that of two
full queries. ``_query`` is the package's one kd-tree query: the neighbor
lists, ``_match`` (evaluation, ICP, the reward) and the descriptor use it.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    EmptyCloud,
    IsolatedVertex,
    MissingNormals,
    NoEdges,
    VertexCountMismatch,
)
from .mesh import (
    Mesh,
    PointCloud,
    _cross,
    _edge_table,
    _unique_rows,
    face_cross_products,
)
from .sampling import _draw, _place

LN10 = math.log(10.0)
# Offset inside the log-Chamfer's log10(d^2 + mu).
LOG_CHAMFER_MU = 1e-4
COT_CLAMP = 50.0


@dataclass(frozen=True)
class LossWeights:
    """Term weights for the total loss."""

    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 0.0
    lambda4: float = 0.0
    lambda5: float = 0.0
    lambda6: float = 0.0

    def __post_init__(self):
        if any(not math.isfinite(l) or l < 0 for l in astuple(self)):
            raise ValueError("loss weights must be finite and >= 0")


def smooth_weights() -> LossWeights:
    """Weight preset of the fully regularized training recipe."""
    return LossWeights(lambda1=1.0, lambda2=1.0, lambda3=0.5,
                       lambda4=0.15, lambda5=1e-3, lambda6=1e-4)


def pretty_weights() -> LossWeights:
    """Weight preset with only data and edge-length terms active."""
    return LossWeights(lambda1=1.0, lambda2=1.0, lambda3=0.0,
                       lambda4=0.2, lambda5=0.0, lambda6=0.0)


@dataclass(frozen=True)
class LossBreakdown:
    logcmd: float
    cmd: float
    laplacian_reg: float
    edge_len: float
    normal_consistency: float
    normal_loss: float
    total: float


# Rounding margin of the certificates below: far above the few ulps a
# distance can be off, relative to the distances and the coordinates, plus
# an absolute floor for distances built from subnormal squares.
_RELATIVE_MARGIN = 1e-12
_ABSOLUTE_MARGIN = 1e-150

# Candidates per row of a neighbor list: 2 over a cloud that stays put (ICP
# and refinement's samples -> target), 8 over refinement's moving samples.
FIXED_CANDIDATES = 2
REVERSE_CANDIDATES = 8


def _tree_sq_distances(diff: np.ndarray) -> np.ndarray:
    """Squared norms of coordinate differences held along diff's first
    axis, as the kd-tree computes them before taking the square root: the
    squares added in coordinate order."""
    total = diff[0] * diff[0]
    for axis in diff[1:]:
        total += axis * axis
    return total


def _slack(d1: np.ndarray, d2: np.ndarray, extent: np.ndarray) -> np.ndarray:
    """d2 - d1 less the rounding margin, which scales with d1 + d2 and each
    row's extent, the largest |coordinate| of its query point; written so,
    d2 = inf (no runner-up) gives inf."""
    rel = _RELATIVE_MARGIN
    return (1.0 - rel) * (d2 - d1) - rel * (2.0 * d1 + extent) - _ABSOLUTE_MARGIN


def _query(tree: cKDTree, pts: np.ndarray, k: int):
    """``tree.query(pts, k)`` as (len(pts), k) arrays of distances and
    indices, plus each row's nearest index. A row whose two nearest tie
    takes its nearest from a k=1 query, so the tree breaks the tie."""
    dist, idx = tree.query(pts, k=k)
    dist, idx = dist.reshape(len(pts), k), idx.reshape(len(pts), k)
    nearest = idx[:, 0].copy()
    if k > 1:
        tied = dist[:, 0] == dist[:, 1]
        if tied.any():
            nearest[tied] = tree.query(pts[tied], k=1)[1]
    return dist, idx, nearest


class _NeighborList:
    """Nearest neighbors in a cloud b of each of the n rows of a cloud a,
    where either cloud may move between calls: each call returns the
    indices and squared distances (``dist**2``, bit for bit) of
    ``cKDTree(b).query(a, k=1)``, but queries a tree only for the rows
    whose neighbor may have changed.

    A query keeps each row's K = min(k, n_b) nearest points of b as its
    candidates (Verlet's neighbor list), the K-th distance dK and the row's
    position as its anchor, and sets the row's drift to 0 (inf before its
    first query). Each call that finds b moved adds the largest movement of
    any point of b since the previous call to every row's drift and drops
    the tree. Let m be a row's movement since its query and d1 the least of
    its exact distances to its candidates. While m + drift stays under dK
    less d1 and the margin of ``_slack``, every other point of b is
    strictly farther, so a candidate at d1 that no other candidate ties is
    the nearest in the tree's own arithmetic. The other rows are re-queried
    with k=K, under ``_query``'s tie rule, against a tree over the current
    b; ``tree``, one over b, serves while b stays put (ICP's ground truth,
    refinement's target). A movement is a few ulps off the exact one, which
    ``_slack``'s relative margin covers as it covers the tree's distances,
    since m + drift < dK - d1; the sum is rounded up, so its rounding never
    accumulates. Per-row state is column-major: every per-call reduction
    runs along the long axis.
    """

    def __init__(self, n: int, n_b: int, k: int, tree: cKDTree | None = None):
        self.k = min(k, n_b)
        self.anchor = np.zeros((3, n))
        self.candidates = np.zeros((self.k, n), dtype=np.intp)
        self.kth = np.zeros(n)
        self.extent = np.zeros(n)
        self.drift = np.full(n, np.inf)  # bound on b's movement since each row's query
        self.tree, self.b = tree, None  # b: the previous call's, as (3, n_b)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        at, bt = a.T.copy(), b.T.copy()
        if self.b is not None and not np.array_equal(bt, self.b):  # b at rest needs no arithmetic
            step = np.sqrt(_tree_sq_distances(bt - self.b).max())
            self.drift = np.nextafter(self.drift + step, np.inf)
            self.tree = None
        self.b = bt
        moved = self.drift + np.sqrt(_tree_sq_distances(at - self.anchor))
        diff = np.take(bt, self.candidates, axis=1)  # (3, K, n)
        diff -= at[:, None, :]
        sq = _tree_sq_distances(diff)
        least = sq.min(axis=0)
        hit = sq == least
        idx = (self.candidates * hit).sum(axis=0)  # the candidate at d1 where it is alone
        d1 = np.sqrt(least)
        alone = np.count_nonzero(hit, axis=0) == 1
        stale = np.flatnonzero(~(alone & (moved < _slack(d1, self.kth, self.extent))))
        if len(stale):
            if self.tree is None:
                self.tree = cKDTree(b)
            dist, cand, nearest = _query(self.tree, a[stale], self.k)
            idx[stale], d1[stale] = nearest, dist[:, 0]
            self.anchor[:, stale] = at[:, stale]
            self.candidates[:, stale] = cand.T
            self.kth[stale] = dist[:, -1] if self.k < len(b) else np.inf
            self.extent[stale] = np.abs(self.anchor[:, stale]).max(axis=0)
            self.drift[stale] = 0.0
        return idx, d1**2


def _scatter(n: int, terms) -> np.ndarray:
    """What scattering vals at rows idx with ``np.add``'s ``ufunc.at``, for
    each (idx, vals) of terms in turn, leaves in an (n, ...) array of zeros,
    bit for bit, by one np.bincount per column: bincount adds each row's
    values in order from +0.0, as that scatter does on zeros."""
    idx = np.concatenate([i for i, _ in terms])
    vals = np.concatenate([v for _, v in terms])
    cols = [np.bincount(idx, col, n) for col in (vals.T if vals.ndim > 1 else [vals])]
    # as floats, also for no entries, where bincount gives ints
    return np.stack(cols, axis=-1).reshape((n,) + vals.shape[1:]).astype(np.float64)


class _Match(NamedTuple):
    """Two-way nearest-neighbor correspondence between clouds P and Q."""

    idx_pq: np.ndarray
    d2_pq: np.ndarray
    idx_qp: np.ndarray
    d2_qp: np.ndarray


def _match(pp: np.ndarray, qq: np.ndarray, tree_q: cKDTree | None = None) -> _Match:
    """Exact nearest neighbors of pp in qq and of qq in pp; ``tree_q``, a
    kd-tree over qq, is queried instead of building one."""
    if not len(pp):
        raise EmptyCloud("P is empty")
    if not len(qq):
        raise EmptyCloud("Q is empty")
    dist_pq, _, idx_pq = _query(cKDTree(qq) if tree_q is None else tree_q, pp, 1)
    dist_qp, _, idx_qp = _query(cKDTree(pp), qq, 1)
    return _Match(idx_pq, dist_pq[:, 0] ** 2, idx_qp, dist_qp[:, 0] ** 2)


def _chamfer_value(m: _Match) -> float:
    return float(m.d2_pq.mean() + m.d2_qp.mean())


def _chamfer_grad(pp: np.ndarray, qq: np.ndarray, m: _Match) -> np.ndarray:
    grad = (2.0 / len(pp)) * (pp - np.take(qq, m.idx_pq, axis=0))
    rev = (2.0 / len(qq)) * (np.take(pp, m.idx_qp, axis=0) - qq)
    return _scatter(len(pp), [(np.arange(len(pp)), grad), (m.idx_qp, rev)])


def _log_chamfer_value(m: _Match, mu: float = LOG_CHAMFER_MU) -> float:
    return float(np.log10(m.d2_pq + mu).sum() + np.log10(m.d2_qp + mu).sum())


def _log_chamfer_grad(pp: np.ndarray, qq: np.ndarray, m: _Match,
                      mu: float = LOG_CHAMFER_MU) -> np.ndarray:
    grad = 2.0 * (pp - np.take(qq, m.idx_pq, axis=0)) / ((m.d2_pq + mu) * LN10)[:, None]
    rev = 2.0 * (np.take(pp, m.idx_qp, axis=0) - qq) / ((m.d2_qp + mu) * LN10)[:, None]
    return _scatter(len(pp), [(np.arange(len(pp)), grad), (m.idx_qp, rev)])


def _normal_cosines(pn: np.ndarray, qn: np.ndarray, m: _Match):
    """Pooled mean of 1 - |cos| over both match directions, plus the
    forward and reverse cosines."""
    cos_fwd = np.einsum("ij,ij->i", pn, np.take(qn, m.idx_pq, axis=0))
    cos_rev = np.einsum("ij,ij->i", np.take(pn, m.idx_qp, axis=0), qn)
    total = (1.0 - np.abs(cos_fwd)).sum() + (1.0 - np.abs(cos_rev)).sum()
    return float(total / (len(pn) + len(qn))), cos_fwd, cos_rev


# ---------------------------------------------------------------------------
# Cotangent Laplacian


class _EdgeSlots(NamedTuple):
    """Unique edges of a face set (``_edge_table``'s, lexicographic) and
    its cotangent slots: slot s is the angle at corner k[s] opposite edge
    (i[s], j[s]) in one face, three slots per face, and ``edge[s]`` indexes
    that edge in ``edges``."""

    edges: np.ndarray
    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    edge: np.ndarray


def _edge_slots(faces: np.ndarray) -> _EdgeSlots:
    edges, opposite, _ = _edge_table(faces)
    f = faces.T
    return _EdgeSlots(edges, f[[1, 2, 0]].ravel(), f[[2, 0, 1]].ravel(), f.ravel(),
                      opposite.ravel())


def _cotangents(v: np.ndarray, slots: _EdgeSlots):
    """Per slot: corner vectors u, w, their cross product, |cross| and
    u.w (so cot = d / s), plus the clamped edge weights and clamp mask."""
    vk = np.take(v, slots.k, axis=0)
    u = np.take(v, slots.i, axis=0) - vk
    w = np.take(v, slots.j, axis=0) - vk
    cross = _cross(u, w)
    s = np.linalg.norm(cross, axis=1)
    s = np.maximum(s, 1e-300)  # degenerate corners produce huge cots, clamped below
    d = np.einsum("ij,ij->i", u, w)
    raw = _scatter(len(slots.edges), [(slots.edge, 0.5 * (d / s))])
    weights = np.clip(raw, -COT_CLAMP, COT_CLAMP)
    return (u, w, cross, s, d), weights, raw != weights


def _laplacian_from_edges(v: np.ndarray, edges: np.ndarray, weights: np.ndarray) -> np.ndarray:
    i, j = edges[:, 0], edges[:, 1]
    wd = weights[:, None] * (np.take(v, i, axis=0) - np.take(v, j, axis=0))
    return _scatter(len(v), [(i, wd), (j, -wd)])


def laplacian_coords(mesh: Mesh) -> np.ndarray:
    """Cotangent-weighted Laplacian coordinate of every vertex.

    LO(i) = sum over neighbors j of w_ij (v_i - v_j), with
    w_ij = (cot a_ij + cot b_ij) / 2 over the angles opposite edge (i, j)
    (a single angle on boundary edges), clamped to [-50, 50].

    Raises IsolatedVertex when some vertex has no incident face.
    """
    incident = np.zeros(mesh.num_vertices, dtype=bool)
    if len(mesh.faces):
        incident[np.unique(mesh.faces)] = True
    if not incident.all():
        missing = int(np.flatnonzero(~incident)[0])
        raise IsolatedVertex(f"vertex {missing} has no incident face")
    slots = _edge_slots(mesh.faces)
    _, weights, _ = _cotangents(mesh.vertices, slots)
    return _laplacian_from_edges(mesh.vertices, slots.edges, weights)


def _laplacian_reg_and_grad(v: np.ndarray, slots: _EdgeSlots, lo_target: np.ndarray):
    """Value and d/dv of mean_i |LO_v(i) - lo_target(i)|^2."""
    (u, w, cross, s, d), weights, clamped = _cotangents(v, slots)
    edges = slots.edges
    lo = _laplacian_from_edges(v, edges, weights)
    g = lo - lo_target
    nv = len(v)
    value = float((g**2).sum(axis=1).mean())

    i, j = edges[:, 0], edges[:, 1]
    # position part: LO(i) depends on v_i and its neighbors
    coeff = (2.0 / nv) * weights[:, None]
    gi_gj = np.take(g, i, axis=0) - np.take(g, j, axis=0)

    # weight part: c_e = (2/V) (g_i - g_j) . (v_i - v_j), zero where clamped
    vi_vj = np.take(v, i, axis=0) - np.take(v, j, axis=0)
    c_e = (2.0 / nv) * np.einsum("ij,ij->i", gi_gj, vi_vj)
    c_e = np.where(clamped, 0.0, c_e)
    c_slot = 0.5 * np.take(c_e, slots.edge)  # each cot enters w_e with factor 1/2

    s1 = s[:, None]
    ds3 = (d / s**3)[:, None]
    dcot_du = w / s1 - ds3 * _cross(w, cross)
    dcot_dw = u / s1 - ds3 * _cross(cross, u)
    grad = _scatter(nv, [(i, coeff * gi_gj), (j, -coeff * gi_gj),
                         (slots.i, c_slot[:, None] * dcot_du),
                         (slots.j, c_slot[:, None] * dcot_dw),
                         (slots.k, -c_slot[:, None] * (dcot_du + dcot_dw))])
    return value, grad


# ---------------------------------------------------------------------------
# Normal terms


def _adjacent_face_pairs(faces: np.ndarray) -> np.ndarray:
    """Unordered pairs of faces sharing an edge, as an (m, 2) array in
    lexicographic order."""
    _, opposite, counts = _edge_table(faces)
    order = np.argsort(opposite.ravel())
    edge = opposite.ravel()[order]
    face_of = np.tile(np.arange(len(faces), dtype=np.int64), 3)[order]
    # the faces of one edge are contiguous after the sort: pair each slot
    # with the slot `gap` places later, for gaps up to the largest edge degree
    pairs = [np.zeros((0, 2), dtype=np.int64)]
    for gap in range(1, counts.max(initial=0)):
        same = edge[gap:] == edge[:-gap]
        pairs.append(np.stack([face_of[:-gap][same], face_of[gap:][same]], axis=1))
    return _unique_rows(np.sort(np.concatenate(pairs), axis=1))[0]


def _unit_normals(cross: np.ndarray):
    """Unit vectors and norms of cross products (norms floored at 1e-300)."""
    s = np.maximum(np.linalg.norm(cross, axis=1), 1e-300)
    return cross / s[:, None], s


def _scatter_normal_grad(v: np.ndarray, faces: np.ndarray, grad_n: np.ndarray,
                         n: np.ndarray, s: np.ndarray):
    """Chain per-face gradients w.r.t. unit normals back to vertices."""
    big_g = (grad_n - n * np.einsum("ij,ij->i", n, grad_n)[:, None]) / s[:, None]
    a, b, c = (np.take(v, corner, axis=0) for corner in faces.T)
    return _scatter(len(v), [(faces[:, 0], _cross(b - c, big_g)),
                             (faces[:, 1], _cross(c - a, big_g)),
                             (faces[:, 2], _cross(a - b, big_g))])


def _normal_consistency_and_grad(v, faces, pairs, cross):
    if not len(pairs):
        return 0.0, np.zeros_like(v)
    n, s = _unit_normals(cross)
    n1, n2 = (np.take(n, side, axis=0) for side in pairs.T)
    value = float((1.0 - np.einsum("ij,ij->i", n1, n2)).sum())
    grad_n = _scatter(len(n), [(pairs[:, 0], -n2), (pairs[:, 1], -n1)])
    return value, _scatter_normal_grad(v, faces, grad_n, n, s)


def _normal_loss_vertex_grad(v, faces, cross, face_idx, gt_n, cos_fwd, cos_rev, m: _Match):
    """Vertex gradient of the pooled 1 - |cos| normal term: accumulate
    d/d(face normal) over every match touching a sample of that face, then
    chain through the unit-normal map."""
    n, s = _unit_normals(cross)
    denom = len(face_idx) + len(gt_n)
    grad_n = _scatter(len(n), [
        (face_idx, -np.sign(cos_fwd)[:, None] * np.take(gt_n, m.idx_pq, axis=0) / denom),
        (np.take(face_idx, m.idx_qp), -np.sign(cos_rev)[:, None] * gt_n / denom)])
    return _scatter_normal_grad(v, faces, grad_n, n, s)


def _edge_length_and_grad(v: np.ndarray, edges: np.ndarray):
    if not len(edges):
        raise NoEdges("mesh has no edges")
    d = np.take(v, edges[:, 0], axis=0) - np.take(v, edges[:, 1], axis=0)
    value = float((d**2).sum(axis=1).mean())
    scale = 2.0 / len(edges)
    return value, _scatter(len(v), [(edges[:, 0], scale * d), (edges[:, 1], -scale * d)])


# ---------------------------------------------------------------------------
# Total loss


@dataclass(frozen=True)
class LossPlan:
    """What the total loss holds fixed while only the vertices move.

    Built by :func:`loss_plan` for one face connectivity (one refinement
    stage). Fields a weight setting does not need are None: the sampling
    map and both certificates of the match without data terms, the edge
    slots without Laplacian or edge-length terms, the face pairs without
    normal consistency, the target Laplacian without a Laplacian term.
    Each evaluation updates the certificates in ``neighbors`` and
    ``reverse``, which never changes a result, so a plan is not to be
    shared between threads.
    """

    weights: LossWeights
    faces: np.ndarray
    target: PointCloud
    neighbors: _NeighborList | None  # samples -> target, over the target's kd-tree
    reverse: _NeighborList | None    # target -> samples, over the moving samples
    face_idx: np.ndarray | None      # (n,) source face of each sample
    bary: np.ndarray | None          # (n, 3) barycentric coordinates
    sample_faces: np.ndarray | None  # (n, 3) faces[face_idx]
    slots: _EdgeSlots | None
    face_pairs: np.ndarray | None
    lo_target: np.ndarray | None


def loss_plan(
    m: Mesh,
    p_gt: PointCloud,
    m_t: Mesh | None,
    w: LossWeights,
    n_samples: int,
    seed: int,
) -> LossPlan:
    """Plan for the total loss of meshes with m's connectivity.

    Draws the sampling map (n_samples area-uniform samples of m,
    deterministic in seed) and sets up the match's certificates (the
    samples' over the target's kd-tree, the target's over the samples) when
    a data term is active, builds the edge slots and face
    pairs the active regularizers need, and the Laplacian coordinates of
    the baseline m_t. Zero-weight terms are skipped and their preconditions
    waived.
    """
    neighbors = reverse = face_idx = bary = sample_faces = None
    if w.lambda1 > 0 or w.lambda2 > 0 or w.lambda6 > 0:
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        face_idx, bary = _draw(face_cross_products(m), n_samples, seed)
        sample_faces = m.faces[face_idx]
        if len(p_gt) == 0:
            raise EmptyCloud("target cloud is empty")
        if w.lambda6 > 0 and not p_gt.has_normals:
            raise MissingNormals("normal loss needs normals on both clouds")
        neighbors = _NeighborList(n_samples, len(p_gt), FIXED_CANDIDATES, cKDTree(p_gt.points))
        reverse = _NeighborList(len(p_gt), n_samples, REVERSE_CANDIDATES)
    lo_target = None
    if w.lambda3 > 0:
        if m_t is None:
            raise VertexCountMismatch("laplacian term requires a baseline mesh")
        if m.num_vertices != m_t.num_vertices:
            raise VertexCountMismatch(
                f"{m.num_vertices} != {m_t.num_vertices} vertices")
        lo_target = laplacian_coords(m_t)
    slots = _edge_slots(m.faces) if w.lambda3 > 0 or w.lambda4 > 0 else None
    pairs = _adjacent_face_pairs(m.faces) if w.lambda5 > 0 else None
    return LossPlan(w, m.faces, p_gt, neighbors, reverse, face_idx, bary,
                    sample_faces, slots, pairs, lo_target)


def _certified_match(pos: np.ndarray, plan: LossPlan) -> _Match:
    """``_match`` of the samples at pos with the plan's target, bit for bit,
    from the plan's two neighbor lists; each re-queries only the rows whose
    certificate has lapsed."""
    qq = plan.target.points
    return _Match(*plan.neighbors(pos, qq), *plan.reverse(qq, pos))


def total_loss(m: Mesh, plan: LossPlan) -> tuple[LossBreakdown, np.ndarray]:
    """Weighted sum of every active term at m, and its analytic gradient
    d(total)/d(vertex). m must have the plan's faces. Samples ride their
    faces through the plan's frozen sampling map and nearest-neighbor
    matches are held fixed; the normal-loss term is chained through the
    face normals. Zero-weight terms are skipped."""
    if not np.array_equal(m.faces, plan.faces):
        raise ValueError("mesh faces differ from the faces the loss plan was built for")
    w = plan.weights
    v = m.vertices
    grad = np.zeros_like(v)
    logcmd = cmd = lap = el = nc = nl = 0.0
    cross = face_cross_products(m) if w.lambda5 > 0 or w.lambda6 > 0 else None

    if plan.face_idx is not None:
        f, bary = plan.sample_faces, plan.bary
        pos = _place(v, f, bary)
        qq = plan.target.points
        match = _certified_match(pos, plan)

        def chain_to_vertices(grad_pts):
            return [(f[:, corner], bary[:, corner, None] * grad_pts) for corner in range(3)]

        data = []
        if w.lambda1 > 0:
            logcmd = _log_chamfer_value(match)
            data += chain_to_vertices(w.lambda1 * _log_chamfer_grad(pos, qq, match))
        if w.lambda2 > 0:
            cmd = _chamfer_value(match)
            data += chain_to_vertices(w.lambda2 * _chamfer_grad(pos, qq, match))
        if data:
            grad = _scatter(len(v), data)
        if w.lambda6 > 0:
            sample_normals, _ = _unit_normals(np.take(cross, plan.face_idx, axis=0))
            gt_n = plan.target.normals
            nl, cos_fwd, cos_rev = _normal_cosines(sample_normals, gt_n, match)
            grad += w.lambda6 * _normal_loss_vertex_grad(
                v, m.faces, cross, plan.face_idx, gt_n, cos_fwd, cos_rev, match)

    if w.lambda3 > 0:
        lap, lap_grad = _laplacian_reg_and_grad(v, plan.slots, plan.lo_target)
        grad += w.lambda3 * lap_grad
    if w.lambda4 > 0:
        el, el_grad = _edge_length_and_grad(v, plan.slots.edges)
        grad += w.lambda4 * el_grad
    if w.lambda5 > 0:
        nc, nc_grad = _normal_consistency_and_grad(v, m.faces, plan.face_pairs, cross)
        grad += w.lambda5 * nc_grad

    total = (w.lambda1 * logcmd + w.lambda2 * cmd + w.lambda3 * lap
             + w.lambda4 * el + w.lambda5 * nc + w.lambda6 * nl)
    breakdown = LossBreakdown(
        logcmd=logcmd, cmd=cmd, laplacian_reg=lap, edge_len=el,
        normal_consistency=nc, normal_loss=nl, total=float(total))
    return breakdown, grad
