"""Correctness checks on the program's outputs.

Each check takes plain arrays or parsed reports and returns a list of
problems (empty when the output is correct). The checks recompute what
they can independently of the package: the alpha-shape volume from
SciPy's Delaunay with this file's own circumradii, the enclosed volume by
the divergence theorem, and the Chamfer distance by brute force. The rest
are properties every correct output has.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import Delaunay

VOLUME_RTOL = 1e-9
CHAMFER_RTOL = 1e-9
POLICY_SLACK = 1.0  # F1 points the policy row may trail the best fixed row
NN_CHUNK = 64  # rows per brute-force block; 64 x 10k doubles stay in cache


# ---------------------------------------------------------------------------
# Files, parsed without the package


def read_xyz(path) -> np.ndarray:
    with open(path, encoding="ascii") as fh:
        rows = [line.split()[:3] for line in fh if line.strip()]
    return np.array(rows, dtype=np.float64).reshape(-1, 3)


def read_obj(path) -> tuple[np.ndarray, np.ndarray]:
    verts, faces = [], []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            fields = line.split()
            if fields and fields[0] == "v":
                verts.append(fields[1:4])
            elif fields and fields[0] == "f":
                faces.append([int(f.split("/")[0]) - 1 for f in fields[1:4]])
    return (np.array(verts, dtype=np.float64).reshape(-1, 3),
            np.array(faces, dtype=np.int64).reshape(-1, 3))


def write_xyz(path, points: np.ndarray) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(f"{x!r} {y!r} {z!r}\n" for x, y, z in points.tolist())


def write_obj(path, verts: np.ndarray, faces: np.ndarray) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(f"v {x!r} {y!r} {z!r}\n" for x, y, z in verts.tolist())
        fh.writelines(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in faces.tolist())


def read_table(path) -> dict[str, list[float]]:
    """Ablation CSV: row label -> per-class cells."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().split()
    return {row.split(",")[0]: [float(c) for c in row.split(",")[1:]]
            for row in lines[1:]}


# ---------------------------------------------------------------------------
# Independent geometry


def alpha_volume(points: np.ndarray, tau: float) -> float:
    """Total volume of the Delaunay tetrahedra with circumradius <= tau."""
    tets = Delaunay(points).simplices
    p0 = points[tets[:, 0]]
    edges = points[tets[:, 1:]] - p0[:, None, :]
    det = np.linalg.det(edges)
    rhs = 0.5 * (edges**2).sum(axis=2)
    with np.errstate(all="ignore"):
        # |center - p0| solves edges @ (center - p0) = rhs; flat tets give inf/nan
        local = np.linalg.solve(edges[det != 0], rhs[det != 0][..., None])[..., 0]
    radius = np.full(len(tets), np.inf)
    radius[det != 0] = np.linalg.norm(local, axis=1)
    return float(np.abs(det[radius <= tau]).sum() / 6.0)


def mesh_volume(verts: np.ndarray, faces: np.ndarray) -> float:
    """Signed enclosed volume; positive when faces point outward."""
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)


def nearest_sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distance from each row of a to its nearest row of b, by
    exhaustive search; the winner's distance is recomputed directly so the
    value carries no cancellation error."""
    out = np.empty(len(a))
    bt = np.ascontiguousarray(b.T)
    half_sq = 0.5 * (b**2).sum(axis=1)
    for lo in range(0, len(a), NN_CHUNK):
        blk = a[lo:lo + NN_CHUNK]
        key = blk @ bt
        np.subtract(half_sq, key, out=key)  # |a - b|^2 / 2 minus |a|^2 / 2
        idx = key.argmin(axis=1)
        out[lo:lo + NN_CHUNK] = ((blk - b[idx]) ** 2).sum(axis=1)
    return out


def brute_chamfer(p: np.ndarray, q: np.ndarray) -> float:
    return float(nearest_sq_dist(p, q).mean() + nearest_sq_dist(q, p).mean())


# ---------------------------------------------------------------------------
# Checks


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def check_boundary(points: np.ndarray, tau: float, verts: np.ndarray,
                   faces: np.ndarray) -> list[str]:
    """An alpha-shape boundary mesh of ``points`` at threshold ``tau``."""
    problems = []
    if not len(faces):
        return ["boundary mesh has no faces"]
    want = alpha_volume(points, tau)
    got = mesh_volume(verts, faces)
    if not _rel_err(got, want) <= VOLUME_RTOL:
        problems.append(f"enclosed volume {got!r} != alpha-complex volume {want!r}")
    edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    if (counts % 2).any():
        problems.append(f"{int((counts % 2).sum())} edges have an odd face count")
    inputs = {tuple(p) for p in points.tolist()}
    stray = sum(tuple(v) not in inputs for v in verts.tolist())
    if stray:
        problems.append(f"{stray} output vertices are not input points")
    return problems


def check_report(report: dict, brute: float | None = None) -> list[str]:
    """One ``evaluate`` JSON report; ``brute`` is the exhaustive Chamfer over
    the same sample clouds, when the protocol has no ICP step."""
    problems = []
    for name in ("precision", "recall", "f1"):
        bad = [v for v in report[name].values() if not 0.0 <= v <= 100.0]
        if bad:
            problems.append(f"{report['protocol']}: {name} outside [0, 100]: {bad}")
    f1 = [report["f1"][r] for r in sorted(report["f1"], key=float)]
    if any(b < a for a, b in zip(f1, f1[1:])):
        problems.append(f"{report['protocol']}: F1 decreases with radius: {f1}")
    if brute is not None and not _rel_err(report["chamfer"], brute) <= CHAMFER_RTOL:
        problems.append(f"{report['protocol']}: chamfer {report['chamfer']!r} != "
                        f"brute force {brute!r}")
    return problems


def check_fixed_point(report: dict) -> list[str]:
    """``evaluate(ref, ref)`` must score a perfect match."""
    if report["chamfer"] == 0.0 and all(v == 100.0 for v in report["f1"].values()):
        return []
    return [f"{report['protocol']}: reference against itself gives chamfer "
            f"{report['chamfer']!r}, F1 {report['f1']}"]


def check_refined(initial: tuple[np.ndarray, np.ndarray],
                  refined: tuple[np.ndarray, np.ndarray], stages: int,
                  totals: list[float], iters: int) -> list[str]:
    """A ``reconstruct`` output against the fixed-tau triangulation it
    starts from, plus its loss trace (``totals`` column, ``iters`` rows per
    stage)."""
    (v0, f0), (v1, f1) = initial, refined
    if f0.shape != f1.shape or (f0 != f1).any():
        return ["refined faces differ from the triangulation's faces"]
    problems = []
    moved = float(np.abs(v1 - v0).max(initial=0.0))
    if not moved < stages:
        problems.append(f"a vertex moved {moved!r} > {stages} along an axis")
    if len(totals) != stages * iters:
        problems.append(f"loss trace has {len(totals)} rows, want {stages * iters}")
    if not all(math.isfinite(t) for t in totals):
        problems.append("loss trace has non-finite values")
    for s in range(stages):
        stage = totals[s * iters:(s + 1) * iters]
        if stage and not stage[-1] <= stage[0]:
            problems.append(f"stage {s} ends at {stage[-1]!r} above its start {stage[0]!r}")
    return problems


def check_ablation(table: dict[str, list[float]]) -> list[str]:
    """Every cell is a 0-100 score and the learned policy row is no worse
    than the best fixed-threshold row (class means) minus POLICY_SLACK."""
    problems = []
    cells = [c for row in table.values() for c in row]
    if not cells or not all(0.0 <= c <= 100.0 for c in cells):
        problems.append(f"ablation cells outside [0, 100]: {cells}")
    fixed = [float(np.mean(row)) for label, row in table.items() if label != "policy"]
    if "policy" not in table or not fixed:
        return problems + ["ablation table lacks the policy row or fixed rows"]
    policy = float(np.mean(table["policy"]))
    if not policy >= max(fixed) - POLICY_SLACK:
        problems.append(f"policy row {policy!r} below best fixed row {max(fixed)!r}")
    return problems

