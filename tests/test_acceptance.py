"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import time

import numpy as np

from alphaforge import (
    LossWeights,
    PointCloud,
    QPolicy,
    RefineConfig,
    RigidTransform,
    SyntheticSpec,
    apply_protocol_scaling,
    delaunay_complex,
    enclosed_volume,
    evaluate,
    icosphere,
    icp_align,
    loss_plan,
    q_values,
    read_mesh,
    read_points,
    refine_mesh,
    reward,
    sample_surface,
    smooth_weights,
    state_descriptor,
    synth,
    taubin_smooth,
    topology,
    total_loss,
    train_policy,
    triangulate,
    write_mesh,
    write_points,
)
from alphaforge.cli import run as cli_run
from alphaforge.errors import EmptyMesh
from alphaforge.loss import _log_chamfer_grad, _Match
from alphaforge.metrics import PROTOCOLS
from alphaforge.refine import TAUBIN_LAM, _umbrella
import oracles
from test_delaunay import (
    empty_circumsphere_violations,
    hull_volume_oracle,
    tetrahedra_volume,
)


def report(num, name, ok):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_delaunay_correctness():
    """200 seeded clouds: brute-force empty circumsphere + hull volume."""
    start = time.time()
    ok = True
    for seed in range(200):
        rng = np.random.default_rng(seed)
        pts = rng.random((int(rng.integers(20, 51)), 3))
        complex_ = delaunay_complex(PointCloud(pts))
        if empty_circumsphere_violations(pts, complex_):
            ok = False
            break
        vol = tetrahedra_volume(pts, complex_.simplices)
        if abs(vol - hull_volume_oracle(pts)) > 1e-6 * hull_volume_oracle(pts):
            ok = False
            break
    elapsed = time.time() - start
    report(1, f"delaunay correctness ({elapsed:.1f}s)", ok and elapsed < 10.0)


# documented genus-recovery recipes: solid-body clouds and thresholds
GENUS_RECIPES = (
    (SyntheticSpec("sphere", n=3000, fill="solid", seed=1), 0.3, 2),
    (SyntheticSpec("torus", n=3000, fill="solid", seed=2), 0.3, 0),
    (SyntheticSpec("stacked", n=4000, fill="solid", seed=3), 0.15, -2),
)


def test_criterion_2_genus_recovery():
    """Sphere chi=2, torus chi=0, stacked chi=-2; closed meshes."""
    start = time.time()
    ok = True
    for spec, tau, chi in GENUS_RECIPES:
        cloud, _ = synth(spec)
        mesh = triangulate(cloud, tau)
        topo = topology(mesh)
        if topo.chi != chi or len(topo.boundary_edges) != 0:
            ok = False
            break
    elapsed = time.time() - start
    report(2, f"genus recovery ({elapsed:.1f}s)", ok and elapsed < 30.0)


def _fd_mesh(mesh, plan, h=1e-6):
    g = np.zeros_like(mesh.vertices)
    for i in range(mesh.num_vertices):
        for d in range(3):
            vp, vm = mesh.vertices.copy(), mesh.vertices.copy()
            vp[i, d] += h
            vm[i, d] -= h
            fp = total_loss(mesh.with_vertices(vp), plan)[0].total
            fm = total_loss(mesh.with_vertices(vm), plan)[0].total
            g[i, d] = (fp - fm) / (2 * h)
    return g


def test_criterion_3_gradient_fidelity():
    """Five gradients vs central differences, 20 seeded instances each."""
    base_mesh = icosphere(0)

    def fidelity(mesh, gt, w, n_samples, seed):
        plan = loss_plan(mesh, gt, base_mesh, w, n_samples, seed)
        _, g = total_loss(mesh, plan)
        gfd = _fd_mesh(mesh, plan)
        return np.linalg.norm(g - gfd) <= 1e-4 * np.linalg.norm(gfd)

    ok = True
    # data terms on one-term plans, against a 12-point cloud: CMD, log-CMD
    for w in (LossWeights(lambda1=0, lambda2=1), LossWeights(lambda1=1, lambda2=0)):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            mesh = base_mesh.with_vertices(
                base_mesh.vertices + 0.05 * rng.normal(size=(12, 3)))
            ok &= fidelity(mesh, PointCloud(rng.random((12, 3))), w, 12, seed)

    # mesh gradients: edge length, Laplacian regularizer, normal consistency
    term_weights = {
        "edge_len": LossWeights(lambda1=0, lambda2=0, lambda4=1),
        "laplacian": LossWeights(lambda1=0, lambda2=0, lambda3=1),
        "normal_consistency": LossWeights(lambda1=0, lambda2=0, lambda5=1),
    }
    gt = PointCloud(np.zeros((1, 3)))
    for name, w in term_weights.items():
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            mesh = base_mesh.with_vertices(
                base_mesh.vertices + 0.05 * rng.normal(size=(12, 3)))
            ok &= fidelity(mesh, gt, w, 1, 0)

    # log-CMD per-pair gradient magnitude strictly decreasing in distance
    mags = []
    for d in (0.1, 1.0, 10.0):
        pair = _Match(np.array([0]), np.array([d * d]), np.array([0]), np.array([d * d]))
        g = _log_chamfer_grad(np.zeros((1, 3)), np.array([[d, 0.0, 0.0]]), pair, 1e-4)
        mags.append(np.linalg.norm(g))
    ok &= mags[0] > mags[1] > mags[2]
    report(3, "gradient fidelity", bool(ok))


POLICY_ACTIONS = (0.3, 0.9)
POLICY_NU = 0.2
POLICY_SAMPLES = 1000


def _policy_instance(cls, seed):
    if cls == "torus":
        return synth(SyntheticSpec("torus", n=1000, fill="solid", seed=seed,
                                   minor_radius=0.25))
    return synth(SyntheticSpec("sphere", n=80, fill="solid", seed=seed,
                               major_radius=0.8))


def _action_rewards(cloud, gt):
    out = []
    for tau in POLICY_ACTIONS:
        try:
            mesh = triangulate(cloud, tau)
            out.append(reward(mesh, gt, nu=POLICY_NU,
                              n_samples=POLICY_SAMPLES, seed=999))
        except EmptyMesh:
            out.append(0.0)
    return out


def test_criterion_4_policy_learning():
    """Trained policy matches the per-class brute-force best threshold on
    >= 90% of 100 held-out instances and loses <= 0.01 mean reward."""
    start = time.time()
    train = ([_policy_instance("torus", 100 + i) for i in range(20)]
             + [_policy_instance("blob", 200 + i) for i in range(20)])
    held = ([_policy_instance("torus", 5000 + i) for i in range(50)]
            + [_policy_instance("blob", 6000 + i) for i in range(50)])

    policy = QPolicy.fresh(POLICY_ACTIONS, epsilon=0.9, epsilon_decay=0.99,
                           period=2)
    policy, log = train_policy(train, policy, episodes=2000, seed=42,
                               nu=POLICY_NU, n_samples=POLICY_SAMPLES)
    assert all(0.0 <= r["reward"] <= 1.0 for r in log.records)
    assert all(r["epsilon"] >= 0.01 for r in log.records)

    matches = 0
    chosen_rewards = []
    fixed = np.zeros((len(held), len(POLICY_ACTIONS)))
    for k, (cloud, gt) in enumerate(held):
        rs = _action_rewards(cloud, gt)
        fixed[k] = rs
        chosen = int(np.argmax(q_values(policy, state_descriptor(cloud))))
        matches += chosen == int(np.argmax(rs))
        chosen_rewards.append(rs[chosen])
    mean_policy = float(np.mean(chosen_rewards))
    best_fixed = float(fixed.mean(axis=0).max())
    elapsed = time.time() - start
    ok = matches >= 90 and mean_policy >= best_fixed - 0.01 and elapsed < 120.0
    report(4, f"policy learning (match {matches}/100, policy {mean_policy:.3f} "
              f"vs fixed {best_fixed:.3f}, {elapsed:.0f}s)", ok)


def test_criterion_5_refinement_efficacy():
    """Noisy icosphere + Smooth weights: >= 40% Chamfer reduction in
    <= 200 iterations, near-monotone loss trace, tanh displacement bound."""
    rng = np.random.Generator(np.random.Philox(11))
    clean = icosphere(3)
    noisy = clean.with_vertices(clean.vertices
                                + 0.05 * rng.normal(size=clean.vertices.shape))
    gt = sample_surface(icosphere(4), 2000, seed=21)

    def metric(mesh):
        return oracles.chamfer(sample_surface(mesh, 10000, seed=77),
                               sample_surface(icosphere(4), 10000, seed=78))

    before = metric(noisy)
    cfg = RefineConfig(stages=2, iters_per_stage=100, step_size=3e-5,
                       weights=smooth_weights())
    refined, trace = refine_mesh(noisy, gt, cfg, seed=5)
    after = metric(refined)

    totals = np.array([b.total for b in trace])
    mono = np.mean(np.diff(totals) <= 1e-12)
    displacement = np.abs(refined.vertices - noisy.vertices).max()
    ok = (after <= 0.6 * before and len(totals) <= 200 and mono >= 0.95
          and displacement < 1.0)
    report(5, f"refinement efficacy (reduction {(1 - after / before) * 100:.0f}%, "
              f"monotone {mono:.3f})", ok)


def test_criterion_6_metric_fixed_points_and_icp():
    mesh = synth(SyntheticSpec("stacked", n=10))[1]
    ok = True
    for proto in PROTOCOLS:
        rep = evaluate(mesh, mesh, proto, n_samples=1500, seed=2)
        ok &= (rep.chamfer == 0.0 and all(v == 100.0 for v in rep.f1.values())
               and rep.normal_cosine == 1.0)

    rng = np.random.default_rng(6)
    p = PointCloud(rng.random((100, 3)))
    angle = np.deg2rad(20.0)
    rot = np.array([[np.cos(angle), -np.sin(angle), 0],
                    [np.sin(angle), np.cos(angle), 0], [0, 0, 1.0]])
    q = PointCloud(p.points @ rot.T + np.array([0.3, -0.1, 0.2]))
    transform, _ = icp_align(p, q, max_iters=60)
    ok &= RigidTransform(transform.rotation @ rot.T, np.zeros(3)).angle < 1e-6

    cube = synth(SyntheticSpec("box", n=10))[1]
    scaled = apply_protocol_scaling(cube, "meshrcnn")
    extent = scaled.vertices.max(axis=0) - scaled.vertices.min(axis=0)
    ok &= extent.max() == 10.0
    report(6, "metric fixed points and ICP", bool(ok))


def _run_cli_twice(argv_template, outputs, tmp_path, tag):
    blobs = []
    for attempt in range(2):
        sub = tmp_path / f"{tag}_{attempt}"
        sub.mkdir()
        argv = [a.format(out=sub) for a in argv_template]
        assert cli_run(argv) == 0, argv
        blobs.append(b"".join((sub / name).read_bytes() for name in outputs))
    return blobs[0] == blobs[1]


def test_criterion_7_determinism_and_round_trips(tmp_path, capsys):
    ok = True

    # shared fixtures for the commands
    fix = tmp_path / "fixtures"
    fix.mkdir()
    cloud, gt = synth(SyntheticSpec("sphere", n=600, fill="solid", seed=50))
    write_points(cloud, fix / "cloud.xyz")
    write_mesh(gt, fix / "gt.obj")
    dataset = tmp_path / "ds"
    dataset.mkdir()
    for i in range(2):
        c, g = _policy_instance("torus", 300 + i)
        write_points(c, dataset / f"torus__{i}.xyz")
        write_mesh(g, dataset / f"torus__{i}.obj")
        c, g = _policy_instance("blob", 400 + i)
        write_points(c, dataset / f"blob__{i}.xyz")
        write_mesh(g, dataset / f"blob__{i}.obj")
    policy_path = tmp_path / "p.json"
    assert cli_run(["train-policy", "--dataset", str(dataset), "--actions",
                    "0.3,0.9", "--episodes", "8", "--seed", "5", "--nu", "0.2",
                    "--n-samples", "300", "--out", str(policy_path)]) == 0

    commands = {
        "synth": (["synth", "--shape", "torus", "--n", "500", "--seed", "9",
                   "--out", "{out}/cloud.xyz", "--ref-out", "{out}/ref.obj"],
                  ["cloud.xyz", "ref.obj"]),
        "triangulate": (["triangulate", "--in", str(fix / "cloud.xyz"),
                         "--tau", "0.3", "--out", "{out}/mesh.obj"],
                        ["mesh.obj"]),
        "sample": (["sample", "--mesh", str(fix / "gt.obj"), "--n", "300",
                    "--seed", "4", "--out", "{out}/s.xyz"], ["s.xyz"]),
        "evaluate": (["evaluate", "--pred", str(fix / "gt.obj"), "--gt",
                      str(fix / "gt.obj"), "--protocol", "pixel2mesh",
                      "--n-samples", "500", "--seed", "3",
                      "--out", "{out}/report.json"], ["report.json"]),
        "train-policy": (["train-policy", "--dataset", str(dataset),
                          "--actions", "0.3,0.9", "--episodes", "8",
                          "--seed", "5", "--nu", "0.2", "--n-samples", "300",
                          "--out", "{out}/policy.json", "--log", "{out}/log.csv"],
                         ["policy.json", "log.csv"]),
        "reconstruct": (["reconstruct", "--in", str(fix / "cloud.xyz"),
                         "--policy", str(policy_path), "--stages", "1",
                         "--iters", "3", "--step", "3e-5", "--seed", "6",
                         "--out", "{out}/r.obj", "--trace", "{out}/t.csv"],
                        ["r.obj", "t.csv"]),
        "ablate": (["ablate", "--dataset", str(dataset), "--taus", "0.3,0.9",
                    "--policy", str(policy_path), "--nu", "0.2",
                    "--n-samples", "300", "--seed", "8",
                    "--out", "{out}/table.csv"], ["table.csv"]),
    }
    for tag, (argv, outputs) in commands.items():
        same = _run_cli_twice(argv, outputs, tmp_path, tag)
        ok &= same
        if not same:
            print(f"  non-deterministic subcommand: {tag}")

    # file round trips
    mesh = triangulate(cloud, 0.3)
    for fmt in ("obj", "off", "ply"):
        path = tmp_path / f"rt.{fmt}"
        write_mesh(mesh, path)
        back = read_mesh(path)
        ok &= np.array_equal(back.vertices, mesh.vertices)
        ok &= np.array_equal(back.faces, mesh.faces)
    sampled = sample_surface(mesh, 1000, seed=12)
    for fmt in ("xyz", "ply"):
        path = tmp_path / f"rt_pts.{fmt}"
        write_points(sampled, path)
        back = read_points(path)
        ok &= np.array_equal(back.points, sampled.points)
        ok &= np.array_equal(back.normals, sampled.normals)
    with capsys.disabled():
        report(7, "determinism and round trips", bool(ok))


def test_criterion_8_taubin_anti_shrinkage():
    mesh = icosphere(3)
    taubin = taubin_smooth(mesh, 10)

    v = mesh.vertices.copy()
    edges = topology(mesh).edges
    for _ in range(10):
        v = v + TAUBIN_LAM * _umbrella(v, edges)
    lam_only = mesh.with_vertices(v)

    v0 = enclosed_volume(mesh)
    ratio_taubin = enclosed_volume(taubin) / v0
    ratio_lam = enclosed_volume(lam_only) / v0
    report(8, f"taubin anti-shrinkage ({ratio_taubin:.4f} vs {ratio_lam:.4f})",
           ratio_taubin > ratio_lam)
