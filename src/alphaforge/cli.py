"""Command-line front end.

Subcommands: synth, triangulate, sample, evaluate, train-policy,
reconstruct, ablate. Reports go to stdout (or --out); diagnostics to
stderr. Exit codes: 0 success, 1 usage error, 2 data/geometry error.
Cloud/mesh arguments accept "-" for stdin/stdout so stages compose:

    alphaforge synth --shape torus --n 2000 --seed 7 | \
        alphaforge triangulate --tau 0.3 > torus.obj

Dataset directories (train-policy, ablate) hold instance pairs
``<class>__<name>.xyz`` + ``<class>__<name>.obj``; the text before the
first ``__`` is the class label.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import meshio
from .alphashape import TAU_PRESETS, triangulate
from .errors import AlphaForgeError, ConfigError, GeometryError
from .loss import pretty_weights, smooth_weights
from .mesh import PointCloud, _edge_table
from .metrics import PROTOCOLS, evaluate
from .policy import (
    QPolicy,
    greedy_tau,
    load_policy,
    policy_to_json,
    score,
    tau_meshes,
    train_policy,
)
from .refine import (
    RefineConfig,
    TaubinConfig,
    refine_mesh,
    taubin_smooth,
    trace_to_csv,
)
from .sampling import METRIC_SAMPLES, REWARD_SAMPLES, sample_surface
from .synth import FILLS, SHAPES, SyntheticSpec, synth

# Seed derivation offsets: one --seed governs every stochastic component.
SEED_SYNTH = 0
SEED_SAMPLE = 1
SEED_POLICY = 2
SEED_REFINE = 3
SEED_EVAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    commands: dict[str, "_Parser"]  # the top-level parser's subcommand parsers

    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _read_cloud(spec: str, fmt: str) -> PointCloud:
    if spec == "-":
        return meshio.points_from_text(sys.stdin.read(), fmt)
    return meshio.read_points(spec, fmt)


def _read_mesh(spec: str, fmt: str):
    if spec == "-":
        return meshio.mesh_from_text(sys.stdin.read(), fmt)
    return meshio.read_mesh(spec, fmt)


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _apply_config(parser: _Parser, argv: list[str] | None,
                  args: argparse.Namespace) -> argparse.Namespace:
    """Parse argv again with a JSON config document's values as the
    subcommand's defaults, so explicit command-line flags win over config
    values; unknown keys are usage errors."""
    if not getattr(args, "config", None):
        return args
    with open(args.config, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise _UsageError("config document must be a JSON object")
    known = set(vars(args)) - {"command", "func"}
    defaults = {}
    for key, value in doc.items():
        dest = key.replace("-", "_")
        if dest not in known:
            raise _UsageError(f"unknown config key {key!r}")
        defaults[dest] = value
    parser.commands[args.command].set_defaults(**defaults)
    return parser.parse_args(argv)


def _load_dataset(root: str):
    """Sorted (class, name, cloud, mesh) records from a dataset directory."""
    rootp = Path(root)
    clouds = sorted(rootp.glob("*.xyz"))
    if not clouds:
        raise ConfigError(f"no *.xyz instances under {root}")
    records = []
    for cpath in clouds:
        mpath = cpath.with_suffix(".obj")
        if not mpath.exists():
            raise ConfigError(f"missing ground-truth mesh {mpath}")
        stem = cpath.stem
        cls = stem.split("__")[0] if "__" in stem else stem
        records.append((cls, stem, meshio.read_points(cpath),
                        meshio.read_mesh(mpath)))
    return records


def _parse_taus(text: str) -> tuple[float, ...]:
    if text in TAU_PRESETS:
        return TAU_PRESETS[text]
    try:
        taus = tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise _UsageError(f"cannot parse threshold list {text!r}") from None
    if not taus:
        raise _UsageError("empty threshold list")
    return taus


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(shape=args.shape, n=args.n, sigma=args.sigma,
                         seed=args.seed + SEED_SYNTH, fill=args.fill,
                         major_radius=args.major_radius,
                         minor_radius=args.minor_radius)
    cloud, ref = synth(spec)
    _emit(meshio.points_to_text(cloud, args.format), args.out)
    if args.ref_out:
        meshio.write_mesh(ref, args.ref_out)
    return 0


def _cmd_triangulate(args) -> int:
    cloud = _read_cloud(args.infile, args.in_format)
    mesh = triangulate(cloud, args.tau)
    edges, _, faces_per_edge = _edge_table(mesh.faces)
    print(f"triangulate: {mesh.num_vertices} vertices, {mesh.num_faces} faces, "
          f"chi={mesh.num_vertices - len(edges) + mesh.num_faces}, "
          f"boundary_edges={np.count_nonzero(faces_per_edge == 1)}, "
          f"nonmanifold_edges={np.count_nonzero(faces_per_edge > 2)}", file=sys.stderr)
    _emit(meshio.mesh_to_text(mesh, args.format), args.out)
    return 0


def _cmd_sample(args) -> int:
    mesh = _read_mesh(args.mesh, args.in_format)
    cloud = sample_surface(mesh, args.n, args.seed + SEED_SAMPLE)
    _emit(meshio.points_to_text(cloud, args.format), args.out)
    return 0


def _cmd_evaluate(args) -> int:
    pred = _read_mesh(args.pred, None if args.pred != "-" else "obj")
    gt = meshio.read_mesh(args.gt)
    report = evaluate(pred, gt, args.protocol, n_samples=args.n_samples,
                      seed=args.seed + SEED_EVAL, class_label=args.class_label)
    _emit(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_train_policy(args) -> int:
    dataset = [(cloud, mesh) for _, _, cloud, mesh in _load_dataset(args.dataset)]
    policy = QPolicy.fresh(_parse_taus(args.actions), epsilon=args.epsilon,
                           epsilon_decay=args.epsilon_decay, period=args.period)
    policy, log = train_policy(dataset, policy, episodes=args.episodes,
                               seed=args.seed + SEED_POLICY, nu=args.nu,
                               n_samples=args.n_samples)
    _emit(policy_to_json(policy), args.out)
    if args.log:
        _emit(log.to_csv(), args.log)
    print(f"train-policy: {len(log.records)} transitions, "
          f"final epsilon {policy.epsilon:.4f}", file=sys.stderr)
    return 0


def _cmd_reconstruct(args) -> int:
    cloud = _read_cloud(args.infile, args.in_format)
    if args.policy:
        tau = greedy_tau(load_policy(args.policy), cloud)
        if tau is None:
            raise GeometryError(f"the policy cannot describe a {len(cloud)}-point cloud")
        print(f"reconstruct: policy chose tau={tau}", file=sys.stderr)
    elif args.tau is not None:
        tau = args.tau
    else:
        raise _UsageError("reconstruct needs --tau or --policy")

    weights = {"smooth": smooth_weights, "pretty": pretty_weights}[args.preset]()
    initial = triangulate(cloud, tau)
    baseline = None
    if weights.lambda3 > 0:
        baseline = taubin_smooth(initial, TaubinConfig(iterations=args.taubin_iters))
    gt_samples = cloud
    if weights.lambda6 > 0 and not cloud.has_normals:
        print("reconstruct: input cloud has no normals; disabling the "
              "normal-loss term", file=sys.stderr)
        weights = replace(weights, lambda6=0.0)
    cfg = RefineConfig(stages=args.stages, iters_per_stage=args.iters,
                       step_size=args.step, weights=weights,
                       subdivide_between_stages=args.subdivide)
    refined, trace = refine_mesh(initial, gt_samples, baseline, cfg,
                                 seed=args.seed + SEED_REFINE)
    if args.trace:
        _emit(trace_to_csv(trace), args.trace)
    _emit(meshio.mesh_to_text(refined, args.format), args.out)
    return 0


def _ablate_instance(item, taus, policy, nu, n_samples, seed):
    """One instance's scores by tau, all read off one complex, plus "policy"
    for the policy's pick. A pick among the taus shares their cell (the same
    mesh and seed); a cloud the policy cannot describe picks None, no mesh."""
    cls, name, cloud, gt = item
    pick = None if policy is None else greedy_tau(policy, cloud)
    cells = list(dict.fromkeys([*taus, pick]))
    meshed = [tau for tau in cells if tau is not None]
    meshes = dict(zip(meshed, tau_meshes(cloud, meshed)))
    scores = {tau: score(meshes.get(tau), gt, nu, n_samples, seed) for tau in cells}
    return cls, {**scores, "policy": scores[pick]}


def _cmd_ablate(args) -> int:
    records = _load_dataset(args.dataset)
    taus = _parse_taus(args.taus)
    policy = load_policy(args.policy) if args.policy else None
    seed = args.seed + SEED_EVAL

    def work(item):
        return _ablate_instance(item, taus, policy, args.nu, args.n_samples, seed)

    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        results = list(pool.map(work, records))  # input order preserved

    by_class = {c: [row for cls, row in results if cls == c]
                for c in sorted({cls for cls, _ in results})}
    columns = [(f"tau={t}", t) for t in taus]
    columns += [("policy", "policy")] if policy is not None else []
    lines = ["model," + ",".join(by_class)]
    for label, key in columns:
        means = []
        for rows in by_class.values():  # a per-class mean, summed in input order
            total = 0.0
            for row in rows:  # not sum(): it compensates from Python 3.12 on
                total += row[key]
            means.append(repr(100.0 * total / len(rows)))
        lines.append(f"{label}," + ",".join(means))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="alphaforge", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def common(p):
        p.add_argument("--seed", type=int, default=0,
                       help="global seed; per-component seeds derive from it")
        p.add_argument("--config", default=None,
                       help="JSON config overlaying these flags; unknown keys "
                            "are rejected")
        p.add_argument("--out", default="-",
                       help="output path, '-' for stdout")

    def subparser(name, **kw):
        return sub.add_parser(
            name, formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kw)

    p = subparser("synth", help="generate a synthetic shape cloud")
    common(p)
    p.add_argument("--shape", choices=SHAPES, required=True)
    p.add_argument("--n", type=int, default=2000, help="point count")
    p.add_argument("--sigma", type=float, default=0.0,
                   help="noise sigma")
    p.add_argument("--fill", choices=FILLS, default="solid",
                   help="sample the surface or the solid body")
    p.add_argument("--major-radius", type=float, default=1.0)
    p.add_argument("--minor-radius", type=float, default=0.4)
    p.add_argument("--format", choices=("xyz", "ply"), default="xyz")
    p.add_argument("--ref-out", default=None,
                   help="also write the reference mesh here")
    p.set_defaults(func=_cmd_synth)

    p = subparser("triangulate", help="alpha-shape triangulation of a cloud")
    common(p)
    p.add_argument("--in", dest="infile", default="-",
                   help="input cloud, '-' for stdin")
    p.add_argument("--in-format", choices=("xyz", "ply"), default="xyz")
    p.add_argument("--tau", type=float, required=True,
                   help="circumradius threshold")
    p.add_argument("--format", choices=("obj", "off", "ply"), default="obj")
    p.set_defaults(func=_cmd_triangulate)

    p = subparser("sample", help="area-uniform surface sampling of a mesh")
    common(p)
    p.add_argument("--mesh", required=True, help="input mesh path, '-' for stdin")
    p.add_argument("--in-format", choices=("obj", "off", "ply"), default="obj")
    p.add_argument("--n", type=int, default=METRIC_SAMPLES)
    p.add_argument("--format", choices=("xyz", "ply"), default="xyz")
    p.set_defaults(func=_cmd_sample)

    p = subparser("evaluate", help="protocol evaluation of pred vs gt mesh")
    common(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--protocol", choices=PROTOCOLS, required=True)
    p.add_argument("--n-samples", type=int, default=METRIC_SAMPLES)
    p.add_argument("--class-label", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = subparser("train-policy", help="train the threshold policy")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--actions", default="smooth",
                   help="comma-separated taus or a preset name (smooth|pretty)")
    p.add_argument("--episodes", type=int, default=500)
    p.add_argument("--epsilon", type=float, default=0.9,
                   help="initial exploration rate")
    p.add_argument("--epsilon-decay", type=float, default=0.99)
    p.add_argument("--period", type=int, default=2,
                   help="transitions between replay passes")
    p.add_argument("--nu", type=float, default=1e-4,
                   help="reward F1 radius")
    p.add_argument("--n-samples", type=int, default=REWARD_SAMPLES)
    p.add_argument("--log", default=None, help="write the training log CSV here")
    p.set_defaults(func=_cmd_train_policy, out="policy.json")

    p = subparser("reconstruct",
                  help="cloud -> triangulate -> baseline -> refine -> mesh")
    common(p)
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--in-format", choices=("xyz", "ply"), default="xyz")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--policy", default=None, help="policy JSON choosing tau")
    p.add_argument("--preset", choices=("smooth", "pretty"), default="smooth",
                   help="loss-weight preset")
    p.add_argument("--stages", type=int, default=2)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--step", type=float, default=3e-5,
                   help="gradient step for the bounded offsets")
    p.add_argument("--subdivide", action="store_true",
                   help="midpoint-subdivide between stages")
    p.add_argument("--taubin-iters", type=int, default=10)
    p.add_argument("--trace", default=None, help="write loss-trace CSV here")
    p.add_argument("--format", choices=("obj", "off", "ply"), default="obj")
    p.set_defaults(func=_cmd_reconstruct)

    p = subparser("ablate",
                  help="sweep fixed taus vs a policy over a dataset")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--taus", default="smooth",
                   help="comma-separated taus or preset")
    p.add_argument("--policy", default=None)
    p.add_argument("--nu", type=float, default=1e-4)
    p.add_argument("--n-samples", type=int, default=REWARD_SAMPLES)
    p.add_argument("--jobs", type=int,
                   default=int(os.environ.get("ALPHAFORGE_JOBS", "1")),
                   help="parallel instances ($ALPHAFORGE_JOBS)")
    p.set_defaults(func=_cmd_ablate)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Dispatch a CLI invocation; never raises on malformed input."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(parser, argv, args)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (AlphaForgeError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:  # pragma: no cover - console entry point
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
