"""Command-line front end.

Subcommands: synth, triangulate, sample, evaluate, train-policy,
reconstruct, ablate. Reports go to stdout (or --out); diagnostics to
stderr. Exit codes: 0 success, 1 usage error, 2 data/geometry error.
File arguments but --ref-out accept "-" for stdin/stdout so stages compose:

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

from . import meshio
from .alphashape import TAU_PRESETS, triangulate
from .errors import AlphaForgeError, ConfigError, GeometryError
from .loss import pretty_weights, smooth_weights
from .mesh import topology
from .metrics import PROTOCOLS, evaluate
from .policy import (
    QPolicy,
    _check_reward_args,
    greedy_tau,
    load_policy,
    policy_to_json,
    score_row,
    train_policy,
)
from .refine import RefineConfig, refine_mesh, trace_to_csv
from .sampling import METRIC_SAMPLES, REWARD_SAMPLES, sample_surface
from .synth import FILLS, SHAPES, SyntheticSpec, synth

# Seed derivation offsets: one --seed governs every stochastic component.
SEED_SYNTH = 0
SEED_SAMPLE = 1
SEED_POLICY = 2
SEED_REFINE = 3
SEED_EVAL = 4

# Destinations of the flags that read a file, or standard input for "-".
STDIN_READERS = ("config", "infile", "mesh", "pred", "gt", "policy")

NU_HELP = "reward F1 radius; None: 3%% of each ground truth's longest bounding-box edge"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    commands: dict[str, "_Parser"]  # the top-level parser's subcommand parsers

    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _parse(parser: _Parser, argv: list[str] | None) -> argparse.Namespace:
    """Parse argv, with a ``--config`` JSON document's values spliced in as
    flags right after the subcommand name: argparse converts and checks them
    as it does the command line's own flags, which come later and so win.
    Keys are flag names (``in``, ``n-samples``; ``_`` for ``-`` too). Unknown
    keys, and values no flag could spell, are usage errors. Standard input
    holds one document, so two reading flags set to ``-`` (on the command
    line, by default or in the document) are a usage error, raised before
    anything is read when the command line sets them."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    readers = [a for a in command._actions if a.dest in STDIN_READERS]
    find = _Parser(add_help=False)
    for action in readers:  # nargs="?": a bare flag is the full parse's to report
        find.add_argument(*action.option_strings, dest=action.dest, nargs="?",
                          default=action.default)
    given = find.parse_known_args(argv[1:])[0]
    _one_reader_of_stdin(given, readers)
    if not given.config:
        return parser.parse_args(argv)
    doc = json.loads(meshio._text(given.config))
    if not isinstance(doc, dict):
        raise _UsageError("config document must be a JSON object")
    flags = {opt[2:]: a for a in command._actions if a.dest not in ("help", "config")
             for opt in a.option_strings}
    tokens = []
    for key, value in doc.items():
        action = flags.get(key.replace("_", "-"))
        if action is None:
            raise _UsageError(f"unknown config key {key!r}")
        flag, switch = action.option_strings[0], action.nargs == 0
        if isinstance(value, bool) != switch or not isinstance(value, (str, int, float)):
            raise _UsageError(f"config key {key!r} cannot be {json.dumps(value)}")
        if value is not False:  # a switch (--subdivide) is true or false
            tokens.append(flag if switch else f"{flag}={value}")
    args = parser.parse_args(argv[:1] + tokens + argv[1:])
    _one_reader_of_stdin(args, readers)
    return args


def _one_reader_of_stdin(args: argparse.Namespace, readers) -> None:
    """Refuse two of the reading flags ``readers`` set to ``-`` in args."""
    flags = [a.option_strings[0] for a in readers if getattr(args, a.dest) == "-"]
    if len(flags) > 1:
        raise _UsageError(f"{flags[0]} and {flags[1]} cannot both be '-': "
                          "stdin holds one document")


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
    if args.ref_out:  # checked before anything is written
        try:
            meshio._infer_format(args.ref_out, None, meshio.MESH_FORMATS)
        except ValueError:
            raise _UsageError(f"--ref-out needs a suffix in {meshio.MESH_FORMATS}") from None
    spec = SyntheticSpec(shape=args.shape, n=args.n, sigma=args.sigma,
                         seed=args.seed + SEED_SYNTH, fill=args.fill,
                         major_radius=args.major_radius,
                         minor_radius=args.minor_radius)
    cloud, ref = synth(spec)
    meshio._write_text(args.out, meshio.points_to_text(cloud, args.format))
    if args.ref_out:
        meshio.write_mesh(ref, args.ref_out)
    return 0


def _cmd_triangulate(args) -> int:
    cloud = meshio.read_points(args.infile)
    mesh = triangulate(cloud, args.tau)
    topo = topology(mesh)
    print(f"triangulate: {mesh.num_vertices} vertices, {mesh.num_faces} faces, "
          f"chi={topo.chi}, boundary_edges={len(topo.boundary_edges)}, "
          f"nonmanifold_edges={len(topo.nonmanifold_edges)}", file=sys.stderr)
    meshio._write_text(args.out, meshio.mesh_to_text(mesh, args.format))
    return 0


def _cmd_sample(args) -> int:
    mesh = meshio.read_mesh(args.mesh)
    cloud = sample_surface(mesh, args.n, args.seed + SEED_SAMPLE)
    meshio._write_text(args.out, meshio.points_to_text(cloud, args.format))
    return 0


def _cmd_evaluate(args) -> int:
    pred = meshio.read_mesh(args.pred)
    gt = meshio.read_mesh(args.gt)
    report = evaluate(pred, gt, args.protocol, n_samples=args.n_samples,
                      seed=args.seed + SEED_EVAL, class_label=args.class_label)
    meshio._write_text(args.out, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_train_policy(args) -> int:
    dataset = [(cloud, mesh) for _, _, cloud, mesh in _load_dataset(args.dataset)]
    policy = QPolicy.fresh(_parse_taus(args.actions), epsilon=args.epsilon,
                           epsilon_decay=args.epsilon_decay, period=args.period)
    policy, log = train_policy(dataset, policy, episodes=args.episodes,
                               seed=args.seed + SEED_POLICY, nu=args.nu,
                               n_samples=args.n_samples)
    meshio._write_text(args.out, policy_to_json(policy))
    if args.log:
        meshio._write_text(args.log, log.to_csv())
    if log.records and not any(r["reward"] for r in log.records):
        print("train-policy: every reward was 0, so the policy learned nothing; "
              "a larger --nu may help", file=sys.stderr)
    print(f"train-policy: {len(log.records)} transitions, "
          f"final epsilon {policy.epsilon:.4f}", file=sys.stderr)
    return 0


def _cmd_reconstruct(args) -> int:
    weights = {"smooth": smooth_weights, "pretty": pretty_weights}[args.preset]()
    cfg = RefineConfig(stages=args.stages, iters_per_stage=args.iters,
                       step_size=args.step, weights=weights,
                       subdivide_between_stages=args.subdivide,
                       taubin_iters=args.taubin_iters)
    cloud = meshio.read_points(args.infile)
    if args.policy:
        tau = greedy_tau(load_policy(args.policy), cloud)
        if tau is None:
            raise GeometryError(f"the policy cannot describe a {len(cloud)}-point cloud")
        print(f"reconstruct: policy chose tau={tau}", file=sys.stderr)
    elif args.tau is not None:
        tau = args.tau
    else:
        raise _UsageError("reconstruct needs --tau or --policy")

    initial = triangulate(cloud, tau)
    if weights.lambda6 > 0 and not cloud.has_normals:
        print("reconstruct: input cloud has no normals; disabling the "
              "normal-loss term", file=sys.stderr)
        cfg = replace(cfg, weights=replace(weights, lambda6=0.0))
    refined, trace = refine_mesh(initial, cloud, cfg, seed=args.seed + SEED_REFINE)
    if args.trace:
        meshio._write_text(args.trace, trace_to_csv(trace))
    meshio._write_text(args.out, meshio.mesh_to_text(refined, args.format))
    return 0


def _ablate_instance(item, taus, policy, nu, n_samples, seed):
    """One instance's scores by tau, all in one ``score_row``, plus "policy"
    for the policy's pick. A pick among the taus shares their cell (the same
    mesh and seed); a cloud the policy cannot describe picks None, no mesh."""
    cls, name, cloud, gt = item
    pick = None if policy is None else greedy_tau(policy, cloud)
    cells = [tau for tau in dict.fromkeys([*taus, pick]) if tau is not None]
    scores = dict(zip(cells, score_row(cloud, gt, cells, nu, n_samples, seed)))
    return cls, {**scores, "policy": scores.get(pick, 0.0)}


def _cmd_ablate(args) -> int:
    if args.jobs < 1:
        raise _UsageError(f"--jobs (or ALPHAFORGE_JOBS) must be >= 1, not {args.jobs}")
    _check_reward_args(args.nu, args.n_samples)
    records = _load_dataset(args.dataset)
    taus = _parse_taus(args.taus)
    policy = load_policy(args.policy) if args.policy else None
    seed = args.seed + SEED_EVAL

    def work(item):
        return _ablate_instance(item, taus, policy, args.nu, args.n_samples, seed)

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(work, records))  # input order preserved

    by_class = {c: [row for cls, row in results if cls == c]
                for c in sorted({cls for cls, _ in results})}
    columns = [(f"tau={t}", t) for t in taus]
    columns += [("policy", "policy")] if policy is not None else []
    table = []
    for label, key in columns:
        means = []
        for rows in by_class.values():  # a per-class mean, summed in input order
            total = 0.0
            for row in rows:  # not sum(): it compensates from Python 3.12 on
                total += row[key]
            means.append(100.0 * total / len(rows))
        table.append([label, *means])
    meshio._write_text(args.out, meshio._csv(["model", *by_class], table))
    return 0


# ---------------------------------------------------------------------------
# Parser wiring


def _build_parser() -> _Parser:
    jobs = os.environ.get("ALPHAFORGE_JOBS", "1")
    try:
        jobs = int(jobs)
    except ValueError:
        raise _UsageError(f"ALPHAFORGE_JOBS must be an integer, not {jobs!r}") from None
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
    p.add_argument("--format", choices=meshio.POINT_FORMATS, default="xyz")
    p.add_argument("--ref-out", default=None,
                   help="also write the reference mesh here")
    p.set_defaults(func=_cmd_synth)

    p = subparser("triangulate", help="alpha-shape triangulation of a cloud")
    common(p)
    p.add_argument("--in", dest="infile", default="-",
                   help="input cloud, '-' for stdin")
    p.add_argument("--tau", type=float, required=True,
                   help="circumradius threshold")
    p.add_argument("--format", choices=meshio.MESH_FORMATS, default="obj")
    p.set_defaults(func=_cmd_triangulate)

    p = subparser("sample", help="area-uniform surface sampling of a mesh")
    common(p)
    p.add_argument("--mesh", required=True, help="input mesh path, '-' for stdin")
    p.add_argument("--n", type=int, default=METRIC_SAMPLES)
    p.add_argument("--format", choices=meshio.POINT_FORMATS, default="xyz")
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
    p.add_argument("--nu", type=float, default=None, help=NU_HELP)
    p.add_argument("--n-samples", type=int, default=REWARD_SAMPLES)
    p.add_argument("--log", default=None, help="write the training log CSV here")
    p.set_defaults(func=_cmd_train_policy, out="policy.json")

    p = subparser("reconstruct",
                  help="cloud -> triangulate -> baseline -> refine -> mesh")
    common(p)
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--policy", default=None, help="policy JSON choosing tau")
    p.add_argument("--preset", choices=("smooth", "pretty"), default="smooth",
                   help="loss-weight preset")
    p.add_argument("--stages", type=int, default=RefineConfig.stages)
    p.add_argument("--iters", type=int, default=RefineConfig.iters_per_stage)
    p.add_argument("--step", type=float, default=RefineConfig.step_size,
                   help="gradient step for the bounded offsets")
    p.add_argument("--subdivide", action="store_true",
                   help="midpoint-subdivide between stages")
    p.add_argument("--taubin-iters", type=int, default=RefineConfig.taubin_iters)
    p.add_argument("--trace", default=None, help="write loss-trace CSV here")
    p.add_argument("--format", choices=meshio.MESH_FORMATS, default="obj")
    p.set_defaults(func=_cmd_reconstruct)

    p = subparser("ablate",
                  help="sweep fixed taus vs a policy over a dataset")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--taus", default="smooth",
                   help="comma-separated taus or preset")
    p.add_argument("--policy", default=None)
    p.add_argument("--nu", type=float, default=None, help=NU_HELP)
    p.add_argument("--n-samples", type=int, default=REWARD_SAMPLES)
    p.add_argument("--jobs", type=int, default=jobs,
                   help="parallel instances ($ALPHAFORGE_JOBS)")
    p.set_defaults(func=_cmd_ablate)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Dispatch a CLI invocation; never raises on malformed input."""
    try:
        args = _parse(_build_parser(), argv)
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
