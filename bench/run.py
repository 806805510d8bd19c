"""Benchmark of the alphaforge command line: one workload, one process.

    python3 bench/run.py --workload scan --seed 1 --seconds 25 --trace 0

The workload's inputs are generated from ``--seed`` and written as files;
the program sees only those files. Each timed round drives
``alphaforge.cli.run`` in-process, with exactly the arguments a user would
type, until ``--seconds`` have passed (whole rounds only). The outputs are
then checked (``checks.py``) and the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced rounds with rounds traced through ``layertrace.py`` and reports
the per-layer metrics, averaged per traced round, plus the tracing
overhead. See README.md for the workloads and the metric map.
"""

import os

# One thread per process: the timings must not depend on BLAS/OpenMP pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from layertrace import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"

CLI_SEED = "0"  # the program's own --seed; only the inputs follow --seed
PROTOCOLS = ("pixel2mesh", "meshrcnn", "tmnet", "skeleton")
SOLIDS = (("torus", 0.3), ("sphere", 0.3), ("stacked", 0.15))
FALLBACK_MESSAGE = "falling back"  # reconstruct's baseline-fallback diagnostic


def process_age() -> float:
    """Seconds since this process started (10 ms resolution)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


def import_program():
    """Import alphaforge from this checkout's src/, never from elsewhere."""
    if not (SRC / "alphaforge" / "__init__.py").is_file():
        raise SystemExit(f"error: no alphaforge package under {SRC}")
    sys.path.insert(0, str(SRC))
    import alphaforge.cli

    if Path(alphaforge.__file__).resolve().parent != SRC / "alphaforge":
        raise SystemExit(f"error: imported alphaforge from {alphaforge.__file__}")
    return alphaforge


class Program:
    """Runs CLI invocations in-process and keeps their diagnostics."""

    def __init__(self, alphaforge):
        self.af = alphaforge
        self.stderr: list[str] = []

    def __call__(self, *argv) -> bool:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = self.af.cli.run([str(a) for a in argv])
            except Exception:  # a crash is a failed operation, not a dead benchmark
                traceback.print_exc()
                code = -1
        self.stderr.append(err.getvalue())
        if code != 0:
            print(f"failed ({code}): alphaforge {' '.join(map(str, argv))}\n"
                  f"{err.getvalue()}", file=sys.stderr)
        return code == 0


def _synth(af, shape, n, seed, **radii):
    return af.synth(af.SyntheticSpec(shape, n=n, fill="solid", seed=int(seed), **radii))


def _evaluate(program, pred: Path, gt: Path, protocol: str, out: Path, *flags) -> bool:
    return program("evaluate", "--pred", pred, "--gt", gt, "--protocol", protocol,
                   "--out", out, "--seed", CLI_SEED, *flags)


def geometric_mean(values) -> float:
    """Mean of a Chamfer list: geometric, because single shapes' Chamfer is
    heavy-tailed between seeds (the 80-point spheres, the refined spheres)."""
    return float(np.exp(np.mean(np.log(values))))


# ---------------------------------------------------------------------------
# Workloads. Each makes its inputs in __init__ (set-up), runs one round per
# round() call and returns [(operations, seconds, failed operations)], names
# its output files, and checks them in check() -> (problems, quality).


class Policy:
    """train-policy on 20 clouds, then ablate --policy on 20 held-out ones.

    Modelled on acceptance criterion 4: solid tori (n=1000, minor radius
    0.25) and solid spheres (n=80, radius 0.8) alternate; actions 0.3 and
    0.9, reward radius 0.2, 1000 reward samples. An operation is one scored
    (cloud, tau) pair: a training episode or an ablation cell.
    """

    SPLITS = (("train", 20), ("held", 20))
    EPISODES = 150
    FLAGS = ("--nu", "0.2", "--n-samples", "1000", "--seed", CLI_SEED)

    def __init__(self, program: Program, work: Path, seed: int):
        self.run = program
        af = program.af
        rng = np.random.default_rng(seed)
        seeds = iter(rng.choice(2**31, sum(n for _, n in self.SPLITS), replace=False))
        for split, count in self.SPLITS:
            (work / split).mkdir(parents=True)
            for i in range(count):
                if i % 2 == 0:
                    cls, (cloud, ref) = "torus", _synth(af, "torus", 1000, next(seeds),
                                                        minor_radius=0.25)
                else:
                    cls, (cloud, ref) = "sphere", _synth(af, "sphere", 80, next(seeds),
                                                         major_radius=0.8)
                stem = work / split / f"{cls}__{i:03d}"
                checks.write_xyz(stem.with_suffix(".xyz"), cloud.points)
                checks.write_obj(stem.with_suffix(".obj"), ref.vertices, ref.faces)
        self.work = work
        self.policy = work / "policy.json"
        self.table = work / "ablate.csv"
        self.outputs = [self.policy, self.table]
        self.ops = self.EPISODES + 3 * self.SPLITS[1][1]  # 2 fixed taus + policy

    def round(self):
        start = time.perf_counter()
        ok = (self.run("train-policy", "--dataset", self.work / "train",
                       "--actions", "0.3,0.9", "--episodes", self.EPISODES,
                       "--out", self.policy, *self.FLAGS)
              and self.run("ablate", "--dataset", self.work / "held",
                           "--taus", "0.3,0.9", "--policy", self.policy,
                           "--jobs", "1", "--out", self.table, *self.FLAGS))
        return [(self.ops, time.perf_counter() - start, 0 if ok else self.ops)]

    def check(self):
        """The ablation table's properties. Quality: the mean of the policy
        row, and the meshrcnn Chamfer (1000 samples) of the meshes at the
        taus the trained policy picks for the held-out clouds."""
        af = self.run.af
        table = checks.read_table(self.table)
        problems = checks.check_ablation(table)
        policy = af.load_policy(self.policy)
        chamfer = []
        for cloud in sorted((self.work / "held").glob("*.xyz")):
            q = af.q_values(policy, af.state_descriptor(af.read_points(cloud)))
            mesh, report = cloud.with_suffix(".pick.obj"), cloud.with_suffix(".json")
            if not (self.run("triangulate", "--in", cloud, "--out", mesh,
                             "--tau", policy.actions[int(np.argmax(q))])
                    and _evaluate(self.run, mesh, cloud.with_suffix(".obj"),
                                  "meshrcnn", report, "--n-samples", "1000")):
                problems.append(f"{cloud.name}: the policy's pick does not mesh")
                continue
            chamfer.append(json.loads(report.read_text())["chamfer"])
        return problems, {"out_f1": float(np.mean(table["policy"])),
                          "out_chamfer": geometric_mean(chamfer)}


class _Meshes:
    """Shared parts of the workloads that mesh solid clouds at fixed taus."""

    def __init__(self, program: Program, work: Path, seed: int, n: int, copies: int):
        self.run = program
        work.mkdir(parents=True)
        rng = np.random.default_rng(seed)
        seeds = iter(rng.choice(2**31, copies * len(SOLIDS), replace=False))
        self.clouds = []  # (path stem, tau, reference mesh)
        for shape, tau in SOLIDS:
            for k in range(copies):
                stem = work / f"{shape}{k}"
                cloud, ref = _synth(program.af, shape, n, next(seeds))
                checks.write_xyz(stem.with_suffix(".xyz"), cloud.points)
                checks.write_obj(work / f"{shape}_ref.obj", ref.vertices, ref.faces)
                self.clouds.append((stem, tau, work / f"{shape}_ref.obj"))

    def check_triangulation(self, stem: Path, tau: float, mesh: Path) -> list[str]:
        verts, faces = checks.read_obj(mesh)
        points = checks.read_xyz(stem.with_suffix(".xyz"))
        return [f"{mesh.name}: {p}" for p in checks.check_boundary(points, tau, verts, faces)]


class Reconstruct(_Meshes):
    """reconstruct (smooth preset, 2 stages x ITERS iterations) on solid
    torus / sphere / stacked clouds of 3000 points, two seeds each. An
    operation is one reconstruct call."""

    ITERS = 10
    STAGES = 2

    def __init__(self, program, work, seed):
        super().__init__(program, work, seed, n=3000, copies=2)
        self.outputs = [p for stem, _, _ in self.clouds
                        for p in (stem.with_suffix(".out.obj"), stem.with_suffix(".csv"))]

    def round(self):
        units = []
        for stem, tau, _ in self.clouds:
            start = time.perf_counter()
            ok = self.run("reconstruct", "--in", stem.with_suffix(".xyz"), "--tau", tau,
                          "--preset", "smooth", "--stages", self.STAGES,
                          "--iters", self.ITERS, "--trace", stem.with_suffix(".csv"),
                          "--out", stem.with_suffix(".out.obj"), "--seed", CLI_SEED)
            units.append((1, time.perf_counter() - start, 0 if ok else 1))
        return units

    def check(self):
        problems, f1, chamfer = [], [], []
        for stem, tau, ref in self.clouds:
            initial = stem.with_suffix(".tri.obj")
            report = stem.with_suffix(".json")
            if not (self.run("triangulate", "--in", stem.with_suffix(".xyz"),
                             "--tau", tau, "--out", initial)
                    and _evaluate(self.run, stem.with_suffix(".out.obj"), ref, "meshrcnn", report)):
                problems.append(f"{stem.name}: triangulate or evaluate failed")
                continue
            problems += self.check_triangulation(stem, tau, initial)
            with open(stem.with_suffix(".csv"), encoding="ascii") as fh:
                totals = [float(line.rsplit(",", 1)[1]) for line in fh.read().split()[1:]]
            problems += [f"{stem.name}: {p}" for p in checks.check_refined(
                checks.read_obj(initial), checks.read_obj(stem.with_suffix(".out.obj")),
                self.STAGES, totals, self.ITERS)]
            rep = json.loads(report.read_text())
            f1.append(rep["f1"]["0.3"])  # F1@0.1 of refined meshes swings 8-28 by seed
            chamfer.append(rep["chamfer"])
        return problems, {"out_f1": float(np.mean(f1)), "out_chamfer": geometric_mean(chamfer)}


class Scan(_Meshes):
    """triangulate, then evaluate under all four protocols, on solid torus /
    sphere / stacked clouds of 10000 points, two seeds each. An operation is
    one cloud: one triangulate and four evaluate calls."""

    def __init__(self, program, work, seed):
        super().__init__(program, work, seed, n=10000, copies=2)
        self.outputs = [p for stem, _, _ in self.clouds
                        for p in [stem.with_suffix(".obj")]
                        + [stem.with_suffix(f".{proto}.json") for proto in PROTOCOLS]]

    def round(self):
        units = []
        for stem, tau, ref in self.clouds:
            start = time.perf_counter()
            mesh = stem.with_suffix(".obj")
            ok = self.run("triangulate", "--in", stem.with_suffix(".xyz"), "--tau", tau,
                          "--out", mesh, "--seed", CLI_SEED)
            ok = ok and all(_evaluate(self.run, mesh, ref, proto, stem.with_suffix(f".{proto}.json"))
                            for proto in PROTOCOLS)
            units.append((1, time.perf_counter() - start, 0 if ok else 1))
        return units

    def check(self):
        af = self.run.af
        eval_seed = int(CLI_SEED) + af.cli.SEED_EVAL
        problems, f1, chamfer = [], [], []
        for stem, tau, ref in self.clouds:
            mesh = stem.with_suffix(".obj")
            problems += self.check_triangulation(stem, tau, mesh)
            pred_mesh, ref_mesh = af.read_mesh(mesh), af.read_mesh(ref)
            for proto in PROTOCOLS:
                rep = json.loads(stem.with_suffix(f".{proto}.json").read_text())
                brute = None
                if proto != "tmnet":  # tmnet aligns by ICP before its Chamfer
                    pred_pts, ref_pts = (
                        af.sample_surface(af.apply_protocol_scaling(m, proto),
                                          af.METRIC_SAMPLES, eval_seed).points
                        for m in (pred_mesh, ref_mesh))
                    brute = checks.brute_chamfer(pred_pts, ref_pts)
                problems += [f"{stem.name}: {p}" for p in checks.check_report(rep, brute)]
            rep = json.loads(stem.with_suffix(".meshrcnn.json").read_text())
            f1.append(rep["f1"]["0.1"])
            chamfer.append(rep["chamfer"])
        for ref in sorted({ref for _, _, ref in self.clouds}):
            for proto in PROTOCOLS:
                out = ref.with_suffix(f".{proto}.json")
                if not _evaluate(self.run, ref, ref, proto, out):
                    problems.append(f"{ref.name}: evaluate against itself failed")
                    continue
                problems += [f"{ref.name}: {p}" for p in
                             checks.check_fixed_point(json.loads(out.read_text()))]
        return problems, {"out_f1": float(np.mean(f1)), "out_chamfer": geometric_mean(chamfer)}


WORKLOADS = {"policy": Policy, "reconstruct": Reconstruct, "scan": Scan}


# ---------------------------------------------------------------------------
# Running one workload


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def measure(workload, seconds: float, tracer=None):
    """Run whole rounds until ``seconds`` have passed. With a tracer, odd
    rounds run traced and even ones untraced, and there are at least three
    rounds: round 0 warms the process, so rounds 1 and 2 make the first
    traced/untraced pair. Returns [(traced, units, fallbacks)] and the
    problems seen."""
    diagnostics = workload.run.stderr
    rounds, problems = [], []
    first = None
    start = time.perf_counter()
    while (not rounds or time.perf_counter() - start < seconds
           or (tracer is not None and len(rounds) < 3)):
        traced = tracer is not None and len(rounds) % 2 == 1
        seen = len(diagnostics)
        if traced:
            tracer.install()
        try:
            units = workload.round()
        finally:
            if traced:
                tracer.uninstall()
        fallbacks = sum(FALLBACK_MESSAGE in text for text in diagnostics[seen:])
        rounds.append((traced, units, fallbacks))
        if not any(failed for _, _, failed in units):
            d = digest(workload.outputs)
            first = first or d
            if d != first:
                problems.append(f"round {len(rounds)} outputs differ from round 1")
    return rounds, problems


def end_to_end(rounds, setup_s: float, peak_mb: float, quality: dict) -> dict:
    units = [u for _, us, _ in rounds for u in us]
    done = sum(ops - failed for ops, _, failed in units)
    return {
        "setup_s": setup_s,
        "ops_per_s": done / sum(s for _, s, _ in units),
        "op_p50_s": statistics.median(s / ops for ops, s, _ in units),
        "peak_rss_mb": peak_mb,
        **quality,
    }


def per_layer(rounds, tracer) -> dict:
    plain = [sum(s for _, s, _ in us) for traced, us, _ in rounds[1:] if not traced]
    traced = [sum(s for _, s, _ in us) for t, us, _ in rounds if t]
    overhead = statistics.mean(traced) - statistics.mean(plain)
    fallbacks = sum(f for t, _, f in rounds if t)
    return tracer.metrics(len(traced), fallbacks, overhead)


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = Program(import_program())
    work = RUNS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](program, work, args.seed)
        setup_s = process_age()
        tracer = Tracer() if args.trace else None
        rounds, problems = measure(workload, args.seconds, tracer)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        found, quality = workload.check()
        problems += found
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [u for _, us, _ in rounds for u in us]
    values = (per_layer(rounds, tracer) if args.trace
              else end_to_end(rounds, setup_s, peak_mb, quality))
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        raise SystemExit(f"error: measured {sorted(values)} but BENCHMARK.json "
                         f"declares {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {
        "correct": not problems,
        "attempted": sum(ops for ops, _, _ in timed),
        "failed": sum(failed for _, _, failed in timed),
        "metrics": metrics,
    }
    RUNS.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, problems=problems,
                  quality=quality, rounds=rounds)
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
