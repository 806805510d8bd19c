"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Each check in ``checks.py`` is given a correct output, which it must
accept, and deliberately broken copies, which it must reject. The meshes
and reports come from the program; the loss trace, the displacements and
the ablation table are made by hand. The broken copies: a face flipped,
a Chamfer value perturbed by 1e-6 relative, a vertex moved past the tanh
bound, the policy row lowered below the fixed rows, and a few more.
Exits 0 only when every verdict is the expected one.
"""

import copy
import sys

import numpy as np

import checks
from run import import_program


def main() -> int:
    af = import_program()
    verdicts = []

    def expect(name, problems, broken):
        ok = bool(problems) == broken
        verdict = f"rejected: {problems[0]}" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}")
        verdicts.append(ok)

    # alpha-shape boundary (scan, and the initial mesh of reconstruct)
    cloud, ref = af.synth(af.SyntheticSpec("torus", n=1500, fill="solid", seed=5))
    tau = 0.3
    mesh = af.triangulate(cloud, tau)
    pts, verts, faces = cloud.points, mesh.vertices, mesh.faces
    expect("boundary as produced", checks.check_boundary(pts, tau, verts, faces), False)
    flipped = faces.copy()
    flipped[0] = flipped[0, [0, 2, 1]]
    expect("boundary, one face flipped", checks.check_boundary(pts, tau, verts, flipped), True)
    expect("boundary, one face dropped",
           checks.check_boundary(pts, tau, verts, faces[1:]), True)
    moved = verts.copy()
    moved[0] += 1e-9
    expect("boundary, one vertex off the cloud",
           checks.check_boundary(pts, tau, moved, faces), True)
    expect("boundary, wrong tau", checks.check_boundary(pts, 0.25, verts, faces), True)

    # evaluate reports (scan)
    samples = 2000
    report = af.evaluate(mesh, ref, "meshrcnn", n_samples=samples, seed=4).to_dict()
    p, q = (af.sample_surface(af.apply_protocol_scaling(m, "meshrcnn"), samples, 4).points
            for m in (mesh, ref))
    brute = checks.brute_chamfer(p, q)
    expect("report as produced", checks.check_report(report, brute), False)
    bad = copy.deepcopy(report)
    bad["chamfer"] *= 1 + 1e-6
    expect("report, Chamfer perturbed by 1e-6", checks.check_report(bad, brute), True)
    bad = copy.deepcopy(report)
    radii = sorted(bad["f1"], key=float)
    bad["f1"][radii[0]], bad["f1"][radii[-1]] = bad["f1"][radii[-1]], bad["f1"][radii[0]] - 1
    expect("report, F1 falling with radius", checks.check_report(bad, brute), True)
    bad = copy.deepcopy(report)
    bad["recall"][radii[0]] = 100.5
    expect("report, recall above 100", checks.check_report(bad, brute), True)
    fixed = af.evaluate(ref, ref, "tmnet", n_samples=samples, seed=4).to_dict()
    expect("reference against itself", checks.check_fixed_point(fixed), False)
    expect("prediction posing as the reference", checks.check_fixed_point(report), True)

    # reconstruct output against its triangulation and loss trace
    stages, iters = 2, 5
    rng = np.random.default_rng(0)
    refined = verts + np.tanh(rng.normal(size=verts.shape))
    totals = [10.0, 9.0, 8.5, 8.0, 7.0, 7.0, 6.0, 6.5, 5.0, 4.0]
    expect("refined as produced",
           checks.check_refined((verts, faces), (refined, faces), stages, totals, iters), False)
    past = refined.copy()
    past[3, 1] = verts[3, 1] + stages + 1e-3
    expect("refined, one vertex past the tanh bound",
           checks.check_refined((verts, faces), (past, faces), stages, totals, iters), True)
    expect("refined, faces changed",
           checks.check_refined((verts, faces), (refined, flipped), stages, totals, iters), True)
    rising = totals[:5] + [4.0, 5.0, 6.0, 7.0, 8.0]
    expect("refined, a stage ending above its start",
           checks.check_refined((verts, faces), (refined, faces), stages, rising, iters), True)
    expect("refined, NaN in the loss trace",
           checks.check_refined((verts, faces), (refined, faces), stages,
                                totals[:-1] + [float("nan")], iters), True)

    # ablation table (policy)
    table = {"tau=0.3": [50.0, 100.0], "tau=0.9": [82.0, 90.0], "policy": [82.0, 100.0]}
    expect("ablation as produced", checks.check_ablation(table), False)
    expect("ablation, policy row below the fixed rows",
           checks.check_ablation(dict(table, policy=[75.0, 90.0])), True)
    expect("ablation, a cell above 100",
           checks.check_ablation(dict(table, **{"tau=0.3": [50.0, 100.5]})), True)

    print(f"{sum(verdicts)}/{len(verdicts)} verdicts as expected")
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
