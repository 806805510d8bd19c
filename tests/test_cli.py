import hashlib
import io
import json

import numpy as np
import pytest

from alphaforge import (
    Mesh,
    PointCloud,
    SyntheticSpec,
    read_mesh,
    read_points,
    synth,
    topology,
    write_mesh,
    write_points,
)
from alphaforge.cli import run
from alphaforge.policy import QPolicy, load_policy, policy_to_json
from test_meshio import MALFORMED_PLY_HEADER_LINES, malformed_ply_header_index


FRESH_POLICY = json.loads(policy_to_json(QPolicy.fresh((0.3, 0.9))))


def invoke(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_dataset(tmp_path, n_per_class=2):
    root = tmp_path / "dataset"
    root.mkdir()
    for i in range(n_per_class):
        cloud, gt = synth(SyntheticSpec("torus", n=700, fill="solid",
                                        seed=500 + i, minor_radius=0.25))
        write_points(cloud, root / f"torus__{i}.xyz")
        write_mesh(gt, root / f"torus__{i}.obj")
        cloud, gt = synth(SyntheticSpec("sphere", n=90, fill="solid",
                                        seed=600 + i, major_radius=0.8))
        write_points(cloud, root / f"blob__{i}.xyz")
        write_mesh(gt, root / f"blob__{i}.obj")
    return root


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = invoke(["synth", "--bogus"], capsys)
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_subcommand(self, capsys):
        code, _, _ = invoke(["frobnicate"], capsys)
        assert code == 1

    def test_geometry_error_is_two(self, tmp_path, capsys):
        cloud, _ = synth(SyntheticSpec("sphere", n=100, fill="solid", seed=1))
        path = tmp_path / "c.xyz"
        write_points(cloud, path)
        code, _, err = invoke(
            ["triangulate", "--in", str(path), "--tau", "1e-9"], capsys)
        assert code == 2
        assert "removed all" in err

    def test_missing_file_is_two(self, capsys):
        code, _, _ = invoke(
            ["triangulate", "--in", "/nonexistent.xyz", "--tau", "0.3"], capsys)
        assert code == 2

    def test_pred_and_gt_both_from_stdin_is_usage_error(self, capsys, monkeypatch):
        """Standard input holds one mesh, so ``--pred -`` with ``--gt -`` is
        refused, naming both flags, before either is read."""
        stdin = io.StringIO("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        monkeypatch.setattr("sys.stdin", stdin)
        code, _, err = invoke(["evaluate", "--pred", "-", "--gt", "-",
                               "--protocol", "meshrcnn"], capsys)
        assert code == 1
        assert err.startswith("usage error: ") and "--pred" in err and "--gt" in err
        assert stdin.tell() == 0

    @pytest.mark.parametrize("argv, flag", [
        (["triangulate", "--tau", "0.3"], "--in"),  # --in defaults to '-'
        (["sample", "--mesh", "-"], "--mesh"),
        (["evaluate", "--pred", "p.obj", "--gt", "-", "--protocol", "tmnet"], "--gt"),
        (["reconstruct", "--in", "c.xyz", "--policy", "-"], "--policy"),
        (["ablate", "--dataset", "d", "--policy", "-"], "--policy"),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_config_and_an_input_both_from_stdin_is_usage_error(self, argv, flag, capsys,
                                                                monkeypatch):
        """Standard input holds one document, so ``--config -`` with an
        input flag that is also ``-`` is refused, naming both flags, before
        either is read."""
        stdin = io.StringIO('{"seed": 1}')
        monkeypatch.setattr("sys.stdin", stdin)
        code, _, err = invoke([*argv, "--config", "-"], capsys)
        assert code == 1
        assert err.startswith("usage error: ") and "--config" in err and flag in err
        assert stdin.tell() == 0

    def test_policy_and_default_input_both_from_stdin_is_usage_error(self, capsys,
                                                                     monkeypatch):
        """``reconstruct --in`` defaults to ``-``, so ``--policy -`` alone
        is a second reader of standard input."""
        stdin = io.StringIO("{}")
        monkeypatch.setattr("sys.stdin", stdin)
        code, _, err = invoke(["reconstruct", "--policy", "-"], capsys)
        assert code == 1
        assert "--in" in err and "--policy" in err
        assert stdin.tell() == 0

    def test_input_set_to_stdin_by_a_stdin_config_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"mesh": "-"}'))
        code, _, err = invoke(["sample", "--config", "-"], capsys)
        assert code == 1
        assert "--config" in err and "--mesh" in err

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no-such-key": 1}))
        code, _, err = invoke(
            ["synth", "--shape", "sphere", "--config", str(cfg)], capsys)
        assert code == 1
        assert "no-such-key" in err

    def test_config_key_of_no_flag_is_usage_error(self, tmp_path, capsys):
        """``func`` names the subcommand's handler in the parsed namespace,
        not a flag."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"func": 1}))
        code, _, err = invoke(
            ["synth", "--shape", "sphere", "--config", str(cfg)], capsys)
        assert code == 1
        assert "func" in err

    @pytest.mark.parametrize("doc, named", [
        ({"n": 5.5}, "--n"),
        ({"n": True}, "'n'"),
        ({"fill": "cube"}, "--fill"),
        ({"sigma": None}, "'sigma'"),
    ], ids=["fractional-int", "boolean-int", "bad-choice", "null"])
    def test_config_values_checked_like_flags(self, tmp_path, capsys, doc, named):
        """A config value goes through the flag it sets: argparse converts
        it and checks its choices, so a bad value is a usage error that
        names the flag (or the key, for a value no flag could spell)."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = invoke(
            ["synth", "--shape", "sphere", "--config", str(cfg)], capsys)
        assert code == 1
        assert err.startswith("usage error: ") and named in err

    def test_config_switch_takes_true_and_false(self, tmp_path, capsys):
        cloud, _ = synth(SyntheticSpec("torus", n=300, fill="solid", seed=81))
        cloud_path = tmp_path / "c.xyz"
        write_points(cloud, cloud_path)
        base = ["reconstruct", "--in", str(cloud_path), "--tau", "0.4", "--stages", "2",
                "--iters", "1"]
        outputs = []
        for flags, doc in (([], {"subdivide": True}), (["--subdivide"], {}),
                           ([], {"subdivide": False}), ([], {})):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            code, out, err = invoke(base + ["--config", str(cfg), *flags], capsys)
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1] != outputs[2] == outputs[3]
        cfg.write_text(json.dumps({"subdivide": 1}))
        code, _, err = invoke(base + ["--config", str(cfg)], capsys)
        assert code == 1 and "'subdivide'" in err

    def test_flags_win_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10}))
        base = ["synth", "--shape", "sphere", "--config", str(cfg)]
        code, with_flag, _ = invoke(base + ["--n", "5"], capsys)
        assert code == 0
        assert len(with_flag.splitlines()) == 5
        code, config_only, _ = invoke(base, capsys)
        assert code == 0
        assert len(config_only.splitlines()) == 10

    def test_config_sets_a_required_flag(self, tmp_path, capsys):
        cloud, _ = synth(SyntheticSpec("sphere", n=300, fill="solid", seed=1))
        write_points(cloud, tmp_path / "c.xyz")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": 0.5}))
        base = ["triangulate", "--in", str(tmp_path / "c.xyz")]
        code, from_config, err = invoke(base + ["--config", str(cfg)], capsys)
        assert code == 0, err
        assert (0, from_config) == invoke(base + ["--tau", "0.5"], capsys)[:2]

    def test_config_keys_are_flag_names(self, tmp_path, capsys):
        """``in`` names triangulate's ``--in``, and ``minor-radius`` (or
        ``minor_radius``) synth's ``--minor-radius``; the argparse
        destination ``infile`` is no key, nor is the deleted ``in-format``."""
        cloud, _ = synth(SyntheticSpec("sphere", n=300, fill="solid", seed=1))
        write_points(cloud, tmp_path / "c.xyz")
        want = invoke(["triangulate", "--in", str(tmp_path / "c.xyz"), "--tau", "0.5"],
                      capsys)[1]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"in": str(tmp_path / "c.xyz")}))
        code, out, err = invoke(["triangulate", "--tau", "0.5", "--config", str(cfg)], capsys)
        assert (code, out) == (0, want), err
        base = ["synth", "--shape", "torus", "--n", "20"]
        want = invoke(base + ["--minor-radius", "0.2"], capsys)[1]
        for key in ("minor-radius", "minor_radius"):
            cfg.write_text(json.dumps({key: 0.2}))
            code, out, err = invoke(base + ["--config", str(cfg)], capsys)
            assert (code, out) == (0, want), err
        for key in ("infile", "in-format"):
            cfg.write_text(json.dumps({"in": str(tmp_path / "c.xyz"), key: "x"}))
            code, _, err = invoke(["triangulate", "--tau", "0.5", "--config", str(cfg)],
                                  capsys)
            assert code == 1 and f"unknown config key '{key}'" in err

    @pytest.mark.parametrize("flag", ["out", "ref-out", "policy", "config"])
    def test_unreadable_or_unwritable_path_is_two(self, tmp_path, capsys, flag):
        """Every failed read or write is an error that names the path."""
        cloud, _ = synth(SyntheticSpec("sphere", n=300, fill="solid", seed=1))
        write_points(cloud, tmp_path / "c.xyz")
        missing = str(tmp_path / "no-such-dir" / "x.obj")
        argv = {"out": ["triangulate", "--in", str(tmp_path / "c.xyz"), "--tau", "0.5"],
                "ref-out": ["synth", "--shape", "sphere", "--n", "10",
                            "--out", str(tmp_path / "s.xyz")],
                "policy": ["reconstruct", "--in", str(tmp_path / "c.xyz")],
                "config": ["triangulate", "--in", str(tmp_path / "c.xyz")]}[flag]
        code, _, err = invoke(argv + [f"--{flag}", missing], capsys)
        verb = "write" if flag.endswith("out") else "read"
        assert code == 2
        assert err.splitlines()[-1].startswith(f"error: cannot {verb} {missing}: ")

    @pytest.mark.parametrize("line", MALFORMED_PLY_HEADER_LINES)
    def test_malformed_ply_header_is_two(self, tmp_path, capsys, line):
        header = ["ply", "format ascii 1.0", "element vertex 2", "property double x",
                  "property double y", "property double z", "end_header"]
        at = malformed_ply_header_index(line)
        header[at] = line
        path = tmp_path / "c.ply"
        path.write_text("\n".join(header + ["0 0 0", "1 1 1"]) + "\n")
        code, _, err = invoke(["triangulate", "--in", str(path), "--tau", "0.3"], capsys)
        assert code == 2
        assert err.startswith(f"error: line {at + 1}: ")

    @pytest.mark.parametrize("command", ["reconstruct", "ablate"])
    @pytest.mark.parametrize("doc, problem", [
        pytest.param({"version": 1}, "lacks 'actions'", id="no-actions"),
        pytest.param([1, 2], "a JSON list, not an object", id="list"),
        pytest.param({**FRESH_POLICY, "epsilon": "x"},
                     "epsilon must be a number, not 'x'", id="string-epsilon"),
        pytest.param({**FRESH_POLICY, "version": True},
                     "unsupported policy version True", id="boolean-version"),
        pytest.param({**FRESH_POLICY, "period": 1.5},
                     "period must be an integer >= 1, not 1.5", id="fractional-period"),
        pytest.param({**FRESH_POLICY, "epsilon": True},
                     "epsilon must be a number, not True", id="boolean-epsilon"),
        pytest.param({**FRESH_POLICY, "actions": [True, 0.9]},
                     "actions must be a list of numbers", id="boolean-action"),
        pytest.param({**FRESH_POLICY, "actions": [float("inf"), 0.9]},
                     "actions must be a list of numbers", id="infinite-action"),
        pytest.param({**FRESH_POLICY, "theta": [float("nan")] + FRESH_POLICY["theta"][1:]},
                     "theta must be a list of numbers", id="nan-theta"),
        pytest.param({**FRESH_POLICY, "actions": [10**400, 0.9]},
                     "malformed policy document", id="huge-action"),
        pytest.param({**FRESH_POLICY, "theta": [0.0] * 5},
                     "policy theta must hold 32 numbers (2 actions x 16), not 5",
                     id="short-theta"),
        pytest.param({**FRESH_POLICY, "optimizer_state": [0.0] * 33},
                     "policy optimizer_state must hold 32 numbers (2 actions x 16), not 33",
                     id="long-optimizer-state"),
    ])
    def test_malformed_policy_is_two(self, tmp_path, capsys, command, doc, problem):
        cloud, gt = synth(SyntheticSpec("sphere", n=90, fill="solid", seed=600))
        write_points(cloud, tmp_path / "blob__0.xyz")
        write_mesh(gt, tmp_path / "blob__0.obj")
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps(doc))
        source = (["--in", str(tmp_path / "blob__0.xyz")] if command == "reconstruct"
                  else ["--dataset", str(tmp_path)])
        code, _, err = invoke([command, *source, "--policy", str(policy_path),
                               "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert err.startswith("error: ") and problem in err

    @pytest.mark.parametrize("decay", ["5", "-1"])
    def test_epsilon_decay_outside_unit_interval_is_two(self, tmp_path, capsys,
                                                        monkeypatch, decay):
        episodes = []
        monkeypatch.setattr("alphaforge.cli.train_policy",
                            lambda *args, **kwargs: episodes.append(args))
        root = make_dataset(tmp_path, n_per_class=1)
        code, _, err = invoke(
            ["train-policy", "--dataset", str(root), "--actions", "0.3,0.9",
             "--epsilon-decay", decay, "--out", str(tmp_path / "p.json")], capsys)
        assert code == 2
        assert err == "error: epsilon_decay must lie in [0, 1]\n"
        assert episodes == []
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("actions", ["nan,0.3", "inf"])
    def test_non_finite_action_is_two(self, tmp_path, capsys, monkeypatch, actions):
        """A NaN or infinite action is refused before training: reconstruct
        and ablate could not read back a policy file that held one."""
        episodes = []
        monkeypatch.setattr("alphaforge.cli.train_policy",
                            lambda *args, **kwargs: episodes.append(args))
        root = make_dataset(tmp_path, n_per_class=1)
        code, _, err = invoke(
            ["train-policy", "--dataset", str(root), "--actions", actions,
             "--out", str(tmp_path / "p.json")], capsys)
        assert code == 2
        assert err == "error: threshold actions must be finite and positive\n"
        assert episodes == []
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["ablate", "--dataset", "absent", "--taus", "nan,0.3"],
                     "threshold actions must be finite and positive", id="ablate-nan"),
        pytest.param(["ablate", "--dataset", "absent", "--taus", "inf"],
                     "threshold actions must be finite and positive", id="ablate-inf"),
        pytest.param(["triangulate", "--in", "c.xyz", "--tau", "nan"], "tau must be positive",
                     id="triangulate-nan"),
    ])
    def test_non_finite_tau_is_two(self, tmp_path, capsys, monkeypatch, argv, message):
        """A NaN or infinite tau is refused, by ablate before it reads the
        dataset (which does not exist here), and nothing is written."""
        cloud, _ = synth(SyntheticSpec("sphere", n=90, fill="solid", seed=600))
        write_points(cloud, tmp_path / "c.xyz")
        monkeypatch.chdir(tmp_path)
        code, _, err = invoke([*argv, "--out", "out"], capsys)
        assert code == 2
        assert err == f"error: {message}\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.xyz"]


class TestSynthTriangulate:
    def test_pipeline_files(self, tmp_path, capsys):
        cloud_path = tmp_path / "torus.xyz"
        mesh_path = tmp_path / "torus.obj"
        code, _, _ = invoke(["synth", "--shape", "torus", "--n", "2000",
                             "--seed", "7", "--out", str(cloud_path)], capsys)
        assert code == 0
        code, _, err = invoke(["triangulate", "--in", str(cloud_path),
                               "--tau", "0.3", "--out", str(mesh_path)], capsys)
        assert code == 0
        assert "chi=0, boundary_edges=0, nonmanifold_edges=0" in err
        mesh = read_mesh(mesh_path)
        assert topology(mesh).chi == 0
        assert len(topology(mesh).boundary_edges) == 0

    @pytest.mark.parametrize("flag, value, shape", [
        ("--sigma", "nan", "box"), ("--major-radius", "-1", "sphere"),
        ("--major-radius", "0", "sphere"), ("--major-radius", "inf", "torus"),
    ])
    def test_spec_it_cannot_build_is_two_and_writes_nothing(self, tmp_path, capsys,
                                                            flag, value, shape):
        out = tmp_path / "c.xyz"
        code, _, err = invoke(["synth", "--shape", shape, flag, value, "--n", "10",
                               "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error: ") and flag[2:].replace("-", "_") in err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        outs = []
        for name in ("a.xyz", "b.xyz"):
            path = tmp_path / name
            code, _, _ = invoke(["synth", "--shape", "sphere", "--n", "500",
                                 "--seed", "3", "--sigma", "0.01",
                                 "--fill", "surface", "--out", str(path)], capsys)
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_ref_mesh_emitted(self, tmp_path, capsys):
        ref = tmp_path / "ref.obj"
        code, _, _ = invoke(["synth", "--shape", "stacked", "--n", "100",
                             "--out", str(tmp_path / "c.xyz"),
                             "--ref-out", str(ref)], capsys)
        assert code == 0
        assert topology(read_mesh(ref)).chi == -2

    @pytest.mark.parametrize("ref_out", ["-", "ref.txt", "ref"])
    def test_ref_out_without_a_mesh_suffix_is_usage_error(self, tmp_path, capsys, ref_out):
        """The writer rule takes the reference's format from its suffix, so
        a name without one is refused before the cloud is written."""
        cloud_path = tmp_path / "c.xyz"
        code, out, err = invoke(["synth", "--shape", "sphere", "--n", "10",
                                 "--out", str(cloud_path), "--ref-out", ref_out], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: --ref-out needs a suffix in "
                              "('obj', 'off', 'ply')")
        assert list(tmp_path.iterdir()) == []


class TestSampleEvaluate:
    def test_sample_counts_and_determinism(self, tmp_path, capsys):
        mesh_path = tmp_path / "m.obj"
        _, gt = synth(SyntheticSpec("box", n=10))
        write_mesh(gt, mesh_path)
        a, b = tmp_path / "a.xyz", tmp_path / "b.xyz"
        for path in (a, b):
            code, _, _ = invoke(["sample", "--mesh", str(mesh_path), "--n", "400",
                                 "--seed", "5", "--out", str(path)], capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        cloud = read_points(a)
        assert len(cloud) == 400 and cloud.has_normals

    def test_evaluate_identical_meshes(self, tmp_path, capsys):
        mesh_path = tmp_path / "m.obj"
        _, gt = synth(SyntheticSpec("torus", n=10))
        write_mesh(gt, mesh_path)
        code, out, _ = invoke(["evaluate", "--pred", str(mesh_path),
                               "--gt", str(mesh_path), "--protocol", "meshrcnn",
                               "--n-samples", "800"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["chamfer"] == 0.0
        assert all(v == 100.0 for v in doc["f1"].values())
        assert doc["normal_cosine"] == 1.0

    @pytest.mark.parametrize("protocol", ["pixel2mesh", "meshrcnn", "tmnet", "skeleton"])
    @pytest.mark.parametrize("n_samples", ["0", "-3"])
    def test_no_samples_is_two(self, tmp_path, capsys, monkeypatch, protocol, n_samples):
        """Fewer than one sample is refused before either mesh is scaled or
        sampled, under every protocol, and nothing is written."""
        scaled = []
        monkeypatch.setattr("alphaforge.metrics.apply_protocol_scaling",
                            lambda *args: scaled.append(args))
        _, gt = synth(SyntheticSpec("torus", n=10))
        write_mesh(gt, tmp_path / "m.obj")
        out = tmp_path / "report.json"
        code, _, err = invoke(["evaluate", "--pred", str(tmp_path / "m.obj"),
                               "--gt", str(tmp_path / "m.obj"), "--protocol", protocol,
                               "--n-samples", n_samples, "--out", str(out)], capsys)
        assert code == 2
        assert err == "error: n_samples must be >= 1\n"
        assert scaled == [] and not out.exists()

    def test_tmnet_on_two_samples_is_two(self, tmp_path, capsys):
        """Two samples are collinear, so ICP cannot identify a rotation; the
        error is reported and no report is written."""
        _, gt = synth(SyntheticSpec("torus", n=10))
        write_mesh(gt, tmp_path / "m.obj")
        out = tmp_path / "report.json"
        code, _, err = invoke(["evaluate", "--pred", str(tmp_path / "m.obj"),
                               "--gt", str(tmp_path / "m.obj"), "--protocol", "tmnet",
                               "--n-samples", "2", "--out", str(out)], capsys)
        assert (code, err) == (2, "error: point spread is rank-deficient (collinear)\n")
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["off", "ply"])
    def test_piped_off_or_ply_prediction_matches_file(self, tmp_path, capsys, monkeypatch,
                                                      fmt):
        """``evaluate --pred -`` reads a piped OFF or PLY mesh by its content,
        and reports what the same mesh written as OBJ gives."""
        cloud, ref = synth(SyntheticSpec("sphere", n=300, fill="solid", seed=1))
        write_points(cloud, tmp_path / "c.xyz")
        write_mesh(ref, tmp_path / "gt.obj")
        triangulate = ["triangulate", "--in", str(tmp_path / "c.xyz"), "--tau", "0.5"]
        assert invoke(triangulate + ["--out", str(tmp_path / "p.obj")], capsys)[0] == 0
        code, piped, err = invoke(triangulate + ["--format", fmt], capsys)
        assert code == 0, err
        evaluate = ["evaluate", "--gt", str(tmp_path / "gt.obj"), "--protocol", "meshrcnn",
                    "--n-samples", "500", "--pred"]
        code, want, err = invoke(evaluate + [str(tmp_path / "p.obj")], capsys)
        assert code == 0, err
        monkeypatch.setattr("sys.stdin", io.StringIO(piped))
        assert invoke(evaluate + ["-"], capsys) == (0, want, "")


class TestInputFormats:
    @pytest.mark.parametrize("argv, fmt", [
        (["sample", "--n", "200", "--mesh"], "off"),
        (["sample", "--n", "200", "--mesh"], "ply"),
        (["triangulate", "--tau", "0.5", "--in"], "ply"),
        (["reconstruct", "--tau", "0.5", "--stages", "1", "--iters", "2", "--in"], "ply"),
    ], ids=["sample-off", "sample-ply", "triangulate-ply", "reconstruct-ply"])
    def test_input_read_by_content(self, tmp_path, capsys, argv, fmt):
        """A command reads a file by its content, whatever its suffix says:
        the output is the bytes the OBJ or XYZ copy of the input gives."""
        cloud, ref = synth(SyntheticSpec("torus", n=400, fill="surface", seed=2))
        write, data, plain = ((write_mesh, ref, tmp_path / "in.obj") if argv[0] == "sample"
                              else (write_points, cloud, tmp_path / "in.xyz"))
        write(data, plain)
        write(data, tmp_path / f"in.{fmt}")
        want = invoke(argv + [str(plain)], capsys)
        assert want[0] == 0, want[2]
        assert invoke(argv + [str(tmp_path / f"in.{fmt}")], capsys) == want


OUTPUT_COMMANDS = {
    "synth": (["synth", "--shape", "sphere", "--n", "50"], "xyz"),
    "triangulate": (["triangulate", "--tau", "0.5", "--in", "{dir}/c.xyz"], "obj"),
    "sample": (["sample", "--n", "50", "--mesh", "{dir}/m.obj"], "xyz"),
    "reconstruct": (["reconstruct", "--tau", "0.5", "--stages", "1", "--iters", "1",
                     "--in", "{dir}/c.xyz"], "obj"),
}


def written_format(text):
    """The format a writer's output is in, told by its first line."""
    first = text.split("\n", 1)[0]
    return {"ply": "ply", "OFF": "off"}.get(first, "obj" if first.startswith("v ") else "xyz")


class TestOutputFormats:
    """The written format is --format, else --out's suffix when it names one
    of the command's formats, else OBJ for a mesh and XYZ for a cloud."""

    @pytest.fixture
    def command(self, request, tmp_path):
        cloud, ref = synth(SyntheticSpec("sphere", n=300, fill="solid", seed=1))
        write_points(cloud, tmp_path / "c.xyz")
        write_mesh(ref, tmp_path / "m.obj")
        argv, default = OUTPUT_COMMANDS[request.param]
        return [a.format(dir=tmp_path) for a in argv], default

    @pytest.mark.parametrize("command", OUTPUT_COMMANDS, indirect=True)
    @pytest.mark.parametrize("suffix", ["ply", "off", "obj", "xyz", "txt"])
    def test_suffix_names_the_format(self, tmp_path, capsys, command, suffix):
        argv, default = command
        formats = ("obj", "off", "ply") if default == "obj" else ("xyz", "ply")
        fmt = suffix if suffix in formats else default
        out = tmp_path / f"o.{suffix}"
        assert invoke(argv + ["--out", str(out)], capsys)[0] == 0
        code, want, err = invoke(argv + ["--format", fmt], capsys)
        assert code == 0, err
        assert written_format(want) == fmt
        assert out.read_text() == want

    @pytest.mark.parametrize("command", OUTPUT_COMMANDS, indirect=True)
    def test_format_wins_over_the_suffix(self, tmp_path, capsys, command):
        argv, default = command
        out = tmp_path / "o.ply"
        assert invoke(argv + ["--format", default, "--out", str(out)], capsys)[0] == 0
        assert written_format(out.read_text()) == default
        assert out.read_text() == invoke(argv, capsys)[1]


class TestPolicyCommands:
    def test_train_policy_and_ablate(self, tmp_path, capsys):
        root = make_dataset(tmp_path)
        policy_path = tmp_path / "policy.json"
        log_path = tmp_path / "train.csv"
        code, _, err = invoke(
            ["train-policy", "--dataset", str(root), "--actions", "0.3,0.9",
             "--episodes", "12", "--seed", "2", "--nu", "0.2",
             "--n-samples", "400", "--out", str(policy_path),
             "--log", str(log_path)], capsys)
        assert code == 0
        policy = load_policy(policy_path)
        assert policy.actions == (0.3, 0.9)
        lines = log_path.read_text().strip().splitlines()
        assert lines[0].startswith("step,state_hash,action")
        assert len(lines) == 13

        table = tmp_path / "ablate.csv"
        code, _, _ = invoke(
            ["ablate", "--dataset", str(root), "--taus", "0.3,0.9",
             "--policy", str(policy_path), "--nu", "0.2",
             "--n-samples", "400", "--out", str(table)], capsys)
        assert code == 0
        rows = table.read_text().strip().splitlines()
        assert rows[0] == "model,blob,torus"
        assert [r.split(",")[0] for r in rows[1:]] == ["tau=0.3", "tau=0.9", "policy"]

    def dataset_with_flat_cloud(self, tmp_path, capsys):
        """make_dataset, a policy trained on it, then a coplanar instance."""
        root = make_dataset(tmp_path)
        policy_path = tmp_path / "policy.json"
        code, _, _ = invoke(
            ["train-policy", "--dataset", str(root), "--actions", "0.3,0.9",
             "--episodes", "12", "--seed", "2", "--nu", "0.2",
             "--n-samples", "300", "--out", str(policy_path)], capsys)
        assert code == 0
        xy = np.random.default_rng(5).random((40, 2))
        write_points(PointCloud(np.column_stack([xy, np.zeros(40)])), root / "flat__0.xyz")
        write_mesh(Mesh(np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0.0]]),
                        np.array([[0, 1, 2], [0, 2, 3]])), root / "flat__0.obj")
        return root, policy_path

    def ablate(self, tmp_path, capsys, root, policy_path, taus, jobs):
        table = tmp_path / "table.csv"
        code, _, _ = invoke(
            ["ablate", "--dataset", str(root), "--taus", taus, "--policy",
             str(policy_path), "--nu", "0.2", "--n-samples", "300",
             "--jobs", jobs, "--out", str(table)], capsys)
        assert code == 0
        return table.read_text()

    def test_ablate_builds_one_complex_per_instance(self, tmp_path, capsys,
                                                    complex_builds):
        root, policy_path = self.dataset_with_flat_cloud(tmp_path, capsys)
        complex_builds.clear()
        self.ablate(tmp_path, capsys, root, policy_path, "0.3,0.9", "1")
        assert len(complex_builds) == 5

    def test_ablate_tables_pinned(self, tmp_path, capsys):
        """Tables recorded before one complex served every cell; the coplanar
        instance scores 0 in every column."""
        root, policy_path = self.dataset_with_flat_cloud(tmp_path, capsys)
        for jobs in ("1", "2"):
            # the policy picks 0.9 for every instance: a tau column, then none
            assert self.ablate(tmp_path, capsys, root, policy_path, "0.3,0.9", jobs) == (
                "model,blob,flat,torus\n"
                "tau=0.3,52.071390568996414,0.0,97.49743577755116\n"
                "tau=0.9,75.81891839668832,0.0,86.03371549456665\n"
                "policy,75.81891839668832,0.0,86.03371549456665\n")
            assert self.ablate(tmp_path, capsys, root, policy_path, "0.5", jobs) == (
                "model,blob,flat,torus\n"
                "tau=0.5,73.94467164827799,0.0,98.66638512790516\n"
                "policy,75.81891839668832,0.0,86.03371549456665\n")

    def test_ablate_policy_scores_undescribable_cloud_zero(self, tmp_path, capsys):
        """A 6-point cloud is too small for the state descriptor: its policy
        cell scores 0, like any other cell whose computation fails, and the
        rest of the table is what ablate gives without a policy."""
        root = tmp_path / "dataset"
        root.mkdir()
        cloud, gt = synth(SyntheticSpec("sphere", n=90, fill="solid", seed=600,
                                        major_radius=0.8))
        for name, points in (("blob__0", cloud.points), ("tiny__0", cloud.points[:6])):
            write_points(PointCloud(points), root / f"{name}.xyz")
            write_mesh(gt, root / f"{name}.obj")
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(policy_to_json(QPolicy.fresh((0.3, 0.9))))  # zero weights pick 0.3
        tables = []
        for extra in ([], ["--policy", str(policy_path)]):
            table = tmp_path / "table.csv"
            code, _, err = invoke(
                ["ablate", "--dataset", str(root), "--taus", "0.3,0.9", "--nu", "0.2",
                 "--n-samples", "300", "--out", str(table)] + extra, capsys)
            assert code == 0, err
            tables.append(table.read_text())
        plain, with_policy = tables
        rows = plain.splitlines()
        assert rows[0] == "model,blob,tiny"
        blob_at_pick = rows[1].split(",")[1]
        assert with_policy == plain + f"policy,{blob_at_pick},0.0\n"

    def test_train_policy_scores_coplanar_cloud_zero(self, tmp_path, capsys):
        """Like ablate, train-policy scores a cloud it cannot tetrahedralize 0."""
        root, _ = self.dataset_with_flat_cloud(tmp_path, capsys)
        log_path = tmp_path / "train.csv"
        code, _, err = invoke(
            ["train-policy", "--dataset", str(root), "--actions", "0.3,0.9",
             "--episodes", "10", "--seed", "2", "--nu", "0.2", "--n-samples", "300",
             "--out", str(tmp_path / "p.json"), "--log", str(log_path)], capsys)
        assert code == 0, err
        assert len(log_path.read_text().splitlines()) == 11

    def test_no_samples_is_an_error_not_a_zero_score(self, tmp_path, capsys,
                                                     complex_builds, descriptor_calls):
        root = make_dataset(tmp_path, n_per_class=1)
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(policy_to_json(QPolicy.fresh((0.3, 0.9))))
        common = ["--dataset", str(root), "--nu", "0.2", "--n-samples", "0",
                  "--out", str(tmp_path / "out")]
        for argv in (["ablate", "--taus", "0.3"] + common,
                     ["ablate", "--taus", "0.3", "--policy", str(policy_path)] + common,
                     ["train-policy", "--actions", "0.3", "--episodes", "2"] + common):
            code, _, err = invoke(argv, capsys)
            assert code == 2
            assert err == "error: n_samples must be >= 1\n"
        # refused before any cloud is described or tetrahedralized
        assert complex_builds == [] and descriptor_calls == []

    @pytest.mark.parametrize("nu", ["nan", "inf", "0", "-0.2"])
    def test_bad_radius_is_two(self, tmp_path, capsys, nu):
        root = make_dataset(tmp_path, n_per_class=1)
        out = tmp_path / "out"
        common = ["--dataset", str(root), "--nu", nu, "--n-samples", "300",
                  "--out", str(out)]
        for argv in (["ablate", "--taus", "0.3"] + common,
                     ["train-policy", "--actions", "0.3", "--episodes", "2"] + common):
            code, _, err = invoke(argv, capsys)
            assert code == 2
            assert err == (f"error: reward radius nu must be finite and positive, "
                           f"not {float(nu)!r}\n")
            assert not out.exists()

    def test_negative_episodes_is_two(self, tmp_path, capsys):
        root = make_dataset(tmp_path, n_per_class=1)
        code, _, err = invoke(
            ["train-policy", "--dataset", str(root), "--episodes", "-3",
             "--out", str(tmp_path / "p.json")], capsys)
        assert code == 2
        assert err == "error: episodes must be >= 0\n"
        assert not (tmp_path / "p.json").exists()

    def test_default_radius_gives_non_zero_rewards(self, tmp_path, capsys):
        """Without --nu the radius follows each ground truth's extent; an
        absolute radius far below the clouds' spacing scores every cell 0,
        and train-policy says so."""
        root = make_dataset(tmp_path, n_per_class=1)
        log_path = tmp_path / "train.csv"
        common = ["train-policy", "--dataset", str(root), "--actions", "0.3,0.9",
                  "--episodes", "8", "--n-samples", "300",
                  "--out", str(tmp_path / "p.json"), "--log", str(log_path)]
        for extra, rewarded in (([], True), (["--nu", "1e-9"], False)):
            code, _, err = invoke(common + extra, capsys)
            assert code == 0, err
            rewards = [float(line.split(",")[3])
                       for line in log_path.read_text().splitlines()[1:]]
            assert len(rewards) == 8
            assert all(r > 0 for r in rewards) == rewarded
            assert ("every reward was 0" in err) != rewarded

    def test_ablate_samples_each_ground_truth_once(self, tmp_path, capsys,
                                                   surface_samplings):
        root = make_dataset(tmp_path)
        code, _, err = invoke(
            ["ablate", "--dataset", str(root), "--taus", "0.3,0.9", "--nu", "0.2",
             "--n-samples", "300", "--out", str(tmp_path / "table.csv")], capsys)
        assert code == 0, err
        sampled = [id(args[0]) for args in surface_samplings]
        assert len(set(sampled)) == len(sampled) == 4 + 4 * 2  # each gt, each cell's mesh

    def test_jobs_env_default(self, monkeypatch):
        from alphaforge.cli import _build_parser
        monkeypatch.setenv("ALPHAFORGE_JOBS", "7")
        args = _build_parser().parse_args(["ablate", "--dataset", "x"])
        assert args.jobs == 7

    @pytest.mark.parametrize("argv", [["synth", "--shape", "torus"],
                                      ["ablate", "--dataset", "x"]])
    def test_bad_jobs_env_is_usage_error(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("ALPHAFORGE_JOBS", "x")
        code, _, err = invoke(argv, capsys)
        assert code == 1
        assert err == "usage error: ALPHAFORGE_JOBS must be an integer, not 'x'\n"

    @pytest.mark.parametrize("jobs, env", [("0", None), ("-2", None), (None, "0")])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                           jobs, env):
        if env is not None:
            monkeypatch.setenv("ALPHAFORGE_JOBS", env)
        root = make_dataset(tmp_path, n_per_class=1)
        argv = ["ablate", "--dataset", str(root), "--taus", "0.3", "--nu", "0.2",
                "--out", str(tmp_path / "table.csv")]
        code, _, err = invoke(argv + (["--jobs", jobs] if jobs else []), capsys)
        assert code == 1
        assert err == (f"usage error: --jobs (or ALPHAFORGE_JOBS) must be >= 1, "
                       f"not {int(jobs or env)}\n")
        assert not (tmp_path / "table.csv").exists()

    def test_ablate_deterministic_and_parallel_stable(self, tmp_path, capsys):
        root = make_dataset(tmp_path)
        outs = []
        for name, jobs in (("t1.csv", "1"), ("t2.csv", "1"), ("t4.csv", "3")):
            path = tmp_path / name
            code, _, _ = invoke(
                ["ablate", "--dataset", str(root), "--taus", "0.3,0.9",
                 "--nu", "0.2", "--n-samples", "300", "--jobs", jobs,
                 "--out", str(path)], capsys)
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2]


class TestReconstruct:
    def test_fixed_tau_reconstruction(self, tmp_path, capsys):
        cloud, _ = synth(SyntheticSpec("sphere", n=800, fill="solid", seed=77))
        cloud_path = tmp_path / "c.xyz"
        write_points(cloud, cloud_path)
        out_path = tmp_path / "r.obj"
        trace_path = tmp_path / "trace.csv"
        code, _, err = invoke(
            ["reconstruct", "--in", str(cloud_path), "--tau", "0.3",
             "--stages", "1", "--iters", "5", "--step", "3e-5",
             "--out", str(out_path), "--trace", str(trace_path)], capsys)
        assert code == 0, err
        mesh = read_mesh(out_path)
        assert topology(mesh).chi == 2
        trace = trace_path.read_text().strip().splitlines()
        assert len(trace) == 6  # header + 5 iterations

    def test_smooth_preset_uses_smoothed_initial_mesh_as_baseline(self, tmp_path, capsys):
        cloud, _ = synth(SyntheticSpec("sphere", n=800, fill="solid", seed=77))
        cloud_path = tmp_path / "c.xyz"
        write_points(cloud, cloud_path)
        code, _, err = invoke(
            ["reconstruct", "--in", str(cloud_path), "--tau", "0.3",
             "--preset", "smooth", "--stages", "1", "--iters", "1",
             "--step", "3e-5", "--out", str(tmp_path / "r.obj")], capsys)
        assert code == 0, err
        assert "baseline" not in err
        assert "falling back" not in err

    def test_negative_taubin_iters(self, tmp_path, capsys):
        """The count is refused when the configuration is built, before the
        cloud is triangulated, also under the preset that builds no
        baseline."""
        cloud, _ = synth(SyntheticSpec("sphere", n=200, fill="solid", seed=78))
        write_points(cloud, tmp_path / "c.xyz")
        for preset in ("smooth", "pretty"):
            code, _, err = invoke(
                ["reconstruct", "--in", str(tmp_path / "c.xyz"), "--tau", "0.4",
                 "--stages", "1", "--iters", "1", "--taubin-iters", "-3",
                 "--preset", preset, "--out", str(tmp_path / "r.obj")], capsys)
            assert (code, err) == (2, "error: taubin_iters must be >= 0\n")
        assert not (tmp_path / "r.obj").exists()

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_step_is_refused(self, tmp_path, capsys, step):
        """A NaN step would fail the displacement bound's assertion and an
        infinite one move every vertex by the bound; both are refused when
        the configuration is built."""
        cloud, _ = synth(SyntheticSpec("torus", n=600, fill="solid", seed=78))
        write_points(cloud, tmp_path / "c.xyz")
        code, _, err = invoke(
            ["reconstruct", "--in", str(tmp_path / "c.xyz"), "--tau", "0.4",
             "--stages", "1", "--iters", "1", "--step", step,
             "--out", str(tmp_path / "r.obj")], capsys)
        assert (code, err) == (2, "error: step_size must be finite and positive\n")
        assert not (tmp_path / "r.obj").exists()

    def test_policy_picks_tau_and_rejects_undescribable_cloud(self, tmp_path, capsys):
        cloud, _ = synth(SyntheticSpec("sphere", n=200, fill="solid", seed=78))
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(policy_to_json(QPolicy.fresh((0.9, 0.3))))  # zero weights pick 0.9
        for n, want_code, want_err in ((200, 0, "policy chose tau=0.9"),
                                       (6, 2, "cannot describe a 6-point cloud")):
            path = tmp_path / f"c{n}.xyz"
            write_points(PointCloud(cloud.points[:n]), path)
            code, _, err = invoke(
                ["reconstruct", "--in", str(path), "--policy", str(policy_path),
                 "--stages", "1", "--iters", "1", "--out", str(tmp_path / "r.obj")], capsys)
            assert code == want_code, err
            assert want_err in err

    def test_reconstruct_needs_tau_or_policy(self, tmp_path, capsys):
        cloud, _ = synth(SyntheticSpec("sphere", n=200, fill="solid", seed=78))
        path = tmp_path / "c.xyz"
        write_points(cloud, path)
        code, _, _ = invoke(["reconstruct", "--in", str(path)], capsys)
        assert code == 1

    @pytest.mark.parametrize("argv, doc", [
        (["--tau", "0.05", "--policy", "{dir}/p.json"], None),
        (["--policy", "{dir}/p.json"], {"tau": 0.05}),
        (["--tau", "0.05"], {"policy": "{dir}/p.json"}),
    ], ids=["flags", "config-tau", "config-policy"])
    def test_tau_and_policy_together_is_usage_error(self, tmp_path, capsys, argv, doc):
        """The policy would silently win over --tau, so the two are refused
        together, from the command line or the config, before the cloud or
        the policy (here neither exists) is read."""
        argv = ["reconstruct", "--in", str(tmp_path / "c.xyz"),
                "--out", str(tmp_path / "r.obj"), *(a.format(dir=tmp_path) for a in argv)]
        if doc is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(
                {k: v.format(dir=tmp_path) if isinstance(v, str) else v
                 for k, v in doc.items()}))
            argv += ["--config", str(tmp_path / "cfg.json")]
        code, out, err = invoke(argv, capsys)
        assert (code, out) == (1, "")
        assert "not allowed with argument" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if doc else [])

    @pytest.mark.parametrize("subdivide, obj_sha, csv_sha", [
        (False, "89ff4ea19566b3596fa557d00e075ed453c9f13fbb01438f5b8ad842485a5daf",
         "39338856cd621ef9d5abaa32f7a9dedea075c8078dbc3569cfa84aba3ba7feec"),
        (True, "ad3f577d656e6d4c66ab2d85fb37bc11a1029008ff7c221e3ae576492416c80c",
         "3f53fc4c2c6d2612a4946910f6ccaaf09f66dc4cbab93b968fdcaa0917e367a0"),
    ])
    def test_outputs_pinned(self, tmp_path, capsys, subdivide, obj_sha, csv_sha):
        """SHA-256 of the refined OBJ and the loss trace, recorded when every
        refinement iteration queried the kd-tree for every sample and
        scattered its gradients with np.add.at."""
        cloud, _ = synth(SyntheticSpec("torus", n=1000, fill="solid", seed=81))
        cloud_path = tmp_path / "c.xyz"
        write_points(cloud, cloud_path)
        out_path, trace_path = tmp_path / "r.obj", tmp_path / "t.csv"
        code, _, err = invoke(
            ["reconstruct", "--in", str(cloud_path), "--tau", "0.3", "--preset", "smooth",
             "--stages", "2", "--iters", "5", *(["--subdivide"] if subdivide else []),
             "--out", str(out_path), "--trace", str(trace_path)], capsys)
        assert code == 0, err
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == obj_sha
        assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == csv_sha

    def test_reconstruct_deterministic(self, tmp_path, capsys):
        cloud, _ = synth(SyntheticSpec("sphere", n=500, fill="solid", seed=79))
        cloud_path = tmp_path / "c.xyz"
        write_points(cloud, cloud_path)
        outs = []
        for name in ("r1.obj", "r2.obj"):
            out_path = tmp_path / name
            code, _, _ = invoke(
                ["reconstruct", "--in", str(cloud_path), "--tau", "0.35",
                 "--stages", "1", "--iters", "3", "--step", "3e-5",
                 "--seed", "4", "--out", str(out_path)], capsys)
            assert code == 0
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]
