"""Per-layer spans and counts, recorded from outside the package.

``Tracer.install`` replaces every public function of the layer modules,
in every ``alphaforge`` module namespace that binds it, with a wrapper
that records a span: the layer-qualified name, the caller's span, the
inclusive time and the self time (inclusive minus the wrapped calls made
inside it). A few wrappers also count work from the call's arguments or
result. ``uninstall`` puts the original functions back. Nothing under
``src/`` changes; the program runs exactly as without tracing, plus the
wrappers' own cost, which the benchmark reports as ``trace.overhead_s``.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("delaunay", "alphashape", "sampling", "loss", "refine", "policy",
          "metrics", "meshio")
TOP = "cli.run"

_READS = ("read_points", "read_mesh", "points_from_text", "mesh_from_text")
_WRITES = ("write_points", "write_mesh", "points_to_text", "mesh_to_text")
_LOSS_TOTALS = ("total_loss", "total_loss_grad", "total_loss_with_grad")
_SAMPLERS = ("sample_surface", "sample_surface_with_faces")


def _io_bytes(name, args, result) -> int:
    if name in ("read_points", "read_mesh", "write_points", "write_mesh"):
        return os.path.getsize(args[1] if name.startswith("write") else args[0])
    text = args[0] if name.endswith("from_text") else result
    return len(text)


class Tracer:
    def __init__(self):
        self.calls = Counter()            # (parent, name) -> calls
        self.seconds = defaultdict(float)  # (parent, name) -> inclusive s
        self.self_s = defaultdict(float)  # layer -> self s
        self.counts = Counter()
        self.clouds: list[set[bytes]] = []  # distinct clouds, per round
        self._stack: list[list[float]] = []  # per open span: [child s]
        self._names: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers for one traced round."""
        import alphaforge.cli

        self.clouds.append(set())
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"alphaforge.{layer}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        wrappers[alphaforge.cli.run] = self._wrap(TOP, alphaforge.cli.run)
        for modname, module in list(sys.modules.items()):
            if modname != "alphaforge" and not modname.startswith("alphaforge."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._names[-1] if self._names else ""
            frame = [0.0]
            self._stack.append(frame)
            self._names.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                self._stack.pop()
                self._names.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                self.calls[parent, name] += 1
                self.seconds[parent, name] += dt
                self.self_s[layer] += dt - frame[0]
            self._count(name, parent, args, result)
            return result

        return wrapper

    def _count(self, name, parent, args, result) -> None:
        c = self.counts
        short = name.split(".", 1)[1]
        if name == "delaunay.delaunay_complex":
            c["tets"] += len(result)
            pts = np.ascontiguousarray(getattr(args[0], "points", args[0]))
            self.clouds[-1].add(hashlib.blake2b(pts.tobytes()).digest())
        elif name == "alphashape.filter_tetrahedra":
            c["kept_tets"] += len(result)
        elif name == "alphashape.extract_boundary_faces":
            c["boundary_faces"] += result[0].num_faces
        elif short in _SAMPLERS:
            c["sample_points"] += len(result[0] if isinstance(result, tuple) else result)
        elif name == "loss.nearest_neighbors":
            c["nn_points"] += len(args[0])
        elif name == "refine.refine_mesh":
            c["refine_iterations"] += len(result[1])
        elif name == "policy.train_policy":
            c["episodes"] += len(result[1].records)
        elif name.startswith("meshio.") and not parent.startswith("meshio."):
            if short in _READS or short in _WRITES:
                c["io_bytes"] += _io_bytes(short, args, result)

    # -- summary ----------------------------------------------------------

    def _sum(self, names, seconds=True, parent=None, outer_layer=None) -> float:
        table = self.seconds if seconds else self.calls
        return sum(v for (p, n), v in table.items()
                   if n in names and (parent is None or p == parent)
                   and (outer_layer is None or not p.startswith(outer_layer + ".")))

    def metrics(self, rounds: int, fallbacks: int, overhead_s: float) -> dict:
        """Per-layer figures averaged over ``rounds`` traced rounds."""
        c = self.counts
        builds = self._sum({"delaunay.delaunay_complex"}, seconds=False)
        refine_s = self._sum({"refine.refine_mesh"})
        io = {f"meshio.{n}" for n in _READS}, {f"meshio.{n}" for n in _WRITES}
        values = {
            "delaunay.calls": builds,
            "delaunay.s": self.self_s["delaunay"],
            "delaunay.tets": c["tets"],
            "alphashape.filter_s": self._sum({"alphashape.filter_tetrahedra"}),
            "alphashape.extract_s": self._sum({"alphashape.extract_boundary_faces"}),
            "alphashape.kept_tets": c["kept_tets"],
            "alphashape.boundary_faces": c["boundary_faces"],
            "sampling.calls": self._sum({f"sampling.{n}" for n in _SAMPLERS},
                                        seconds=False),
            "sampling.s": self.self_s["sampling"],
            "sampling.points": c["sample_points"],
            "loss.nn_calls": self._sum({"loss.nearest_neighbors"}, seconds=False),
            "loss.nn_s": self._sum({"loss.nearest_neighbors"}),
            "loss.nn_points": c["nn_points"],
            "loss.total_calls": self._sum({f"loss.{n}" for n in _LOSS_TOTALS},
                                          seconds=False, outer_layer="loss"),
            "loss.total_s": self._sum({f"loss.{n}" for n in _LOSS_TOTALS},
                                      outer_layer="loss"),
            "refine.s": refine_s,
            "refine.iterations": c["refine_iterations"],
            "refine.baseline_s": (self._sum({"refine.build_baseline"})
                                  + self._sum({"refine.taubin_smooth"}, parent=TOP)),
            "refine.baseline_fallbacks": fallbacks,
            "policy.descriptor_s": self._sum({"policy.state_descriptor"}),
            "policy.reward_s": self._sum({"policy.reward"}),
            "policy.update_s": self._sum({"policy.update"}),
            "policy.episodes": c["episodes"],
            "metrics.evaluate_s": self._sum({"metrics.evaluate"}),
            "metrics.icp_s": self._sum({"metrics.icp_align"}),
            "metrics.icp_iters": self._sum({"loss.nearest_neighbors"}, seconds=False,
                                           parent="metrics.icp_align"),
            "meshio.read_s": self._sum(io[0], outer_layer="meshio"),
            "meshio.write_s": self._sum(io[1], outer_layer="meshio"),
            "meshio.bytes": c["io_bytes"],
            "cli.self_s": self.self_s["cli"],
        }
        out = {k: v / rounds for k, v in values.items()}
        distinct = sum(len(s) for s in self.clouds)
        out["alphashape.clouds_per_build"] = distinct / builds if builds else 0.0
        out["refine.iter_s"] = refine_s / c["refine_iterations"] if c["refine_iterations"] else 0.0
        out["trace.overhead_s"] = overhead_s
        return out
