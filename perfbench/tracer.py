"""In-memory span tracer wrapped around flycap's public functions.

``Tracer.install`` replaces each function in ``SITES`` by a wrapper on
the name its caller looks up: a module attribute, a name another module
imported with ``from ... import``, or a class attribute. Every wrapped
call records one span ``[id, parent id, layer, start, end, extras]``;
the parent is the innermost open span, so every span of an op descends
from that op's ``bench.op`` root. ``uninstall`` puts the originals back.
Spans stay in memory until ``write_sidecar``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

OP_ROOT = "bench.op"
SETUP_ROOT = "bench.setup"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _matrix_rows(args, kwargs, out):
    return {"rows": _arg(args, kwargs, 0, "n_rows")}


def _madds(args, kwargs, out):
    return {"madds": _arg(args, kwargs, 0, "m").nnz}


def _batch_rows(args, kwargs, out):
    return {"rows": len(out)}


def _singular(args, kwargs, out):
    return {"singular": int(not out)}


def _unconverged(args, kwargs, out):
    return {"unconverged": int(not out[1])}


def _density(args, kwargs, out):
    train_z, test_z = out[0].features, out[1].features
    return {
        "nonzero": np.count_nonzero(train_z) + np.count_nonzero(test_z),
        "entries": train_z.size + test_z.size,
    }


def _steps(args, kwargs, out):
    d, spec = _arg(args, kwargs, 0, "d"), _arg(args, kwargs, 1, "spec")
    return {"steps": d.n_samples * spec.epochs}


# (module, attribute where callers look the function up, layer, extras)
SITES = (
    ("flycap.projection", "sample_matrix", "projection.sample_matrix", _matrix_rows),
    ("flycap.projection", "apply", "projection.apply", _madds),
    ("flycap.cap", "cap", "cap.cap", None),
    ("flycap.transform", "cap", "cap.cap", None),
    ("flycap.transform", "build", "transform.build", None),
    ("flycap.experiments", "build", "transform.build", None),
    ("flycap.transform", "Transform.forward_batch", "transform.forward_batch", _batch_rows),
    ("flycap.rank", "is_invertible", "rank.is_invertible", _singular),
    ("flycap.rank", "det_exact", "rank.det_exact", None),
    ("flycap.verify", "sample_square_sign_matrix", "verify.sample_square_sign_matrix", None),
    ("flycap.verify", "operator_norm", "verify.operator_norm", _unconverged),
    ("flycap.verify", "distance_preserved", "verify.distance_preserved", None),
    ("flycap.verify", "invertibility_curve", "verify.invertibility_curve", None),
    ("flycap.verify", "jl_preservation", "verify.jl_preservation", None),
    ("flycap.verify", "opnorm_scaling", "verify.opnorm_scaling", None),
    ("flycap.verify", "derive_rng", "seeding.derive_rng", None),
    ("flycap.verify", "derive_seed", "seeding.derive_seed", None),
    ("flycap.experiments", "derive_seed", "seeding.derive_seed", None),
    ("flycap.data", "derive_rng", "seeding.derive_rng", None),
    ("flycap.svm", "derive_rng", "seeding.derive_rng", None),
    ("flycap.data", "synth_blobs", "data.synth_blobs", None),
    ("flycap.data", "split", "data.split", None),
    ("flycap.data", "standardize", "data.standardize", _density),
    ("flycap.svm", "train", "svm.train", _steps),
    ("flycap.svm", "evaluate", "svm.evaluate", None),
    ("flycap.experiments", "run_sweep", "experiments.run_sweep", None),
)

# per layer, the measures reported beyond .calls and .busy_s
EXTRAS = {
    "projection.sample_matrix": ("rows",),
    "projection.apply": ("madds",),
    "cap.cap": (),
    "transform.build": (),
    "transform.forward_batch": ("rows", "self_s"),
    "rank.is_invertible": ("singular",),
    "rank.det_exact": (),
    "verify.sample_square_sign_matrix": (),
    "verify.operator_norm": ("unconverged",),
    "verify.distance_preserved": (),
    "verify.invertibility_curve": ("self_s",),
    "verify.jl_preservation": ("self_s",),
    "verify.opnorm_scaling": ("self_s",),
    "seeding.derive_rng": (),
    "seeding.derive_seed": (),
    "data.synth_blobs": (),
    "data.split": (),
    "data.standardize": ("out_density",),
    "svm.train": ("steps", "us_per_step"),
    "svm.evaluate": (),
    "experiments.run_sweep": ("self_s",),
}
# layers whose set-up work is reported on its own (wide_transform's build)
SETUP_LAYERS = ("data.synth_blobs", "transform.build", "projection.sample_matrix")

UNITS = {
    "calls": "1/op",
    "busy_s": "s/op",
    "self_s": "s/op",
    "rows": "rows/op",
    "madds": "madds/op",
    "singular": "1/op",
    "unconverged": "1/op",
    "steps": "steps/op",
    "out_density": "ratio",
    "us_per_step": "us",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for layer, extras in EXTRAS.items():
        for measure in ("calls", "busy_s") + extras:
            units[f"{layer}.{measure}"] = UNITS[measure]
    for layer in SETUP_LAYERS:
        units[f"setup.{layer}.busy_s"] = "s"
    return units


def resolve(module: str, attr: str) -> tuple[object, str]:
    """The object that holds a patch site's name, and the name itself."""
    owner = importlib.import_module(module)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, time.perf_counter(), 0.0, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer, fn, extras):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if extras is not None:
                self.spans[sid][5] = extras(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module, attr, layer, extras in SITES:
            owner, attr = resolve(module, attr)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, extras))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op layer measures over the op spans, plus set-up totals.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        root = []
        child_s = [0.0] * len(self.spans)
        for sid, parent, _, t0, t1, _ in self.spans:
            root.append(sid if parent < 0 else root[parent])
            if parent >= 0:
                child_s[parent] += t1 - t0
        op_tot = {layer: dict.fromkeys(("calls", "busy_s", "self_s"), 0.0) for layer in EXTRAS}
        setup_busy = dict.fromkeys(SETUP_LAYERS, 0.0)
        for sid, _, name, t0, t1, extras in self.spans:
            phase = self.spans[root[sid]][2]
            if phase == SETUP_ROOT and name in setup_busy:
                setup_busy[name] += t1 - t0
            if phase != OP_ROOT or name not in op_tot:
                continue
            tot = op_tot[name]
            tot["calls"] += 1
            tot["busy_s"] += t1 - t0
            tot["self_s"] += t1 - t0 - child_s[sid]
            for key, value in (extras or {}).items():
                tot[key] = tot.get(key, 0) + value

        out = {}
        for layer, extras in EXTRAS.items():
            tot = op_tot[layer]
            for measure in ("calls", "busy_s") + extras:
                if measure == "out_density":
                    value = tot.get("nonzero", 0) / tot["entries"] if tot.get("entries") else 0.0
                elif measure == "us_per_step":
                    value = 1e6 * tot["busy_s"] / tot["steps"] if tot.get("steps") else 0.0
                else:
                    value = tot.get(measure, 0) / n_ops
                out[f"{layer}.{measure}"] = float(value)
        for layer, busy in setup_busy.items():
            out[f"setup.{layer}.busy_s"] = busy
        return out

    def write_sidecar(self, path, header: dict) -> None:
        """Write header fields plus every span, times relative to the first."""
        t_zero = self.spans[0][3] if self.spans else 0.0
        spans = [
            [sid, parent, name, t0 - t_zero, t1 - t_zero, extras]
            for sid, parent, name, t0, t1, extras in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": spans}, default=int))
