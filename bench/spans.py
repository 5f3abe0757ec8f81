"""Span tracing of flwave's public functions, installed from outside.

``Tracer.install()`` wraps each function in ``WRAPPED`` and rebinds the
wrapper everywhere the original is bound: flwave modules import names
directly (``from .grid import forward_transform``), so the installer
walks every loaded ``flwave`` / ``flwave.*`` module and replaces each
attribute that *is* the original.  Methods are patched on their class.
``Tracer.uninstall()`` restores every binding it replaced.

Each wrapped call records one span (function id, start, end, parent span,
op id) in flat arrays that stay in memory until the run ends.  A span's
self time is its duration minus the durations of its direct children;
one thread means children never overlap, so that sum is exactly the part
of the parent's interval they cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, names) of the public functions traced; "Class.method" entries
# are patched on the class.  Metric names are "<module>.<name>.<metric>".
WRAPPED = (
    ("grid", ("forward_transform", "inverse_transform", "cyclic_convolve",
              "TorusGrid.cell_distance")),
    ("windows", ("window_values", "window_signal")),
    ("cones", ("cone_mask", "omega_masks")),
    ("weights", ("Weight.on_lattice", "Weight.evaluate_points")),
    ("norms", ("sequence_norm", "fl_norm", "mixed_norm")),
    ("wavefront", ("estimate_wavefront", "classical_wavefront",
                   "superior_scan", "annulus_averages", "fit_decay_slope",
                   "report_included_in")),
    ("modulation", ("stft", "modulation_norm", "modulation_sup_profile",
                    "modulation_direction_verdict")),
    ("bilinear", ("apply_tf", "verify_tf_bound", "kernel_slice_norms",
                  "tail_slice_norms")),
    ("calculus", ("product_norm_check", "convolve_norm_check",
                  "product_critical_norm_check", "algebra_check",
                  "wf_convolution_check", "wf_product_check",
                  "wf_derivative_check")),
    ("pdo", ("transport_check", "char_set_scan", "noncharacteristic_at",
             "quantize_apply")),
    ("semilinear", ("wf_nonlinearity_check", "eval_nonlinearity",
                    "bootstrap_indices")),
    ("rng", ("trial_rng", "random_coeffs", "random_kernel")),
    ("corpus", ("standard_corpus",)),
    ("cli", ("main",)),
)

MODULES = tuple(mod for mod, _ in WRAPPED)
FUNCTIONS = tuple(f"{mod}.{name}" for mod, names in WRAPPED for name in names)
OP = "op"  # span name of one benchmark operation (function id 0)


def per_layer_metric_names() -> list:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for fn in FUNCTIONS:
        names += [f"{fn}.calls", f"{fn}.self_ms"]
    for mod in MODULES:
        names += [f"{mod}.self_share", f"{mod}.errors"]
    names += ["grid.forward_transform.bytes",
              "grid.forward_transform.unique_share",
              "bilinear.apply_tf.bytes", "trace_overhead_share"]
    return names


def self_times(parents: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    """
    parents = np.asarray(parents, dtype=np.int64)
    durations = np.asarray(durations, dtype=np.int64)
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent],
                          weights=durations[has_parent],
                          minlength=len(durations)).astype(np.int64)
    return durations - covered


class Tracer:
    """Wrapper installer plus the in-memory span store of one run."""

    def __init__(self):
        self.names = (OP,) + FUNCTIONS
        self._fid = {name: i for i, name in enumerate(self.names)}
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.errors = [0] * len(self.names)
        self.ft_bytes = 0  # computed 16 * n^d per forward_transform call
        self.ft_distinct = 0  # distinct inputs per op, summed over ops
        self.tf_bytes = 0  # computed 16 * N^2 per apply_tf call
        self._ft_seen: set = set()
        self._stack = [-1]
        self._op_id = -1
        self._bindings: list = []  # (namespace, attribute, original)

    # -- spans --------------------------------------------------------------

    def _open(self, fid: int) -> int:
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def run_op(self, op_id: int, func, *args):
        """Run one benchmark operation inside a root span."""
        self._op_id = op_id
        self._ft_seen = set()
        idx = self._open(0)
        try:
            return func(*args)
        finally:
            self._close(idx)
            self.ft_distinct += len(self._ft_seen)

    def _wrap(self, fid: int, fn):
        name = self.names[fid]
        extra = {
            "grid.forward_transform": self._count_transform,
            "bilinear.apply_tf": self._count_tf,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if extra is not None:
                extra(*args, **kwargs)
            idx = self._open(fid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[fid] += 1
                raise
            finally:
                self._close(idx)

        return wrapper

    def _count_transform(self, f, *_, **__):
        values = f.values
        self.ft_bytes += 16 * values.size
        self._ft_seen.add((values.size, hash(values.tobytes())))

    def _count_tf(self, F, *_, **__):
        self.tf_bytes += 16 * F.grid.size**2

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every function in WRAPPED wherever flwave binds it."""
        import importlib

        if self._bindings:
            raise RuntimeError("tracer already installed")
        namespaces = _flwave_modules()
        for mod_name, names in WRAPPED:
            module = importlib.import_module(f"flwave.{mod_name}")
            for name in names:
                wrapper_id = self._fid[f"{mod_name}.{name}"]
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._bind(cls, meth, original,
                               self._wrap(wrapper_id, original))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(wrapper_id, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._bind(ns, attr, original, wrapper)

    def _bind(self, namespace, attr, original, wrapper):
        setattr(namespace, attr, wrapper)
        self._bindings.append((namespace, attr, original))

    def uninstall(self):
        """Restore every binding install() replaced."""
        for namespace, attr, original in reversed(self._bindings):
            setattr(namespace, attr, original)
        self._bindings = []

    def bindings(self) -> list:
        return list(self._bindings)

    # -- results ------------------------------------------------------------

    def span_arrays(self) -> dict:
        return {
            "fid": np.frombuffer(self.fid, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "names": np.asarray(self.names),
        }

    def per_layer(self, overhead_share: float) -> dict:
        """Per-layer metrics per traced op, as {name: (value, unit)}.

        ``overhead_share`` is traced over untraced time of the same ops,
        minus 1, measured by the caller.
        """
        spans = self.span_arrays()
        fid = spans["fid"]
        dur = spans["end_ns"] - spans["start_ns"]
        own = self_times(spans["parent"], dur)
        n_funcs = len(self.names)
        calls = np.bincount(fid, minlength=n_funcs)
        self_ns = np.bincount(fid, weights=own, minlength=n_funcs)
        n_ops = max(1, int(calls[0]))
        op_ns = float(np.sum(dur[fid == 0]))
        out = {}
        for i, name in enumerate(FUNCTIONS, start=1):
            out[f"{name}.calls"] = (calls[i] / n_ops, "count")
            out[f"{name}.self_ms"] = (self_ns[i] / n_ops / 1e6, "ms")
        for mod in MODULES:
            ids = [i for i, name in enumerate(self.names)
                   if name.split(".")[0] == mod]
            share = float(np.sum(self_ns[ids])) / op_ns if op_ns else 0.0
            out[f"{mod}.self_share"] = (share, "ratio")
            out[f"{mod}.errors"] = (sum(self.errors[i] for i in ids),
                                    "count")
        ft_calls = calls[self._fid["grid.forward_transform"]]
        out["grid.forward_transform.bytes"] = (self.ft_bytes / n_ops, "B")
        out["grid.forward_transform.unique_share"] = (
            self.ft_distinct / ft_calls if ft_calls else 1.0, "ratio")
        out["bilinear.apply_tf.bytes"] = (self.tf_bytes / n_ops, "B")
        out["trace_overhead_share"] = (overhead_share, "ratio")
        return out

    def min_self_ns(self) -> int:
        """Smallest self time of any span (negative would mean overlap)."""
        spans = self.span_arrays()
        if len(spans["fid"]) == 0:
            return 0
        own = self_times(spans["parent"],
                         spans["end_ns"] - spans["start_ns"])
        return int(own.min())


def _flwave_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "flwave" or name.startswith("flwave."))]
