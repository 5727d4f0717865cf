"""Span tracing of the ratfourier layers, installed from outside the package.

`Tracer.install` replaces every public function of the layer modules,
wherever the package holds a reference to it, with a wrapper that records
a span (name, start, end, parent) and the counts of work done at that
boundary.  `Tracer.uninstall` puts the originals back, so untraced passes
run the unmodified code.  Spans stay in memory until `save` writes them.

The integrand handed to `ratfourier.quadrature.integrate` is wrapped as
well: each call is one batch of 15-node panels, so panels evaluated =
nodes / 15 and bisections = integrand calls - integrate calls.
"""

import functools
import importlib
import inspect
import math
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "ratfourier"
LAYERS = ("targets", "coefficients", "rational_eval", "voigt", "quadrature",
          "oracle", "trig_identity", "cli")
IO_FUNCTIONS = ("save_coefficients", "load_coefficients")
RESIDUE_FUNCTIONS = ("voigt_residue", "voigt_residue_complex")
NODES_PER_PANEL = 15  # 7/15-point Gauss-Kronrod


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = Counter()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _span(self, name, fn, args, kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # -- wrappers ----------------------------------------------------------

    def _wrapper(self, layer, fn):
        fname = fn.__name__
        name = f"{layer}.{fname}"
        if layer == "coefficients" and fname in IO_FUNCTIONS:
            name = f"coefficients_io.{fname}"
        counts = self.counts

        if layer == "cli" and fname == "main":
            def traced(argv=None):
                sub = argv[0] if argv else "scan"
                return self._span(f"cli.{sub}", fn, (argv,), {})
        elif fname == "integrate":
            def traced(f, *args, **kwargs):
                def integrand(x):
                    counts["quadrature.integrand_calls"] += 1
                    counts["quadrature.nodes"] += len(x)
                    return self._span("integrand", f, (x,), {})
                try:
                    return self._span(name, fn, (integrand,) + args, kwargs)
                except Exception:
                    counts["quadrature.failures"] += 1
                    raise
        else:
            count = _COUNTERS.get(fname)

            def traced(*args, **kwargs):
                result = self._span(name, fn, args, kwargs)
                if count is not None:
                    count(counts, *args, **kwargs)
                return result
        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap the layers' public functions in every module of the package."""
        layer_modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                         for layer in LAYERS}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers = {}
        for layer, module in layer_modules.items():
            for fname, fn in vars(module).items():
                # the CLI dispatches to its handlers through a dict, so
                # main is its one entry point that patching can reach
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not fname.startswith("_")
                        and (layer != "cli" or fname == "main")):
                    wrappers[id(fn)] = (fn, self._wrapper(layer, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def mark(self):
        """Position to pass to `layer_metrics` for the spans and counts after it."""
        return len(self.start), Counter(self.counts)

    def layer_metrics(self, since):
        """Per-layer metrics of the spans and counts recorded after `since`."""
        first, counts_before = since
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        nid = np.frombuffer(self.name_id, dtype=np.int32)[first:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:] - first
        dur = (np.frombuffer(self.end, dtype=np.float64)[first:]
               - np.frombuffer(self.start, dtype=np.float64)[first:])
        names = np.array(self.names + [""])
        span_names = names[nid]
        layers = np.array([n.split(".", 1)[0] for n in names])[nid]

        # a span is the layer's entry point when no ancestor is in its layer
        ancestor_layers = [frozenset()] * len(nid)
        outer = np.ones(len(nid), dtype=bool)
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                ancestor_layers[i] = ancestor_layers[p] | {layers[p]}
                outer[i] = layers[i] not in ancestor_layers[i]
        children = np.zeros(len(nid))
        inside = parent >= 0
        np.add.at(children, parent[inside], dur[inside])

        def busy(mask):
            return float(dur[mask].sum())

        def calls(mask):
            return int(np.count_nonzero(mask))

        def layer(name):
            return (layers == name) & outer

        def self_time(name):
            # time in the layer's own code: its spans minus the spans they contain
            mask = layers == name
            return float(dur[mask].sum() - children[mask].sum())

        # voigt_residue calls voigt_residue_complex: count each point once
        residue = np.isin(span_names, [f"voigt.{f}" for f in RESIDUE_FUNCTIONS])
        nested = np.zeros(len(nid), dtype=bool)
        nested[inside] = residue[parent[inside]]
        residue_outer = residue & ~nested
        integrate = span_names == "quadrature.integrate"
        panels = counts["quadrature.nodes"] / NODES_PER_PANEL
        bisections = counts["quadrature.integrand_calls"] - calls(integrate)
        m = {
            "targets.calls": calls(layer("targets")),
            "targets.busy_s": busy(layer("targets")),
            "targets.self_s": self_time("targets"),
            "targets.samples": counts["targets.samples"],
            "coefficients.calls": calls(span_names == "coefficients.compute_coefficients"),
            "coefficients.busy_s": busy(layer("coefficients")),
            "coefficients.self_s": self_time("coefficients"),
            "coefficients.projections": counts["coefficients.projections"],
            "coefficients.io_busy_s": busy(layer("coefficients_io")),
            "coefficients.io_bytes": counts["coefficients.io_bytes"],
            "rational_eval.calls": calls(layer("rational_eval")),
            "rational_eval.busy_s": busy(layer("rational_eval")),
            "rational_eval.self_s": self_time("rational_eval"),
            "rational_eval.points": counts["rational_eval.points"],
            "rational_eval.pole_terms": counts["rational_eval.pole_terms"],
            "rational_eval.matrix_bytes": 16 * counts["rational_eval.pole_terms"],
            "voigt.residue_calls": calls(residue_outer),
            "voigt.residue_busy_s": busy(residue_outer),
            "voigt.quadrature_calls": calls(span_names == "voigt.voigt_quadrature"),
            "voigt.quadrature_busy_s": busy(span_names == "voigt.voigt_quadrature"),
            "voigt.self_s": self_time("voigt"),
            "quadrature.calls": calls(integrate),
            "quadrature.busy_s": busy(integrate),
            "quadrature.self_s": self_time("quadrature"),
            "quadrature.integrand_calls": counts["quadrature.integrand_calls"],
            "quadrature.nodes": counts["quadrature.nodes"],
            "quadrature.panels": panels,
            "quadrature.bisections": bisections,
            # panels that survive to the final sum over panels evaluated
            "quadrature.panels_kept_ratio": (panels - bisections) / panels if panels else 0.0,
            "quadrature.failures": counts["quadrature.failures"],
            "oracle.forward_calls": calls(span_names == "oracle.fourier_forward_quadrature"),
            "oracle.forward_busy_s": busy(span_names == "oracle.fourier_forward_quadrature"),
            "oracle.expansion_calls": calls(span_names == "oracle.damped_expansion_quadrature"),
            "oracle.expansion_busy_s": busy(span_names == "oracle.damped_expansion_quadrature"),
            "oracle.self_s": self_time("oracle"),
            "trig_identity.calls": calls(layer("trig_identity")),
            "trig_identity.busy_s": busy(layer("trig_identity")),
            "trig_identity.self_s": self_time("trig_identity"),
        }
        for sub in ("coeffs", "scan", "identity-check", "oracle", "voigt"):
            m[f"cli.{sub}_s"] = busy(span_names == f"cli.{sub}")
        m["cli.self_s"] = self_time("cli")
        return m

    def save(self, path):
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end))


def _count_samples(counts, target, params, *args, **kwargs):
    counts["targets.samples"] += params.N + 1


def _count_projections(counts, samples, *args, **kwargs):
    p = samples.params
    counts["coefficients.projections"] += p.terms * (p.N + 1)


def _count_load(counts, path, *args, **kwargs):
    counts["coefficients.io_bytes"] += os.path.getsize(path)


def _count_save(counts, coeffs, path, *args, **kwargs):
    counts["coefficients.io_bytes"] += os.path.getsize(path)


def _count_points(counts, coeffs, x, *args, **kwargs):
    n = int(np.size(x))
    counts["rational_eval.points"] += n
    counts["rational_eval.pole_terms"] += n * coeffs.params.terms


_COUNTERS = {
    "sample_grid": _count_samples,
    "compute_coefficients": _count_projections,
    "load_coefficients": _count_load,
    "save_coefficients": _count_save,
    "eval_forward": _count_points,
    "eval_inverse": _count_points,
}
