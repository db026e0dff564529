"""Spans and counts around barstress's public functions, from outside.

install() replaces every public module-level function of the layer modules
with a recording wrapper, in every layer module whose namespace holds it,
so names one module imports from another (spectral.slice_epochs is
core.slice_epochs) are traced too. A span is (name, start, end, parent,
session); spans stay in memory until the run ends. uninstall() puts the
original functions back.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter

LAYERS = ("synth", "ingest", "core", "spectral", "regress", "topo", "cli")

# Span families timed at their outermost span, since they call each other.
FAMILIES = {
    "spectral.band_power_s": {"spectral.band_power_per_channel", "spectral.band_power", "spectral.band_ratio"},
    "topo.similarity_s": {"topo.similarity_matrix", "topo.topo_similarity"},
}
TIMED = {
    "synth.synth_eeg_s": "synth.synth_eeg",
    "ingest.read_edf_s": "ingest.read_edf",
    "ingest.read_csv_s": "ingest.read_csv",
    "ingest.write_csv_s": "ingest.write_csv",
    "ingest.write_edf_s": "ingest.write_edf",
    "core.slice_epochs_s": "core.slice_epochs",
    "spectral.welch_psd_s": "spectral.welch_psd",
    "regress.fit_4pl_s": "regress.fit_4pl",
    "regress.fit_quartic_s": "regress.fit_quartic",
    "topo.interpolate_s": "topo.interpolate_scalp",
    "topo.render_s": "topo.render_topomap",
}


def _decoded(counts, args, result):
    counts["ingest.samples_decoded"] += result.samples.size
    counts["ingest.bytes_parsed"] += len(args[0])


def _fitted(counts, args, result):
    counts["regress.fit_4pl_calls"] += 1
    counts["regress.fit_4pl_iterations"] += result.iterations
    counts["regress.fit_4pl_converged"] += bool(result.converged)


# Counts taken from a traced function's arguments and result.
HOOKS = {
    "synth.synth_eeg": lambda c, a, r: c.update({"synth.samples": r.samples.size}),
    "ingest.read_edf": _decoded,
    "ingest.read_csv": _decoded,
    "core.slice_epochs": lambda c, a, r: c.update({"core.epoch_samples": sum(e.samples.size for e in r)}),
    "spectral.welch_psd": lambda c, a, r: c.update({"spectral.welch_calls": 1}),
    "regress.fit_4pl": _fitted,
    "topo.interpolate_scalp": lambda c, a, r: c.update({"topo.cells": r.resolution**2}),
}


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.session = None
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.session)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self):
        modules = [importlib.import_module(f"barstress.{m}") for m in LAYERS]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("barstress.") or owner not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{owner}.{obj.__name__}")
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        while self._saved:
            mod, attr, obj = self._saved.pop()
            setattr(mod, attr, obj)

    def begin(self, session):
        """Start attributing spans to session; returns a mark for metrics()."""
        self.session = session
        return len(self.spans), Counter(self.counts)

    def metrics(self, mark) -> dict:
        """layer_metrics of the spans and counts recorded since mark."""
        base, before = mark
        spans = [
            (name, start, end, parent - base if parent >= 0 else -1, sid)
            for name, start, end, parent, sid in self.spans[base:]
        ]
        return layer_metrics(spans, self.counts - before)


def layer_metrics(spans: list, counts: Counter) -> dict:
    """Per-layer times and counts of one session.

    spans must hold the session's spans only, with parent indices into that
    list (-1 for a root). A span's self time is its duration minus its
    children's; the code is single-threaded, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for key in list(TIMED) + list(FAMILIES):
        out[key] = 0.0
    by_name = {fn: key for key, fn in TIMED.items()}
    family_of = {fn: key for key, fns in FAMILIES.items() for fn in fns}
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        out[name.partition(".")[0] + ".self_s"] += dur - child[i]
        if name in by_name:
            out[by_name[name]] += dur
        key = family_of.get(name)
        if key is not None and (parent < 0 or family_of.get(spans[parent][0]) != key):
            out[key] += dur
    decoded = counts["ingest.samples_decoded"]
    fits = counts["regress.fit_4pl_calls"]
    out.update({
        "synth.samples": counts["synth.samples"],
        "ingest.samples_decoded": decoded,
        "ingest.bytes_parsed": counts["ingest.bytes_parsed"],
        "ingest.useful_ratio": counts["core.epoch_samples"] / decoded if decoded else 0.0,
        "spectral.welch_calls": counts["spectral.welch_calls"],
        "regress.fit_4pl_iterations": counts["regress.fit_4pl_iterations"],
        "regress.converged_ratio": counts["regress.fit_4pl_converged"] / fits if fits else 0.0,
        "topo.cells": counts["topo.cells"],
    })
    return out
