"""Traced run of a workload: time the calls into each sparsehalf module from outside.

Run as a script, this is one process that imports ``sparsehalf.cli``, wraps
the public functions of the layers as module attributes, and calls
``sparsehalf.cli.main(argv)`` for each command of a workload::

    python3 bench/tracer.py <commands.json> <trace-out.json>

``commands.json`` holds a list of argument lists.  The trace file receives
each command's exit code and standard output, the spans (name, start, end,
parent span) and the counters.  The program's files are not changed: where
a module imported a function by name, that name is wrapped in the importing
module too.  Functions called hundreds of thousands of times (routing, and
the ``numpy.linalg`` calls) only count calls and record no span.

Imported as a module, :func:`layer_metrics` turns a trace file into the
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import os
import sys
import time
import traceback
from collections import defaultdict

LAYERS = ("cli", "core", "formulas", "realizations", "learners", "predictors", "refutation", "decompmat")


def _size(path_arg: str):
    return lambda args, result: os.path.getsize(args[path_arg])


def _length(args, result):
    return len(result)


def _sample_length(args, result):
    return len(args["sample"])


#: (defining module, function, span name, counter, count(args, result),
#: importing modules whose name is wrapped; None means every layer)
SPANS = [
    ("core", "sample_exact_sparse", "core.draw", "core.vectors_drawn", _length, None),
    ("core", "parse_sample", "core.parse", "core.parsed_examples", _length, None),
    ("core", "erm_binary_halfspace", "core.erm", "core.erm_pattern_examples",
     lambda a, r: 2 ** a["sample"].n * len(a["sample"]), None),
    ("learners", "learn_h3", "learners.h3", None, None, None),
    ("learners", "table_majority_learn", "learners.table", None, None, None),
    ("learners", "partition_learn", "learners.partition", None, None, None),
    ("learners", "matrix_mw_learn", "learners.eg", "learners.eg_steps",
     lambda a, r: a["cfg"].epochs * len(a["cells"]), None),
    ("core", "empirical_error", "learners.discarded_error", "learners.discarded_predictions",
     _sample_length, ("learners",)),
    ("core", "empirical_error", "predictors.predict", "predictors.predictions",
     _sample_length, ("cli", "refutation")),
    ("predictors", "write_predictor", "predictors.write", "predictors.model_bytes", _size("path"), None),
    ("predictors", "read_predictor", "predictors.read", None, None, None),
    ("formulas", "sample_formula", "formulas.sample", "formulas.clauses", lambda a, r: r.m, None),
    ("formulas", "formula_to_sample", "formulas.to_sample", None, None, None),
    ("formulas", "formula_value", "formulas.value", "formulas.value_pattern_clauses",
     lambda a, r: 2 ** a["phi"].n * a["phi"].m, None),
    ("refutation", "refute", "refutation.refute", None, None, None),
    ("decompmat", "certify_min_beta", "decompmat.certify", None, None, None),
    ("decompmat", "verify_decomposition", "decompmat.verify", None, None, None),
    ("decompmat", "write_decomposition", "decompmat.io", "decompmat.cert_bytes", _size("path"), None),
    ("decompmat", "read_decomposition", "decompmat.io", None, None, None),
]

#: (module, function, counter, span that must be open for the call to count)
COUNTERS = [
    ("realizations", "part_of_c3", "realizations.route_calls", None),
    ("realizations", "part_of_c2", "realizations.route_calls", None),
    ("realizations", "realize_c2", "realizations.route_calls", None),
    ("numpy.linalg", "svd", "learners.eg_svds", "learners.eg"),
    ("numpy.linalg", "eigh", "decompmat.eigh_calls", "decompmat.certify"),
    ("numpy.linalg", "eigvalsh", "decompmat.eigh_calls", "decompmat.certify"),
]


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.open: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def span(self, name: str, fn, counter: str | None = None, count=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(sid)
            self.open[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.open[name] -= 1
                self.spans[sid] = (name, start, end, parent)
            if counter is not None:
                self.counts[counter] += count(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapped

    def counted(self, counter: str, fn, within: str | None = None):
        counts, open_spans = self.counts, self.open

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if within is None or open_spans[within]:
                counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapped


def _replace(modules: dict, original, fname: str, wrapped, only) -> None:
    for name in only or modules:
        if getattr(modules[name], fname, None) is original:
            setattr(modules[name], fname, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the layers' functions; call once, after importing sparsehalf.cli."""
    import importlib

    import numpy.linalg

    modules = {name: importlib.import_module(f"sparsehalf.{name}") for name in LAYERS}
    modules["numpy.linalg"] = numpy.linalg
    # every wrapper is made from the original before any name is replaced,
    # since empirical_error gets a different span for each set of callers
    wrappers = []
    for home, fname, name, counter, count, only in SPANS:
        original = getattr(modules[home], fname)
        wrappers.append((original, fname, tracer.span(name, original, counter, count), only))
    for home, fname, counter, within in COUNTERS:
        original = getattr(modules[home], fname)
        wrappers.append((original, fname, tracer.counted(counter, original, within), None))
    for original, fname, wrapped, only in wrappers:
        _replace(modules, original, fname, wrapped, only)

    dykstra = modules["decompmat"]._dykstra_feasible

    @functools.wraps(dykstra)
    def dykstra_counted(*args, **kwargs):
        result = dykstra(*args, **kwargs)
        tracer.counts["decompmat.dykstra_runs"] += 1
        tracer.counts["decompmat.dykstra_feasible"] += bool(result[0])
        return result

    modules["decompmat"]._dykstra_feasible = dykstra_counted

    sample_cls = modules["core"].Sample
    post_init = sample_cls.__post_init__

    def counted_post_init(self) -> None:
        post_init(self)
        tracer.counts["core.sample_items"] += len(self.items)

    sample_cls.__post_init__ = counted_post_init


def main(commands_path: str, out_path: str) -> int:
    start = time.perf_counter()
    import sparsehalf.cli

    import_s = time.perf_counter() - start
    with open(commands_path, encoding="utf-8") as fh:
        commands = json.load(fh)
    tracer = Tracer()
    install(tracer)
    results = []
    for argv in commands:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = sparsehalf.cli.main(argv)
        except Exception:  # one command's crash is its failure, not the run's
            traceback.print_exc()
            code = 1
        results.append({"argv": argv, "exit": code, "stdout": out.getvalue()})
    trace = {
        "module": sparsehalf.cli.__file__,
        "import_s": import_s,
        "commands": results,
        "spans": tracer.spans,
        "counts": tracer.counts,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return 0


# ---------------------------------------------------------------------------
# Span arithmetic

SPAN_TIMES = {
    "core.draw_s": "core.draw",
    "core.parse_s": "core.parse",
    "core.erm_s": "core.erm",
    "learners.h3_s": "learners.h3",
    "learners.table_s": "learners.table",
    "learners.eg_s": "learners.eg",
    "learners.discarded_error_s": "learners.discarded_error",
    "predictors.predict_s": "predictors.predict",
    "predictors.write_s": "predictors.write",
    "predictors.read_s": "predictors.read",
    "formulas.sample_s": "formulas.sample",
    "formulas.to_sample_s": "formulas.to_sample",
    "formulas.value_s": "formulas.value",
    "decompmat.certify_s": "decompmat.certify",
    "decompmat.verify_s": "decompmat.verify",
    "decompmat.io_s": "decompmat.io",
}
SELF_TIMES = {"learners.partition_self_s": "learners.partition", "refutation.refute_self_s": "refutation.refute"}
SPAN_COUNTS = {"learners.h3_fits": "learners.h3", "learners.eg_fits": "learners.eg", "refutation.rounds": "refutation.refute"}
COUNTS = sorted({c for *_, c, _, _ in SPANS if c} | {c for _, _, c, _ in COUNTERS}
                | {"core.sample_items", "decompmat.dykstra_runs", "decompmat.dykstra_feasible"})


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer times and counts of one traced run.

    A name's time sums its outermost spans, so a span nested in another of
    the same name is not counted twice.  Self time is a span's time minus
    the time its direct child spans cover.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for sid, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_time[name] += end - start - child_time[sid]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total[name] += end - start
    metrics: dict[str, float] = {"cli.import_s": trace["import_s"]}
    metrics.update({metric: total[name] for metric, name in SPAN_TIMES.items()})
    metrics.update({metric: self_time[name] for metric, name in SELF_TIMES.items()})
    metrics.update({metric: calls[name] for metric, name in SPAN_COUNTS.items()})
    metrics.update({name: trace["counts"].get(name, 0) for name in COUNTS})
    return metrics


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
