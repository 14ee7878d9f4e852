"""The benchmark tracer (bench/tracer.py) wraps library functions by name.

A rename in the library would only show up in a traced benchmark run, so
these tests check the names and parameters the tracer relies on, and that
the counts it derives from them still mean what it reports.
"""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracer  # noqa: E402

from oracles import count_calls  # noqa: E402
from sparsehalf import learners  # noqa: E402
from sparsehalf.core import Sample  # noqa: E402
from sparsehalf.learners import LearnerConfig, matrix_mw_learn  # noqa: E402


def module(name):
    return importlib.import_module(name if "." in name else f"sparsehalf.{name}")


def parameters_read(count):
    """The argument names a counter's count(args, result) function looks up."""
    names = {c for c in count.__code__.co_consts if isinstance(c, str)}
    for cell in count.__closure__ or ():
        if isinstance(cell.cell_contents, str):
            names.add(cell.cell_contents)
    return names


@pytest.mark.parametrize("home,fname", sorted({(home, fname) for home, fname, *_ in tracer.SPANS + tracer.COUNTERS}))
def test_every_wrapped_function_exists(home, fname):
    assert callable(getattr(module(home), fname, None)), f"{home}.{fname}"


@pytest.mark.parametrize("home,fname,count", [(home, fname, count) for home, fname, _, _, count, _ in tracer.SPANS
                                              if count is not None])
def test_every_parameter_a_counter_reads_exists(home, fname, count):
    wanted = parameters_read(count)
    assert wanted <= set(inspect.signature(getattr(module(home), fname)).parameters), (fname, wanted)


def test_sample_and_dykstra_hooks():
    assert "__post_init__" in vars(Sample)
    assert len(Sample(2, 3, [[1, -2], [3, 0]], [1, -1]).items) == 2  # the tracer counts len(items)
    assert callable(module("decompmat")._dykstra_feasible)


def test_eg_steps_and_svds_counters(monkeypatch):
    """learners.eg_steps is cfg.epochs * len(cells); learners.eg_svds counts numpy.linalg.svd calls."""
    (steps_of,) = [count for _, fname, _, _, count, _ in tracer.SPANS if fname == "matrix_mw_learn"]
    svds = count_calls(monkeypatch, np.linalg, "svd")
    margins = count_calls(monkeypatch, learners, "_eg_margins")
    cells, cfg = [(1, 1, 1)] * 3, LearnerConfig(seed=0, eta=4.0, epochs=5)
    pred = matrix_mw_learn(cells, (2, 2), cfg, 0)
    assert svds[0] == margins[0] > 0
    # one update at the first step; every later step adds the same margins, so the
    # average over all steps reads the step count
    C = np.zeros((2, 2))
    C[0, 0] = 0.5 * cfg.eta
    after, _ = learners._eg_margins(C, pred.trace_cap, 4)
    steps = steps_of({"cells": cells, "cfg": cfg}, pred)
    assert steps == 15
    assert pred.scores[0, 0] == pytest.approx(after[0, 0] * (steps - 1) / steps, rel=1e-12)
