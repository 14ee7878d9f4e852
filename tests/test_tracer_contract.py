"""The benchmark tracer (bench/tracer.py) wraps library functions by name.

A rename in the library would only show up in a traced benchmark run, so
these tests check the names and parameters the tracer relies on.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracer  # noqa: E402

from sparsehalf.core import Sample  # noqa: E402


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
