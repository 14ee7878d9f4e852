"""Tests of the benchmark itself: each output check accepts good output and
rejects a corrupted copy of it.

    python3 -m pytest bench/test_bench.py

Good output comes from the program, through the library in ``src/``, at
sizes that take a second or less.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import LearnEval, Refute  # noqa: E402

from sparsehalf.core import BinaryAssignment, empirical_error, parse_sample  # noqa: E402
from sparsehalf.decompmat import certify_min_beta, serialize_decomposition, triangular_matrix  # noqa: E402
from sparsehalf.formulas import (  # noqa: E402
    FormulaKind,
    FormulaSourceConfig,
    formula_value,
    parse_formula,
    sample_formula,
    serialize_formula,
)
from sparsehalf.learners import table_majority_learn  # noqa: E402


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_nested_spans_count_once_and_self_time_excludes_children():
    spans = [
        ["learners.partition", 0.0, 10.0, -1],
        ["learners.partition", 1.0, 4.0, 0],
        ["learners.eg", 2.0, 3.0, 1],
        ["learners.eg", 5.0, 7.0, 0],
    ]
    metrics = tracer.layer_metrics({"import_s": 0.5, "spans": spans, "counts": {"learners.eg_svds": 4}})
    assert metrics["learners.partition_self_s"] == (10 - 3 - 2) + (3 - 1)
    assert metrics["learners.eg_s"] == 3.0
    assert metrics["learners.eg_fits"] == 2
    assert metrics["learners.eg_svds"] == 4
    assert metrics["learners.h3_fits"] == 0
    assert set(metrics) | {"cli.user_s", "cli.sys_s", "trace.overhead_s"} == set(run.PER_LAYER)


def test_traced_process_reaches_every_wrapped_layer(tmp_path):
    commands = [
        ["tradeoff", "--n", "8", "--sizes", "60", "--test-size", "64", "--out", "t.csv"],
        ["certify-beta", "--n", "6", "--out", "t.cert"],
    ]
    (tmp_path / "commands.json").write_text(json.dumps(commands))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, str(ROOT / "bench" / "tracer.py"), "commands.json", "trace.json"],
                   cwd=tmp_path, env=env, check=True, timeout=120)
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert [c["exit"] for c in trace["commands"]] == [0, 0]
    metrics = tracer.layer_metrics(trace)
    for name in ["core.vectors_drawn", "core.sample_items", "realizations.route_calls", "learners.h3_fits",
                 "learners.eg_fits", "learners.eg_steps", "learners.eg_svds", "learners.discarded_predictions",
                 "predictors.predictions", "decompmat.dykstra_runs", "decompmat.eigh_calls", "decompmat.cert_bytes"]:
        assert metrics[name] > 0, name


# ---------------------------------------------------------------------------
# tradeoff

TRADEOFF_CSV = """algo,n,m,trial,train_err,test_err,wall_ms
table,24,2880,0,0,0.41162109375,1.053
h3,24,2880,0,0,0.277099609375,346.866
table,24,11520,0,0,0.255126953125,4.822
h3,24,11520,0,0,0.020263671875,995.095
table,24,138760,0,0,0.000244140625,53.527
h3,24,138760,0,0,0,3927.592
"""


def tradeoff_problems(text: str) -> list[str]:
    return checks.check_tradeoff(text, algos=["table", "h3"], sizes=[2880, 11520, 138760], trials=1,
                                 test_size=4096, gap_size=11520, gap=Fraction(1, 10),
                                 table_bar_size=138760, table_bar=Fraction(1, 20))


def test_tradeoff_accepts_a_real_csv():
    assert tradeoff_problems(TRADEOFF_CSV) == []


@pytest.mark.parametrize("corrupt", [
    lambda t: "\n".join(t.splitlines()[:3] + t.splitlines()[4:]) + "\n",  # a dropped row
    lambda t: t.replace("0.255126953125", "0.2551269531"),  # not k/4096
    lambda t: t.replace("table,24,11520,0,0,", "table,24,11520,0,0.000173611111111,"),  # table misfits
    lambda t: t.replace("0.255126953125", "0.1201171875"),  # no gap at m = 11520
    lambda t: t.replace("0.000244140625", "0.06982421875"),  # table not converged
])
def test_tradeoff_rejects_corrupted_csv(corrupt):
    assert tradeoff_problems(corrupt(TRADEOFF_CSV))


def test_count_of_reads_only_exact_fractions():
    assert checks.count_of("0.000173611111111", 11520) == 2
    assert checks.count_of("0.00017361111111", 11520) is None
    assert checks.count_of("nan", 11520) is None


# ---------------------------------------------------------------------------
# learn-eval

@pytest.fixture(scope="module")
def learn_eval(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("learn-eval")
    return LearnEval(7, workdir), workdir


def eval_line(err: Fraction) -> str:
    return f"err {checks.fmt12(err)} {err.numerator}/{err.denominator}\n"


def test_table_error_computed_apart_matches_the_program(learn_eval):
    workload, workdir = learn_eval
    table = table_majority_learn(parse_sample((workdir / "train.sample").read_text()))
    test = parse_sample((workdir / "test.sample").read_text())
    assert empirical_error(table, test) == workload.table_test
    op = next(op for op in workload.ops if op.name == "eval table test")
    assert op.check(eval_line(workload.table_test)) == []


@pytest.mark.parametrize("off_by", [-1, 1])
def test_table_error_off_by_one_example_is_rejected(learn_eval, off_by):
    workload, _ = learn_eval
    op = next(op for op in workload.ops if op.name == "eval table test")
    wrong = workload.table_test + Fraction(off_by, LearnEval.TEST)
    assert op.check(eval_line(wrong))


def test_h3_without_the_gap_is_rejected(learn_eval):
    workload, _ = learn_eval
    op = next(op for op in workload.ops if op.name == "eval h3 test")
    assert op.check(eval_line(workload.table_test - Fraction(1, 20)))
    assert op.check(eval_line(workload.table_test - Fraction(1, 5))) == []


# ---------------------------------------------------------------------------
# refute

def test_bit_sliced_enumeration_matches_formula_value():
    for seed, mode in [(1, "uniform"), (2, "uniform"), (3, "planted")]:
        psi = BinaryAssignment((1, -1) * 6) if mode == "planted" else None
        phi = sample_formula(FormulaSourceConfig(12, 60, mode=mode, psi=psi, seed=seed), FormulaKind.MAJ)
        n, variables, signs = checks.parse_maj3(serialize_formula(phi))
        value, witness = formula_value(phi)
        assert Fraction(checks.max_satisfied_majority(n, variables, signs), 60) == value
        bits = np.array(witness.bits)
        assert Fraction(checks.satisfied_majority(bits, variables, signs), 60) == value


@pytest.fixture
def refute(tmp_path):
    phi = sample_formula(FormulaSourceConfig(22, 176, seed=5), FormulaKind.MAJ)
    (tmp_path / "f.maj3").write_text(serialize_formula(phi))
    workload = Refute(5, tmp_path)
    n, variables, signs = checks.parse_maj3(serialize_formula(phi))
    return workload, checks.max_satisfied_majority(n, variables, signs)


def val_line(value: Fraction) -> str:
    return f"val {checks.fmt12(value)} {value.numerator}/{value.denominator}\n"


def test_val_is_checked_against_enumeration(refute):
    workload, best = refute
    assert workload.check_val(val_line(Fraction(best, 176))) == []
    assert workload.check_val(val_line(Fraction(best - 1, 176)))
    assert workload.check_val(val_line(Fraction(best + 1, 176)))


def test_erm_and_eval_must_agree_with_val(refute, tmp_path):
    workload, best = refute
    assert workload.check_val(val_line(Fraction(best, 176))) == []
    _, witness = formula_value(parse_formula((tmp_path / "f.maj3").read_text()))
    (tmp_path / "f.model").write_text(f"binary 22\n{' '.join(f'{b:+d}' for b in witness.bits)}\n")
    assert workload.check_erm("") == []
    assert workload.check_eval(eval_line(1 - Fraction(best, 176))) == []
    assert workload.check_eval(eval_line(1 - Fraction(best - 1, 176)))
    # negated weights satisfy exactly the clauses the witness does not
    (tmp_path / "f.model").write_text(f"binary 22\n{' '.join(f'{-b:+d}' for b in witness.bits)}\n")
    assert workload.check_erm("")


GAME_CSV = "mode,trial,n,delta,mu,fraction,err,verdict,wall_ms\n" + "".join(
    f"planted,{t},22,16,0,0.5,0,exceptional,900.0\n" for t in range(5)) + "".join(
    f"uniform,{t},22,16,0,0.5,{checks.fmt12(Fraction(k, 352))},typical,900.0\n"
    for t, k in enumerate([150, 155, 160, 145, 152]))


def game_problems(text: str) -> list[str]:
    return checks.check_game(text, trials=5, clauses=352, threshold=Fraction(3, 8),
                             planted_rate=0.75, uniform_mean=0.40)


@pytest.mark.parametrize("corrupt", [
    lambda t: "\n".join(t.splitlines()[:-1]) + "\n",  # a dropped row
    lambda t: t.replace("uniform,0,22,16,0,0.5,0.426136363636", "uniform,0,22,16,0,0.5,0.4261"),  # not k/352
    lambda t: t.replace(",0.426136363636,typical", ",0.426136363636,exceptional"),  # verdict against err
])
def test_game_rejects_corrupted_csv(corrupt):
    assert game_problems(GAME_CSV) == []
    assert game_problems(corrupt(GAME_CSV))


# ---------------------------------------------------------------------------
# certify

@pytest.fixture(scope="module")
def certificate():
    n = 16
    beta, dec = certify_min_beta(triangular_matrix(n))
    return n, serialize_decomposition(dec), f"beta_hat {checks.fmt12(beta)}\n"


def test_certificate_from_the_program_passes(certificate):
    n, text, stdout = certificate
    assert checks.check_certificate(text, stdout, n) == []


@pytest.mark.parametrize("row,col", [(0, 0), (3, 20), (31, 31)])
def test_certificate_entry_moved_by_1e6_is_rejected(certificate, row, col):
    n, text, stdout = certificate
    lines = text.splitlines()
    values = lines[3 + row].split()
    values[col] = repr(float(values[col]) + 1e-6)
    lines[3 + row] = " ".join(values)
    assert checks.check_certificate("\n".join(lines) + "\n", stdout, n)


def test_certificate_beta_must_match_the_printed_one(certificate):
    n, text, stdout = certificate
    assert checks.check_certificate(text, "beta_hat 1.5\n", n)
