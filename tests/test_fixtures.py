"""The T_n certificate behind the row-threshold construction, and the committed tradeoff pilot and sweeps.

T_n's certificate is computed, not committed: ``certify_min_beta`` gives it
in milliseconds, and the oracle ``row_threshold_decomposition`` (in
``tests/oracles.py``) takes it as its default base.  A committed sweep under
``results/`` must still rerun to its bytes, so one cell of one of its
commands is rerun here.
"""

import csv
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import row_threshold_decomposition
from sparsehalf.decompmat import certify_min_beta, spectral_split, symmetrize, triangular_matrix, verify_decomposition
from sparsehalf.learners import LearnerConfig

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parents[1]
LEARNER_PARAMS = ROOT / "results" / "learner_params"


@pytest.mark.parametrize("m", [9, 17, 33])
def test_cached_triangular_certificates_reverify(m):
    W = triangular_matrix(m)
    beta, dec = certify_min_beta(W)
    assert verify_decomposition(W, dec).ok
    assert dec.beta == beta
    assert beta <= spectral_split(symmetrize(W)).beta + 1e-9


@pytest.mark.parametrize("n", [8, 16, 32])
def test_cached_certificates_drive_row_threshold(n):
    base_beta, _ = certify_min_beta(triangular_matrix(n + 1))
    rng = np.random.default_rng(n)
    thresholds = [int(v) for v in rng.integers(0, n + 1, size=n)]
    W, dec = row_threshold_decomposition(thresholds)
    assert dec.beta == base_beta
    assert verify_decomposition(W, dec).ok


def test_pilot_record_supports_frozen_thresholds():
    # the committed pilot run behind the tradeoff acceptance thresholds
    with (FIXTURES / "pilot" / "tradeoff_pilot.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    by = {}
    for row in rows:
        by[(row["algo"], int(row["m"]), int(row["trial"]))] = float(row["test_err"])
    gap_wins = sum(
        1 for trial in range(10)
        if by[("table", 11520, trial)] - by[("h3", 11520, trial)] >= 0.10
    )
    assert gap_wins >= 8
    assert max(by[("table", 138760, t)] for t in range(10)) <= 0.05
    # the table learner's mean curve only improves with more data
    sizes = sorted({int(row["m"]) for row in rows})
    means = [
        sum(by[("table", m, t)] for t in range(10)) / 10
        for m in sizes
    ]
    assert all(a >= b for a, b in zip(means, means[1:]))


def test_learner_params_sweep_reruns_to_its_bytes(tmp_path):
    """The sweep's n = 16, p = 0, B = 1 command, cut to its m = 4 n^2 rows, rewrites them, wall_ms aside.

    These rows were rerun to the same bytes under the SkylakeX, Haswell and
    Prescott BLAS kernels; rows at B > 1 can move between kernels (see the
    README's "Determinism").
    """
    (line,) = [line for line in (LEARNER_PARAMS / "commands.sh").read_text().splitlines()
               if line.startswith("python ") and "--n 16 --batch 1 " in line]
    argv = shlex.split(line)
    committed = ROOT / argv[argv.index("--out") + 1]
    argv[argv.index("--out") + 1] = str(tmp_path / committed.name)
    env = os.environ | {"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, *argv[1:], "--ratios", "4"], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

    def rows(path):
        lines = [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]  # drop wall_ms
        return [line for line in lines[1:] if line.split(",")[1] == str(4 * 16 * 16)]

    assert rows(tmp_path / committed.name) == rows(committed) != []


def test_default_batch_is_the_largest_within_the_sweep_bar():
    with (LEARNER_PARAMS / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    within = {}
    for row in rows:
        within.setdefault(int(row["batch"]), []).append(row["within_bar"] == "True")
    default = LearnerConfig().batch
    assert all(within[default])
    assert all(not all(ok) for batch, ok in within.items() if batch > default)
