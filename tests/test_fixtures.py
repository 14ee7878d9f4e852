"""The T_n certificate behind the row-threshold construction, and the committed tradeoff pilot.

T_n's certificate is computed, not committed: ``certify_min_beta`` gives it
in milliseconds, and ``row_threshold_decomposition`` takes it as its default
base.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from sparsehalf.decompmat import (
    certify_min_beta,
    row_threshold_decomposition,
    spectral_split,
    symmetrize,
    triangular_matrix,
    verify_decomposition,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("m", [9, 17, 33])
def test_cached_triangular_certificates_reverify(m):
    W = triangular_matrix(m)
    beta, dec = certify_min_beta(W)
    assert verify_decomposition(W, dec).ok
    assert dec.beta == beta
    assert beta <= spectral_split(symmetrize(W), shape=(m, m)).beta + 1e-9


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
