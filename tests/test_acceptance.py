"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; thresholds for the
tradeoff experiment were frozen from the pilot run recorded at
``tests/fixtures/pilot/tradeoff_pilot.csv``.
"""

import csv
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps

import oracles
from oracles import (
    Halfspace,
    all_ones_decomposition,
    count_sparse_vectors,
    delete_rowcol_decomposition,
    diagonal_decomposition,
    eval_halfspace,
    hypothesis_matrix,
    iter_all_clauses,
    iter_part_c2,
    row_threshold_decomposition,
    sample_of,
    tensor_decomposition,
    vectors,
)
from sparsehalf.cli import main as cli_main
from sparsehalf.core import (
    BinaryAssignment,
    Sample,
    assignment_from_index,
    empirical_error,
    erm_binary_halfspace,
    sample_exact_sparse,
)
from sparsehalf.decompmat import certify_min_beta, spectral_split, symmetrize, triangular_matrix, verify_decomposition
from sparsehalf.formulas import (
    Formula,
    FormulaKind,
    FormulaSourceConfig,
    formula_to_sample,
    formula_value,
    sample_formula,
)
from sparsehalf.learners import LearnerConfig, learn_h2, partition_learn, table_majority_learn
from sparsehalf.predictors import BinaryHalfspacePredictor
from sparsehalf.realizations import realize_c2
from sparsehalf.refutation import GameConfig, RefuterConfig, refutation_game


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_01_correspondence():
    start = time.perf_counter()
    checks = failures = unlike_oracle = 0
    for n in (3, 4, 5, 6):
        clauses = list(iter_all_clauses(n))
        sample = formula_to_sample(Formula(n, FormulaKind.MAJ, clauses), n)
        plus_rows = sample.items * sample.y[:, None]  # each clause's example for coin +1
        unlike_oracle += sum(x != oracles.clause_to_example(clause, 1, n)[0]
                             for x, clause in zip(vectors(plus_rows, n), clauses))
        for index in range(2**n):
            psi = BinaryAssignment(assignment_from_index(index, n))
            hypothesis = BinaryHalfspacePredictor(psi)
            satisfied = np.array([oracles.eval_clause(FormulaKind.MAJ, clause, psi) for clause in clauses])
            for b in (1, -1):  # the coin-b example is b x the coin-(+1) example, labeled b
                right = hypothesis.predict_many(b * plus_rows, n) == b
                checks += len(clauses)
                failures += int(np.count_nonzero(right != satisfied))
    elapsed = time.perf_counter() - start
    report(1, "correspondence", failures == 0 and unlike_oracle == 0 and elapsed < 10,
           f"{checks} checks, {failures} failures, {unlike_oracle} examples unlike the per-clause oracle, "
           f"{elapsed:.1f}s")


def test_criterion_02_err_val_identity():
    start = time.perf_counter()
    mismatches = 0
    for formula_seed in range(50):
        phi = sample_formula(FormulaSourceConfig(10, 60, seed=formula_seed), FormulaKind.MAJ)
        value, _ = formula_value(phi)
        for sample_seed in (3 * formula_seed, 3 * formula_seed + 1, 3 * formula_seed + 2):
            sample = formula_to_sample(phi, sample_seed)
            _, err = erm_binary_halfspace(sample)
            if err != 1 - value:
                mismatches += 1
    elapsed = time.perf_counter() - start
    report(2, "err-val identity", mismatches == 0 and elapsed < 60,
           f"150 exact comparisons, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_03_label_balance():
    start = time.perf_counter()
    phi = sample_formula(FormulaSourceConfig(12, 5000, seed=33), FormulaKind.MAJ)
    draws = 20  # 20 coin draws x 5000 clause positions = 1e5 labeled examples
    plus_counts = np.zeros(phi.m, dtype=np.int64)
    for seed in range(draws):
        sample = formula_to_sample(phi, 1000 + seed)
        plus_counts += sample.y > 0
    statistic = float((((2 * plus_counts - draws) ** 2) / draws).sum())
    p_value = float(sps.chi2.sf(statistic, phi.m))
    elapsed = time.perf_counter() - start
    report(3, "label balance", p_value > 0.001 and elapsed < 60,
           f"chi2={statistic:.1f} df={phi.m} p={p_value:.4f}, {elapsed:.1f}s")


def test_criterion_04_refutation_game():
    start = time.perf_counter()
    # Density heuristic, not a probability bound (see refute): treating the
    # error on the unseen clauses as exactly 1/2, Hoeffding plus a union bound
    # over the 2^n assignments keeps the seen clauses from pulling the error
    # under theta only for delta > s ln2 / (2 (1/2 - theta)^2) ~= 8.7 here,
    # s = 1 - e^{-f} the seen clause share.  Delta = 16 is well above it and
    # delta = 8 below; the unseen clauses' binomial spread still gives a
    # wrong "exceptional" verdict in about 1-2 rounds per 100.
    game = GameConfig(n=16, delta=16, mu=0.0, trials=100, base_seed=0)
    refuter = RefuterConfig(fraction=0.5, threshold=0.375, learner="erm-binary")
    stats = refutation_game(game, refuter)
    planted_rate = stats.rate("planted", "exceptional")
    typical_rate = stats.rate("uniform", "typical")
    mean_err = stats.mean_error("uniform")
    elapsed = time.perf_counter() - start
    ok = planted_rate >= 0.75 and typical_rate >= 0.95 and mean_err >= 0.40 and elapsed < 600
    report(4, "refutation game", ok,
           f"delta {game.delta:g}, "
           f"planted exceptional {planted_rate:.2f} (>=0.75), "
           f"uniform typical {typical_rate:.2f} (>=0.95), "
           f"uniform mean err {mean_err:.4f} (>=0.40), {elapsed:.0f}s")


def test_criterion_05_memorization_control():
    start = time.perf_counter()
    game = GameConfig(n=16, delta=8, mu=0.0, trials=100, modes=("uniform",), base_seed=5)
    stats = refutation_game(game, RefuterConfig(fraction=1.0, learner="table"))
    count = sum(1 for row in stats.rows if row.verdict == "exceptional")
    elapsed = time.perf_counter() - start
    report(5, "memorization control", count >= 95 and elapsed < 120,
           f"exceptional on {count}/100 uniform formulas, {elapsed:.0f}s")


def test_criterion_06_decomposition_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    cases = 200
    bad = defaultdict(int)

    for _ in range(cases):
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        W = rng.integers(0, 2, (rows, cols)) * 2 - 1
        base = spectral_split(symmetrize(W))
        A = rng.standard_normal((int(rng.integers(1, 4)), 1))
        A = A @ A.T + np.diag(rng.random(A.shape[0]))
        dec = tensor_decomposition(base, A)
        if not verify_decomposition(np.kron(W, A), dec).ok:
            bad["tensor"] += 1

    for _ in range(cases):
        rows, cols = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        W = rng.integers(0, 2, (rows, cols)) * 2 - 1
        dec = spectral_split(symmetrize(W))
        if rng.random() < 0.5 and rows > 1:
            which = int(rng.integers(1, rows + 1))
            dec, W = delete_rowcol_decomposition(dec, rows, row=which), np.delete(W, which - 1, axis=0)
        else:
            which = int(rng.integers(1, cols + 1))
            dec, W = delete_rowcol_decomposition(dec, rows, col=which), np.delete(W, which - 1, axis=1)
        if not verify_decomposition(W, dec).ok:
            bad["minor"] += 1

    for _ in range(cases):
        n = int(rng.integers(1, 33))
        thresholds = [int(v) for v in rng.integers(0, n + 1, size=n)]
        W, dec = row_threshold_decomposition(thresholds)
        if not verify_decomposition(W, dec).ok:
            bad["row-threshold"] += 1

    for _ in range(cases):
        n = int(rng.integers(1, 33))
        D = np.diag(rng.standard_normal(n) * 3)
        if not verify_decomposition(D, diagonal_decomposition(D)).ok:
            bad["diagonal"] += 1

    for _ in range(cases):
        n = int(rng.integers(1, 33))
        if not verify_decomposition(np.ones((n, n)), all_ones_decomposition(n)).ok:
            bad["all-ones"] += 1

    elapsed = time.perf_counter() - start
    report(6, "decomposition suite", not bad and elapsed < 300,
           f"{cases} cases per constructor, failures={dict(bad) or 0}, {elapsed:.0f}s")


def test_criterion_07_triangular_growth():
    start = time.perf_counter()
    betas = {}
    slack = {}
    for n in (4, 8, 16, 32, 64):
        W = triangular_matrix(n)
        beta, _ = certify_min_beta(W)
        betas[n] = beta
        slack[n] = spectral_split(symmetrize(W)).beta + 1e-6 - beta
    pairs = list(zip((4, 8, 16, 32), (8, 16, 32, 64)))
    monotone = all(betas[a] <= betas[b] for a, b in pairs)
    ratio = betas[64] / betas[8]
    within_spectral = all(v >= 0 for v in slack.values())
    elapsed = time.perf_counter() - start
    ok = monotone and ratio <= 3 and within_spectral and elapsed < 600
    report(7, "triangular growth", ok,
           f"betas={[round(betas[n], 4) for n in (4, 8, 16, 32, 64)]}, "
           f"ratio64/8={ratio:.3f} (<=3), within spectral bound: {within_spectral}, {elapsed:.0f}s")


def test_criterion_08_realization_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    n = 16
    failures = 0
    for _ in range(100):
        h = Halfspace(rng.standard_normal(n), float(rng.standard_normal()))
        for r in (-2, -1, 0, 1, 2):
            W = hypothesis_matrix(h, r, n)
            xs = list(iter_part_c2(r, n))
            rows, cols = realize_c2(sample_of(2, n, xs, [1] * len(xs)).items)  # the library's cells
            for row, col, x in zip(rows.tolist(), cols.tolist(), xs):
                if W[row - 1, col - 1] != eval_halfspace(h, x):
                    failures += 1
    elapsed = time.perf_counter() - start
    report(8, "realization suite", failures == 0 and elapsed < 60,
           f"100 halfspaces x all parts at n={n}, {failures} failures, {elapsed:.0f}s")


def test_criterion_09_partition_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    mismatches = 0
    for seed in range(50):
        n = int(rng.integers(6, 12))
        xs = sample_exact_sparse(n, 3, int(rng.integers(20, 120)), seed)
        sample = Sample(3, n, xs, [int(rng.integers(0, 2)) * 2 - 1 for _ in xs])
        composite = partition_learn(sample, "c3", lambda part, sub: table_majority_learn(sub))
        total = empirical_error(composite, sample)
        slices = defaultdict(lambda: ([], []))
        for x, y in zip(vectors(sample.items, n), sample.y.tolist()):
            part, child_x = oracles.route("c3", x)
            slices[part][0].append(child_x)
            slices[part][1].append(y)
        recombined = sum(
            (Fraction(len(part_ys), len(sample)) * empirical_error(composite.children[part], sample_of(2, n, part_xs, part_ys))
             for part, (part_xs, part_ys) in slices.items()),
            Fraction(0),
        )
        if total != recombined:
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(9, "partition identity", mismatches == 0 and elapsed < 30,
           f"50 samples, {mismatches} mismatches, {elapsed:.0f}s")


def test_criterion_10_realizable_learning():
    start = time.perf_counter()
    n = 16
    rng = np.random.default_rng(10)
    worst = {r: Fraction(0) for r in (-2, -1, 0, 1, 2)}
    for trial in range(3):
        h = Halfspace(rng.standard_normal(n), float(rng.standard_normal() * 0.5))
        parts = {r: list(iter_part_c2(r, n)) for r in (-2, -1, 0, 1, 2)}
        xs = [x for r in parts for x in parts[r]]
        sample = sample_of(2, n, xs, [eval_halfspace(h, x) for x in xs])
        pred = learn_h2(sample, LearnerConfig(seed=trial))
        for r, part_xs in parts.items():
            part_sample = sample_of(2, n, part_xs, [eval_halfspace(h, x) for x in part_xs])
            err = empirical_error(pred, part_sample)
            worst[r] = max(worst[r], err)
    diag_ok = worst[1] == 0 and worst[-1] == 0
    matrix_ok = all(float(worst[r]) <= 0.05 for r in (-2, 0, 2))
    elapsed = time.perf_counter() - start
    report(10, "realizable learning", diag_ok and matrix_ok and elapsed < 300,
           f"worst per-part errors r=-2..2: {[float(worst[r]) for r in (-2, -1, 0, 1, 2)]}, {elapsed:.0f}s")


def test_criterion_11_tradeoff_crossover(tmp_path):
    start = time.perf_counter()
    n = 24
    instance_count = count_sparse_vectors(n, 3)
    m_gap = 4 * n * n * 5  # 4 n^2 ceil(log2 n)
    m_table = 8 * instance_count
    sizes = f"{n},2880,{m_gap},{m_table},{2 * m_table}"
    out = tmp_path / "tradeoff.csv"
    code = cli_main([
        "tradeoff", "--n", str(n), "--algos", "table,h3", "--sizes", sizes,
        "--trials", "10", "--seed", "2024", "--test-size", "4096", "--out", str(out),
    ])
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    by = defaultdict(dict)
    for row in rows:
        by[(int(row["m"]), int(row["trial"]))][row["algo"]] = float(row["test_err"])
    gap_wins = sum(
        1 for trial in range(10)
        if by[(m_gap, trial)]["table"] - by[(m_gap, trial)]["h3"] >= 0.10
    )
    table_errs = [by[(m_table, trial)]["table"] for trial in range(10)]
    elapsed = time.perf_counter() - start
    ok = gap_wins >= 8 and max(table_errs) <= 0.05 and elapsed < 1800
    report(11, "tradeoff crossover", ok,
           f"h3 beats table by >=0.10 at m={m_gap} in {gap_wins}/10 trials; "
           f"table max test err at m={m_table}: {max(table_errs):.4f} (<=0.05), {elapsed:.0f}s")


def test_criterion_12_determinism(tmp_path):
    start = time.perf_counter()

    def run_twice(args, out_name, timing_column):
        texts = []
        for tag in ("a", "b"):
            out = tmp_path / f"{out_name}.{tag}"
            assert cli_main(args + ["--out", str(out)]) == 0
            lines = out.read_text(encoding="ascii").splitlines()
            if timing_column:
                lines = [",".join(line.split(",")[:-1]) for line in lines]
            texts.append("\n".join(lines))
        return texts[0] == texts[1]

    results = {
        "gen-formula": run_twice(
            ["gen-formula", "--kind", "3maj", "--n", "10", "--clauses", "40", "--seed", "7"],
            "formula", timing_column=False),
        "game": run_twice(
            ["game", "--n", "10", "--delta", "4", "--trials", "4", "--seed", "7"],
            "game", timing_column=True),
        "tradeoff": run_twice(
            ["tradeoff", "--n", "8", "--algos", "table,h3", "--sizes", "0,64",
             "--trials", "2", "--seed", "7", "--test-size", "256"],
            "tradeoff", timing_column=True),
    }
    # formula files also re-serialize and convert identically
    sample_match = run_twice(
        ["to-sample", "--in", str(tmp_path / "formula.a"), "--seed", "3"],
        "sample", timing_column=False)
    results["to-sample"] = sample_match
    elapsed = time.perf_counter() - start
    report(12, "determinism", all(results.values()) and elapsed < 120,
           f"byte-identical reruns (timing columns excluded): {results}, {elapsed:.0f}s")
