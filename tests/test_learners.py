"""Training procedures: majority table, matrix learner, partition glue, H2/H3."""

from collections import defaultdict
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import (
    Halfspace,
    SparseVector,
    cell_label,
    eval_halfspace,
    iter_part_c2,
    iter_sparse_vectors,
    predict,
    sample_of,
    vectors,
)
from sparsehalf import learners
from sparsehalf.core import (
    BinaryAssignment,
    Sample,
    empirical_error,
    erm_binary_halfspace,
    sample_exact_sparse,
)
from sparsehalf.decompmat import row_threshold_matrix
from sparsehalf.errors import GuardError, NumericError
from sparsehalf.learners import (
    H2_N_LIMIT,
    H3_N_LIMIT,
    MATRIX_BYTE_BUDGET,
    LearnerConfig,
    learn_h2,
    learn_h3,
    make_learner,
    matrix_mw_learn,
    partition_learn,
    table_majority_learn,
)
from sparsehalf.predictors import BinaryHalfspacePredictor, serialize_predictor
from sparsehalf.rng import derive_seed


def sv(n, *pairs):
    return oracles.from_pairs(n, pairs)


def labeled(n, k, xs, label_fn):
    """Sample of instances xs (vectors or signed-index rows) labeled by label_fn, called in order."""
    xs = vectors(xs, n) if isinstance(xs, np.ndarray) else list(xs)
    return sample_of(k, n, xs, [label_fn(x) for x in xs])


class TestTableMajority:
    def test_majority_vote(self):
        x = sv(4, (1, 1))
        s = sample_of(3, 4, [x, x, x], [1, 1, -1])
        assert predict(table_majority_learn(s), x) == 1

    def test_unseen_defaults_to_plus_one(self):
        s = sample_of(3, 4, [sv(4, (1, 1))], [-1])
        assert predict(table_majority_learn(s), sv(4, (2, 1))) == 1

    def test_exact_tie_goes_to_plus_one(self):
        x = sv(4, (2, -1))
        s = sample_of(3, 4, [x] * 4, [1, -1, 1, -1])
        assert predict(table_majority_learn(s), x) == 1

    def test_empty_sample_is_constant_plus_one(self):
        pred = table_majority_learn(Sample(3, 4, (), ()))
        assert predict(pred, sv(4, (1, -1))) == 1

    def test_is_distinct_instance_optimum(self):
        # no predictor beats per-instance majority on the training set
        rng = np.random.default_rng(0)
        xs = sample_exact_sparse(6, 3, 50, 3)
        s = labeled(6, 3, xs, lambda x: int(rng.integers(0, 2)) * 2 - 1)
        table_err = empirical_error(table_majority_learn(s), s)
        psi, erm_err = erm_binary_halfspace(s)
        assert table_err <= erm_err


def grid_cells(labels, n):
    """(row, col, label) for every cell of an n x n matrix, labels in row-major order."""
    return [(i + 1, j + 1, int(labels[i * n + j])) for i in range(n) for j in range(n)]


def eg_case(seed, dims, m, mirrored=False):
    """m random (row, col, label) cells, a quarter of them repeated; if mirrored each is followed by its mirror."""
    rng = np.random.default_rng(seed)
    cells = [(int(r), int(c), int(l)) for r, c, l in
             zip(rng.integers(1, dims[0] + 1, m), rng.integers(1, dims[1] + 1, m), rng.choice([-1, 1], m))]
    cells += cells[: m // 4]  # repeated examples
    if mirrored:
        cells = [cell for r, c, l in cells for cell in ((r, c, l), (c, r, l))]
    return cells


class TestMatrixMwLearn:
    def test_realizable_row_threshold(self):
        rng = np.random.default_rng(0)
        t = [int(v) for v in rng.integers(0, 9, size=8)]
        W = row_threshold_matrix(t)
        cells = grid_cells(W.ravel(), 8)
        pred = matrix_mw_learn(cells, (8, 8), LearnerConfig(seed=1), 0)
        assert all(cell_label(pred, r, c) == label for r, c, label in cells)

    def test_single_cell_repeated(self):
        pred = matrix_mw_learn([(2, 3, -1)] * 5, (4, 4), LearnerConfig(seed=0), 0)
        assert cell_label(pred, 2, 3) == -1

    def test_adversarial_band_one_epoch(self):
        worst = 0.0
        for seed in range(10):
            rng = np.random.default_rng(seed + 100)
            labels = rng.integers(0, 2, 64) * 2 - 1
            cells = grid_cells(labels, 8)
            pred = matrix_mw_learn(cells, (8, 8), LearnerConfig(epochs=1, seed=seed), 0)
            err = sum(cell_label(pred, r, c) != label for r, c, label in cells) / 64
            worst = max(worst, err)
        assert worst <= 0.5 + 0.15

    def test_trace_cap_respected(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, 64) * 2 - 1
        cells = grid_cells(labels, 8)
        cfg = LearnerConfig(seed=3, epochs=5, beta=0.5)  # small cap rescales often
        pred = matrix_mw_learn(cells, (8, 8), cfg, 0)
        assert pred.trace_cap == pytest.approx(2 * 0.5 * 16)
        assert pred.max_trace <= pred.trace_cap + 1e-6

    def test_deterministic_given_config(self):
        cells = [(1, 2, 1), (2, 1, -1), (1, 1, 1)]
        a = matrix_mw_learn(cells, (3, 3), LearnerConfig(seed=5), 0)
        b = matrix_mw_learn(cells, (3, 3), LearnerConfig(seed=5), 0)
        assert np.array_equal(a.scores, b.scores)

    @pytest.mark.parametrize("cells,dims,cfg", [
        (eg_case(0, (6, 6), 40), (6, 6), LearnerConfig(seed=1, epochs=1)),
        (eg_case(1, (6, 6), 40), (6, 6), LearnerConfig(seed=2, epochs=10)),
        (eg_case(2, (7, 7), 30, mirrored=True), (7, 7), LearnerConfig(seed=3, epochs=10)),
        (eg_case(3, (8, 8), 64), (8, 8), LearnerConfig(seed=4, epochs=5, beta=0.5)),  # the cap binds
        (eg_case(4, (5, 5), 20, mirrored=True), (5, 5), LearnerConfig(seed=5, epochs=3, eta=2000.0)),  # smax >= 600
        (eg_case(5, (5, 5), 1), (5, 5), LearnerConfig(seed=6, epochs=10)),  # a single cell
        (eg_case(6, (4, 9), 30), (4, 9), LearnerConfig(seed=7, epochs=4)),  # rectangular
    ], ids=["epochs1", "epochs10", "mirrored", "cap-binds", "large-eta", "single-cell", "rectangular"])
    def test_matches_stepwise_reference(self, monkeypatch, cells, dims, cfg):
        margins_calls = oracles.count_calls(monkeypatch, learners, "_eg_margins")
        ref = oracles.matrix_mw_learn_stepwise([((r, c), l) for r, c, l in cells], dims, cfg)
        ref_calls, margins_calls[0] = margins_calls[0], 0
        got = matrix_mw_learn(np.array(cells), dims, cfg, 0)
        assert margins_calls[0] == ref_calls > 0
        assert np.allclose(got.scores, ref.scores, rtol=1e-9, atol=1e-12)
        sure = np.abs(ref.scores) > 1e-9
        assert np.array_equal(np.sign(got.scores[sure]), np.sign(ref.scores[sure]))
        assert (got.max_trace, got.trace_cap) == (ref.max_trace, ref.trace_cap)

    def test_non_finite_step_reports_epoch(self):
        stepwise = oracles.matrix_mw_learn_stepwise
        for n_cells, epochs in [(1, 10), (1, 2), (5, 2), (5, 10)]:
            cells = [(1 + i % 2, 1 + i // 2 % 2, 1 - 2 * (i % 3 == 0)) for i in range(n_cells)]
            # finite settings whose steps overflow: LearnerConfig refuses nan and inf
            cfg = LearnerConfig(seed=0, eta=1e308, beta=1e308, epochs=epochs)
            with pytest.raises(NumericError) as ref:
                stepwise([((r, c), l) for r, c, l in cells], (2, 2), cfg)
            with pytest.raises(NumericError) as got:
                matrix_mw_learn(cells, (2, 2), cfg, 0)
            assert "epoch" in str(got.value)
            assert str(got.value) == str(ref.value), (n_cells, epochs)

    def test_cell_bounds(self):
        for cells, message in [
            ([(3, 1, 1)], "cell (3, 1) outside 2x2"),
            ([(1, 1, 1), (2, 0, -1), (1, 1, 2)], "cell (2, 0) outside 2x2"),
            ([(1, 1, 1), (1, 2, 0), (5, 5, 1)], "cell label must be +-1: got 0"),
            ([(2, 2, -3)], "cell label must be +-1: got -3"),
        ]:
            with pytest.raises(ValueError) as ref:
                oracles.matrix_mw_learn_stepwise([((r, c), l) for r, c, l in cells], (2, 2), LearnerConfig())
            with pytest.raises(ValueError) as got:
                matrix_mw_learn(cells, (2, 2), LearnerConfig(), 0)
            assert str(got.value) == str(ref.value) == message


def routed_slices(sample, kind):
    """Per-part routed samples, in sample order, computed apart from the learner."""
    slices = defaultdict(lambda: ([], []))
    for x, y in zip(vectors(sample.items, sample.n), sample.y.tolist()):
        part, child_x = oracles.route(kind, x)
        slices[part][0].append(child_x)
        slices[part][1].append(y)
    return {part: sample_of(2, sample.n, xs, ys) for part, (xs, ys) in slices.items()}


def majority_per_part(part, sub):
    return table_majority_learn(sub)


class TestPartitionLearn:
    def test_report_sums(self):
        # every example lands in exactly one trained part
        xs = [x for x in iter_sparse_vectors(7, 2)]
        rng = np.random.default_rng(5)
        s = labeled(7, 2, xs, lambda x: int(rng.integers(0, 2)) * 2 - 1)
        sizes = {}

        def train(part, sub):
            sizes[part] = len(sub)
            return table_majority_learn(sub)

        composite = partition_learn(s, "c2", train)
        assert sum(sizes.values()) == len(s)
        assert set(composite.children) == set(sizes) == {r + 2 for r in (-2, -1, 0, 1, 2)}

    def test_parts_trained_in_sort_order_on_ordered_slices(self):
        xs = sample_exact_sparse(8, 3, 60, 3)
        rng = np.random.default_rng(3)
        s = labeled(8, 3, xs, lambda x: int(rng.integers(0, 2)) * 2 - 1)
        calls = []

        def train(part, sub):
            calls.append((part, sub))
            return table_majority_learn(sub)

        partition_learn(s, "c3", train)
        expected = routed_slices(s, "c3")
        # parts (i, b) in order of i, then b = +1 before -1; the residual (0) last
        assert [part for part, _ in calls] == sorted(expected, key=lambda part: (part == 0, part))
        assert all(sub == expected[part] for part, sub in calls)

    def test_error_decomposition_identity(self):
        # composite training error equals the mass-weighted per-part errors
        rng = np.random.default_rng(6)
        for seed in range(10):
            xs = sample_exact_sparse(8, 3, 60, seed)
            s = labeled(8, 3, xs, lambda x: int(rng.integers(0, 2)) * 2 - 1)
            composite = partition_learn(
                s, "c3", lambda part, sub: learn_h2(sub, LearnerConfig(seed=seed, epochs=2))
            )
            total = empirical_error(composite, s)
            recombined = sum(
                Fraction(len(sub), len(s)) * empirical_error(composite.children[part], sub)
                for part, sub in routed_slices(s, "c3").items()
            )
            assert total == recombined

    def test_empty_sample(self):
        composite = partition_learn(Sample(2, 5, (), ()), "c2", majority_per_part)
        assert not composite.children
        assert predict(composite, sv(5, (1, 1))) == 1

    def test_unknown_partition(self):
        with pytest.raises(ValueError):
            partition_learn(sample_of(2, 5, [sv(5, (1, 1))], [1]), "c9", majority_per_part)


class TestLearnH2:
    def test_difference_part_fully_sampled_realizable(self):
        n = 8
        h = Halfspace(np.arange(n, 0, -1, dtype=float), 0.0)
        xs = list(iter_part_c2(0, n))
        s = labeled(n, 2, xs, lambda x: eval_halfspace(h, x))
        pred = learn_h2(s, LearnerConfig(seed=0))
        assert all(predict(pred, x) == eval_halfspace(h, x) for x in xs)

    def test_singleton_only_sample_reduces_to_majority(self):
        n = 6
        xs = [sv(n, (2, 1)), sv(n, (2, 1)), sv(n, (2, 1)), sv(n, (4, 1))]
        pred = learn_h2(sample_of(2, n, xs, [-1, -1, 1, 1]), LearnerConfig(seed=0))
        assert predict(pred, sv(n, (2, 1))) == -1
        assert predict(pred, sv(n, (4, 1))) == 1
        assert predict(pred, sv(n, (5, 1))) == 1  # unseen singleton

    def test_ranking_data_realizable(self):
        # pairwise-comparison data: h(i, j) = +1 iff rank(i) > rank(j),
        # which is the difference part of a homogeneous halfspace
        n = 8
        rng = np.random.default_rng(7)
        ranks = rng.permutation(n) + 1
        h = Halfspace(ranks.astype(float), 0.0)
        xs = [sv(n, (i, 1), (j, -1)) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        s = labeled(n, 2, xs, lambda x: eval_halfspace(h, x))
        pred = learn_h2(s, LearnerConfig(seed=2))
        assert all(predict(pred, x) == eval_halfspace(h, x) for x in xs)

    def test_rejects_three_sparse(self):
        s = sample_of(3, 6, [sv(6, (1, 1), (2, 1), (3, 1))], [1])
        with pytest.raises(ValueError):
            learn_h2(s)


class TestLearnH3:
    def test_empty_sample_is_constant_plus_one(self):
        pred = learn_h3(Sample(3, 6, (), ()))
        assert predict(pred, sv(6, (1, 1), (2, 1), (3, -1))) == 1

    def test_realizable_monte_carlo(self):
        n = 10
        rng = np.random.default_rng(8)
        target = BinaryHalfspacePredictor(
            BinaryAssignment(tuple(int(b) for b in rng.integers(0, 2, n) * 2 - 1))
        )
        train = labeled(n, 3, sample_exact_sparse(n, 3, 40 * n * n, 11), lambda x: predict(target, x))
        test = labeled(n, 3, sample_exact_sparse(n, 3, 2000, 12), lambda x: predict(target, x))
        pred = learn_h3(train, LearnerConfig(seed=13))
        assert float(empirical_error(pred, test)) <= 0.1

    def test_children_are_learn_h2_on_stripped_parts_with_derived_seeds(self):
        xs = sample_exact_sparse(7, 3, 120, 5)
        rng = np.random.default_rng(11)
        s = labeled(7, 3, xs, lambda x: int(rng.integers(0, 2)) * 2 - 1)
        cfg = LearnerConfig(seed=17, epochs=2)
        composite = learn_h3(s, cfg)
        slices = routed_slices(s, "c3")
        assert set(composite.children) == set(slices)
        for part, sub in slices.items():
            alone = learn_h2(sub, replace(cfg, seed=derive_seed(17, 3, part)))
            assert serialize_predictor(composite.children[part]) == serialize_predictor(alone)

    def test_deterministic_given_config(self):
        xs = sample_exact_sparse(7, 3, 80, 2)
        rng = np.random.default_rng(9)
        s = labeled(7, 3, xs, lambda x: int(rng.integers(0, 2)) * 2 - 1)
        a = serialize_predictor(learn_h3(s, LearnerConfig(seed=21)))
        b = serialize_predictor(learn_h3(s, LearnerConfig(seed=21)))
        assert a == b

    def test_rejects_four_sparse(self):
        s = sample_of(4, 8, [SparseVector(8, ((1, 1), (2, 1), (3, 1), (4, 1)))], [1])
        with pytest.raises(ValueError):
            learn_h3(s)


class TestMakeLearner:
    def test_names(self):
        cfg = LearnerConfig(seed=0)
        xs = sample_exact_sparse(6, 3, 30, 4)
        rng = np.random.default_rng(10)
        s = labeled(6, 3, xs, lambda x: int(rng.integers(0, 2)) * 2 - 1)
        for name in ("table", "h3", "erm-binary"):
            pred = make_learner(name, cfg)(s)
            assert predict(pred, vectors(s.items[:1], s.n)[0]) in (-1, 1)
        with pytest.raises(ValueError):
            make_learner("nope", cfg)


class TestMatrixSizeGuard:
    def test_limits_follow_the_byte_budget(self):
        assert 3 * 8 * H2_N_LIMIT**2 <= MATRIX_BYTE_BUDGET < 3 * 8 * (H2_N_LIMIT + 1) ** 2
        h3_bytes = lambda n: (2 * n - 3) * 3 * 8 * n * n  # noqa: E731
        assert h3_bytes(H3_N_LIMIT) <= MATRIX_BYTE_BUDGET < h3_bytes(H3_N_LIMIT + 1)

    @pytest.mark.parametrize("learn,limit", [(learn_h2, H2_N_LIMIT), (learn_h3, H3_N_LIMIT)])
    def test_guard_stops_above_the_limit_only(self, learn, limit):
        with pytest.raises(GuardError):
            learn(sample_of(2, limit + 1, [sv(limit + 1, (1, 1))], [1]))
        with pytest.raises(GuardError):
            make_learner("h2" if learn is learn_h2 else "h3", LearnerConfig())(Sample(2, limit + 1, (), ()))
        assert learn(Sample(2, limit, (), ())).children == {}
