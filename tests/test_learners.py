"""Training procedures: majority table, matrix learner, partition glue, H2/H3."""

from collections import defaultdict
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy.linalg import expm

import oracles
from oracles import (
    Halfspace,
    SparseVector,
    cell_label,
    eval_halfspace,
    iter_part_c2,
    iter_sparse_vectors,
    model_text,
    predict,
    row_threshold_matrix,
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
from sparsehalf.errors import NumericError
from sparsehalf.learners import (
    LearnerConfig,
    learn_h2,
    learn_h3,
    make_learner,
    matrix_mw_learn,
    partition_learn,
    table_majority_learn,
)
from sparsehalf.rng import derive_seed, generator


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


def dense_eg_margins(C, tau):
    """Margins c (expm(S) - expm(-S))[:r, r:] and capped trace c tr(expm(S) + expm(-S)), S = sym(C).

    sym(C) is the symmetric (r + c) x (r + c) matrix with C above the diagonal
    blocks, and c = min(1, tau / tr(expm(S) + expm(-S))) rescales the PSD pair
    to the trace cap.
    """
    r, k = C.shape
    S = np.block([[np.zeros((r, r)), C], [C.T, np.zeros((k, k))]])
    P, N = expm(S), expm(-S)
    c = min(1.0, tau / np.trace(P + N))
    return c * (P - N)[:r, r:], c * np.trace(P + N), c


@pytest.mark.parametrize("shape,scale,beta,binds", [
    ((4, 4), 0.1, 4.0, False),
    ((3, 5), 0.3, 2.0, False),
    ((4, 4), 2.0, 0.5, True),  # beta < 1 puts the cap below the trace 2d of the zero iterate
    ((5, 3), 3.0, 4.0, True),
], ids=["free-square", "free-rectangular", "binds-square", "binds-rectangular"])
def test_eg_margins_match_dense_reference(shape, scale, beta, binds):
    C = scale * np.random.default_rng(sum(shape)).standard_normal(shape)
    d = sum(shape)
    tau = 2.0 * beta * d
    want, capped_trace, c = dense_eg_margins(C, tau)
    assert (c < 1.0) == binds
    assert capped_trace <= tau * (1 + 1e-12)
    assert np.allclose(learners._eg_margins(C, tau, d), want, rtol=1e-9, atol=1e-12)


class TestMatrixMwLearn:
    def test_realizable_row_threshold(self):
        rng = np.random.default_rng(0)
        t = [int(v) for v in rng.integers(0, 9, size=8)]
        W = row_threshold_matrix(t)
        cells = grid_cells(W.ravel(), 8)
        scores = matrix_mw_learn(cells, (8, 8), LearnerConfig(seed=1))
        assert all(cell_label(scores, r, c) == label for r, c, label in cells)

    def test_single_cell_repeated(self):
        scores = matrix_mw_learn([(2, 3, -1)] * 5, (4, 4), LearnerConfig(seed=0))
        assert cell_label(scores, 2, 3) == -1

    def test_adversarial_band_one_epoch(self):
        worst = 0.0
        for seed in range(10):
            rng = np.random.default_rng(seed + 100)
            labels = rng.integers(0, 2, 64) * 2 - 1
            cells = grid_cells(labels, 8)
            scores = matrix_mw_learn(cells, (8, 8), LearnerConfig(epochs=1, seed=seed))
            err = sum(cell_label(scores, r, c) != label for r, c, label in cells) / 64
            worst = max(worst, err)
        assert worst <= 0.5 + 0.15

    def test_every_iterate_is_rescaled_to_the_cap(self, monkeypatch):
        eg_margins, seen = learners._eg_margins, []

        def recorded(C, tau, d):
            margins = eg_margins(C, tau, d)
            seen.append((C.copy(), tau, margins))
            return margins

        monkeypatch.setattr(learners, "_eg_margins", recorded)
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, 64) * 2 - 1
        cells = grid_cells(labels, 8)
        cfg = LearnerConfig(seed=3, epochs=5, beta=0.5)  # small cap rescales often
        matrix_mw_learn(cells, (8, 8), cfg)
        assert len(seen) > 1 and {tau for _, tau, _ in seen} == {2 * 0.5 * 16}
        for C, tau, margins in seen[::8]:  # each iterate is the dense one rescaled to the cap; expm is slow
            want, capped_trace, _ = dense_eg_margins(C, tau)
            assert capped_trace <= tau * (1 + 1e-12)
            assert np.allclose(margins, want, rtol=1e-9, atol=1e-12)

    def test_deterministic_given_config(self):
        cells = [(1, 2, 1), (2, 1, -1), (1, 1, 1)]
        a = matrix_mw_learn(cells, (3, 3), LearnerConfig(seed=5))
        b = matrix_mw_learn(cells, (3, 3), LearnerConfig(seed=5))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("cells,dims,cfg", [
        (eg_case(0, (6, 6), 40), (6, 6), LearnerConfig(seed=1, epochs=1)),
        (eg_case(1, (6, 6), 40), (6, 6), LearnerConfig(seed=2, epochs=10)),
        (eg_case(2, (7, 7), 30, mirrored=True), (7, 7), LearnerConfig(seed=3, epochs=10)),
        (eg_case(3, (8, 8), 64), (8, 8), LearnerConfig(seed=4, epochs=5, beta=0.5)),  # the cap binds
        (eg_case(4, (5, 5), 20, mirrored=True), (5, 5), LearnerConfig(seed=5, epochs=3, eta=2000.0)),  # smax >= 600
        (eg_case(5, (5, 5), 1), (5, 5), LearnerConfig(seed=6, epochs=10)),  # a single cell
        (eg_case(6, (4, 9), 30), (4, 9), LearnerConfig(seed=7, epochs=4)),  # rectangular
        (eg_case(7, (2, 3), 90), (5, 6), LearnerConfig(seed=8, epochs=3)),  # blocks repeat cells; rows 3-5 unseen
    ], ids=["epochs1", "epochs10", "mirrored", "cap-binds", "large-eta", "single-cell", "rectangular", "repeats"])
    def test_matches_stepwise_reference(self, monkeypatch, cells, dims, cfg):
        eg_margins, iterates = learners._eg_margins, []

        def recorded(C, tau, d):
            iterates.append(C.copy())
            return eg_margins(C, tau, d)

        monkeypatch.setattr(learners, "_eg_margins", recorded)
        for batch in (1, 2, 64):
            cfg = replace(cfg, batch=batch)
            ref = oracles.matrix_mw_learn_stepwise([((r, c), l) for r, c, l in cells], dims, cfg)
            ref_iterates, iterates[:] = iterates[:], []
            got = matrix_mw_learn(np.array(cells), dims, cfg)
            got_iterates, iterates[:] = iterates[:], []
            # the same iterates, bit for bit; the averages differ in summation order only
            assert len(got_iterates) == len(ref_iterates) > 0, batch
            assert all(np.array_equal(a, b) for a, b in zip(got_iterates, ref_iterates)), batch
            assert np.allclose(got, ref, rtol=1e-9, atol=1e-12), batch
            sure = np.abs(ref) > 1e-9
            assert np.array_equal(np.sign(got[sure]), np.sign(ref[sure])), batch
            assert (got[ref == 0] == 0).all(), batch

    def test_a_block_applies_every_violation_from_its_start_margins(self):
        # one block holds the whole epoch, so all three steps see the zero iterate and all update
        cfg = LearnerConfig(seed=0, eta=4.0, epochs=1, batch=8)
        cells = [(1, 1, 1), (1, 1, 1), (2, 2, -1)]
        assert (matrix_mw_learn(cells, (2, 2), cfg) == 0).all()  # its one iterate is the zero one
        scores = matrix_mw_learn(cells, (2, 2), replace(cfg, epochs=2))
        C = np.array([[2 * 0.5 * cfg.eta, 0.0], [0.0, -0.5 * cfg.eta]])  # the repeated cell counts twice
        assert scores[0, 0] == pytest.approx(learners._eg_margins(C, 2 * 4.0 * 4, 4)[0, 0] / 2, rel=1e-12)
        assert scores[0, 1] == scores[1, 0] == 0.0  # no chain of training cells links them

    def test_a_clean_epoch_ends_the_fit(self, monkeypatch):
        # after epoch 1 both margins are +-2 sinh(1) > 1, so epoch 2 violates nothing and nothing can change again
        permutations = []

        class Counting:
            def __init__(self, seed):
                self.rng = generator(seed)

            def permutation(self, m):
                permutations.append(m)
                return self.rng.permutation(m)

        monkeypatch.setattr(learners, "generator", Counting)
        cells, cfg = [(1, 1, 1), (2, 2, -1)], LearnerConfig(seed=0, eta=2.0, epochs=10)
        got = matrix_mw_learn(cells, (2, 2), cfg)
        assert permutations == [2, 2]
        ref = oracles.matrix_mw_learn_stepwise([((r, c), l) for r, c, l in cells], (2, 2), cfg)
        assert np.allclose(got, ref, rtol=1e-12, atol=0)

    def test_non_finite_step_reports_epoch(self):
        stepwise = oracles.matrix_mw_learn_stepwise
        for n_cells, epochs, batch in product([1, 5], [2, 10], [1, 2, 64]):
            cells = [(1 + i % 2, 1 + i // 2 % 2, 1 - 2 * (i % 3 == 0)) for i in range(n_cells)]
            # finite settings whose steps overflow: LearnerConfig refuses nan and inf
            cfg = LearnerConfig(seed=0, eta=1e308, beta=1e308, epochs=epochs, batch=batch)
            with pytest.raises(NumericError) as ref:
                stepwise([((r, c), l) for r, c, l in cells], (2, 2), cfg)
            with pytest.raises(NumericError) as got:
                matrix_mw_learn(cells, (2, 2), cfg)
            assert "epoch" in str(got.value)
            assert str(got.value) == str(ref.value), (n_cells, epochs, batch)

    @pytest.mark.parametrize("batch", [1, 2, 64])
    def test_cells_across_components_score_exactly_zero(self, batch):
        # two interleaved components, so the SVD mixes them and leaves round-off; row 7 holds no training cell
        blocks = [((1, 3, 6), (2, 3, 5)), ((2, 4, 5), (1, 4, 6))]
        labels = iter(np.random.default_rng(4).choice([-1, 1], 18).tolist())
        cells = [(r, c, next(labels)) for rows, cols in blocks for r in rows for c in cols]
        inside = np.zeros((7, 6), dtype=bool)
        for rows, cols in blocks:
            inside[np.ix_([r - 1 for r in rows], [c - 1 for c in cols])] = True
        scores = matrix_mw_learn(cells, (7, 6), LearnerConfig(seed=0, epochs=3, batch=batch))
        assert (scores[~inside] == 0).all() and (scores[inside] != 0).all()

    def test_batch_must_be_positive(self):
        with pytest.raises(ValueError, match="batch must be >= 1"):
            LearnerConfig(batch=0)

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
                matrix_mw_learn(cells, (2, 2), LearnerConfig())
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
        target = BinaryAssignment(tuple(int(b) for b in rng.integers(0, 2, n) * 2 - 1))
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
            assert model_text(composite.children[part]) == model_text(alone)

    def test_deterministic_given_config(self):
        xs = sample_exact_sparse(7, 3, 80, 2)
        rng = np.random.default_rng(9)
        s = labeled(7, 3, xs, lambda x: int(rng.integers(0, 2)) * 2 - 1)
        a = model_text(learn_h3(s, LearnerConfig(seed=21)))
        b = model_text(learn_h3(s, LearnerConfig(seed=21)))
        assert a == b

    def test_rejects_four_sparse(self):
        s = sample_of(4, 8, [SparseVector(8, ((1, 1), (2, 1), (3, 1), (4, 1)))], [1])
        with pytest.raises(ValueError):
            learn_h3(s)

    def test_eg_fits_run_in_the_calling_process(self, monkeypatch):
        eg_margins, calls = learners._eg_margins, []

        def counted(C, tau, d):
            calls.append(d)
            return eg_margins(C, tau, d)

        monkeypatch.setattr(learners, "_eg_margins", counted)
        xs = sample_exact_sparse(8, 3, 400, 41)
        rng = np.random.default_rng(42)
        learn_h3(labeled(8, 3, xs, lambda x: int(rng.integers(0, 2)) * 2 - 1), LearnerConfig(seed=43))
        assert len(calls) > 0


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

    def test_erm_binary_is_the_erm_assignment(self):
        xs = sample_exact_sparse(6, 3, 30, 4)
        rng = np.random.default_rng(10)
        s = labeled(6, 3, xs, lambda x: int(rng.integers(0, 2)) * 2 - 1)
        assert make_learner("erm-binary", LearnerConfig())(s) == erm_binary_halfspace(s)[0]
