"""Vocabulary layer: instances, halfspaces, samples, exact error, binary ERM."""

import gc
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    FunctionPredictor,
    Halfspace,
    SparseVector,
    count_sparse_vectors,
    eval_halfspace,
    from_dense,
    from_pairs,
    iter_sparse_vectors,
    negate,
    sample_of,
    to_dense,
    vectors,
)
from sparsehalf import core
from sparsehalf.core import (
    BinaryAssignment,
    Sample,
    assignment_from_index,
    best_pattern,
    empirical_error,
    erm_binary_halfspace,
    parse_sample,
    sample_exact_sparse,
    serialize_sample,
)
from sparsehalf.errors import FormatError
from sparsehalf.formulas import FormulaKind, FormulaSourceConfig, formula_to_sample, formula_value, sample_formula


def sv(n, *pairs):
    return from_pairs(n, pairs)


class TestSparseVector:
    def test_invariants(self):
        x = sv(6, (2, 1), (3, -1), (6, -1))
        assert x.entries == ((2, 1), (3, -1), (6, -1))
        assert x.nnz == 3
        assert list(to_dense(x)) == [0, 1, -1, 0, 0, -1]

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            SparseVector(4, ((3, 1), (2, 1)))  # not increasing
        with pytest.raises(ValueError):
            SparseVector(4, ((5, 1),))  # out of range
        with pytest.raises(ValueError):
            SparseVector(4, ((2, 2),))  # not +-1
        with pytest.raises(ValueError):
            SparseVector(4, ((2, 1), (2, -1)))  # duplicate index

    def test_dense_round_trip(self):
        x = sv(5, (1, -1), (4, 1))
        assert from_dense(to_dense(x)) == x


class TestEvalHalfspace:
    def test_tie_break_is_plus_one(self):
        h = Halfspace(np.ones(4), 0.0)
        assert eval_halfspace(h, sv(4, (1, 1), (2, -1))) == 1

    def test_majority_weighted_instance(self):
        # all-ones weights on (0,1,-1,0,0,-1): 1 - 1 - 1 = -1
        h = Halfspace(np.ones(6), 0.0)
        assert eval_halfspace(h, sv(6, (2, 1), (3, -1), (6, -1))) == -1

    def test_bias(self):
        h = Halfspace(np.array([3.0, -1.0, 0.0, 0.0]), -1.0)
        assert eval_halfspace(h, sv(4, (1, 1))) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_halfspace(Halfspace(np.ones(3)), sv(4, (1, 1)))

    def test_three_sparse_margins_never_tie(self):
        # binary weights on exactly-3-sparse instances give odd inner products
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(3, 12))
            w = rng.integers(0, 2, n) * 2 - 1
            idx = rng.choice(n, 3, replace=False) + 1
            vals = rng.integers(0, 2, 3) * 2 - 1
            x = sv(n, *zip(idx.tolist(), vals.tolist()))
            total = sum(int(w[i - 1]) * v for i, v in x.entries)
            assert total in (-3, -1, 1, 3)

    @given(st.integers(3, 10), st.data())
    @settings(max_examples=100, deadline=None)
    def test_homogeneous_antisymmetry(self, n, data):
        w = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n)))
        size = data.draw(st.integers(1, 3))
        idx = sorted(data.draw(st.sets(st.integers(1, n), min_size=size, max_size=size)))
        vals = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=len(idx), max_size=len(idx)))
        x = sv(n, *zip(idx, vals))
        h = Halfspace(w, 0.0)
        total = sum(w[i - 1] * v for i, v in x.entries)
        if total != 0:
            assert eval_halfspace(h, negate(x)) == -eval_halfspace(h, x)


def constant(n, label):
    """The predictor that says ``label`` on every instance."""
    return FunctionPredictor(n, lambda x: label)


def coin_labels(rng, count):
    """One fair +-1 coin per example, drawn in example order."""
    return [int(rng.integers(0, 2)) * 2 - 1 for _ in range(count)]


class TestEmpiricalError:
    def test_trivial(self):
        x = sv(3, (1, 1))
        s = sample_of(3, 3, [x], [1])
        assert empirical_error(constant(3, 1), s) == 0

    def test_conflicting_labels(self):
        x = sv(3, (1, 1))
        s = sample_of(3, 3, [x, x], [1, -1])
        assert empirical_error(constant(3, 1), s) == Fraction(1, 2)
        assert empirical_error(constant(3, -1), s) == Fraction(1, 2)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            empirical_error(constant(3, 1), Sample(3, 3, (), ()))

    def test_matches_naive_recount(self):
        rng = np.random.default_rng(7)
        n = 9
        xs = vectors(sample_exact_sparse(n, 3, 64, 7), n)
        ys = coin_labels(rng, len(xs))
        s = sample_of(3, n, xs, ys)
        h = Halfspace(rng.standard_normal(n), float(rng.standard_normal()))
        # independent oracle: plain loop over dense vectors
        wrong = 0
        for x, y in zip(xs, ys):
            value = float(h.w @ to_dense(x)) + h.b
            pred = 1 if value >= 0 else -1
            if pred != y:
                wrong += 1
        got = empirical_error(FunctionPredictor(n, lambda x: eval_halfspace(h, x)), s)
        assert got == Fraction(wrong, len(xs))

    def test_error_times_size_is_integer(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            xs = sample_exact_sparse(8, 3, 31, seed)
            s = Sample(3, 8, xs, coin_labels(rng, len(xs)))
            err = empirical_error(constant(8, 1), s)
            assert (err * len(xs)).denominator == 1


class TestErmBinaryHalfspace:
    def test_single_example(self):
        s = sample_of(3, 2, [sv(2, (1, 1))], [1])
        psi, err = erm_binary_halfspace(s)
        assert err == 0
        assert psi.bits[0] == 1

    def test_planted_is_realizable(self):
        psi = BinaryAssignment((1, -1, 1, 1, -1, 1, -1, 1))
        phi = sample_formula(FormulaSourceConfig(8, 50, psi=psi, seed=4), FormulaKind.MAJ)
        sample = formula_to_sample(phi, 5)
        _, err = erm_binary_halfspace(sample)
        assert err == 0

    def test_empty_sample_gives_all_ones(self):
        psi, err = erm_binary_halfspace(Sample(3, 4, (), ()))
        assert psi.bits == (1, 1, 1, 1)
        assert err == 0

    def test_optimal_against_exhaustive_recount(self):
        # independent oracle: empirical error of every +-1 pattern via the scalar path
        rng = np.random.default_rng(11)
        n = 10
        xs = sample_exact_sparse(n, 3, 40, 21)
        s = Sample(3, n, xs, coin_labels(rng, len(xs)))
        best_psi, best_err = erm_binary_halfspace(s)
        first_minimizer = None
        for i in range(1 << n):
            psi = BinaryAssignment(assignment_from_index(i, n))
            h = Halfspace(np.array(psi.bits, dtype=float), 0.0)
            err = empirical_error(FunctionPredictor(n, lambda x: eval_halfspace(h, x)), s)
            assert best_err <= err
            if err == best_err and first_minimizer is None:
                first_minimizer = psi
        # tie-break: first pattern in lexicographic (+1 < -1) order wins
        assert best_psi == first_minimizer

    @pytest.mark.parametrize("seed", range(6))
    def test_result_predicts_the_error_it_reports(self, seed):
        """ERM's thresholds and ``predict_many`` each write sign(0) = +1; on rows with zero margins they agree."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        one = np.pad(sample_exact_sparse(n, 1, 10, seed + 100), ((0, 0), (0, 1)))
        xs = np.concatenate([sample_exact_sparse(n, 2, 30, seed), one, np.zeros((6, 2), dtype=np.int32)])
        sample = Sample(2, n, xs, coin_labels(rng, len(xs)))
        psi, err = erm_binary_halfspace(sample)
        assert empirical_error(psi, sample) == err
        margins = (np.array((0, *psi.bits))[np.abs(xs)] * np.sign(xs)).sum(axis=1)
        assert np.count_nonzero(margins[:30] == 0) > 0  # 2-sparse rows whose weights disagree, not only the zeros

    def test_error_equals_one_minus_value_on_per_clause_samples(self):
        for seed in range(10):
            phi = sample_formula(FormulaSourceConfig(10, 60, seed=seed), FormulaKind.MAJ)
            val, _ = formula_value(phi)
            sample = formula_to_sample(phi, seed + 100)
            _, err = erm_binary_halfspace(sample)
            assert err == 1 - val

    # recorded on the enumeration code before best_pattern replaced it:
    # (error, weights) for formula_to_sample(phi, seed) of the uniform MAJ
    # formula with n=20, m=160 and this seed (drawn by the per-clause
    # sampler), then for generic samples
    FROZEN_MAJ = {
        0: (Fraction(5, 16), "+++----+---++---++-+"),
        1: (Fraction(11, 32), "---+--+-------++++++"),
        2: (Fraction(53, 160), "+++++-+++--++---+--+"),
    }
    FROZEN_GENERIC = {
        0: (Fraction(7, 20), "++--++-++-++-+------"),
        1: (Fraction(29, 80), "-++-+-+-++--+--+--++"),
        2: (Fraction(7, 20), "+-+++-+--+-+++---+-+"),
    }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_frozen_regression_n20(self, seed):
        phi = oracles.sample_formula_stepwise(FormulaSourceConfig(20, 160, seed=seed), FormulaKind.MAJ)
        psi, err = erm_binary_halfspace(formula_to_sample(phi, seed))
        assert (err, bit_string(psi)) == self.FROZEN_MAJ[seed]

        rng = np.random.default_rng(seed)
        xs = sample_exact_sparse(20, 3, 160, seed)
        xs[::16] = 0  # every 16th instance is the zero vector
        psi, err = erm_binary_halfspace(Sample(3, 20, xs, coin_labels(rng, len(xs))))
        assert (err, bit_string(psi)) == self.FROZEN_GENERIC[seed]


def bit_string(psi):
    return "".join("+" if b > 0 else "-" for b in psi.bits)


#: the counts of 2^BUDGET_N patterns alone fill best_pattern's working set, so
#: from n = BUDGET_N on its leading patterns come in two tiles or more
BUDGET_N = core.WORK_CELLS.bit_length() - 1
#: at SPLIT_N, a working set of SPLIT_CELLS floats leaves rows with 1 to 16
#: keys tiles of 15 to 30 of the 64 leading patterns: those with w1 = +1 span
#: two tiles or more, and the first with w1 = -1 lies in a later tile
SPLIT_N, SPLIT_CELLS = 18, 1 << 17


def all_patterns(n):
    """Dense 2^n x n matrix of every +-1 pattern in assignment_from_index order, each column contiguous."""
    index = np.arange(1 << n, dtype=np.uint32)
    return np.where((index >> (n - 1 - np.arange(n, dtype=np.uint32))[:, None]) & 1, -1, 1).astype(np.int8).T


def dense_erm(sample):
    """(error, first minimizer) by scoring every pattern on every example."""
    patterns = all_patterns(sample.n)
    wrong = np.zeros(len(patterns), dtype=np.int64)
    for x, y in zip(vectors(sample.items, sample.n), sample.y.tolist()):
        margin = np.zeros(len(patterns), dtype=np.int64)
        for idx, val in x.entries:
            margin += patterns[:, idx - 1] * val
        wrong += np.where(margin >= 0, 1, -1) != y
    best = int(wrong.argmin())
    return Fraction(int(wrong[best]), len(sample)), BinaryAssignment(tuple(int(v) for v in patterns[best]))


def dense_value(phi):
    """(value, first maximizer) by counting agreeing literals under every pattern."""
    patterns = all_patterns(phi.n)
    needed = 1 if phi.kind is FormulaKind.CNF else 2
    satisfied = np.zeros(len(patterns), dtype=np.int64)
    for clause in phi.lits.tolist():
        agree = sum((patterns[:, abs(v) - 1] == np.sign(v)).astype(np.int64) for v in clause)
        satisfied += agree >= needed
    best = int(satisfied.argmax())
    return Fraction(int(satisfied[best]), phi.m), BinaryAssignment(tuple(int(v) for v in patterns[best]))


@st.composite
def tiling(draw):
    """Split and working-set sizes for best_pattern, from no trailing coordinates and one-pattern tiles up.

    64 and 1024 cells cut the trailing coordinates down until the trailing
    factor fits in half of them and give tiles of a few leading patterns;
    64 cells also build agreement counts one to four rows at a time.
    """
    return draw(st.integers(0, core.SPLIT_BITS)), draw(st.sampled_from((64, 1024, core.WORK_CELLS)))


@st.composite
def dense_checked_samples(draw):
    """n <= 12, any k <= n, up to 16 rows of any sparsity, and zero rows of either label."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, n))
    m = draw(st.integers(0, 16))
    items = np.zeros((m, k), dtype=np.int32)
    for row in range(m):
        index = sorted(draw(st.sets(st.integers(1, n), max_size=k)))
        items[row, :len(index)] = [i * draw(st.sampled_from((-1, 1))) for i in index]
    labels = draw(st.lists(st.sampled_from((-1, 1)), min_size=m, max_size=m))
    zeros = draw(st.lists(st.sampled_from((-1, 1)), max_size=3))  # +1 always right, -1 never
    items = np.concatenate([items, np.zeros((len(zeros), k), dtype=np.int32)])
    return Sample(k, n, items, labels + zeros)


class TestBestPatternAgainstDense:
    """(count, first index) of the meet-in-the-middle kernel against scoring every pattern densely."""

    @given(dense_checked_samples(), tiling())
    @settings(max_examples=150, deadline=None)
    def test_erm(self, sample, sizes):
        bits, cells = sizes
        with mock.patch.object(core, "SPLIT_BITS", bits), mock.patch.object(core, "WORK_CELLS", cells):
            found = erm_binary_halfspace(sample)
        if len(sample):
            assert found == tuple(reversed(dense_erm(sample)))

    @given(st.integers(3, 12), st.integers(1, 40), st.sampled_from(list(FormulaKind)), st.integers(0, 2**32),
           tiling())
    @settings(max_examples=100, deadline=None)
    def test_formula_value(self, n, m, kind, seed, sizes):
        phi = sample_formula(FormulaSourceConfig(n, m, seed=seed), kind)
        bits, cells = sizes
        with mock.patch.object(core, "SPLIT_BITS", bits), mock.patch.object(core, "WORK_CELLS", cells):
            assert formula_value(phi) == dense_value(phi)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_n_at_the_default_block(self, n):
        rng = np.random.default_rng(n)
        for k in range(n + 1):
            xs = np.zeros((12, k), dtype=np.int32)
            for row in range(len(xs)):
                index = np.sort(rng.choice(n, size=int(rng.integers(0, k + 1)), replace=False)) + 1
                xs[row, :len(index)] = index * rng.choice([-1, 1], size=len(index))
            sample = Sample(k, n, np.concatenate([xs, np.zeros((2, k), dtype=np.int32)]),
                            coin_labels(rng, len(xs)) + [1, -1])
            psi, err = erm_binary_halfspace(sample)
            assert (err, psi) == dense_erm(sample)


class TestEnumerationSplit:
    @pytest.fixture(autouse=True)
    def tiles(self):
        with mock.patch.object(core, "WORK_CELLS", SPLIT_CELLS):
            yield

    @pytest.mark.parametrize("kind", [FormulaKind.MAJ, FormulaKind.CNF])
    def test_formula_value(self, kind):
        for seed in (0, 1):
            phi = sample_formula(FormulaSourceConfig(SPLIT_N, 60, seed=seed), kind)
            assert formula_value(phi) == dense_value(phi)

    def test_erm_with_empty_vectors_of_both_labels(self):
        rng = np.random.default_rng(5)
        xs = np.concatenate([sample_exact_sparse(SPLIT_N, 3, 50, 6), np.zeros((6, 3), dtype=np.int32)])
        ys = coin_labels(rng, len(xs))
        assert set(ys[50:]) == {-1, 1}
        sample = Sample(3, SPLIT_N, xs, ys)
        psi, err = erm_binary_halfspace(sample)
        assert (err, psi) == dense_erm(sample)

    def test_first_index_wins_ties(self):
        n = SPLIT_N
        # w1 = -1, w2 = +1, wn = -1 are forced and one of the two x3 examples
        # is always wrong: 2^(n-3) optimal patterns, tied within a later tile and past it
        forced = sample_of(1, n, [sv(n, (1, 1)), sv(n, (2, -1)), sv(n, (n, 1)), sv(n, (3, 1)), sv(n, (3, 1))],
                           [-1, -1, -1, 1, -1])
        psi, err = erm_binary_halfspace(forced)
        assert (err, psi) == dense_erm(forced)
        assert (err, psi) == (Fraction(1, 5), BinaryAssignment(assignment_from_index((1 << (n - 1)) | 1, n)))
        # only trailing coordinates matter: every tile ties and the first tile's first wins
        trailing = sample_of(1, n, [sv(n, (n, 1)), sv(n, (n - 1, -1))], [-1, 1])
        psi, err = erm_binary_halfspace(trailing)
        assert (err, psi) == (Fraction(0), BinaryAssignment(assignment_from_index(3, n)))
        assert (err, psi) == dense_erm(trailing)

    def test_first_maximizer_in_a_later_block(self):
        n = SPLIT_N
        # w1 = -1 is forced and the x_n pair splits: the optimum 2/3 first holds in a later tile
        later = sample_of(1, n, [sv(n, (1, -1)), sv(n, (n, 1)), sv(n, (n, -1))], [1, 1, 1])
        psi, err = erm_binary_halfspace(later)
        assert (err, psi) == (Fraction(1, 3), BinaryAssignment(assignment_from_index(2 << (n - 2), n)))
        assert (err, psi) == dense_erm(later)

    def test_tie_across_blocks_goes_to_the_earlier_block(self):
        n = SPLIT_N
        # w1 = +1 is forced and the x_n pair splits: the first two tiles reach the
        # same count, and the second does not beat the first
        tie = sample_of(1, n, [sv(n, (1, 1)), sv(n, (n, 1)), sv(n, (n, -1))], [1, 1, 1])
        psi, err = erm_binary_halfspace(tie)
        assert (err, psi) == (Fraction(1, 3), BinaryAssignment((1,) * n))
        assert (err, psi) == dense_erm(tie)
        rows = np.zeros((3, n), dtype=np.int8)
        rows[[0, 1, 2], [0, n - 1, n - 1]] = [1, 1, -1]
        assert best_pattern(rows, np.zeros(3)) == (2, 0)

    @pytest.mark.parametrize("n", [6, SPLIT_N])
    def test_float64_counts_past_the_float32_limit(self, n):
        phi = sample_formula(FormulaSourceConfig(n, 40, seed=n), FormulaKind.MAJ)
        sample = formula_to_sample(phi, n)
        with (mock.patch.object(core, "FLOAT32_LIMIT", phi.m),
              mock.patch.object(core, "_factor", wraps=core._factor) as factor):
            assert formula_value(phi) == dense_value(phi)
            psi, err = erm_binary_halfspace(sample)
        assert (err, psi) == dense_erm(sample)
        assert {call.args[-1] for call in factor.call_args_list} == {np.float64}


class TestBestPatternMemory:
    @staticmethod
    def peak(n, k):
        """best_pattern's traced peak on 64 rows drawn for this n: a MAJ formula's for k = 3, else k-sparse."""
        if k == 3:
            phi = sample_formula(FormulaSourceConfig(n, 64, seed=n), FormulaKind.MAJ)
            rows = np.zeros((phi.m, n), dtype=np.int8)
            np.put_along_axis(rows, np.abs(phi.lits) - 1, np.sign(phi.lits), axis=1)
        else:
            items = sample_exact_sparse(n, k, 64, n)
            rows = np.zeros((64, n + 1), dtype=np.int8)
            np.put_along_axis(rows, np.abs(items), np.sign(items), axis=1)
            rows = rows[:, 1:]
        tracemalloc.start()
        try:
            best_pattern(rows, np.zeros(len(rows)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_leading_coordinates(self):
        """Two more leading coordinates give four times the tiles, of the same working set, not more memory."""
        assert self.peak(BUDGET_N + 2, 3) <= 1.1 * self.peak(BUDGET_N, 3)

    @pytest.mark.parametrize("k", [8, 12])
    def test_peak_does_not_grow_with_wider_rows(self, k):
        """Wider rows have more keys (58, 224 and 342 at k = 3, 8 and 12 here), and the same working set."""
        assert self.peak(BUDGET_N, k) <= 1.1 * self.peak(BUDGET_N, 3)


class TestInstanceSpace:
    def test_counts(self):
        assert count_sparse_vectors(24, 3) == 17345
        for n, k in ((4, 2), (6, 3)):
            assert sum(1 for _ in iter_sparse_vectors(n, k)) == count_sparse_vectors(n, k)

    def test_iter_unique(self):
        seen = set(x.entries for x in iter_sparse_vectors(5, 3))
        assert len(seen) == count_sparse_vectors(5, 3)

    def test_exact_sparse_sampler(self):
        xs = sample_exact_sparse(12, 3, 500, 9)
        assert xs.shape == (500, 3) and xs.dtype == np.int32
        assert (xs != 0).all()
        assert len(Sample(3, 12, xs, np.ones(500, dtype=np.int8))) == 500  # valid rows
        assert np.array_equal(sample_exact_sparse(12, 3, 500, 9), xs)  # deterministic
        assert sample_exact_sparse(12, 3, 0, 9).shape == (0, 3)


#: coordinates past WORK_CELLS / 16, where sample_exact_sparse draws one row of scores per block
WIDE_N = (core.WORK_CELLS >> 4) + 3


class TestBlockDraw:
    @pytest.mark.parametrize("n,k", [(24, 1), (24, 3), (24, 24), (100, 3), (WIDE_N, 1), (WIDE_N, 3), (WIDE_N, WIDE_N)])
    def test_same_bytes_as_the_one_shot_draw(self, n, k):
        """Counts on either side of one block's edge and past three blocks; above 2^16 coordinates a block is a row."""
        step = max(1, (core.WORK_CELLS >> 4) // n)  # rows per block
        for count in (0, step - 1, step, step + 1, 3 * step + 1):
            for seed in (0, 17):
                rows = sample_exact_sparse(n, k, count, seed)
                assert rows.dtype == np.int32 and rows.shape == (count, k)
                assert rows.tobytes() == oracles.sample_exact_sparse_oneshot(n, k, count, seed).tobytes()

    def test_peak_is_the_result_and_one_block(self):
        """The one-shot draw held 200 000 x 24 float64 scores and int64 indices (81 MiB); the result is 2.4 MB."""
        tracemalloc.start()
        try:
            sample_exact_sparse(24, 3, 200_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20


#: column values distinct_rows must key: the int32 extremes (each column then spans 2^32 values, so two columns
#: pass 2^62 and the key is re-ranked), and small signed indices
EDGE_VALUES = [-(2 ** 31), -(2 ** 31) + 1, -3, -1, 0, 1, 2, 2 ** 31 - 2, 2 ** 31 - 1]


class TestDistinctRows:
    @staticmethod
    def check(items):
        distinct, inverse = core.distinct_rows(items)
        void_distinct, void_inverse = oracles.distinct_rows_void(items)
        assert inverse.shape == (len(items),) and np.array_equal(distinct[inverse], items)
        assert len(distinct) == len(void_distinct)
        # the same partition of the rows: positions map one to one
        pairs = set(zip(inverse.tolist(), void_inverse.tolist()))
        assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 6), st.integers(0, 2 ** 32), st.booleans())
    def test_partition_matches_the_void_key(self, m, k, seed, edges):
        rng = np.random.default_rng(seed)
        pool = np.array(EDGE_VALUES if edges else [-3, -2, -1, 0, 1, 2, 3], dtype=np.int32)
        items = pool[rng.integers(0, 3 if rng.random() < 0.5 else len(pool), size=(m, k))]
        self.check(items)

    def test_extreme_columns_rerank(self):
        """Eight columns spanning the int32 range, but one: the key is re-ranked before six of them."""
        rng = np.random.default_rng(3)
        items = np.array(EDGE_VALUES, dtype=np.int32)[rng.integers(0, len(EDGE_VALUES), size=(2000, 8))]
        items[1000:] = items[:1000]  # every row repeats
        items[:, 3] = 2 ** 31 - 1 - np.arange(2000) % 2
        self.check(items)
        assert len(core.distinct_rows(items)[0]) < 2000

    def test_sampled_instances(self):
        self.check(sample_exact_sparse(24, 3, 240_000, 0))


@st.composite
def samples(draw, min_n=1, min_k=0, min_m=0):
    """A valid Sample: n <= 12, k <= 4, at most 8 rows, any sparsity up to k."""
    n = draw(st.integers(min_n, 12))
    k = draw(st.integers(min_k, 4))
    m = draw(st.integers(min_m, 8))
    items = np.zeros((m, k), dtype=np.int32)
    for row in range(m):
        index = sorted(draw(st.sets(st.integers(1, n), max_size=min(k, n))))
        items[row, :len(index)] = [i * draw(st.sampled_from((-1, 1))) for i in index]
    return Sample(k, n, items, draw(st.lists(st.sampled_from((-1, 1)), min_size=m, max_size=m)))


class TestSampleArrays:
    @given(samples())
    @settings(max_examples=200, deadline=None)
    def test_text_round_trip(self, s):
        if s.k > s.n:  # a row holds at most n indices, so the text format holds k <= n
            with pytest.raises(ValueError):
                serialize_sample(s)
        else:
            assert parse_sample(serialize_sample(s)) == s

    @given(samples(min_n=2, min_k=2, min_m=1), st.data())
    @settings(max_examples=100, deadline=None)
    def test_rejects_each_malformed_array(self, s, data):
        row = data.draw(st.integers(0, len(s) - 1))
        low = data.draw(st.integers(1, s.n - 1))
        high = data.draw(st.integers(low + 1, s.n))
        sign = data.draw(st.sampled_from((-1, 1)))

        def with_row(*values):
            items = s.items.copy()
            items[row] = 0
            items[row, :len(values)] = values
            return items

        malformed = {
            "unsorted row": with_row(high, sign * low),
            "index 0": with_row(0, sign * high),
            "index above n": with_row(sign * (s.n + 1)),
            "nonzero after padding": with_row(low, 0, sign * high) if s.k >= 3 else with_row(0, low),
        }
        for what, items in malformed.items():
            with pytest.raises(ValueError):
                Sample(s.k, s.n, items, s.y)
        for width in (s.k - 1, s.k + 1):
            with pytest.raises(ValueError):
                Sample(s.k, s.n, np.zeros((len(s), width), dtype=np.int32), s.y)
        labels = s.y.copy()
        labels[row] = data.draw(st.sampled_from((0, 2, -2)))
        with pytest.raises(ValueError):
            Sample(s.k, s.n, s.items, labels)
        assert Sample(s.k, s.n, s.items, s.y) == s


class TestSampleFormat:
    def test_round_trip_bytes(self):
        rng = np.random.default_rng(5)
        xs = np.concatenate([sample_exact_sparse(7, 3, 20, 5), np.zeros((1, 3), dtype=np.int32)])
        s = Sample(3, 7, xs, coin_labels(rng, len(xs)))
        text = serialize_sample(s)
        assert parse_sample(text) == s
        assert serialize_sample(parse_sample(text)) == text

    def test_header_and_comments(self):
        text = "\n# sparse-sample n=4 k=2\n# a comment\n+1 2:+1 4:-1\n\n-1\n"
        s = parse_sample(text)
        assert s.n == 4 and s.k == 2 and len(s) == 2
        assert not s.items[1].any()

    @pytest.mark.parametrize(
        "text",
        [
            "+1 1:+1\n",  # missing header
            "# sparse-sample n=4\n",  # malformed header
            "# sparse-sample n=4 k=2\n+2 1:+1\n",  # bad label
            "# sparse-sample n=4 k=2\n+1 5:+1\n",  # index out of range
            "# sparse-sample n=4 k=2\n+1 2:-1 1:+1\n",  # not ascending
            "# sparse-sample n=4 k=1\n+1 1:+1 2:+1\n",  # above sparsity bound
            "# sparse-sample n=3 k=4\n+1 1:+1\n",  # k above n
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(FormatError):
            parse_sample(text)

    def test_rejects_indices_beyond_int32(self):
        with pytest.raises(ValueError):
            parse_sample("# sparse-sample n=3000000000 k=1\n+1 2999999999:+1\n")

    @pytest.mark.parametrize("enabled", [True, False])
    def test_leaves_gc_state_as_found(self, enabled):
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            parse_sample("# sparse-sample n=4 k=2\n+1 2:+1\n")
            assert gc.isenabled() is enabled
            with pytest.raises(FormatError):
                parse_sample("# sparse-sample n=4 k=2\n+1 2:+1\n+2 1:+1\n")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


#: tokens that each break one rule of the sample grammar, or that Python's int()
#: reads while the array reader leaves them to the token-by-token path
ODD_TOKENS = ("3", "2:", ":1", "2:+1:3", "2:+2", "2:++1", "++1", "+", "-", ":", "2::1", "2:#1", "#", "2#:+1",
              "+01", "0", "2", "-0", "1_0:+1", "1:+1_0", "000000000002:+1", "123456789012:-1",
              "12345678901234567890:+1", "2:-01", "+2:+1", "-2:+1", "\u0661:+1", "\uff12:+1", "2:+\u0661",
              "\u00e9", "2:+1\u00a03:+1", "2:\u2003+1", "\x1f", "\ud800")


def outcome(parse, text):
    """What a reader makes of the text: its result, or its FormatError's message."""
    try:
        return parse(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


@st.composite
def sample_texts(draw):
    """A written sample, respaced, with comments, blank lines and CRLF ends, and up to three lines garbled."""
    sample = draw(samples(min_m=1).filter(lambda s: s.k <= s.n))
    header, *body = serialize_sample(sample).splitlines()
    odd = st.one_of(st.sampled_from(ODD_TOKENS + (f"{sample.n + 1}:+1", f"{sample.n}:-1", "1:+1")),
                    st.text("0123456789+-:#_ \t\u0661\u00a0", min_size=1, max_size=6))
    for i in draw(st.sets(st.integers(0, len(body) - 1), max_size=3)):
        tokens = body[i].split()
        for _ in range(draw(st.integers(1, 2))):
            where = draw(st.integers(0, len(tokens)))
            tokens[where:where + draw(st.integers(0, 1))] = [draw(odd)]
        if draw(st.booleans()):  # indices out of order
            tokens[1:] = draw(st.permutations(tokens[1:]))
        body[i] = " ".join(tokens)
    lines = [header]
    for line in body:
        lines += draw(st.lists(st.sampled_from(["", "  ", "# note", "\t# 1:+1"]), max_size=1))
        gap = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + line.replace(" ", gap) + draw(st.sampled_from(["", " "])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


class TestReaderAgainstReference:
    """parse_sample against the line-by-line reader: the same Sample, or a FormatError worded the same."""

    @given(sample_texts(), st.sampled_from((1, 2, 3, core.CHUNK_LINES)))
    @settings(max_examples=600, deadline=None)
    def test_same_sample_or_same_error(self, text, chunk):
        with mock.patch.object(core, "CHUNK_LINES", chunk):  # chunks split inside the sample
            assert outcome(parse_sample, text) == outcome(oracles.parse_sample, text)

    @pytest.mark.parametrize("token", ODD_TOKENS)
    @pytest.mark.parametrize("at", ["label", "entry", "last"])
    def test_each_odd_token(self, token, at):
        lines = ["+1 1:+1 3:-1", "-1 2:+1", "+1"]
        if at == "label":
            lines[1] = f"{token} 2:+1"
        else:
            lines[1 if at == "entry" else 2] += f" {token}"
        text = "# sparse-sample n=4 k=3\n" + "\n".join(lines) + "\n"
        for chunk in (1, core.CHUNK_LINES):
            with mock.patch.object(core, "CHUNK_LINES", chunk):
                assert outcome(parse_sample, text) == outcome(oracles.parse_sample, text)

    @pytest.mark.parametrize("line", ["1:+1 1", "+1 1 1:+1", "+1 1:+1:1 1", "+1 1: +1", "+1 1 :+1", "+1 :1 1",
                                      "+1 1:+1 1:-1", "+1 2:+1 1:+1", "+1\t1:+1", "+1\x001:+1", "1"])
    def test_each_odd_line(self, line):
        """Colons in the wrong tokens, repeated or falling indices, and odd separators."""
        text = f"# sparse-sample n=4 k=3\n+1 1:+1\n{line}\n-1\n"
        assert outcome(parse_sample, text) == outcome(oracles.parse_sample, text)

    def test_first_offending_line_is_named(self):
        text = "# sparse-sample n=4 k=1\n+1 1:+1\n\n# c\n-1 2:+1 3:+1\n+2\n"
        with pytest.raises(FormatError, match="^line 5: more than k=1 nonzeros$"):
            parse_sample(text)

    def test_spellings_int_reads_are_still_read(self):
        text = "# sparse-sample n=12 k=2\n+01 1_0:+1 \uff11\uff12:-1\n1 +3:\u0661\n"
        assert parse_sample(text) == oracles.parse_sample(text) == Sample(2, 12, [[10, -12], [3, 0]], [1, 1])

    def test_a_wide_k_on_narrow_rows_is_kept(self):
        rows = sample_exact_sparse(24, 3, 50_000, 1)
        sample = Sample(24, 24, np.pad(rows, ((0, 0), (0, 21))), np.where(rows[:, 0] > 0, 1, -1))
        text = serialize_sample(sample)
        assert sample.items.size > 1 << 20  # above the floor, within PAD_CELLS per character
        assert parse_sample(text) == sample and serialize_sample(parse_sample(text)) == text

    def test_padding_beyond_the_file_is_refused(self):
        """600 zero rows padded to k = 2000 would be 1.2M cells from 2 kB of text; the line reader allocated them."""
        text = "# sparse-sample n=2000 k=2000\n" + "+1\n" * 600
        assert len(oracles.parse_sample(text)) == 600
        with pytest.raises(FormatError, match="^header k=2000 pads 600 rows to 1200000 cells"):
            parse_sample(text)


class TestReaderMemory:
    def test_peak_is_a_small_multiple_of_the_text(self):
        """The reader tokenizes fixed-size chunks, so its arrays do not grow with the file; the lines and the
        result do, and the text's own lines are about 4x its size."""
        rows = sample_exact_sparse(24, 3, 50_000, 0)
        text = serialize_sample(Sample(3, 24, rows, np.where(rows[:, 0] > 0, 1, -1)))
        tracemalloc.start()
        try:
            parse_sample(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * len(text)


class TestSampleWriter:
    @pytest.mark.parametrize("m", [1, 1 << 15, (1 << 15) + 1])
    def test_blocks_write_one_line_per_row(self, m):
        rows = np.pad(sample_exact_sparse(12, 3, m, m), ((0, 0), (0, 1)))  # k = 4: every row ends in a pad cell
        rows[::7] = 0  # and some rows are the zero vector, a label alone
        sample = Sample(4, 12, rows, np.where(np.arange(m) % 3, 1, -1))
        lines = ["# sparse-sample n=12 k=4"] + [
            " ".join([f"{label:+d}"] + [f"{abs(v)}:{v // abs(v):+d}" for v in row if v])
            for label, row in zip(sample.y.tolist(), rows.tolist())]
        assert serialize_sample(sample) == "\n".join(lines) + "\n"

    def test_peak_is_a_small_multiple_of_the_text(self):
        """A block of rows at a time becomes Python ints and lines; the whole sample at once peaked at 10.6x."""
        rows = sample_exact_sparse(24, 3, 138_760, 0)
        sample = Sample(3, 24, rows, np.where(rows[:, 0] > 0, 1, -1))
        tracemalloc.start()
        try:
            text = serialize_sample(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(text)


#: bit patterns the float-matrix codec must keep apart or spell exactly: both zeros, the smallest and the largest
#: subnormal, the smallest normal, +-max, +-inf and a NaN
SPECIAL_BITS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                         1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan,
                         1.0, 0.1]).view(np.uint64).tolist()


@st.composite
def float_matrices(draw):
    """A float64 matrix up to 6 x 6 whose entries come from a small pool of bit patterns, so values repeat."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pool = draw(st.lists(st.one_of(st.integers(0, 2 ** 64 - 1), st.sampled_from(SPECIAL_BITS)), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows * cols, max_size=rows * cols))
    return np.array(pool, dtype=np.uint64)[picks].view(np.float64).reshape(rows, cols)


def where(i):
    return f"row {i}"


class TestFloatMatrixCodec:
    @settings(max_examples=400, deadline=None)
    @given(float_matrices())
    def test_text_and_read_back_match_the_per_value_codec(self, matrix):
        text = "".join(core.format_float_rows(matrix))
        assert text == oracles.format_float_rows(matrix)
        if np.isfinite(matrix).all():
            lines = text.splitlines()
            back = core.read_float_rows(lines, matrix.shape[1], where, "entries")
            assert back.view(np.uint64).tolist() == matrix.view(np.uint64).tolist()
            assert back.view(np.uint64).tolist() == oracles.read_float_rows(lines, matrix.shape[1]).view(np.uint64).tolist()

    def test_signed_zeros_stay_apart(self):
        matrix = np.array([[0.0, -0.0], [-0.0, 0.0]])
        text = "".join(core.format_float_rows(matrix))
        assert text == "0 -0\n-0 0\n"
        back = core.read_float_rows(text.splitlines(), 2, where, "entries")
        assert np.signbit(back).tolist() == [[False, True], [True, False]]

    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (1, 4), (0, 3), (2, 0)])
    def test_shapes(self, shape):
        matrix = np.arange(np.prod(shape), dtype=np.float64).reshape(shape) / 7
        text = "".join(core.format_float_rows(matrix))
        assert text == oracles.format_float_rows(matrix)
        assert np.array_equal(core.read_float_rows(text.splitlines(), shape[1], where, "entries"), matrix)

    @pytest.mark.parametrize(
        "lines,message",
        [
            (["1 2", "3"], "^row 1: matrix row 2 has 1 entries, expected 2$"),
            (["1 2", "3 x"], "^row 1: expected floats, got '3 x'$"),
            (["nan 2"], "^row 0: entries must be finite, got 'nan 2'$"),
            (["1  -inf"], "^row 0: entries must be finite, got '1 -inf'$"),
            (["1 1e999"], "^row 0: entries must be finite, got '1 1e999'$"),
        ],
    )
    def test_malformed_rows(self, lines, message):
        with pytest.raises(FormatError, match=message):
            core.read_float_rows(lines, 2, where, "entries")

    def test_untrusted_width_allocates_nothing(self):
        with pytest.raises(FormatError, match="expected 1000000000000"):
            core.read_float_rows(["1 2"], 10 ** 12, where, "entries")
        assert core.read_float_rows([], 10 ** 12, where, "entries").shape == (0, 10 ** 12)
