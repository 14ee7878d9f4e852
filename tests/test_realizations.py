"""Partition maps: coordinate-sum parts, cell realization, first-nonzero reduction."""

import numpy as np
import pytest

import oracles
from oracles import (
    Halfspace,
    SparseVector,
    eval_halfspace,
    hypothesis_matrix,
    iter_part_c2,
    iter_sparse_vectors,
    sample_of,
)
from sparsehalf.realizations import (
    group_rows,
    part_of_c2,
    part_of_c3,
    part_order,
    realize_c2,
    route_rows,
)


def sv(n, *pairs):
    return oracles.from_pairs(n, pairs)


def rows(k, *xs):
    """Instance matrix of the given vectors, k columns wide."""
    return sample_of(k, xs[0].n, xs, [1] * len(xs)).items


def cells(xs):
    got_rows, got_cols = realize_c2(rows(2, *xs))
    return list(zip(got_rows.tolist(), got_cols.tolist()))


class TestPartOfC2:
    def test_examples(self):
        got = part_of_c2(rows(2, sv(6, (1, 1), (2, -1)), sv(6, (3, 1)), sv(6, (1, -1), (4, -1)), SparseVector(6, ())))
        assert got.tolist() == [0, 1, -2, 0]

    def test_rejects_three_sparse(self):
        with pytest.raises(ValueError):
            part_of_c2(rows(3, sv(6, (1, 1), (2, 1), (3, 1))))

    def test_partition_covers_exactly_once(self):
        n = 16
        all_rows = rows(2, *iter_sparse_vectors(n, 2))
        assert set(part_of_c2(all_rows).tolist()) == {-2, -1, 0, 1, 2}
        # each part enumerates its own instances; together they tile C_{n,2}
        union = []
        for r in (-2, -1, 0, 1, 2):
            union.extend(x.entries for x in iter_part_c2(r, n))
        assert len(union) == len(set(union)) == len(all_rows)
        for r in (-2, -1, 0, 1, 2):
            assert (part_of_c2(rows(2, *iter_part_c2(r, n))) == r).all()


class TestRealizeC2:
    def test_difference_pair(self):
        assert cells([sv(8, (2, 1), (5, -1)), sv(8, (2, -1), (5, 1))]) == [(2, 5), (5, 2)]

    def test_sum_pair_canonical(self):
        assert cells([sv(8, (1, 1), (3, 1)), sv(8, (1, -1), (3, -1))]) == [(1, 3), (1, 3)]

    def test_singleton_diagonal(self):
        assert cells([sv(8, (4, -1)), sv(8, (4, 1))]) == [(4, 4), (4, 4)]

    def test_zero_vector(self):
        assert cells([SparseVector(8, ())]) == [(1, 1)]

    def test_injective_within_each_part(self):
        n = 12
        for r in (-2, -1, 0, 1, 2):
            part_cells = cells(list(iter_part_c2(r, n)))
            assert len(part_cells) == len(set(part_cells))


class TestHypothesisMatrix:
    def test_soundness_random_halfspaces(self):
        rng = np.random.default_rng(0)
        n = 12
        for _ in range(25):
            h = Halfspace(rng.standard_normal(n), float(rng.standard_normal()))
            for r in (-2, -1, 0, 1, 2):
                W = hypothesis_matrix(h, r, n)
                xs = list(iter_part_c2(r, n))
                for (row, col), x in zip(cells(xs), xs):
                    assert W[row - 1, col - 1] == eval_halfspace(h, x)

    def test_diagonal_part_filler(self):
        h = Halfspace(np.arange(1.0, 5.0), 0.0)
        W = hypothesis_matrix(h, 1, 4)
        assert np.array_equal(np.diag(W), [1, 1, 1, 1])
        off = W[~np.eye(4, dtype=bool)]
        assert (off == 1).all()

    def test_difference_part_is_row_threshold_in_sorted_order(self):
        # with rows and columns ordered by descending weight, every row of the
        # realized matrix is -1s then +1s over its constrained cells
        rng = np.random.default_rng(1)
        n = 10
        for trial in range(20):
            w = rng.standard_normal(n)
            b = float(rng.standard_normal() * 0.3)
            h = Halfspace(w, b)
            order = np.lexsort((np.arange(n), -w))
            W = hypothesis_matrix(h, 0, n)[np.ix_(order, order)]
            mask = ~np.eye(n, dtype=bool)
            mask[0, 0] = True  # the zero vector constrains original (1,1)
            maskp = mask[np.ix_(order, order)]
            for i in range(n):
                vals = W[i][maskp[i]]
                assert all(vals[j] <= vals[j + 1] for j in range(len(vals) - 1))

    def test_sum_parts_are_row_threshold_in_weight_order(self):
        # +2 instances read sign(w_i + w_j + b): ascending weights give -1s
        # then +1s; -2 instances read sign(-w_i - w_j + b), so descending
        rng = np.random.default_rng(2)
        n = 10
        for r in (2, -2):
            for trial in range(10):
                w = rng.standard_normal(n)
                h = Halfspace(w, float(rng.standard_normal() * 0.3))
                key = w if r == 2 else -w
                order = np.lexsort((np.arange(n), key))
                Wp = hypothesis_matrix(h, r, n)
                mask = np.triu(np.ones((n, n), dtype=bool), 1)
                W = Wp[np.ix_(order, order)]
                maskp = mask[np.ix_(order, order)]
                for i in range(n):
                    vals = W[i][maskp[i]]
                    assert all(vals[j] <= vals[j + 1] for j in range(len(vals) - 1))


class TestStripFirstNonzero:
    def test_examples(self):
        # the c3 child row is the instance with its first nonzero zeroed
        xs = [sv(6, (2, 1), (3, -1), (6, -1)), sv(6, (1, -1), (2, 1), (3, 1)), sv(6, (3, 1))]
        parts, child = route_rows("c3", rows(3, *xs), 6)
        assert parts.tolist() == [2 * 2, 2 * 1 + 1, 2 * 3]
        assert child.tolist() == [[-3, -6], [2, 3], [0, 0]]

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            oracles.strip_first_nonzero(SparseVector(4, ()))


class TestPartOfC3:
    def test_examples(self):
        xs = [sv(6, (2, 1), (3, -1), (6, -1)), sv(6, (2, -1)), sv(6, (6, 1)), sv(6, (5, 1), (6, 1)), SparseVector(6, ())]
        assert part_of_c3(rows(3, *xs), 6).tolist() == [4, 5, 0, 0, 0]

    def test_rejects_four_sparse(self):
        with pytest.raises(ValueError):
            part_of_c3(rows(4, SparseVector(6, ((1, 1), (2, 1), (3, 1), (4, 1)))), 6)

    def test_partition_covers_exactly_once(self):
        n = 9
        xs = list(iter_sparse_vectors(n, 3))
        parts = part_of_c3(rows(3, *xs), n).tolist()
        for x, part in zip(xs, parts):
            if part:
                assert part // 2 <= n - 2
                assert x.entries[0] == (part // 2, -1 if part % 2 else 1)
            else:
                assert x.nnz == 0 or x.entries[0][0] > n - 2
                assert x.nnz <= 2  # residual instances are already 2-sparse

    def test_restriction_is_shifted_bias_problem(self):
        # on a first-nonzero part, h agrees with the child instance under
        # the bias shifted by w_i * b
        rng = np.random.default_rng(3)
        n = 10
        xs = list(iter_sparse_vectors(n, 3))
        parts, child = route_rows("c3", rows(3, *xs), n)
        children = oracles.vectors(child, n)
        for _ in range(10):
            w = rng.standard_normal(n)
            b0 = float(rng.standard_normal())
            h = Halfspace(w, b0)
            for x, part, rest in zip(xs, parts.tolist(), children):
                if not part:
                    continue
                i, bval = x.entries[0]
                shifted = Halfspace(w, b0 + w[i - 1] * bval)
                assert eval_halfspace(h, x) == eval_halfspace(shifted, rest)


class TestBatchMatchesOracle:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_instance_of_c3(self, n):
        xs = list(iter_sparse_vectors(n, 3))
        parts, child = route_rows("c3", rows(3, *xs), n)
        expected = [oracles.route("c3", x) for x in xs]
        assert parts.tolist() == [part for part, _ in expected]
        assert oracles.vectors(child, n) == [rest for _, rest in expected]
        assert part_of_c3(rows(3, *xs), n).tolist() == [oracles.part_of_c3(x) for x in xs]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_instance_of_c2(self, n):
        xs = list(iter_sparse_vectors(n, 2))
        assert part_of_c2(rows(2, *xs)).tolist() == [oracles.part_of_c2(x) for x in xs]
        assert cells(xs) == [oracles.realize_c2(x) for x in xs]
        parts, child = route_rows("c2", rows(3, *xs), n)
        assert parts.tolist() == [oracles.part_of_c2(x) + 2 for x in xs]
        assert oracles.vectors(child, n) == xs

    def test_narrow_rows_are_padded(self):
        # one-instance predictions pass rows only as wide as the instance
        assert part_of_c3(rows(1, sv(5, (2, -1))), 5).tolist() == [5]
        assert cells([SparseVector(5, ())]) == [(1, 1)]
        parts, child = route_rows("c3", np.zeros((1, 0), dtype=np.int32), 5)
        assert parts.tolist() == [0] and child.tolist() == [[0, 0]]

    def test_unknown_partition(self):
        with pytest.raises(ValueError):
            route_rows("c9", rows(2, sv(4, (1, 1))), 4)


class TestGrouping:
    def test_groups_keep_sample_order(self):
        parts = np.array([3, 0, 3, 2, 0, 3])
        groups = group_rows(parts)
        assert list(groups) == [0, 2, 3]
        assert [g.tolist() for g in groups.values()] == [[1, 4], [3], [0, 2, 5]]
        assert group_rows(np.zeros(0, dtype=np.int64)) == {}

    def test_residual_last_in_c3_only(self):
        assert part_order("c3", [5, 0, 2]) == [2, 5, 0]
        assert part_order("c2", [4, 0, 2]) == [0, 2, 4]
