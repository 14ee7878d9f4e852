"""Predictor nodes and their line-based text serialization."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import DictTable, SparseVector, from_pairs, predict, vectors
from sparsehalf import core
from sparsehalf.core import BinaryAssignment, Sample, sample_exact_sparse
from sparsehalf.errors import FormatError
from sparsehalf.learners import LearnerConfig, learn_h2, learn_h3, table_majority_learn
from sparsehalf.predictors import (
    BinaryHalfspacePredictor,
    CompositePredictor,
    MajorityTable,
    MatrixPredictor,
    parse_predictor,
    serialize_predictor,
)


def round_trip(node):
    text = serialize_predictor(node)
    back = parse_predictor(text)
    assert serialize_predictor(back) == text
    return back


class TestNodes:
    def test_binary_round_trip(self):
        node = BinaryHalfspacePredictor(BinaryAssignment((1, -1, 1)))
        back = round_trip(node)
        assert back.psi == node.psi

    def test_binary_prediction(self):
        node = BinaryHalfspacePredictor(BinaryAssignment((1, 1, 1, 1, 1, 1)))
        inst = from_pairs(6, [(2, 1), (3, -1), (6, -1)])
        assert predict(node, inst) == -1

    def test_table_round_trip_with_zero_instance(self):
        table = MajorityTable(4, 2, np.array([[0, 0], [1, -3]]), [1, -1])
        back = round_trip(table)
        assert predict(back, SparseVector(4, ())) == 1
        assert predict(back, from_pairs(4, [(1, 1), (3, -1)])) == -1
        assert predict(back, from_pairs(4, [(2, 1)])) == 1

    def test_matrix_round_trip_exact_floats(self):
        rng = np.random.default_rng(0)
        node = MatrixPredictor(3, 4, rng.standard_normal((3, 4)), realization=0)
        back = round_trip(node)
        assert np.array_equal(back.scores, node.scores)
        assert back.realization == 0

    def test_matrix_part_mismatch_raises(self):
        node = MatrixPredictor(3, 3, np.zeros((3, 3)), realization=0)
        with pytest.raises(ValueError):
            predict(node, from_pairs(3, [(1, 1), (2, 1)]))  # r=2 instance

    def test_trained_composites_round_trip(self):
        rng = np.random.default_rng(1)
        xs2 = sample_exact_sparse(6, 2, 60, 2)
        s2 = Sample(2, 6, xs2, [int(rng.integers(0, 2)) * 2 - 1 for _ in xs2])
        xs3 = sample_exact_sparse(6, 3, 60, 3)
        s3 = Sample(3, 6, xs3, [int(rng.integers(0, 2)) * 2 - 1 for _ in xs3])
        for node, sample in ((learn_h2(s2, LearnerConfig(seed=4)), s2), (learn_h3(s3, LearnerConfig(seed=4)), s3)):
            back = round_trip(node)
            labels = node.predict_many(sample.items, sample.n)
            assert np.array_equal(back.predict_many(sample.items, sample.n), labels)
            # one instance at a time is the batch path on one row
            assert [predict(back, x) for x in vectors(sample.items, sample.n)] == labels.tolist()

    def test_table_learner_round_trip(self):
        rng = np.random.default_rng(5)
        xs = sample_exact_sparse(5, 3, 30, 6)
        s = Sample(3, 5, xs, [int(rng.integers(0, 2)) * 2 - 1 for _ in xs])
        node = table_majority_learn(s)
        back = round_trip(node)
        assert np.array_equal(back.predict_many(s.items, s.n), node.predict_many(s.items, s.n))


class TestDimensionMismatch:
    @pytest.mark.parametrize("node", [
        BinaryHalfspacePredictor(BinaryAssignment((1, -1, 1, 1))),
        MajorityTable(4, 3, np.array([[1]]), [-1]),
        MatrixPredictor(4, 4, np.zeros((4, 4)), realization=0),
        CompositePredictor("c3", 4, {}),
        CompositePredictor("c2", 4, {}),
    ])
    def test_batch_predict_rejects_other_n(self, node):
        rows = np.array([[1, -2]], dtype=np.int32)
        assert node.predict_many(rows, 4).shape == (1,)
        with pytest.raises(ValueError):
            node.predict_many(rows, 8)

    def test_empty_matrix_predicts_nothing(self):
        for node in (table_majority_learn(Sample(3, 5, (), ())), BinaryHalfspacePredictor(BinaryAssignment((1,) * 5))):
            assert node.predict_many(np.zeros((0, 3), dtype=np.int32), 5).shape == (0,)


class TestMalformed:
    @pytest.mark.parametrize(
        "text",
        [
            "",  # empty
            "binary 3\n+1 -1\n",  # wrong weight count
            "table 4 2 1\n1:+1 2\n",  # row missing arrow
            "table 4 2 2\n1:+1 -> +1\n1:+1 -> -1\n",  # repeated row
            "table 4 1 1\n1:+1 2:-1 -> -1\n",  # more than k nonzeros
            "table 4 1 -1\n",  # negative row count
            "matrix r=none 2 2\n0 0\n0 0\n",  # no realization
            "matrix r=0 2 2\n0 0\n0\n",  # short row
            "composite c9 4 0\n",  # unknown router
            "composite c2 4 1\nnope r=0\nbinary 1\n+1\n",  # bad part line
            "binary 2\n+1 -1\nextra\n",  # trailing content
            "composite c3 4 1\npart r=0\nbinary 4\n+1 +1 +1 +1\n",  # c2 key under c3
            "composite c2 4 1\npart residual\nbinary 4\n+1 +1 +1 +1\n",  # c3 key under c2
            "composite c2 4 1\npart i=1,b=+1\nbinary 4\n+1 +1 +1 +1\n",  # c3 key under c2
            "composite c3 4 1\npart i=3,b=+1\nbinary 4\n+1 +1 +1 +1\n",  # i > n - 2
            "composite c3 4 1\npart i=1,b=+2\nbinary 4\n+1 +1 +1 +1\n",  # b not +-1
            "composite c2 4 1\npart r=3\nbinary 4\n+1 +1 +1 +1\n",  # r outside [-2, 2]
            "composite c3 4 1\npart residual\nbinary 3\n+1 +1 +1\n",  # child n differs
            "composite c2 4 1\npart r=0\nmatrix r=0 2 2\n0 0\n0 0\n",  # matrix n differs
            "composite c2 4 2\npart r=1\nbinary 4\n+1 +1 +1 +1\npart r=1\nbinary 4\n+1 +1 +1 +1\n",  # repeat
            "wat 1\n",  # unknown tag
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(FormatError):
            parse_predictor(text)

    @pytest.mark.parametrize(
        "text,where",
        [
            ("table x 2 0\n", "table node, line 1"),
            ("matrix r=0 two 2\n", "matrix node, line 1"),
            ("binary 2\n+1 x\n", "binary node, line 2"),
            ("composite c2 x 0\n", "composite node, line 1"),
        ],
    )
    def test_non_integer_field_names_node_and_line(self, text, where):
        with pytest.raises(FormatError, match=where):
            parse_predictor(text)

    @pytest.mark.parametrize("text", ["matrix r=0 -1 2\n", "matrix r=0 0 -2\n", "matrix r=0 1 -2\n0 0\n"])
    def test_negative_matrix_dimension(self, text):
        with pytest.raises(FormatError, match="^matrix node, line 1: negative dimension"):
            parse_predictor(text)

    @pytest.mark.parametrize("entry", ["nan", "inf", "1e999"])
    def test_non_finite_score(self, entry):
        """A NaN score would label its cell -1, against sign(0) = +1; the learner never writes one."""
        with pytest.raises(FormatError, match="^matrix node, line 3: scores must be finite"):
            parse_predictor(f"matrix r=0 2 2\n0 1\n-1 {entry}\n")


@st.composite
def table_cases(draw):
    """A sample with k in {0, 1, 2, 3} and rows of mixed widths, and query rows wider or narrower than k."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(0, 3))

    def rows(width, count):
        items = np.zeros((count, width), dtype=np.int32)
        for row in range(count):
            index = sorted(draw(st.sets(st.integers(1, n), max_size=min(width, n))))
            items[row, :len(index)] = [i * draw(st.sampled_from((-1, 1))) for i in index]
        return items

    m = draw(st.integers(0, 12))
    sample = Sample(k, n, rows(k, m), draw(st.lists(st.sampled_from((-1, 1)), min_size=m, max_size=m)))
    width = draw(st.integers(0, 4))
    seen = np.pad(sample.items, ((0, 0), (0, max(0, width - k))))[:, :width]  # seen rows that fit the width
    seen = seen[np.count_nonzero(sample.items, axis=1) <= width]
    return sample, np.concatenate([seen, rows(width, draw(st.integers(0, 12)))])


class TestTableAgainstDictOracle:
    @given(table_cases())
    @settings(max_examples=300, deadline=None)
    def test_labels_and_model_text(self, case):
        sample, queries = case
        oracle, table = DictTable(sample), table_majority_learn(sample)
        text = serialize_predictor(table)
        assert text == oracle.model_text()
        back = parse_predictor(text)  # only as wide as its widest row
        assert serialize_predictor(back) == text
        expected = oracle.predict_many(queries, sample.n)
        for node in (table, back):
            assert np.array_equal(node.predict_many(queries, sample.n), expected)


#: instance tokens and labels that each break one rule of a table row, or that Python's int() reads while the
#: array reader leaves them to the row-by-row path
ODD_ENTRIES = ("3", "2:", ":1", "2:+2", "2:++1", "++1", "#", "1_0:+1", "+2:+1", "-2:+1", "\u0661:+1", "->", "-> +1",
               "x", "5:+1", "1:+1")
ODD_LABELS = ("", "+01", "1", "0", "2", "-0", "+ 1", "1 2", "1 2:+1", "x", "#1", "\u0661", "\t-1 ", "1:+1", "->")


def table_outcome(text):
    """(rows, labels) of the table both readers read, or their FormatError messages."""
    def read(parse):
        try:
            node = parse(text)
        except FormatError as exc:
            return f"FormatError: {exc}"
        return node.rows.shape, node.rows.tolist(), node.labels.tolist(), serialize_predictor(node)
    return read(parse_predictor), read(oracles.parse_table)


@st.composite
def table_texts(draw):
    """A learned table's model text with up to three rows garbled, and sometimes its last row cut."""
    sample, _ = draw(table_cases().filter(lambda case: len(case[0])))
    header, *rows = DictTable(sample).model_text().splitlines()
    for i in draw(st.sets(st.integers(0, len(rows) - 1), max_size=3)):
        left, _, right = rows[i].rpartition("->")
        tokens = left.split()
        if draw(st.booleans()):
            where = draw(st.integers(0, len(tokens)))
            tokens[where:where + draw(st.integers(0, 1))] = [draw(st.sampled_from(ODD_ENTRIES))]
        else:
            right = draw(st.sampled_from(ODD_LABELS))
        arrow = draw(st.sampled_from(["->", "->", "- >", ""]))
        rows[i] = draw(st.sampled_from(["", "\t"])) + " ".join([*tokens, arrow, right.strip()])
    if rows and draw(st.booleans()):
        rows.pop()
    return "\n".join([header, *rows]) + "\n"


class TestTableReaderAgainstReference:
    """Table rows go through core.read_rows: the same table as the row-by-row reader, or the same FormatError."""

    @given(table_texts(), st.sampled_from((1, 2, 5, core.CHUNK_LINES)))
    @settings(max_examples=400, deadline=None)
    def test_same_table_or_same_error(self, text, chunk):
        with mock.patch.object(core, "CHUNK_LINES", chunk):
            ours, reference = table_outcome(text)
        assert ours == reference

    @pytest.mark.parametrize("odd", [("entry", token) for token in ODD_ENTRIES] + [("label", label) for label in ODD_LABELS])
    def test_each_odd_row(self, odd):
        rows = ["1:+1 -> +1", "2:-1 -> -1", "-> +1"]
        rows[1] = f"2:-1 {odd[1]} -> -1" if odd[0] == "entry" else f"2:-1 -> {odd[1]}"
        ours, reference = table_outcome("table 4 2 3\n" + "\n".join(rows) + "\n")
        assert ours == reference
