"""Predictor nodes and their line-based text serialization."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import DictTable, SparseVector, from_pairs, model_text, predict, vectors
from sparsehalf import core
from sparsehalf.core import BinaryAssignment, Sample, sample_exact_sparse
from sparsehalf.errors import FormatError
from sparsehalf.learners import LearnerConfig, learn_h2, learn_h3, table_majority_learn
from sparsehalf.predictors import (
    CompositePredictor,
    MajorityTable,
    MatrixPredictor,
    parse_predictor,
    read_predictor,
    write_predictor,
)
from sparsehalf.realizations import part_names


def round_trip(node):
    text = model_text(node)
    back = parse_predictor(text)
    assert model_text(back) == text
    return back


class TestNodes:
    def test_binary_round_trip(self):
        node = BinaryAssignment((1, -1, 1))
        back = round_trip(node)
        assert back == node

    def test_binary_prediction(self):
        node = BinaryAssignment((1, 1, 1, 1, 1, 1))
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
        node = MatrixPredictor(3, rng.standard_normal((3, 3)), realization=0)
        back = round_trip(node)
        assert np.array_equal(back.scores, node.scores)
        assert back.realization == 0

    def test_matrix_part_mismatch_raises(self):
        node = MatrixPredictor(3, np.zeros((3, 3)), realization=0)
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

    @pytest.mark.parametrize("kind", ["c2", "c3"])
    def test_every_listed_part_round_trips_under_its_key(self, kind):
        names = part_names(kind, 5)
        children = {part: BinaryAssignment((1,) * 5) for part in reversed(names)}
        text = model_text(CompositePredictor(kind, 5, children))
        assert [line[5:] for line in text.splitlines() if line.startswith("part ")] == list(names.values())
        assert list(round_trip(CompositePredictor(kind, 5, children)).children) == list(names)

    @pytest.mark.parametrize("kind,part", [("c3", 1), ("c3", 6), ("c2", 7)])
    def test_child_at_an_unlisted_part_is_refused_before_any_file(self, tmp_path, kind, part):
        """Such a child would be written under a key its reader refuses: 'i=0,b=-1', 'i=3,b=+1' or 'r=5' at n = 4."""
        child = BinaryAssignment((1,) * 4)
        with pytest.raises(ValueError, match=f"^the {kind} partition has no part {part} at n=4$"):
            write_predictor(str(tmp_path / "m"), CompositePredictor(kind, 4, {0: child, part: child}))
        assert list(tmp_path.iterdir()) == []


def leaves(n):
    """A leaf of each kind at n, with a matrix at every coordinate-sum part r."""
    return [MajorityTable(n, 2, np.array([[1, 0], [-2, n]]), [-1, 1]),
            BinaryAssignment(tuple((-1) ** i for i in range(n))),
            *(MatrixPredictor(n, np.arange(n * n).reshape(n, n) / 3 - r, r) for r in range(-2, 3))]


def file_round_trip(tmp_path, node):
    """The node written, read back and written again: both files hold the same bytes."""
    first, second = tmp_path / "first.model", tmp_path / "second.model"
    write_predictor(str(first), node)
    write_predictor(str(second), read_predictor(str(first)))
    assert second.read_bytes() == first.read_bytes()


class TestTreeRules:
    """The constructors own the model rules: what they build reads back, and what they refuse the reader refuses."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind", ["c2", "c3"])
    def test_a_child_is_built_exactly_when_its_text_reads(self, tmp_path, kind, n):
        # leaves at n and at n + 1 at every r, and composites of each router, at every part of the partition
        pool = [*leaves(n), *leaves(n + 1), CompositePredictor("c2", n, {1: leaves(n)[0]}),
                CompositePredictor("c2", n + 1), CompositePredictor("c3", n, {0: leaves(n)[1]})]
        built = 0
        for part, key in part_names(kind, n).items():
            for child in pool:
                try:
                    node = CompositePredictor(kind, n, {part: child})
                except ValueError:
                    with pytest.raises(FormatError):
                        parse_predictor(f"composite {kind} {n} 1\npart {key}\n" + model_text(child))
                    continue
                built += 1
                file_round_trip(tmp_path, node)
        # c2 parts hold the table, the binary leaf and the matrix at their own r; c3 parts every leaf and the c2
        assert built == (3 * 5 if kind == "c2" else 8 * (2 * n - 3))

    @pytest.mark.parametrize("n", [3, 4])
    def test_full_trees_round_trip(self, tmp_path, n):
        table, binary, *matrices = leaves(n)
        c2 = CompositePredictor("c2", n, {part: table if part % 2 else matrices[part] for part in range(5)})
        for node in [*leaves(n), c2, CompositePredictor("c2", n, {part: binary for part in range(5)}),
                     CompositePredictor("c3", n, {part: c2 if part % 2 else binary for part in part_names("c3", n)})]:
            file_round_trip(tmp_path, node)

    @pytest.mark.parametrize("make,message", [
        (lambda: CompositePredictor("c2", 4, {2: MatrixPredictor(4, np.zeros((4, 4)), 1)}),
         "part r=0 holds a matrix for r=1"),
        (lambda: CompositePredictor("c2", 4, {3: BinaryAssignment((1,) * 3)}),
         "part r=1 holds an n=3 child under n=4"),
        (lambda: CompositePredictor("c3", 4, {0: BinaryAssignment((1,) * 5)}),
         "part residual holds an n=5 child under n=4"),
        (lambda: CompositePredictor("c2", 4, {2: CompositePredictor("c2", 4)}),
         "a c2 part holds only leaves, got 'composite c2'"),
        (lambda: CompositePredictor("c3", 4, {0: CompositePredictor("c3", 4)}),
         "a c3 part holds only c2 composites and leaves, got 'composite c3'"),
        (lambda: MatrixPredictor(4, np.zeros((4, 4)), 9), "r=9 names no coordinate-sum part -2..2"),
        (lambda: MatrixPredictor(3, np.zeros((3, 4)), 0), "score matrix is 3x4, not 3x3"),
        (lambda: MatrixPredictor(2, [[np.nan, 1], [np.inf, 0]], 0), "scores must be finite"),
    ], ids=["c2-matrix-at-other-r", "c2-child-other-n", "c3-binary-other-n", "c2-under-c2", "c3-under-c3",
            "matrix-r9", "matrix-3x4", "matrix-nonfinite"])
    def test_refused_before_any_file(self, tmp_path, make, message):
        """Each of these trees was once written, and then refused by the reader."""
        with pytest.raises(ValueError) as excinfo:
            write_predictor(str(tmp_path / "m"), make())
        assert str(excinfo.value) == message
        assert list(tmp_path.iterdir()) == []


class TestDimensionMismatch:
    @pytest.mark.parametrize("node", [
        BinaryAssignment((1, -1, 1, 1)),
        MajorityTable(4, 3, np.array([[1]]), [-1]),
        MatrixPredictor(4, np.zeros((4, 4)), realization=0),
        CompositePredictor("c3", 4, {}),
        CompositePredictor("c2", 4, {}),
    ])
    def test_batch_predict_rejects_other_n(self, node):
        rows = np.array([[1, -2]], dtype=np.int32)
        assert node.predict_many(rows, 4).shape == (1,)
        with pytest.raises(ValueError):
            node.predict_many(rows, 8)

    def test_empty_matrix_predicts_nothing(self):
        for node in (table_majority_learn(Sample(3, 5, (), ())), BinaryAssignment((1,) * 5)):
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

    @pytest.mark.parametrize(
        "text,message",
        [
            ("binary 2\n+1 0\n", "binary node, line 2: assignment entries must be +-1"),
            ("binary 0\n\n", "binary node, line 2: assignment must be nonempty"),
            ("table 4 2 2\n1:+1 -> +1\n1:+1 2\n", "table node, line 3: expected '<idx>:<val> ... -> <label>', got '1:+1 2'"),
            ("table 4 2 2\n1:+1 -> +1\n2:+1 -> +1 -1\n",
             "table node, line 3: expected '<idx>:<val> ... -> <label>', got '2:+1 -> +1 -1'"),
            ("table 4 1 1\n1:+1 2:-1 -> -1\n", "table node, line 2: more than k=1 nonzeros"),
            ("table 4 2 3\n1:+1 -> +1\n2:+1 -> 0\n", "table node, line 3: label must be +-1, got 0"),  # before the end
            ("table 4 2 3\n1:+1 -> x\n2:+1\n", "table node, line 2: bad label 'x'"),  # before the arrowless row
            ("table 4 2 2\n1:+1 -> +1\n2:+1 2:-1 -> +1\n", "table node, line 3: indices must be strictly increasing in [1, 4]"),
        ],
        ids=["weight-0", "no-weights", "no-arrow", "two-labels", "wider-than-k", "label-0", "bad-label-first",
             "indices-repeat"],
    )
    def test_row_and_weight_errors_name_node_and_line(self, text, message):
        with pytest.raises(FormatError) as excinfo:
            parse_predictor(text)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "text,message",
        [
            ("matrix r=9 1 1\n0\n", "^matrix node, line 1: r=9 names no coordinate-sum part"),
            ("composite c2 2 1\npart r=1\nmatrix r=-3 2 2\n0 0\n0 0\n", "^matrix node, line 3: r=-3 names no"),
            ("composite c2 2 1\npart r=0\nmatrix r=2 2 2\n0 0\n0 0\n",
             "^composite node, line 1: part r=0 holds a matrix for r=2$"),
            ("composite c2 3 -1\n", "^composite node, line 1: negative child count -1$"),
        ],
    )
    def test_realization_and_child_count(self, text, message):
        """A wrong r would fail every prediction, a negative count would read as an empty model."""
        with pytest.raises(FormatError, match=message):
            parse_predictor(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("composite c2 4 1\npart r=0\nbinary 4\n+1 +1 +1\n", "binary node, line 4: payload has 3 weights, expected 4"),
            ("table\udcc3\udca9 4 2 1\n", "line 1: unknown predictor node tag 'table\\udcc3\\udca9'"),
            ("composite c2 4 1\nnope r=0\nbinary 1\n+1\n", "composite node, line 2: expected 'part <key>' line, got 'nope r=0'"),
            ("binary 2\n+1 -1\n\nextra\n", "line 4: trailing content after predictor"),
            ("composite c2 4 1\npart r=0\n\n", "line 3: empty node header"),
            ("binary 2 2\n+1 -1\n", "binary node, line 1: header is 'binary <n>'"),
            ("composite c2 4 1\npart r=0\ntable 4 2\n", "table node, line 3: header is 'table <n> <k> <rows>'"),
            ("matrix r=0 2\n", "matrix node, line 1: header is 'matrix r=<r> <rows> <cols>'"),
            ("matrix r=--1 2 2\n0 0\n0 0\n", "matrix node, line 1: header is 'matrix r=<r> <rows> <cols>'"),
            ("composite c2 4\n", "composite node, line 1: header is 'composite <router> <n> <children>'"),
            ("composite c9 4 0\n", "composite node, line 1: unknown router 'c9'"),
            ("composite c2 4 1\npart r=3\nbinary 4\n+1 +1 +1 +1\n",
             "composite node, line 2: part key 'r=3' names no c2 part at n=4"),
            ("composite c2 4 2\npart r=1\nbinary 4\n+1 +1 +1 +1\npart r=1\nbinary 4\n+1 +1 +1 +1\n",
             "composite node, line 5: part r=1 appears twice"),
            ("composite c3 4 1\npart residual\nbinary 3\n+1 +1 +1\n",
             "composite node, line 1: part residual holds an n=3 child under n=4"),
            ("binary 1\n+1\ntable 4 2 2\n1:+1 -> +1\n1:+1 -> -1\n", "line 3: trailing content after predictor"),
            ("table 4 2 2\n1:+1 -> +1\n1:+1 -> -1\n", "table node, line 1: table repeats a row"),
            ("", "line 1: unexpected end of predictor file"),
            ("binary 2\n", "line 2: unexpected end of predictor file"),
            ("table 4 2 2\n1:+1 -> +1\n", "line 3: unexpected end of predictor file"),
            ("matrix r=0 2 2\n0 0\n", "line 3: unexpected end of predictor file"),
            ("composite c2 4 1\npart r=0\n", "line 3: unexpected end of predictor file"),
        ],
        ids=["payload", "unknown-tag", "part-line", "trailing", "empty-header", "binary-header", "table-header",
             "matrix-header", "matrix-r-token", "composite-header", "unknown-router", "unknown-part", "part-twice",
             "child-dimension", "trailing-node", "table-rows", "end-empty", "end-binary", "end-table", "end-matrix",
             "end-composite"],
    )
    def test_structural_errors_name_node_and_line(self, text, message):
        with pytest.raises(FormatError) as excinfo:
            parse_predictor(text)
        assert str(excinfo.value) == message

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
        text = model_text(table)
        assert text == oracle.model_text()
        back = parse_predictor(text)  # only as wide as its widest row
        assert model_text(back) == text
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
        return node.rows.shape, node.rows.tolist(), node.labels.tolist(), model_text(node)
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
