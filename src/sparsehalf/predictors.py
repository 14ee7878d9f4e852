"""Trained predictors: total functions from sparse instances to +-1 labels.

Four node kinds, composed into trees by the composite router node:

* ``table``     -- per-instance majority lookup with a +1 default;
* ``matrix``    -- real score matrix read through a two-sparse cell map;
* ``binary``    -- homogeneous halfspace with +-1 weights;
* ``composite`` -- routes an instance to a per-part child predictor.

Every node labels a whole instance matrix at once (``predict_many``, rows in
the signed-index form of ``core.Sample``).

Serialization is line-based text: a tagged header per node followed by its
payload (table rows in the sparse-sample instance syntax, matrices row
major in the float-matrix codec of :mod:`sparsehalf.core`: ``%.17g`` per
entry, the same bytes as formatting each entry alone).  It round-trips
byte-for-byte, and the writer streams the lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .core import (BinaryAssignment, Sample, distinct_rows, format_float_rows, format_instance, parse_instance,
                   read_float_rows, read_rows)
from .errors import FormatError
from .realizations import PARTITIONS, group_rows, part_of_c2, part_order, realize_c2, route_rows

#: The label of an unseen instance and of a part with no examples.
DEFAULT_LABEL = 1


def _check_n(node_n: int, n: int) -> None:
    if n != node_n:
        raise ValueError(f"dimension mismatch: instances have n={n}, predictor has n={node_n}")


class TrainedPredictor:
    """Base for anything that labels sparse instances."""

    def predict_many(self, rows: np.ndarray, n: int) -> np.ndarray:
        """int8 +-1 labels of n-dimensional signed-index instance rows (see ``core.Sample``)."""
        raise NotImplementedError


@dataclass
class MajorityTable(TrainedPredictor):
    """Majority label per distinct seen instance; unseen instances get +1.

    ``rows`` holds the distinct seen instances as an int32 matrix of
    signed-index rows, at most k wide, and ``labels`` their int8 +-1 labels.
    Both are checked once, here, and sorted into model-file order: by the
    first nonzero's index, then its value (-1 first), then the next nonzero,
    with a shorter row before any row it is a prefix of.
    """

    n: int
    k: int
    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows)
        if rows.ndim != 2 or rows.shape[1] > self.k:
            raise ValueError(f"table rows must form a matrix at most k={self.k} wide: got shape {rows.shape}")
        table = Sample(rows.shape[1], self.n, rows, self.labels)  # checks indices, padding and labels
        codes = 2 * np.abs(table.items) + (table.items > 0)  # padding 0 sorts first
        order = np.lexsort(codes.T[::-1]) if codes.shape[1] else np.arange(len(codes))
        self.rows, self.labels = table.items[order], table.y[order]
        if (self.rows[1:] == self.rows[:-1]).all(axis=1).any():
            raise ValueError("table repeats a row")

    def predict_many(self, rows: np.ndarray, n: int) -> np.ndarray:
        _check_n(self.n, n)
        # zero-pad both sides to one width, so a query wider than the table matches no row
        width = max(self.rows.shape[1], rows.shape[1])
        both = np.concatenate([np.pad(a, ((0, 0), (0, width - a.shape[1]))) for a in (self.rows, rows)])
        distinct, inverse = distinct_rows(both)
        label_of = np.full(len(distinct), DEFAULT_LABEL, dtype=np.int8)
        label_of[inverse[:len(self.rows)]] = self.labels
        return label_of[inverse[len(self.rows):]]


@dataclass
class MatrixPredictor(TrainedPredictor):
    """sign of a real score matrix read at an instance's cell (0 -> +1).

    ``realization`` names the coordinate-sum part r whose cell map the matrix
    was trained under.  ``max_trace`` is a training diagnostic (largest
    capped trace seen).
    """

    n_rows: int
    n_cols: int
    scores: np.ndarray
    realization: int
    max_trace: float = 0.0
    trace_cap: float = float("inf")

    def __post_init__(self) -> None:
        scores = np.array(self.scores, dtype=float)
        if scores.shape != (self.n_rows, self.n_cols):
            raise ValueError("score matrix shape mismatch")
        self.scores = scores

    def predict_many(self, rows: np.ndarray, n: int) -> np.ndarray:
        if (n, n) != (self.n_rows, self.n_cols):
            raise ValueError(f"dimension mismatch: instances have n={n}, matrix is {self.n_rows}x{self.n_cols}")
        parts = part_of_c2(rows)
        if (parts != self.realization).any():
            other = parts[parts != self.realization][0]
            raise ValueError(f"instance belongs to part r={other}, predictor is for r={self.realization}")
        cell_rows, cell_cols = realize_c2(rows)
        return np.where(self.scores[cell_rows - 1, cell_cols - 1] >= 0, 1, -1).astype(np.int8)


@dataclass
class BinaryHalfspacePredictor(TrainedPredictor):
    """x -> sign(<psi, x>) for +-1 weights psi."""

    psi: BinaryAssignment

    @property
    def n(self) -> int:
        return self.psi.n

    def predict_many(self, rows: np.ndarray, n: int) -> np.ndarray:
        _check_n(self.n, n)
        weights = np.concatenate(([0], self.psi.bits))  # index 0 reads the padding
        margins = (weights[np.abs(rows)] * np.sign(rows)).sum(axis=1)
        return np.where(margins >= 0, 1, -1).astype(np.int8)


@dataclass
class CompositePredictor(TrainedPredictor):
    """Routes each instance to the child trained on its part; empty parts say +1.

    ``router_name`` names the partition, ``"c2"`` or ``"c3"``, and children
    are keyed by part number (see :mod:`sparsehalf.realizations`).
    """

    router_name: str
    n: int
    children: dict[int, TrainedPredictor] = field(default_factory=dict)

    def predict_many(self, rows: np.ndarray, n: int) -> np.ndarray:
        _check_n(self.n, n)
        parts, child_rows = route_rows(self.router_name, rows, n)
        labels = np.full(len(rows), DEFAULT_LABEL, dtype=np.int8)
        for part, where in group_rows(parts).items():
            child = self.children.get(part)
            if child is not None:
                labels[where] = child.predict_many(child_rows[where], n)
        return labels


# ---------------------------------------------------------------------------
# Serialization

def _part_key(kind: str, part: int) -> str:
    if kind == "c2":
        return f"r={part - 2}"
    if part == 0:
        return "residual"
    return f"i={part // 2},b={-1 if part % 2 else 1:+d}"


def _part_keys(kind: str, n: int) -> dict[str, int]:
    """Part number by ``part`` line key, for every part of the ``kind`` partition at n."""
    parts = range(5) if kind == "c2" else [0, *range(2, 2 * n - 2)]
    return {_part_key(kind, part): part for part in parts}


def _node_lines(node: TrainedPredictor) -> Iterator[str]:
    """The node's model-file lines, each ending in a newline."""
    if isinstance(node, BinaryHalfspacePredictor):
        yield f"binary {node.psi.n}\n"
        yield " ".join(f"{b:+d}" for b in node.psi.bits) + "\n"
    elif isinstance(node, MajorityTable):
        yield f"table {node.n} {node.k} {len(node.rows)}\n"
        for row, label in zip(node.rows.tolist(), node.labels.tolist()):
            yield f"{format_instance(row)} -> {label:+d}\n".lstrip()
    elif isinstance(node, MatrixPredictor):
        yield f"matrix r={node.realization} {node.n_rows} {node.n_cols}\n"
        yield from format_float_rows(node.scores)
    elif isinstance(node, CompositePredictor):
        yield f"composite {node.router_name} {node.n} {len(node.children)}\n"
        for part in part_order(node.router_name, node.children):
            yield f"part {_part_key(node.router_name, part)}\n"
            yield from _node_lines(node.children[part])
    else:
        raise TypeError(f"cannot serialize predictor of type {type(node).__name__}")


def serialize_predictor(node: TrainedPredictor) -> str:
    return "".join(_node_lines(node))


class _Reader:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise FormatError("unexpected end of predictor file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def done(self) -> bool:
        return self.pos >= len(self.lines)


def _numbers(tokens: list[str], tag: str, line: int) -> list[int]:
    """The tokens as ints; FormatError naming the node and the file line otherwise."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise FormatError(f"{tag} node, line {line}: expected ints, got {' '.join(tokens)!r}") from None


def _read_table_row(line: str, n: int, number: int) -> tuple[int, list[int]]:
    """(label, nonzeros) of table row ``idx:val ... -> label`` at file line ``number``; FormatError if malformed."""
    left, sep, right = line.rpartition("->")
    if not sep:
        raise FormatError(f"table row missing '->': {line!r}")
    (label,) = _numbers([right], "table", number)
    if label not in (-1, 1):
        raise FormatError(f"table row label must be +-1: {line!r}")
    return label, parse_instance(left.split(), n, "table row")


def _read_node(reader: _Reader) -> TrainedPredictor:
    header = reader.next().split()
    if not header:
        raise FormatError("empty node header")
    tag = header[0]

    if tag == "binary":
        if len(header) != 2:
            raise FormatError("binary header is 'binary <n>'")
        (n,) = _numbers(header[1:], tag, reader.pos)
        bits = tuple(_numbers(reader.next().split(), tag, reader.pos))
        if len(bits) != n:
            raise FormatError(f"binary payload has {len(bits)} weights, expected {n}")
        return BinaryHalfspacePredictor(BinaryAssignment(bits))

    if tag == "table":
        if len(header) != 4:
            raise FormatError("table header is 'table <n> <k> <rows>'")
        n, k, count = _numbers(header[1:], tag, reader.pos)
        if count < 0:
            raise FormatError(f"table node, line {reader.pos}: negative row count {count}")
        first = reader.pos
        lines = reader.lines[first:first + count]
        reader.pos += len(lines)
        rows = []  # each row as '<label> <idx>:<val> ...' for read_rows; '' sends it to _read_table_row
        for line in lines:
            left, sep, right = line.rpartition("->")
            label = right.split()
            rows.append(f"{label[0]} {left}" if sep and len(label) == 1 else "")
        labels, items = read_rows(rows, n, k, lambda i: _read_table_row(lines[i], n, first + i + 1))
        if len(lines) < count:
            reader.next()  # unexpected end of predictor file
        try:
            return MajorityTable(n, k, items, labels)  # as wide as the widest row in the file, not the header's k
        except ValueError as exc:
            raise FormatError(f"table: {exc}") from exc

    if tag == "matrix":
        if len(header) != 4 or not header[1].startswith("r=") or not header[1][2:].lstrip("-").isdigit():
            raise FormatError("matrix header is 'matrix r=<r> <rows> <cols>'")
        n_rows, n_cols = _numbers(header[2:], tag, reader.pos)
        if min(n_rows, n_cols) < 0:
            raise FormatError(f"{tag} node, line {reader.pos}: negative dimension in {n_rows}x{n_cols}")
        first = reader.pos
        lines = reader.lines[first:first + n_rows]
        reader.pos += len(lines)
        scores = read_float_rows(lines, n_cols, lambda i: f"{tag} node, line {first + i + 1}", "scores")
        if len(lines) < n_rows:
            reader.next()  # unexpected end of predictor file
        return MatrixPredictor(n_rows, n_cols, scores, int(header[1][2:]))

    if tag == "composite":
        if len(header) != 4:
            raise FormatError("composite header is 'composite <router> <n> <children>'")
        router_name, (n, count) = header[1], _numbers(header[2:], tag, reader.pos)
        if router_name not in PARTITIONS:
            raise FormatError(f"unknown router {router_name!r}")
        keys = _part_keys(router_name, n)
        children: dict[int, TrainedPredictor] = {}
        for _ in range(count):
            part_line = reader.next().split()
            if len(part_line) != 2 or part_line[0] != "part":
                raise FormatError(f"expected 'part <key>' line, got {' '.join(part_line)!r}")
            part = keys.get(part_line[1])
            if part is None:
                raise FormatError(f"part key {part_line[1]!r} names no part of the {router_name} partition at n={n}")
            if part in children:
                raise FormatError(f"part {part_line[1]} appears twice")
            child = _read_node(reader)
            dims = (child.n_rows, child.n_cols) if isinstance(child, MatrixPredictor) else (child.n, child.n)
            if dims != (n, n):
                raise FormatError(f"part {part_line[1]}: child of dimension {dims[0]}x{dims[1]} under a composite with n={n}")
            children[part] = child
        return CompositePredictor(router_name, n, children)

    raise FormatError(f"unknown predictor node tag {tag!r}")


def parse_predictor(text: str) -> TrainedPredictor:
    reader = _Reader(text.splitlines())
    node = _read_node(reader)
    while not reader.done():
        if reader.next().strip():
            raise FormatError("trailing content after predictor")
    return node


def write_predictor(path: str, node: TrainedPredictor) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(_node_lines(node))


def read_predictor(path: str) -> TrainedPredictor:
    with open(path, "r", encoding="ascii") as fh:
        return parse_predictor(fh.read())
