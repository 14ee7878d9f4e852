"""Trained predictors: trees of nodes that label sparse instances +-1.

Four node kinds, composed into trees by the composite router node:

* ``table``     -- per-instance majority lookup with a +1 default;
* ``matrix``    -- real n x n score matrix read through a two-sparse cell map, for its own part's rows;
* ``binary``    -- the homogeneous +-1-weight halfspace, :class:`sparsehalf.core.BinaryAssignment`;
* ``composite`` -- routes an instance to a per-part child predictor.

Every node labels n-dimensional instances, a whole instance matrix at once
(``predict_many``, rows in the signed-index form of ``core.Sample``).  Each
constructor checks its node's rules, so every tree built reads back.

Serialization is line-based text: a tagged header per node followed by its
payload (table rows in the sparse-sample instance syntax, matrices row
major in the float-matrix codec of :mod:`sparsehalf.core`: ``%.17g`` per
entry, the same bytes as formatting each entry alone).  It round-trips
byte-for-byte, and the writer streams the lines.  The reader only parses,
and names the node and line of a constructor's ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from .core import (BinaryAssignment, Sample, TrainedPredictor, _check_n, distinct_rows, format_float_rows,
                   format_instance, read_float_rows, read_rows, read_text)
from .errors import FormatError
from .realizations import group_rows, part_name, part_names, part_of_c2, part_of_name, realize_c2, route_rows

#: The label of an unseen instance and of a part with no examples.
DEFAULT_LABEL = 1


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
    """sign of a finite n x n score matrix read at an instance's cell (0 -> +1).

    ``realization`` names the coordinate-sum part r, in -2..2, whose cell map
    the matrix was trained under.
    """

    n: int
    scores: np.ndarray
    realization: int

    def __post_init__(self) -> None:
        scores = np.array(self.scores, dtype=float)
        if scores.shape != (self.n, self.n):
            raise ValueError(f"score matrix is {'x'.join(map(str, scores.shape))}, not {self.n}x{self.n}")
        if not np.isfinite(scores).all():
            raise ValueError("scores must be finite")
        if not -2 <= self.realization <= 2:
            raise ValueError(f"r={self.realization} names no coordinate-sum part -2..2")
        self.scores = scores

    def predict_many(self, rows: np.ndarray, n: int) -> np.ndarray:
        _check_n(self.n, n)
        parts = part_of_c2(rows)
        if (parts != self.realization).any():
            other = parts[parts != self.realization][0]
            raise ValueError(f"instance belongs to part r={other}, predictor is for r={self.realization}")
        cell_rows, cell_cols = realize_c2(rows)
        return np.where(self.scores[cell_rows - 1, cell_cols - 1] >= 0, 1, -1).astype(np.int8)


def _check_nesting(router_name: str, child_router: str) -> None:
    """ValueError unless a ``router_name`` part may hold a ``child_router`` composite: c3 holds c2, c2 holds none."""
    if router_name == "c2" or child_router != "c2":
        allowed = "leaves" if router_name == "c2" else "c2 composites and leaves"
        raise ValueError(f"a {router_name} part holds only {allowed}, got {f'composite {child_router}'!r}")


@dataclass
class CompositePredictor(TrainedPredictor):
    """Routes each instance to the child trained on its part; empty parts say +1.

    ``router_name`` names the partition, ``"c2"`` or ``"c3"``; children are
    keyed by part number, and only by parts that ``realizations.part_name`` keys.
    Each child has the composite's n and nests by ``_check_nesting``; a c2 matrix child sits at its own part r.
    """

    router_name: str
    n: int
    children: dict[int, TrainedPredictor] = field(default_factory=dict)

    def __post_init__(self) -> None:
        part_name(self.router_name, self.n, 0)  # ValueError for an unknown router
        if unknown := sorted(part for part in self.children if part_name(self.router_name, self.n, part) is None):
            raise ValueError(f"the {self.router_name} partition has no part {unknown[0]} at n={self.n}")
        for part, child in self.children.items():
            key = part_name(self.router_name, self.n, part)
            if isinstance(child, CompositePredictor):
                _check_nesting(self.router_name, child.router_name)
            if child.n != self.n:
                raise ValueError(f"part {key} holds an n={child.n} child under n={self.n}")
            if self.router_name == "c2" and isinstance(child, MatrixPredictor) and part != child.realization + 2:
                raise ValueError(f"part {key} holds a matrix for r={child.realization}")

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

def _node_lines(node: TrainedPredictor) -> Iterator[str]:
    """The node's model-file lines, each ending in a newline."""
    if isinstance(node, BinaryAssignment):
        yield f"binary {node.n}\n"
        yield " ".join(f"{b:+d}" for b in node.bits) + "\n"
    elif isinstance(node, MajorityTable):
        yield f"table {node.n} {node.k} {len(node.rows)}\n"
        for row, label in zip(node.rows.tolist(), node.labels.tolist()):
            yield f"{format_instance(row)} -> {label:+d}\n".lstrip()
    elif isinstance(node, MatrixPredictor):
        yield f"matrix r={node.realization} {node.n} {node.n}\n"
        yield from format_float_rows(node.scores)
    elif isinstance(node, CompositePredictor):
        yield f"composite {node.router_name} {node.n} {len(node.children)}\n"
        for part, name in part_names(node.router_name, node.n).items():
            if part in node.children:
                yield f"part {name}\n"
                yield from _node_lines(node.children[part])
    else:
        raise TypeError(f"cannot serialize predictor of type {type(node).__name__}")


class _Reader:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise FormatError(f"line {self.pos + 1}: unexpected end of predictor file")
        line = self.lines[self.pos]
        self.pos += 1
        return line


def _numbers(tokens: list[str], tag: str, line: int) -> list[int]:
    """The tokens as ints; FormatError naming the node and the file line otherwise."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise FormatError(f"{tag} node, line {line}: expected ints, got {' '.join(tokens)!r}") from None


def _built(tag: str, line: int, make: Callable[[], Any]) -> Any:
    """``make()``, its ValueError a FormatError naming the node and the file line."""
    try:
        return make()
    except ValueError as exc:
        raise FormatError(f"{tag} node, line {line}: {exc}") from None


def _read_node(reader: _Reader, holder: str | None = None) -> TrainedPredictor:
    """The node at the reader's line; ``holder`` is the router of the composite whose part it fills, if any."""
    line, header = reader.pos + 1, reader.next().split()
    if not header:
        raise FormatError(f"line {line}: empty node header")
    tag = header[0]

    if tag == "binary":
        if len(header) != 2:
            raise FormatError(f"{tag} node, line {line}: header is 'binary <n>'")
        (n,) = _numbers(header[1:], tag, line)
        bits = tuple(_numbers(reader.next().split(), tag, reader.pos))
        if len(bits) != n:
            raise FormatError(f"{tag} node, line {reader.pos}: payload has {len(bits)} weights, expected {n}")
        return _built(tag, reader.pos, lambda: BinaryAssignment(bits))

    if tag == "table":
        if len(header) != 4:
            raise FormatError(f"{tag} node, line {line}: header is 'table <n> <k> <rows>'")
        n, k, count = _numbers(header[1:], tag, line)
        if count < 0:
            raise FormatError(f"{tag} node, line {line}: negative row count {count}")
        first = reader.pos
        lines = reader.lines[first:first + count]
        reader.pos += len(lines)
        rows = []  # each row 'L -> y' as the sample line 'y L', up to the first that is not of that form
        for text in lines:
            left, sep, right = text.rpartition("->")
            label = right.split()
            if not sep or len(label) != 1:
                break
            rows.append(f"{label[0]} {left}")
        labels, items = read_rows(rows, n, k, lambda i: f"{tag} node, line {first + i + 1}")
        if len(rows) < len(lines):
            raise FormatError(f"{tag} node, line {first + len(rows) + 1}: "
                              f"expected '<idx>:<val> ... -> <label>', got {lines[len(rows)]!r}")
        if len(lines) < count:
            reader.next()  # unexpected end of predictor file
        return _built(tag, line, lambda: MajorityTable(n, k, items, labels))  # as wide as its widest row

    if tag == "matrix":
        if len(header) != 4 or not header[1].startswith("r=") or not header[1][2:].removeprefix("-").isdigit():
            raise FormatError(f"{tag} node, line {line}: header is 'matrix r=<r> <rows> <cols>'")
        n_rows, n_cols = _numbers(header[2:], tag, line)
        if min(n_rows, n_cols) < 0:
            raise FormatError(f"{tag} node, line {line}: negative dimension in {n_rows}x{n_cols}")
        first = reader.pos
        lines = reader.lines[first:first + n_rows]
        reader.pos += len(lines)
        scores = read_float_rows(lines, n_cols, lambda i: f"{tag} node, line {first + i + 1}", "scores")
        if len(lines) < n_rows:
            reader.next()  # unexpected end of predictor file
        return _built(tag, line, lambda: MatrixPredictor(n_rows, scores, int(header[1][2:])))

    if tag == "composite":
        if len(header) != 4:
            raise FormatError(f"{tag} node, line {line}: header is 'composite <router> <n> <children>'")
        router_name, (n, count) = header[1], _numbers(header[2:], tag, line)
        if holder is not None:  # before its children, so a deep file fails at its second composite
            _built(tag, line, lambda: _check_nesting(holder, router_name))
        if count < 0:
            raise FormatError(f"{tag} node, line {line}: negative child count {count}")
        children: dict[int, TrainedPredictor] = {}
        for _ in range(count):
            where, part_line = f"{tag} node, line {reader.pos + 1}", reader.next().split()
            if len(part_line) != 2 or part_line[0] != "part":
                raise FormatError(f"{where}: expected 'part <key>' line, got {' '.join(part_line)!r}")
            part = part_of_name(router_name, n, part_line[1])
            if part is None:
                raise FormatError(f"{where}: part key {part_line[1]!r} names no {router_name} part at n={n}")
            if part in children:
                raise FormatError(f"{where}: part {part_line[1]} appears twice")
            children[part] = _read_node(reader, router_name)
        return _built(tag, line, lambda: CompositePredictor(router_name, n, children))

    raise FormatError(f"line {line}: unknown predictor node tag {tag!r}")


def parse_predictor(text: str) -> TrainedPredictor:
    reader = _Reader(text.splitlines())
    node = _read_node(reader)
    while reader.pos < len(reader.lines):
        if reader.next().strip():
            raise FormatError(f"line {reader.pos}: trailing content after predictor")
    return node


def write_predictor(path: str, node: TrainedPredictor) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(_node_lines(node))


def read_predictor(path: str) -> TrainedPredictor:
    return parse_predictor(read_text(path))
