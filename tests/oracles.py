"""Reference implementations the tests compare the library against.

One instance at a time as a :class:`SparseVector` of (index, value) pairs,
with the one-instance ``predict`` and ``cell_label`` helpers; the majority
table as a dict keyed by those pairs; real-weight halfspaces; enumerations
of instance and clause spaces; the per-clause satisfaction and
clause-to-example rules that the library applies to a whole formula matrix
at once, and the per-clause formula sampler that the block sampler
``sparsehalf.formulas.sample_formula`` replaced; the hypothesis matrices of
the realization suite; the per-instance routing functions that the batch
versions in ``sparsehalf.realizations`` replaced; and the per-step matrix
exponentiated-gradient loop that ``sparsehalf.learners.matrix_mw_learn``
replaced; and the line-by-line readers of sample files and table nodes that
``sparsehalf.core.read_rows`` replaced; and the per-value writer and per-row reader of float matrices
(certificate blocks, matrix nodes) that ``sparsehalf.core.format_float_rows``
and ``read_float_rows`` replaced; and the OpenBLAS core types that
kernel-dependence tests pin in their subprocesses; and ``model_text``, a
predictor's model file as ``write_predictor`` writes it.  It also holds the
paper's closure constructions of decomposable matrices, which no command
runs: ``tensor_decomposition`` (W tensor a PSD factor),
``delete_rowcol_decomposition`` (a principal minor: one source row or
column removed), ``all_ones_decomposition``, ``diagonal_decomposition``,
and ``row_threshold_matrix`` with ``row_threshold_decomposition`` (carved
out of T tensor J).  Nothing here is used by the library.
"""

from __future__ import annotations

import math
import os
import re
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from sparsehalf import learners
from sparsehalf.core import BinaryAssignment, Sample
from sparsehalf.decompmat import PSD_TOL, Decomposition, certify_min_beta, triangular_matrix
from sparsehalf.errors import FormatError, NumericError
from sparsehalf.formulas import ABOVE, Formula, FormulaKind, FormulaSourceConfig
from sparsehalf.learners import LearnerConfig
from sparsehalf.predictors import MajorityTable, TrainedPredictor, write_predictor
from sparsehalf.rng import generator


def sign_pm(value: float) -> int:
    """sign with the package convention sign(0) = +1."""
    return 1 if value >= 0 else -1


@dataclass(frozen=True)
class SparseVector:
    """At most k nonzero +-1 coordinates of an n-dimensional vector.

    ``entries`` holds (index, value) pairs with strictly increasing 1-based
    indices; zero coordinates are never stored.
    """

    n: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be positive: got {self.n}")
        entries = tuple((int(i), int(v)) for i, v in self.entries)
        last = 0
        for idx, val in entries:
            if not last < idx <= self.n:
                raise ValueError(f"indices must be strictly increasing in [1, {self.n}]")
            if val not in (-1, 1):
                raise ValueError(f"entry values must be +-1: got {val}")
            last = idx
        object.__setattr__(self, "entries", entries)

    @property
    def nnz(self) -> int:
        return len(self.entries)


def row_entries(row: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """The (index, value) pairs of one signed-index row, padding dropped."""
    return tuple((abs(v), 1 if v > 0 else -1) for v in row if v)


def predict(predictor: TrainedPredictor, x: SparseVector) -> int:
    """The predictor's label of one instance: its batch path on a one-row matrix."""
    row = np.array([v * i for i, v in x.entries], dtype=np.int32)
    return int(predictor.predict_many(row[None], x.n)[0])


def model_text(node: TrainedPredictor) -> str:
    """The text of the model file that ``write_predictor`` writes for ``node``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model")
        write_predictor(path, node)
        with open(path, encoding="ascii", newline="") as fh:
            return fh.read()


def cell_label(scores: np.ndarray, row: int, col: int) -> int:
    """The sign of the score at 1-based cell (row, col), with sign(0) = +1."""
    return sign_pm(scores[row - 1, col - 1])


def sample_of(k: int, n: int, xs: Iterable[SparseVector], ys: Iterable[int]) -> Sample:
    """The Sample holding instances ``xs`` with labels ``ys``, in order."""
    xs, ys = list(xs), list(ys)
    items = np.zeros((len(xs), k), dtype=np.int32)
    for row, x in enumerate(xs):
        items[row, :x.nnz] = [v * i for i, v in x.entries]
    return Sample(k, n, items, np.array(ys, dtype=np.int8))


def vectors(rows: np.ndarray, n: int) -> list[SparseVector]:
    """The signed-index instance rows as SparseVectors, in order."""
    return [SparseVector(n, row_entries(row)) for row in rows.tolist()]


def count_calls(monkeypatch, owner, name: str) -> list[int]:
    """Wrap ``owner.name`` for the test so each call bumps the returned one-item counter."""
    calls, inner = [0], getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


#: OpenBLAS core types the kernel-dependence tests run under, and the CPU flag each one's kernels need
#: (Linux lists SSE3 as ``pni``).  The frozen certificates were recorded with the SkylakeX kernels.
OPENBLAS_CORES = {"SkylakeX": "avx512f", "Haswell": "avx2", "Prescott": "pni"}


def runnable_openblas_cores() -> list[str]:
    """The ``OPENBLAS_CORES`` whose kernels this CPU can run; none without /proc/cpuinfo."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return []
    flags = {flag for line in lines if line.startswith("flags") for flag in line.split(":", 1)[1].split()}
    return [core for core, flag in OPENBLAS_CORES.items() if flag in flags]


def core_env(core: str | None) -> dict[str, str]:
    """This process's environment for a subprocess whose OpenBLAS uses ``core``'s kernels (None: its own pick)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    return env | {"OPENBLAS_CORETYPE": core} if core else env


def frozen_core_env() -> dict[str, str]:
    """Subprocess environment for byte tests of 17-digit floats: the kernels they were recorded with, where runnable."""
    return core_env("SkylakeX" if "SkylakeX" in runnable_openblas_cores() else None)


def from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> SparseVector:
    """The SparseVector of unordered (index, value) pairs; duplicate indices are an error."""
    return SparseVector(n, tuple(sorted((int(i), int(v)) for i, v in pairs)))


def from_dense(vec) -> SparseVector:
    """The SparseVector of a dense +-1/0 vector."""
    return SparseVector(len(vec), tuple((i + 1, int(v)) for i, v in enumerate(vec) if v))


def negate(x: SparseVector) -> SparseVector:
    """-x."""
    return SparseVector(x.n, tuple((i, -v) for i, v in x.entries))


def to_dense(x: SparseVector) -> np.ndarray:
    """The dense int8 vector of a SparseVector."""
    dense = np.zeros(x.n, dtype=np.int8)
    for idx, val in x.entries:
        dense[idx - 1] = val
    return dense


# ---------------------------------------------------------------------------
# Real-weight halfspaces

@dataclass(frozen=True)
class Halfspace:
    """x -> sign(<w, x> + b), evaluated over the nonzeros of x only."""

    w: np.ndarray
    b: float = 0.0

    def __post_init__(self) -> None:
        w = np.array(self.w, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if not np.all(np.isfinite(w)) or not np.isfinite(self.b):
            raise ValueError("halfspace parameters must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", float(self.b))

    @property
    def n(self) -> int:
        return int(self.w.size)


def eval_halfspace(h: Halfspace, x: SparseVector) -> int:
    """sign(<w, x> + b) over the nonzero coordinates of x; sign(0) = +1."""
    if x.n != h.n:
        raise ValueError(f"dimension mismatch: instance {x.n} vs halfspace {h.n}")
    total = h.b
    for idx, val in x.entries:
        total += h.w[idx - 1] * val
    return sign_pm(total)


# ---------------------------------------------------------------------------
# Instance and clause spaces

def count_sparse_vectors(n: int, k: int) -> int:
    """|{x in {-1,0,1}^n : at most k nonzeros}|."""
    return sum(comb(n, j) * 2**j for j in range(k + 1))


def iter_sparse_vectors(n: int, k: int) -> Iterator[SparseVector]:
    """All at-most-k-sparse vectors, in a fixed deterministic order."""
    for size in range(k + 1):
        for idxs in combinations(range(1, n + 1), size):
            for signs in product((1, -1), repeat=size):
                yield SparseVector(n, tuple(zip(idxs, signs)))


def iter_all_clauses(n: int) -> Iterator[tuple[int, int, int]]:
    """All clauses over n variables (unordered variable triples x sign patterns), as signed indices."""
    for triple in combinations(range(1, n + 1), 3):
        for signs in product((1, -1), repeat=3):
            yield tuple(s * v for v, s in zip(triple, signs))  # type: ignore[misc]


# ---------------------------------------------------------------------------
# One clause at a time

def eval_clause(kind: FormulaKind, clause: Sequence[int], psi: BinaryAssignment) -> bool:
    """OR: some literal of the signed-index clause agrees with psi; majority: at least two agree."""
    agree = sum(psi.bits[abs(v) - 1] == (1 if v > 0 else -1) for v in clause)
    return agree >= 1 if kind is FormulaKind.CNF else agree >= 2


def clause_to_example(clause: Sequence[int], b: int, n: int) -> tuple[SparseVector, int]:
    """The labeled 3-sparse example (x, y) a majority clause generates for coin b.

    The instance places b * sign on each of the clause's three variables and
    the label is b itself.
    """
    if b not in (-1, 1):
        raise ValueError(f"b must be +-1: got {b}")
    return from_pairs(n, [(abs(v), b if v > 0 else -b) for v in clause]), b


def sample_formula_stepwise(cfg: FormulaSourceConfig, kind: FormulaKind) -> Formula:
    """``sample_formula`` one clause at a time, redrawing each planted clause until psi satisfies it.

    Each clause draws three distinct variables with ``rng.choice`` and three
    sign coins.  This is the same law as the block sampler, and the bytes of
    the formulas drawn before it: pinned enumeration results and committed
    formula fixtures were recorded on them.
    """
    if cfg.n < 3:
        raise ValueError("need n >= 3 variables for 3-literal clauses")
    rng = generator(cfg.seed)
    psi = None if cfg.psi is None else np.array(cfg.psi.bits)
    lits = np.empty((cfg.m, 3), dtype=np.int32)
    for row in lits:
        while True:
            variables = rng.choice(cfg.n, size=3, replace=False)
            signs = rng.integers(0, 2, size=3) * 2 - 1
            if psi is None or signs @ psi[variables] > ABOVE[kind]:
                break
        row[:] = (variables + 1) * signs
    return Formula(cfg.n, kind, lits)


def sample_exact_sparse_oneshot(n: int, k: int, count: int, seed: int) -> np.ndarray:
    """``sample_exact_sparse`` as one count x n score matrix and one count x n argpartition.

    The block sampler consumes the generator in this order and must give
    these bytes.
    """
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n: got k={k}, n={n}")
    if count == 0:
        return np.zeros((0, k), dtype=np.int32)
    rng = generator(seed)
    scores = rng.random((count, n))
    chosen = np.argpartition(scores, k - 1, axis=1)[:, :k]
    chosen.sort(axis=1)
    signs = rng.integers(0, 2, size=(count, k), dtype=np.int8) * 2 - 1
    return ((chosen + 1) * signs).astype(np.int32)


def distinct_rows_void(items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``core.distinct_rows`` keyed by each row's bytes as one numpy void scalar."""
    items = np.ascontiguousarray(items)
    if not items.shape[1]:  # every row is the zero vector
        return items[:1], np.zeros(len(items), dtype=np.intp)
    keys = items.view(np.dtype((np.void, items.itemsize * items.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return items[first], inverse.reshape(-1)


# ---------------------------------------------------------------------------
# Per-instance routing, one SparseVector at a time

def part_of_c2(x: SparseVector) -> int:
    """Coordinate sum r of an at-most-2-sparse instance; the zero vector gets r=0."""
    if x.nnz > 2:
        raise ValueError(f"instance has {x.nnz} nonzeros, expected at most 2")
    return sum(v for _, v in x.entries)


def realize_c2(x: SparseVector) -> tuple[int, int]:
    """1-based matrix cell (row, col) of an at-most-2-sparse instance."""
    r = part_of_c2(x)
    if x.nnz == 0:
        return 1, 1
    if x.nnz == 1:
        idx, _ = x.entries[0]
        return idx, idx
    (i, vi), (j, _) = x.entries
    if r == 0:
        return (i, j) if vi > 0 else (j, i)
    return i, j


def strip_first_nonzero(x: SparseVector) -> tuple[int, int, SparseVector]:
    """(position, value, instance with that coordinate zeroed); needs a nonzero."""
    if x.nnz == 0:
        raise ValueError("cannot strip the zero vector")
    (i, b), rest = x.entries[0], x.entries[1:]
    return i, b, SparseVector(x.n, rest)


def part_of_c3(x: SparseVector) -> int:
    """First-nonzero part number of an at-most-3-sparse instance (0: the residual)."""
    if x.nnz > 3:
        raise ValueError(f"instance has {x.nnz} nonzeros, expected at most 3")
    if x.nnz == 0:
        return 0
    i, b = x.entries[0]
    if i <= x.n - 2:
        return 2 * i + (0 if b > 0 else 1)
    return 0


def route(kind: str, x: SparseVector) -> tuple[int, SparseVector]:
    """(part number, transformed instance) of x under the ``"c2"`` or ``"c3"`` partition."""
    if kind == "c2":
        return part_of_c2(x) + 2, x
    part = part_of_c3(x)
    return part, (strip_first_nonzero(x)[2] if part else x)


def iter_part_c2(r: int, n: int) -> Iterator[SparseVector]:
    """All instances of coordinate-sum part r, in a fixed order."""
    if r == 0:
        yield SparseVector(n, ())
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    yield from_pairs(n, [(i, 1), (j, -1)])
    elif r in (1, -1):
        for i in range(1, n + 1):
            yield SparseVector(n, ((i, r),))
    else:
        sign = 1 if r > 0 else -1
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                yield SparseVector(n, ((i, sign), (j, sign)))


def hypothesis_matrix(h: Halfspace, r: int, n: int) -> np.ndarray:
    """The n x n sign matrix whose cells carry h over part r; other cells are +1."""
    W = np.ones((n, n), dtype=np.int8)
    for x in iter_part_c2(r, n):
        row, col = realize_c2(x)
        W[row - 1, col - 1] = eval_halfspace(h, x)
    return W


class DictTable(TrainedPredictor):
    """The majority table keyed by (index, value) tuples: a dict from instance to label."""

    def __init__(self, sample: Sample):
        votes: dict[tuple[tuple[int, int], ...], int] = defaultdict(int)
        for x, y in zip(vectors(sample.items, sample.n), sample.y.tolist()):
            votes[x.entries] += y
        self.n, self.k = sample.n, sample.k
        self.table = {entries: sign_pm(total) for entries, total in votes.items()}

    def predict_many(self, rows: np.ndarray, n: int) -> np.ndarray:
        return np.array([self.table.get(row_entries(row), 1) for row in rows.tolist()], dtype=np.int8)

    def model_text(self) -> str:
        """The ``table`` node of a model file: the rows in sorted order of their tuples."""
        lines = [f"table {self.n} {self.k} {len(self.table)}"]
        for entries in sorted(self.table):
            inst = " ".join(f"{i}:{v:+d}" for i, v in entries)
            lines.append(f"{inst} -> {self.table[entries]:+d}" if inst else f"-> {self.table[entries]:+d}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Sample files and table nodes, one line and one token at a time

_HEADER_RE = re.compile(r"#\s*sparse-sample\s+n=(\d+)\s+k=(\d+)\s*$")


def parse_instance(tokens: Sequence[str], n: int, where: str) -> list[int]:
    """The instance written as ``idx:val`` tokens, as signed indices; FormatError if malformed."""
    signed = []
    last = 0
    for tok in tokens:
        idx_s, sep, val_s = tok.partition(":")
        if not sep:
            raise FormatError(f"{where}: expected idx:val token, got {tok!r}")
        try:
            idx, val = int(idx_s), int(val_s)
        except ValueError as exc:
            raise FormatError(f"{where}: bad entry token {tok!r}") from exc
        if not last < idx <= n:
            raise FormatError(f"{where}: indices must be strictly increasing in [1, {n}]")
        if val not in (-1, 1):
            raise FormatError(f"{where}: entry values must be +-1: got {val}")
        signed.append(idx if val > 0 else -idx)
        last = idx
    return signed


def parse_sample(text: str) -> Sample:
    """The sample file read line by line and token by token."""
    lines = text.splitlines()
    header = None
    body_start = 0
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        header = _HEADER_RE.match(line.strip())
        if header is None:
            raise FormatError(f"line {i + 1}: expected '# sparse-sample n=<N> k=<K>' header")
        body_start = i + 1
        break
    if header is None:
        raise FormatError("empty sample file: missing header")
    n, k = int(header.group(1)), int(header.group(2))
    if not 1 <= n <= np.iinfo(np.int32).max or k > n:
        raise FormatError(f"header needs 1 <= n < 2^31 and k <= n: got n={n}, k={k}")

    labels: list[int] = []
    signed: list[int] = []  # the rows, zero-padded to k and laid end to end
    for offset, line in enumerate(lines[body_start:], start=body_start + 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        try:
            label = int(tokens[0])
        except ValueError as exc:
            raise FormatError(f"line {offset}: bad label {tokens[0]!r}") from exc
        if label not in (-1, 1):
            raise FormatError(f"line {offset}: label must be +-1, got {label}")
        row = parse_instance(tokens[1:], n, f"line {offset}")
        if len(row) > k:
            raise FormatError(f"line {offset}: more than k={k} nonzeros")
        labels.append(label)
        signed += row + [0] * (k - len(row))
    return Sample(k, n, np.array(signed, dtype=np.int64).reshape(len(labels), k), labels)


def parse_table(text: str) -> MajorityTable:
    """A model file holding one ``table`` node, read row by row: arrow, label, ``idx:val`` tokens, k limit."""
    lines = text.splitlines()
    n, k, count = (int(field) for field in lines[0].split()[1:])
    rows, labels = [], []
    for pos in range(1, count + 1):
        if pos >= len(lines):
            raise FormatError(f"line {pos + 1}: unexpected end of predictor file")
        where = f"table node, line {pos + 1}"
        left, sep, right = lines[pos].rpartition("->")
        if not sep or len(right.split()) != 1:
            raise FormatError(f"{where}: expected '<idx>:<val> ... -> <label>', got {lines[pos]!r}")
        (label_token,) = right.split()
        try:
            label = int(label_token)
        except ValueError:
            raise FormatError(f"{where}: bad label {label_token!r}") from None
        if label not in (-1, 1):
            raise FormatError(f"{where}: label must be +-1, got {label}")
        row = parse_instance(left.split(), n, where)
        if len(row) > k:
            raise FormatError(f"{where}: more than k={k} nonzeros")
        rows.append(row)
        labels.append(label)
    width = max(map(len, rows), default=0)
    items = np.array([row + [0] * (width - len(row)) for row in rows], dtype=np.int64).reshape(count, width)
    try:
        return MajorityTable(n, k, items, labels)
    except ValueError as exc:
        raise FormatError(f"table node, line 1: {exc}") from exc


def format_float_rows(matrix: np.ndarray) -> str:
    """A float matrix's text, each entry formatted on its own with ``f"{v:.17g}"``."""
    return "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in matrix)


def read_float_rows(lines: Sequence[str], cols: int) -> np.ndarray:
    """A float matrix read back row by row, each token with ``float``."""
    out = np.empty((len(lines), cols))
    for i, row in enumerate(lines):
        vals = row.split()
        if len(vals) != cols:
            raise FormatError(f"matrix row has {len(vals)} entries, expected {cols}")
        out[i] = [float(v) for v in vals]
    return out


class FunctionPredictor(TrainedPredictor):
    """Labels each row by a function of its SparseVector, one instance at a time."""

    def __init__(self, n: int, fn: Callable[[SparseVector], int]):
        self.n, self.fn = n, fn

    def predict_many(self, rows: np.ndarray, n: int) -> np.ndarray:
        return np.array([self.fn(x) for x in vectors(rows, n)], dtype=np.int8)


# ---------------------------------------------------------------------------
# Matrix exponentiated gradient, one Python iteration per step

def matrix_mw_learn_stepwise(
    cells: Sequence[tuple[tuple[int, int], int]],
    dims: tuple[int, int],
    cfg: LearnerConfig,
) -> np.ndarray:
    """``matrix_mw_learn`` on ((row, col), label) pairs, adding the margins at every step.

    Margins stay fixed within each block of ``cfg.batch`` steps of an epoch;
    the iterate is recomputed at a block's end if the block changed it.
    Cells whose row and column lie in different components of the training
    cells' graph, found by a union-find of their own, score exactly 0.
    ``learners._eg_margins`` is looked up at call time so tests can count calls.
    """
    n_rows, n_cols = dims
    if n_rows < 1 or n_cols < 1:
        raise ValueError("matrix dimensions must be positive")
    for (row, col), label in cells:
        if not (1 <= row <= n_rows and 1 <= col <= n_cols):
            raise ValueError(f"cell ({row}, {col}) outside {n_rows}x{n_cols}")
        if label not in (-1, 1):
            raise ValueError(f"cell label must be +-1: got {label}")

    beta = cfg.beta if cfg.beta is not None else 4.0 * math.log2(max(2, max(dims)))
    d = n_rows + n_cols
    tau = 2.0 * beta * d

    C = np.zeros((n_rows, n_cols))
    margin_sum = np.zeros((n_rows, n_cols))
    steps = 0
    margins: np.ndarray | None = None
    rng = generator(cfg.seed)

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(cells)) if cells else []
        changed = False
        for step, pos in enumerate(order):
            (row, col), label = cells[pos]
            if margins is None:
                if not np.isfinite(C).all():
                    raise NumericError(f"non-finite accumulator in epoch {epoch + 1}; reduce eta")
                margins = learners._eg_margins(C, tau, d)
                if not np.isfinite(margins).all():
                    raise NumericError(f"non-finite margins in epoch {epoch + 1}; reduce eta")
            margin_sum += margins
            steps += 1
            if label * margins[row - 1, col - 1] < 1.0:
                C[row - 1, col - 1] += 0.5 * cfg.eta * label
                changed = True
            if changed and ((step + 1) % cfg.batch == 0 or step + 1 == len(order)):
                margins, changed = None, False  # the block changed the iterate: recompute lazily
    scores = margin_sum / steps if steps else margin_sum

    parent = {("r", i): ("r", i) for i in range(n_rows)} | {("c", j): ("c", j) for j in range(n_cols)}

    def root(node):
        while parent[node] != node:
            node = parent[node]
        return node

    for (row, col), _ in cells:
        parent[root(("r", row - 1))] = root(("c", col - 1))
    for i in range(n_rows):
        for j in range(n_cols):
            if root(("r", i)) != root(("c", j)):
                scores[i, j] = 0.0
    return scores


# ---------------------------------------------------------------------------
# The paper's closure constructions of decomposable matrices

def tensor_decomposition(dec: Decomposition, A: np.ndarray) -> Decomposition:
    """Decomposition of W tensor A from a decomposition of W and a PSD factor A.

    Uses sym(W) (x) A = sym(W (x) A): tensoring P and N with A keeps them PSD
    and multiplies the diagonal cap by A's largest diagonal entry.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("tensor factor must be square")
    if np.abs(A - A.T).max(initial=0.0) > 1e-9:
        raise ValueError("tensor factor must be symmetric")
    if np.linalg.eigvalsh(A).min() < -PSD_TOL:
        raise ValueError("tensor factor must be positive semidefinite")
    alpha = float(np.diag(A).max(initial=0.0))
    return Decomposition(np.kron(dec.P, A), np.kron(dec.N, A), dec.beta * alpha)


def delete_rowcol_decomposition(
    dec: Decomposition, rows: int, *, row: int | None = None, col: int | None = None
) -> Decomposition:
    """Decomposition of a ``rows``-row source with one row or one column removed.

    Row i of the source maps to symmetrization coordinate i, column j to
    coordinate rows + j (1-based); deleting takes the corresponding principal
    minors of P and N, which stay PSD, so beta is unchanged.
    """
    if (row is None) == (col is None):
        raise ValueError("specify exactly one of row=, col=")
    cols = dec.d - rows
    if row is not None:
        if not 1 <= row <= rows:
            raise ValueError(f"row {row} out of range [1, {rows}]")
        coord = row - 1
    else:
        if not 1 <= col <= cols:
            raise ValueError(f"column {col} out of range [1, {cols}]")
        coord = rows + col - 1
    keep = [i for i in range(dec.d) if i != coord]
    sel = np.ix_(keep, keep)
    return Decomposition(dec.P[sel], dec.N[sel], dec.beta)


def all_ones_decomposition(n: int) -> Decomposition:
    """Rank-one split of the all-ones matrix; both parts have diagonal 1/2."""
    if n < 1:
        raise ValueError("need n >= 1")
    P = np.full((2 * n, 2 * n), 0.5)
    block = np.array([[1.0, -1.0], [-1.0, 1.0]])
    N = 0.5 * np.kron(block, np.ones((n, n)))
    return Decomposition(P, N, 0.5)


def diagonal_decomposition(D: np.ndarray) -> Decomposition:
    """Per-index 2x2 split of a real diagonal matrix; beta = max |D_ii|."""
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError("input must be square")
    if np.abs(D - np.diag(np.diag(D))).max(initial=0.0) != 0.0:
        raise ValueError("input must be diagonal")
    n = D.shape[0]
    diag = np.diag(D)
    P = np.zeros((2 * n, 2 * n))
    N = np.zeros((2 * n, 2 * n))
    for i, d in enumerate(diag):
        P[i, i] = P[n + i, n + i] = abs(d)
        P[i, n + i] = P[n + i, i] = d
        N[i, i] = N[n + i, n + i] = abs(d)
    beta = float(np.abs(diag).max(initial=0.0))
    return Decomposition(P, N, beta)


def row_threshold_matrix(thresholds: Iterable[int]) -> np.ndarray:
    t = list(int(v) for v in thresholds)
    n = len(t)
    if n < 1:
        raise ValueError("need at least one threshold")
    if any(not 0 <= v <= n for v in t):
        raise ValueError(f"thresholds must lie in [0, {n}]")
    cols = np.arange(1, n + 1)[None, :]
    return np.where(cols <= np.array(t)[:, None], -1, 1).astype(np.int8)


def row_threshold_decomposition(
    thresholds: Iterable[int],
    base: Decomposition | None = None,
) -> tuple[np.ndarray, Decomposition]:
    """Sign matrix whose row i is -1 up to thresholds[i] then +1, with certificate.

    The matrix is carved out of T (x) J, where T is the certified triangular
    matrix one size up (thresholds may reach n, which needs an extra all
    minus-one block row) and J is all ones: row i picks the block row at level
    thresholds[i], column j picks block column j, and because J is constant
    the principal minor of the tensored decomposition is just an index lookup
    into the base certificate.  Selecting rows in their original order folds
    the sort and un-permute steps into the same lookup.  beta is the base
    certificate's beta; by default the base is ``certify_min_beta`` of T,
    computed on each call (milliseconds, with no Dykstra run).
    """
    t = [int(v) for v in thresholds]
    W = row_threshold_matrix(t)
    n = len(t)
    m = n + 1
    if base is None:
        base = certify_min_beta(triangular_matrix(m))[1]
    if base.d != 2 * m:
        raise ValueError(f"base certificate must decompose the {m}x{m} triangular matrix")
    # symmetrization coordinates in the base: row block for level t_i, then column blocks
    coords = [ti for ti in t] + [m + j for j in range(n)]
    sel = np.ix_(coords, coords)
    dec = Decomposition(base.P[sel], base.N[sel], base.beta)
    return W, dec
