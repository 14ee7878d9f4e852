"""Sparse sign instances, halfspace hypotheses, labeled samples, exact error.

Instances are vectors in {-1, 0, +1}^n with at most k nonzero coordinates,
stored sparsely as ordered (index, value) pairs with 1-based indices.  Dense
expansion is always an explicit conversion.  Empirical error is exact
rational arithmetic (``fractions.Fraction``).  The sign convention is fixed
package-wide: sign(0) = +1.

Text format for labeled samples (shared with the CLI)::

    # sparse-sample n=<N> k=<K>
    +1 2:+1 3:-1 6:-1
    -1

One example per line: label first, then the nonzero coordinates in ascending
index order.  A line holding only a label encodes the zero vector.  Blank
lines and additional ``#`` comments are ignored.
"""

from __future__ import annotations

import gc
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import FormatError, GuardError
from .rng import generator

Label = int

#: Largest n for which the 2^n exhaustive paths (ERM, formula value) will run
#: without an explicit override.
EXHAUSTIVE_N_LIMIT = 24


def sign_pm(value: float) -> Label:
    """sign with the package convention sign(0) = +1."""
    return 1 if value >= 0 else -1


@dataclass(frozen=True)
class SparseVector:
    """At most k nonzero +-1 coordinates of an n-dimensional vector.

    ``entries`` holds (index, value) pairs with strictly increasing 1-based
    indices; zero coordinates are never stored.  The sparsity bound k is kept
    on the surrounding :class:`Sample`, not per vector.
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

    @staticmethod
    def from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> "SparseVector":
        """Build from unordered (index, value) pairs; duplicate indices are an error."""
        ordered = tuple(sorted((int(i), int(v)) for i, v in pairs))
        return SparseVector(n, ordered)

    @staticmethod
    def from_dense(vec: Sequence[int] | np.ndarray) -> "SparseVector":
        entries = tuple((i + 1, int(v)) for i, v in enumerate(vec) if v)
        return SparseVector(len(vec), entries)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.n, dtype=np.int8)
        for idx, val in self.entries:
            dense[idx - 1] = val
        return dense

    def __neg__(self) -> "SparseVector":
        return SparseVector(self.n, tuple((i, -v) for i, v in self.entries))


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


@dataclass(frozen=True)
class BinaryAssignment:
    """A +-1 vector; doubles as a boolean assignment and as binary halfspace weights."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        bits = tuple(int(b) for b in self.bits)
        if not bits:
            raise ValueError("assignment must be nonempty")
        if any(b not in (-1, 1) for b in bits):
            raise ValueError("assignment entries must be +-1")
        object.__setattr__(self, "bits", bits)

    @property
    def n(self) -> int:
        return len(self.bits)

    def as_array(self) -> np.ndarray:
        return np.array(self.bits, dtype=np.int8)


@dataclass(frozen=True)
class Example:
    x: SparseVector
    y: Label

    def __post_init__(self) -> None:
        if self.y not in (-1, 1):
            raise ValueError(f"label must be +-1: got {self.y}")
        object.__setattr__(self, "y", int(self.y))


@dataclass(frozen=True)
class Sample:
    """Ordered labeled examples over n-dimensional, at-most-k-sparse instances."""

    k: int
    n: int
    items: tuple[Example, ...]

    def __post_init__(self) -> None:
        if self.k < 0 or self.n < 1:
            raise ValueError("need k >= 0 and n >= 1")
        items = tuple(self.items)
        for ex in items:
            if ex.x.n != self.n:
                raise ValueError(f"example dimension {ex.x.n} != sample dimension {self.n}")
            if ex.x.nnz > self.k:
                raise ValueError(f"example has {ex.x.nnz} nonzeros > sparsity bound {self.k}")
        object.__setattr__(self, "items", items)

    def __len__(self) -> int:
        return len(self.items)


def eval_halfspace(h: Halfspace, x: SparseVector) -> Label:
    """sign(<w, x> + b) over the nonzero coordinates of x; sign(0) = +1."""
    if x.n != h.n:
        raise ValueError(f"dimension mismatch: instance {x.n} vs halfspace {h.n}")
    total = h.b
    for idx, val in x.entries:
        total += h.w[idx - 1] * val
    return sign_pm(total)


def _predict_fn(predictor) -> Callable[[SparseVector], Label]:
    fn = getattr(predictor, "predict", None)
    if fn is not None:
        return fn
    if callable(predictor):
        return predictor
    raise TypeError(f"not a predictor: {predictor!r}")


def empirical_error(predictor, sample: Sample) -> Fraction:
    """Exact fraction of examples the predictor labels incorrectly."""
    if not sample.items:
        raise ValueError("empirical error of an empty sample is undefined")
    predict = _predict_fn(predictor)
    wrong = sum(1 for ex in sample.items if predict(ex.x) != ex.y)
    return Fraction(wrong, len(sample.items))


def assignment_from_index(index: int, n: int) -> tuple[int, ...]:
    """The index-th +-1 pattern; coordinate 1 is the most significant bit, 0 -> +1.

    Index order therefore equals lexicographic order with +1 < -1, so index 0
    is the all-(+1) pattern.
    """
    return tuple(1 if ((index >> (n - 1 - j)) & 1) == 0 else -1 for j in range(n))


def best_pattern(rows: np.ndarray, above: np.ndarray) -> tuple[int, int]:
    """(count, index): the most rows with <row, w> > above[row] over all +-1 patterns w.

    ``rows`` is an int8 m x n matrix and ``above`` an m-vector of thresholds.
    Patterns are numbered as in :func:`assignment_from_index`; ``index`` is
    the first maximizer, the lexicographically first under +1 < -1.  The
    margins of the trailing ``low`` coordinates minus ``above`` are tabulated
    once (2^low x m int16, at most 2^24 entries); each pattern of the leading
    coordinates is then one comparison of that table against its negated
    margins.
    """
    m, n = rows.shape
    low = min(n, 16, max(0, 24 - m.bit_length()))
    high = n - low
    margins = np.empty((1 << low, m), dtype=np.int16)
    margins[0] = -above
    for bit in range(low):  # double the table: coordinate n - bit is +1 in the first half
        size = 1 << bit
        col = rows[:, n - 1 - bit]
        np.subtract(margins[:size], col, out=margins[size:2 * size])
        margins[:size] += col
    high_rows = rows[:, :high].astype(np.int16)
    passed = np.empty(margins.shape, dtype=bool)
    best_count, best_index = -1, 0
    for prefix in range(1 << high):
        negated = high_rows @ -np.array(assignment_from_index(prefix, high), dtype=np.int16)
        counts = np.count_nonzero(np.greater(margins, negated, out=passed), axis=1)
        local = int(counts.argmax())
        if counts[local] > best_count:
            best_count, best_index = int(counts[local]), (prefix << low) | local
    return best_count, best_index


def erm_binary_halfspace(sample: Sample, *, force: bool = False) -> tuple[BinaryAssignment, Fraction]:
    """Exhaustive empirical risk minimization over homogeneous +-1-weight halfspaces.

    Enumerates all 2^n weight patterns and returns a minimizer of the
    empirical error of x -> sign(<w, x>) together with that error.  Ties are
    broken by the lexicographically smallest pattern under +1 < -1, so the
    result is reproducible (an empty sample ties everything and yields the
    all-(+1) weights with error 0).  Guarded at n <= 24 unless ``force`` is
    set.

    Example (x, y) is right iff <w, y x> > -1 for y = +1 (sign(0) = +1) and
    > 0 for y = -1, which is one :func:`best_pattern` row.
    """
    m = len(sample)
    n = sample.n
    if m == 0:
        return BinaryAssignment((1,) * n), Fraction(0)
    if n > EXHAUSTIVE_N_LIMIT and not force:
        raise GuardError(f"ERM enumerates 2^{n} patterns; the guard stops n > {EXHAUSTIVE_N_LIMIT} unless forced")

    rows = np.zeros((m, n), dtype=np.int8)
    above = np.zeros(m, dtype=np.int16)
    for row, ex in enumerate(sample.items):
        for idx, val in ex.x.entries:
            rows[row, idx - 1] = ex.y * val
        if ex.y > 0:
            above[row] = -1
    count, index = best_pattern(rows, above)
    return BinaryAssignment(assignment_from_index(index, n)), Fraction(m - count, m)


# ---------------------------------------------------------------------------
# Instance-space enumeration and sampling

def count_sparse_vectors(n: int, k: int) -> int:
    """|{x in {-1,0,1}^n : at most k nonzeros}|."""
    return sum(comb(n, j) * 2**j for j in range(k + 1))


def iter_sparse_vectors(n: int, k: int) -> Iterator[SparseVector]:
    """All at-most-k-sparse vectors, in a fixed deterministic order."""
    for size in range(k + 1):
        for idxs in combinations(range(1, n + 1), size):
            for signs in product((1, -1), repeat=size):
                yield SparseVector(n, tuple(zip(idxs, signs)))


def sample_exact_sparse(n: int, k: int, count: int, seed: int) -> list[SparseVector]:
    """Uniform i.i.d. draws from the exactly-k-sparse vectors."""
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n: got k={k}, n={n}")
    if count == 0:
        return []
    rng = generator(seed)
    scores = rng.random((count, n))
    chosen = np.argpartition(scores, k - 1, axis=1)[:, :k]
    chosen.sort(axis=1)
    signs = rng.integers(0, 2, size=(count, k), dtype=np.int8) * 2 - 1
    out = []
    for row in range(count):
        entries = tuple((int(chosen[row, j]) + 1, int(signs[row, j])) for j in range(k))
        out.append(SparseVector(n, entries))
    return out


# ---------------------------------------------------------------------------
# Sample text format

_HEADER_RE = re.compile(r"#\s*sparse-sample\s+n=(\d+)\s+k=(\d+)\s*$")


def serialize_sample(sample: Sample) -> str:
    lines = [f"# sparse-sample n={sample.n} k={sample.k}"]
    for ex in sample.items:
        lines.append(serialize_instance_line(ex.x, ex.y))
    return "\n".join(lines) + "\n"


def serialize_instance_line(x: SparseVector, y: Label) -> str:
    parts = [f"{y:+d}"] + [f"{i}:{v:+d}" for i, v in x.entries]
    return " ".join(parts)


def parse_instance(tokens: Sequence[str], n: int, where: str) -> SparseVector:
    """The validated instance written as ``idx:val`` tokens; FormatError otherwise."""
    entries = []
    for tok in tokens:
        if ":" not in tok:
            raise FormatError(f"{where}: expected idx:val token, got {tok!r}")
        idx_s, val_s = tok.split(":", 1)
        try:
            idx, val = int(idx_s), int(val_s)
        except ValueError as exc:
            raise FormatError(f"{where}: bad entry token {tok!r}") from exc
        entries.append((idx, val))
    try:
        return SparseVector(n, tuple(entries))
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def parse_sample(text: str) -> Sample:
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

    # the loop only allocates acyclic objects, so cyclic collection passes
    # over them are pure cost (about half the parse time with GC on)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        items = []
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
            x = parse_instance(tokens[1:], n, f"line {offset}")
            if x.nnz > k:
                raise FormatError(f"line {offset}: more than k={k} nonzeros")
            items.append(Example(x, label))
    finally:
        if gc_was_enabled:
            gc.enable()
    return Sample(k=k, n=n, items=tuple(items))
