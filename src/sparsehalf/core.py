"""Sparse sign instances, binary halfspace weights, labeled samples, exact error.

Instances are vectors in {-1, 0, +1}^n with at most k nonzero coordinates.
Every instance in the package is one signed-index row: each nonzero is
written as its signed index value * index (indices 1-based), in ascending
index order, and the row ends in zero padding.  A :class:`Sample` keeps its
instances as one integer matrix with a row per instance.  Empirical error is
exact rational arithmetic (``fractions.Fraction``).  The sign convention is
fixed package-wide: sign(0) = +1.

Text format for labeled samples (shared with the CLI)::

    # sparse-sample n=<N> k=<K>
    +1 2:+1 3:-1 6:-1
    -1

One example per line: label first, then the nonzero coordinates in ascending
index order.  A line holding only a label encodes the zero vector.  Blank
lines and additional ``#`` comments are ignored.

:func:`parse_sample` reads the examples with :func:`read_rows`, which
tokenizes the text's bytes with numpy, ``CHUNK_LINES`` lines at a time.  A
line whose tokens, apart by spaces and tabs, are ``[+-]D`` and then
``[+-]D:[+-]D`` ones (D: 1 to 18 ASCII digits) is read there; any other
line is read token by token with Python's ``int``, which also words the
error of a malformed line, with its line number; so are the table rows of
model files, as sample lines.  A header's k may pad the rows to at most
``PAD_CELLS`` int32 cells per character of the file (or 2^20 cells in
all).  Every input file is decoded as :func:`read_text` decodes it.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import FormatError
from .rng import generator


def distinct_rows(items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows in no fixed order, each row's position among them) of an instance matrix.

    Each row is keyed by one int64, its columns' offsets from their minima in mixed radix; before the widths'
    product would pass 2^62, the key so far is replaced by its rank among the distinct keys.
    """
    items = np.asarray(items)
    if not items.size:  # no rows, or every row is the zero vector
        return items[:1], np.zeros(len(items), dtype=np.intp)
    low = items.min(axis=0).tolist()
    widths = [hi - lo + 1 for lo, hi in zip(low, items.max(axis=0).tolist())]
    key, span = np.zeros(len(items), dtype=np.int64), 1
    for column, lo, width in zip(items.T, low, widths):
        if span * width > 1 << 62:
            _, key = np.unique(key, return_inverse=True)
            span = int(key.max()) + 1
        key = key * width + (column.astype(np.int64) - lo)
        span *= width
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return items[first], inverse.reshape(-1)


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


@dataclass(frozen=True, eq=False)
class Sample:
    """m labeled instances over n coordinates, each with at most k nonzeros.

    ``items`` is an int32 m x k matrix with one row per instance: the
    nonzeros as signed indices value * index in ascending index order, then
    zero padding.  ``y`` holds the m labels as int8 +-1.  Both are checked
    once, here, and stored read-only.
    """

    k: int
    n: int
    items: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if self.k < 0 or not 1 <= self.n <= np.iinfo(np.int32).max:
            raise ValueError("need k >= 0 and 1 <= n < 2^31, so that indices fit in int32")
        items, y = np.asarray(self.items), np.asarray(self.y)
        if items.ndim == 1 and not items.size:
            items = items.reshape(0, self.k)
        if items.shape[1:] != (self.k,) or y.shape != items.shape[:1]:
            raise ValueError(f"need an m x {self.k} instance matrix and m labels: got {items.shape} and {y.shape}")
        if any(array.size and array.dtype.kind not in "iu" for array in (items, y)):
            raise ValueError("instances and labels must be integers")
        if not np.isin(y, (-1, 1)).all():
            raise ValueError("labels must be +-1")
        index = np.abs(items)
        if (index > self.n).any():
            raise ValueError(f"indices must lie in [1, {self.n}]")
        nonzero = items != 0
        if (nonzero[:, 1:] & ~nonzero[:, :-1]).any():
            raise ValueError("a nonzero follows the zero padding of its row")
        if ((index[:, 1:] <= index[:, :-1]) & nonzero[:, 1:]).any():
            raise ValueError("indices must be strictly increasing along a row")
        for name, array in (("items", items.astype(np.int32)), ("y", y.astype(np.int8))):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return len(self.items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sample):
            return NotImplemented
        return ((self.k, self.n) == (other.k, other.n) and np.array_equal(self.items, other.items)
                and np.array_equal(self.y, other.y))


def empirical_error(predictor, sample: Sample) -> Fraction:
    """Exact fraction of examples the predictor labels incorrectly."""
    if not len(sample):
        raise ValueError("empirical error of an empty sample is undefined")
    wrong = np.count_nonzero(predictor.predict_many(sample.items, sample.n) != sample.y)
    return Fraction(int(wrong), len(sample))


def assignment_from_index(index: int, n: int) -> tuple[int, ...]:
    """The index-th +-1 pattern; coordinate 1 is the most significant bit, 0 -> +1.

    Index order therefore equals lexicographic order with +1 < -1, so index 0
    is the all-(+1) pattern.
    """
    return tuple(1 if ((index >> (n - 1 - j)) & 1) == 0 else -1 for j in range(n))


#: best_pattern splits w into leading coordinates and trailing ones, min(n, SPLIT_BITS) of them or fewer, and
#: works in WORK_CELLS floats: the trailing factor takes at most half, and each tile of leading patterns, its
#: factor and its counts the rest; agreement counts are built WORK_CELLS / 16 cells at a time, and so are
#: sample_exact_sparse's scores.  Counts are float32 below FLOAT32_LIMIT rows, where every partial sum is an
#: exact integer, and float64 beyond.
SPLIT_BITS, WORK_CELLS, FLOAT32_LIMIT = 12, 1 << 20, 1 << 24


def _rank_one_terms(rows: np.ndarray, nnz: np.ndarray, need: np.ndarray, high: int) -> tuple[np.ndarray, np.ndarray]:
    """best_pattern's keys (leading half smaller, j, smaller half's codes...) and terms (key, need - j, codes...).

    A row's literal on coordinate c of its half has code 1 + 2c + (sign < 0); codes are sorted largest first
    and padded with 0.  The terms are sorted by key.
    """
    n = rows.shape[1]
    lead = np.arange(n) < high
    codes = np.where(rows != 0, 2 * (np.arange(n) - np.where(lead, 0, high)) + 1 + (rows < 0), 0)
    n_lead = np.count_nonzero(codes[:, lead], axis=1)
    small_lead, n_small = 2 * n_lead <= nnz, np.minimum(n_lead, nnz - n_lead)
    on_small = lead == small_lead[:, None]
    small = -np.sort(-np.where(on_small, codes, 0), axis=1)[:, :n_small.max(initial=0)]
    other = -np.sort(-np.where(on_small, 0, codes), axis=1)[:, :(nnz - n_small).max(initial=0)]
    j = np.arange(small.shape[1] + 1)
    row, j = np.nonzero((j <= n_small[:, None]) & (need[:, None] - j <= (nnz - n_small)[:, None]))
    keys, key = np.unique(np.column_stack([small_lead[row], j, small[row]]), axis=0, return_inverse=True)
    return keys, np.column_stack([key, need[row] - j, other[row]])[np.argsort(key, kind="stable")]


def _agreements(codes: np.ndarray, agree: np.ndarray) -> np.ndarray:
    """How many of each row's literal codes agree with each pattern; ``agree[code]`` marks a code's patterns."""
    total = np.zeros((len(codes), agree.shape[1]), dtype=np.uint8)
    for column in codes.T:
        total += agree[column]
    return total


def _factor(patterns: np.ndarray, bits: int, exact: np.ndarray, keys: np.ndarray, terms: np.ndarray,
            dtype: type) -> np.ndarray:
    """best_pattern's factor for one half, over ``patterns`` of its ``bits`` coordinates: a row per key.

    An ``exact`` key (half, j, codes...) makes its row [exactly j of codes agree]; each of ``terms`` (key,
    need, codes...), sorted by key, adds [at least need of codes agree] to its key's row.
    """
    minus = (patterns >> np.arange(bits - 1, -1, -1)[:, None] & 1).astype(np.uint8)  # coordinate j is -1
    agree = np.zeros((2 * bits + 1, len(patterns)), dtype=np.uint8)  # code 1 + 2j + (sign < 0); 0 never agrees
    agree[1::2], agree[2::2] = 1 - minus, minus
    out = np.zeros((len(keys), len(patterns)), dtype=dtype)
    step, exact = max(1, (WORK_CELLS >> 4) // len(patterns)), np.flatnonzero(exact)
    for pick in (exact[start:start + step] for start in range(0, len(exact), step)):
        out[pick] = _agreements(keys[pick, 2:], agree) == keys[pick, 1, None]
    for chunk in (terms[start:start + step] for start in range(0, len(terms), step)):
        passed = _agreements(chunk[:, 2:], agree) >= chunk[:, 1, None]
        rows, first = np.unique(chunk[:, 0], return_index=True)
        for row, a, b in zip(rows.tolist(), first.tolist(), [*first[1:].tolist(), len(chunk)]):
            out[row] += passed[a:b].sum(axis=0, dtype=dtype)
    return out


def best_pattern(rows: np.ndarray, above: np.ndarray) -> tuple[int, int]:
    """(count, index): the most rows with <row, w> > above[row] over all +-1 patterns w.

    ``rows`` is an int8 m x n matrix over {-1, 0, +1} and ``above`` an
    m-vector.  ``index`` is the first maximizer in :func:`assignment_from_index`
    order, the lexicographically first under +1 < -1.  Meet in the middle: a
    row with nnz nonzeros passes when t = floor((nnz + above) / 2) + 1 of them
    agree with w; with w split into leading a and trailing b, that is the sum
    over j of [exactly j agree on the row's smaller half] * [at least t - j
    agree on the other].  Grouped by the smaller half's (literals, j), these
    are R rank-one terms (R <= 4n + 2 for 3-sparse rows, whatever m is), and
    the counts of all patterns are U^T V for an R x 2^|a| U and an R x 2^|b|
    V, taken one tile of leading patterns at a time; a later tile must beat
    the first maximum (flat argmax) of an earlier one strictly.  The working
    set is WORK_CELLS floats whatever R, m and n are: b has SPLIT_BITS
    coordinates unless V would pass half of it (wide rows), and the tiles
    take the rest.
    """
    m, n = rows.shape
    nnz = np.count_nonzero(rows, axis=1)
    need = (nnz + np.asarray(above, dtype=np.int64)) // 2 + 1
    sure, live = int(np.count_nonzero(need <= 0)), (need > 0) & (need <= nnz)  # rows passing for every w, or some
    rows, nnz, need = rows[live], nnz[live], need[live]
    low = min(n, SPLIT_BITS)  # trailing coordinates
    keys, terms = _rank_one_terms(rows, nnz, need, n - low)
    while low and len(keys) << low > WORK_CELLS // 2:  # wide rows: fewer trailing coordinates
        low -= 1
        keys, terms = _rank_one_terms(rows, nnz, need, n - low)
    high, r = n - low, len(keys)
    lead_keys = keys[:, 0] == 1  # keys whose smaller half is the leading one: their terms sum over the trailing
    by_lead, dtype = lead_keys[terms[:, 0]], np.float32 if m < FLOAT32_LIMIT else np.float64
    trailing = _factor(np.arange(1 << low), low, ~lead_keys, keys, terms[by_lead], dtype)
    width = max(1, (WORK_CELLS - (r << low)) // ((1 << low) + r))  # leading patterns per tile
    terms, tile = terms[~by_lead], min(1 << high, width)
    buffer = np.empty((tile, 1 << low), dtype=dtype)
    best_count, best_index = -1, 0
    for start in range(0, 1 << high, tile):
        leading = _factor(np.arange(start, min(start + tile, 1 << high)), high, lead_keys, keys, terms, dtype)
        counts = np.matmul(leading.T, trailing, out=buffer[:leading.shape[1]])
        del leading  # before the next tile's is built
        at = int(counts.argmax())
        if counts.flat[at] > best_count:
            best_count, best_index = int(counts.flat[at]), (start << low) + at
    return sure + best_count, best_index


def erm_binary_halfspace(sample: Sample) -> tuple[BinaryAssignment, Fraction]:
    """Exhaustive empirical risk minimization over homogeneous +-1-weight halfspaces.

    Enumerates all 2^n weight patterns and returns a minimizer of the
    empirical error of x -> sign(<w, x>) together with that error.  Ties are
    broken by the lexicographically smallest pattern under +1 < -1, so the
    result is reproducible (an empty sample ties everything and yields the
    all-(+1) weights with error 0).

    An example (x, y) is right iff <w, y x> > -1 for y = +1 (sign(0) = +1) and
    > 0 for y = -1, which is one :func:`best_pattern` row.
    """
    m, n = len(sample), sample.n
    if m == 0:
        return BinaryAssignment((1,) * n), Fraction(0)

    rows = np.zeros((m, n + 1), dtype=np.int8)  # column 0 takes the padding
    np.put_along_axis(rows, np.abs(sample.items), np.sign(sample.items) * sample.y[:, None], axis=1)
    above = np.where(sample.y > 0, -1, 0).astype(np.int16)
    count, index = best_pattern(rows[:, 1:], above)
    return BinaryAssignment(assignment_from_index(index, n)), Fraction(m - count, m)


def sample_exact_sparse(n: int, k: int, count: int, seed: int) -> np.ndarray:
    """Uniform i.i.d. draws from the exactly-k-sparse vectors, as signed-index rows.

    Each draw ranks n uniform scores and keeps the k smallest coordinates,
    then takes k fair signs.  The scores are drawn WORK_CELLS / 16 cells at a
    time (at least one row), so the working set is one block of scores and
    of their argpartition, about 1 MB, beside the count x k int32 result;
    the signs are drawn after the last block.  The generator is consumed in
    the same order as a one-shot count x n draw: same stream, same bytes.
    """
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n: got k={k}, n={n}")
    rng = generator(seed)
    out = np.empty((count, k), dtype=np.int32)
    step = max(1, (WORK_CELLS >> 4) // n)
    for start in range(0, count, step):
        chosen = np.argpartition(rng.random((min(step, count - start), n)), k - 1, axis=1)[:, :k]
        chosen.sort(axis=1)
        out[start:start + step] = chosen + 1
    out *= rng.integers(0, 2, size=(count, k), dtype=np.int8) * 2 - 1
    return out


# ---------------------------------------------------------------------------
# Sample text format

_HEADER_RE = re.compile(r"#\s*sparse-sample\s+n=(\d+)\s+k=(\d+)\s*$")


def read_text(path: str) -> str:
    """An input file's text, as ASCII with each other byte a lone surrogate: a comment may hold it, no number reads it."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        return fh.read()


def format_instance(row: Sequence[int]) -> str:
    """One signed-index row written as ``idx:val`` tokens; the zero vector is empty."""
    return " ".join(f"{v}:+1" if v > 0 else f"{-v}:-1" for v in row if v)


def serialize_sample(sample: Sample) -> str:
    """The header, then one ``label idx:val ...`` line per row; 2^15 rows at a time become Python ints and text."""
    if sample.k > sample.n:  # parse_sample refuses such a header
        raise ValueError(f"the text format holds k <= n: got k={sample.k}, n={sample.n}")
    blocks = [f"# sparse-sample n={sample.n} k={sample.k}\n"]
    for start in range(0, len(sample), 1 << 15):
        block = slice(start, start + (1 << 15))
        columns = sample.items[block].T.tolist()  # k lists, not one list per row
        blocks.append("".join(f"{label:+d} {format_instance(row)}".rstrip() + "\n"
                              for label, *row in zip(sample.y[block].tolist(), *columns)))
    return "".join(blocks)


#: read_rows tokenizes CHUNK_LINES lines at a time, so that its per-byte
#: arrays have a fixed size however long the text is.
CHUNK_LINES = 1 << 12

#: A sample file's k pads every row to k cells: the instance matrix may hold
#: at most this many int32 cells per character of the file (or 2^20 in all).
PAD_CELLS = 4


def _before(mask: np.ndarray, first: bool) -> np.ndarray:
    """``mask`` of the byte before each byte, ``first`` for the first byte."""
    return np.concatenate(([first], mask[:-1]))


def _after(mask: np.ndarray) -> np.ndarray:
    """``mask`` of the byte after each byte, False for the last."""
    return np.concatenate((mask[1:], [False]))


def _read_chunk(lines: Sequence[str], n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(labels, rows, unread) of the lines in the grammar of :func:`read_rows`.

    Unread lines, those outside the grammar, get label 0 and a zero row.
    """
    data = np.frombuffer(("\n".join(lines) + "\n").encode("ascii", "replace"), dtype=np.uint8)
    digit, sign, colon, end = data - 48 < 10, (data == 43) | (data == 45), data == 58, data == 10
    apart = end | (data == 32) | (data == 9)
    bad = ~(digit | sign | colon | apart) | (apart & _before(end, True))  # a line starts with a token
    bad |= sign & ~(_after(digit) & (_before(apart, True) | _before(colon, False)))
    bad |= colon & ~(_before(digit, False) & _after(digit | sign))
    ends = np.flatnonzero(end)
    unread = np.zeros(len(lines), dtype=bool)
    unread[np.searchsorted(ends, np.flatnonzero(bad))] = True

    # the tokens of the other lines are [+-]digits groups joined by colons
    run_start = np.flatnonzero(digit & ~_before(digit, False))
    run_end = np.flatnonzero(digit & ~_after(digit))
    length = run_end - run_start + 1
    value = np.zeros(len(run_start), dtype=np.int64)
    for place in range(min(int(length.max(initial=0)), 18)):  # int64 holds 18 digits
        value += np.where(length > place, data[run_end - place].astype(np.int64) - 48, 0) * 10 ** place
    before = data[run_start - 1]  # byte -1 is the closing newline
    value = np.where(before == 45, -value, value)
    after_colon = np.where((before == 43) | (before == 45), data[run_start - 2], before) == 58
    past = np.searchsorted(run_start, ends)  # the runs before each line's end
    counts = np.diff(past, prepend=0)
    run_line = np.repeat(np.arange(len(lines)), counts)
    pos = np.arange(len(run_line)) - np.repeat(past - counts, counts)  # label 0, then idx, val, idx, ...
    unread[run_line[(after_colon != ((pos > 0) & (pos % 2 == 0))) | (length > 18)]] = True
    unread |= counts % 2 == 0  # so each line is a label, then idx:val tokens

    keep = ~unread[run_line]
    run_line, value, pos = run_line[keep], value[keep], pos[keep]
    label_line, label = run_line[pos == 0], value[pos == 0]
    entry = np.flatnonzero(pos % 2 == 1)
    entry_line, index, sign_of = run_line[entry], value[entry], value[entry + 1]
    wrong = (index < 1) | (index > n) | (np.abs(sign_of) != 1)
    wrong[1:] |= (index[1:] <= index[:-1]) & (entry_line[1:] == entry_line[:-1])
    unread[entry_line[wrong]] = True
    unread[label_line[np.abs(label) != 1]] = True
    nnz = counts // 2
    unread |= nnz > k

    labels = np.zeros(len(lines), dtype=np.int8)
    read = ~unread[label_line]
    labels[label_line[read]] = label[read]
    read = ~unread[entry_line]
    rows = np.zeros((len(lines), int(nnz[~unread].max(initial=0))), dtype=np.int32)
    rows.reshape(-1)[(entry_line * rows.shape[1] + pos[entry] // 2)[read]] = (index * sign_of)[read]
    return labels, rows, unread


def read_rows(lines: Sequence[str], n: int, k: int, where: Callable[[int], str],
              width: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(int8 labels, int32 signed-index rows) of ``<label> <idx>:<val> ...`` lines.

    The library's one reader of ``idx:val`` rows.  It tokenizes the bytes of
    CHUNK_LINES lines at a time with numpy and reads a line itself when its
    tokens, apart by spaces and tabs, are a label, then at most k ``idx:val``
    tokens; every number is ``[+-]`` and 1 to 18 ASCII digits, the label and
    each val are +-1, and the indices rise strictly within [1, n].  Each other
    line i is read token by token, in order, and a malformed one raises its
    FormatError, which starts with ``where(i)``: its file line, or its node
    and file line.  Rows are zero-padded to the widest row, and to at least
    ``width``.
    """
    labels, chunks, slow = [], [], {}
    for start in range(0, len(lines), CHUNK_LINES):
        y, rows, unread = _read_chunk(lines[start:start + CHUNK_LINES], n, k)
        for i in np.flatnonzero(unread).tolist():
            y[i], slow[start + i] = _read_example(lines[start + i], n, k, where(start + i))
        labels.append(y)
        chunks.append(rows)
    width = max([width, *(rows.shape[1] for rows in chunks), *map(len, slow.values())])
    items = np.zeros((len(lines), width), dtype=np.int32)
    for start, rows in zip(range(0, len(lines), CHUNK_LINES), chunks):
        items[start:start + len(rows), :rows.shape[1]] = rows
    for i, row in slow.items():
        items[i, :len(row)] = row
    return np.concatenate([np.zeros(0, dtype=np.int8), *labels]), items


def _read_example(line: str, n: int, k: int, where: str) -> tuple[int, list[int]]:
    """(label, nonzeros) of ``<label> <idx>:<val> ...``, token by token; FormatError starting with ``where``."""
    label_token, *tokens = line.split()
    try:
        label = int(label_token)
    except ValueError as exc:
        raise FormatError(f"{where}: bad label {label_token!r}") from exc
    if label not in (-1, 1):
        raise FormatError(f"{where}: label must be +-1, got {label}")
    row, last = [], 0
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
        row.append(idx if val > 0 else -idx)
        last = idx
    if len(row) > k:
        raise FormatError(f"{where}: more than k={k} nonzeros")
    return label, row


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
    if not 1 <= n <= np.iinfo(np.int32).max or k > n:  # a row holds at most n distinct indices
        raise FormatError(f"header needs 1 <= n < 2^31 and k <= n: got n={n}, k={k}")

    rest = [line.strip() for line in lines[body_start:]]
    body = [s for s in rest if s and s[0] != "#"]  # blank lines and comments dropped
    limit = max(1 << 20, PAD_CELLS * len(text))
    if len(body) * k > limit:
        raise FormatError(f"header k={k} pads {len(body)} rows to {len(body) * k} cells; "
                          f"a file of {len(text)} characters may hold {limit}")
    numbers = (range(body_start + 1, len(lines) + 1) if len(body) == len(rest)
               else [i for i, s in enumerate(rest, body_start + 1) if s and s[0] != "#"])
    labels, items = read_rows(body, n, k, lambda i: f"line {numbers[i]}", width=k)
    return Sample(k, n, items, labels)


# ---------------------------------------------------------------------------
# Float-matrix text format: certificate blocks and matrix nodes

def format_float_rows(matrix: np.ndarray) -> Iterator[str]:
    """The rows of a float matrix as lines of ``%.17g`` entries, the text of formatting each entry alone.

    Each distinct value is formatted once, told apart by its bits so that 0.0 and -0.0 stay ``0`` and ``-0``.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    bits, inverse = np.unique(matrix.view(np.uint64), return_inverse=True)
    text = ["%.17g" % v for v in bits.view(np.float64).tolist()]
    for row in inverse.reshape(matrix.shape):
        yield " ".join([text[i] for i in row.tolist()]) + "\n"


def read_float_rows(lines: Sequence[str], cols: int, where: Callable[[int], str], values: str) -> np.ndarray:
    """The matrix of lines of ``cols`` finite floats each; each distinct token goes through ``float`` once.

    Line i's FormatError starts with ``where(i)``, its node or block and file line; ``values`` names the
    entries.  Non-finite entries are looked for once all rows are read, and nothing is sized by ``cols``.
    """
    convert, rows = functools.lru_cache(maxsize=None)(float), []
    for i, line in enumerate(lines):
        tokens = line.split()
        if len(tokens) != cols:
            raise FormatError(f"{where(i)}: matrix row {i + 1} has {len(tokens)} entries, expected {cols}")
        try:
            rows.append(list(map(convert, tokens)))
        except ValueError:
            raise FormatError(f"{where(i)}: expected floats, got {' '.join(tokens)!r}") from None
    matrix = np.array(rows, dtype=np.float64).reshape(len(lines), cols)
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1)).tolist()
    if bad:
        raise FormatError(f"{where(bad[0])}: {values} must be finite, got {' '.join(lines[bad[0]].split())!r}")
    return matrix
