"""Partition maps that embed sparse-instance hypotheses into matrix cells.

Two-sparse instances split into five parts by coordinate sum r in
{-2, -1, 0, 1, 2}; each part's halfspace restrictions are realized as n x n
sign matrices read at one cell per instance (difference pairs at (i, j), sum
pairs at the canonical (i, j) with i < j, singletons on the diagonal, the
zero vector at (1, 1)).  Three-sparse instances split by their first nonzero
coordinate (position i and value b, for i <= n-2); zeroing that coordinate
turns each part into a two-sparse problem with a shifted bias.  Instances
whose first nonzero sits at n-1 or n, and the zero vector, form one residual
part that is already two-sparse.

Routing answers for a whole instance matrix, in the signed-index form of
:class:`sparsehalf.core.Sample`, at once.  A part is numbered by one small
integer, which also derives its seed: r + 2 for coordinate-sum part r,
2i + (0 if b > 0 else 1) for first-nonzero part (i, b), and 0 for the
residual.  ``part_name`` and ``part_of_name`` key one part, ``part_names`` all.
"""

from __future__ import annotations

import numpy as np


def fit_width(items: np.ndarray, width: int) -> np.ndarray:
    """The instance rows zero-padded or cut to ``width`` columns; ValueError if that drops a nonzero."""
    if items.shape[1] < width:
        return np.pad(items, ((0, 0), (0, width - items.shape[1])))
    if items[:, width:].any():
        raise ValueError(f"instance has more than {width} nonzeros, expected at most {width}")
    return items[:, :width]


def part_of_c2(items: np.ndarray) -> np.ndarray:
    """Coordinate sum r of each at-most-2-sparse row; the zero vector gets r = 0."""
    return np.sign(fit_width(items, 2)).sum(axis=1)


def realize_c2(items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based matrix cells (rows, cols) of at-most-2-sparse instance rows.

    Difference pairs e_i - e_j map to (i, j) with the +1 coordinate as the
    row; sum pairs map to the canonical (i, j) with i < j (training mirrors
    the symmetric cell); singletons map to (i, i); the zero vector to (1, 1).
    """
    first, second = fit_width(items, 2).T
    i = np.abs(first)
    j = np.where(second == 0, i, np.abs(second))
    swap = (first < 0) & (second > 0)  # difference pair whose +1 coordinate comes second
    return np.maximum(np.where(swap, j, i), 1), np.maximum(np.where(swap, i, j), 1)


def part_of_c3(items: np.ndarray, n: int) -> np.ndarray:
    """First-nonzero part of each at-most-3-sparse row.

    First nonzero b at position i <= n-2 gives part 2i + (0 if b > 0 else 1);
    anything later, and the zero vector, give the residual part 0.
    """
    first = fit_width(items, 3)[:, 0]
    i = np.abs(first)
    return np.where((i >= 1) & (i <= n - 2), 2 * i + (first < 0), 0)


def route_rows(kind: str, items: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(part per row, transformed rows) under the ``"c2"`` or ``"c3"`` partition.

    ``c2`` leaves instances unchanged; ``c3`` zeroes the first nonzero of
    rows in a (position, value) part, which leaves columns 1-2, and keeps
    columns 0-1 of the already two-sparse residual.  The transformed rows
    are two wide for both partitions.
    """
    if kind == "c2":
        child = fit_width(items, 2)
        return part_of_c2(child) + 2, child
    if kind == "c3":
        items = fit_width(items, 3)
        parts = part_of_c3(items, n)
        return parts, np.where((parts > 0)[:, None], items[:, 1:], items[:, :2])
    raise ValueError(f"unknown router {kind!r}")


def group_rows(parts: np.ndarray) -> dict[int, np.ndarray]:
    """Row indices of each part present, in sample order (by a stable argsort)."""
    order = np.argsort(parts, kind="stable")
    present, starts = np.unique(parts[order], return_index=True)
    return dict(zip(present.tolist(), np.split(order, starts[1:])))


def part_name(kind: str, n: int, part: int) -> str | None:
    """The key of one part of the ``"c2"`` or ``"c3"`` partition at n, or None if the partition has no such part:
    ``r=-2`` .. ``r=2`` under c2, ``i=<i>,b=<+-1>`` or ``residual`` under c3."""
    if kind == "c2":
        return f"r={part - 2}" if 0 <= part <= 4 else None
    if kind == "c3":
        if part == 0:
            return "residual"
        i, negative = divmod(part, 2)
        return f"i={i},b={-1 if negative else 1:+d}" if 1 <= i <= n - 2 else None
    raise ValueError(f"unknown router {kind!r}")


def part_of_name(kind: str, n: int, name: str) -> int | None:
    """The part whose key is ``name``, or None (also under an unknown router): the key must write back unchanged."""
    number, _, sign = name[2:].partition(",b=")  # past 'r=' or 'i='
    try:
        part = 0 if name == "residual" else int(number) + 2 if kind == "c2" else 2 * int(number) + (sign[:1] == "-")
        return part if part_name(kind, n, part) == name else None
    except ValueError:  # not a number, or no such router
        return None


def part_names(kind: str, n: int) -> dict[int, str]:
    """Every part of the partition at n, to its key, in training and model-file order: c3's residual last."""
    return {part: part_name(kind, n, part) for part in (range(5) if kind == "c2" else [*range(2, 2 * n - 2), 0])}
