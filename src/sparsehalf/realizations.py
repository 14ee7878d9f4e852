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

``route`` pairs a partition with its per-part instance transform so the
learners can split samples, train per part, and route predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Halfspace, SparseVector, eval_halfspace


@dataclass(frozen=True)
class C2Part:
    """Two-sparse part keyed by coordinate sum r in {-2, ..., 2}."""

    r: int

    def __post_init__(self) -> None:
        if not -2 <= self.r <= 2:
            raise ValueError(f"coordinate sum must lie in [-2, 2]: got {self.r}")


@dataclass(frozen=True)
class C3Part:
    """Three-sparse part: first nonzero at position i with value b."""

    i: int
    b: int

    def __post_init__(self) -> None:
        if self.i < 1:
            raise ValueError("first-nonzero position must be >= 1")
        if self.b not in (-1, 1):
            raise ValueError("first-nonzero value must be +-1")


@dataclass(frozen=True)
class C3Residual:
    """Leftover three-sparse part: first nonzero beyond n-2, or the zero vector."""


PartId = C2Part | C3Part | C3Residual


def part_sort_key(part: PartId) -> tuple:
    if isinstance(part, C2Part):
        return (0, part.r)
    if isinstance(part, C3Part):
        return (1, part.i, 0 if part.b > 0 else 1)
    return (2,)


@dataclass(frozen=True)
class CellRef:
    """1-based matrix cell owned by a two-sparse part."""

    row: int
    col: int
    part: PartId


def part_of_c2(x: SparseVector) -> C2Part:
    """Coordinate-sum part of an at-most-2-sparse instance; the zero vector gets r=0."""
    if x.nnz > 2:
        raise ValueError(f"instance has {x.nnz} nonzeros, expected at most 2")
    return C2Part(sum(v for _, v in x.entries))


def realize_c2(x: SparseVector) -> CellRef:
    """Matrix cell for an at-most-2-sparse instance.

    Difference pairs e_i - e_j map to (i, j) with the +1 coordinate as the
    row; sum pairs map to the canonical (i, j) with i < j (training mirrors
    the symmetric cell); singletons map to (i, i); the zero vector to (1, 1).
    """
    part = part_of_c2(x)
    if x.nnz == 0:
        return CellRef(1, 1, part)
    if x.nnz == 1:
        idx, _ = x.entries[0]
        return CellRef(idx, idx, part)
    (i, vi), (j, _) = x.entries
    if part.r == 0:
        return CellRef(i, j, part) if vi > 0 else CellRef(j, i, part)
    return CellRef(i, j, part)


def hypothesis_matrix(h: Halfspace, part: C2Part, n: int) -> np.ndarray:
    """The n x n sign matrix whose mapped cells carry h over the given part.

    Unconstrained cells are filled with +1.  Test-support construction: it
    realizes a single hypothesis, it does not learn anything.
    """
    W = np.ones((n, n), dtype=np.int8)
    for x in iter_part_c2(part, n):
        cell = realize_c2(x)
        W[cell.row - 1, cell.col - 1] = eval_halfspace(h, x)
    return W


def iter_part_c2(part: C2Part, n: int):
    """All instances of one coordinate-sum part, in a fixed order."""
    if part.r == 0:
        yield SparseVector(n, ())
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    yield SparseVector.from_pairs(n, [(i, 1), (j, -1)])
    elif part.r in (1, -1):
        sign = part.r
        for i in range(1, n + 1):
            yield SparseVector(n, ((i, sign),))
    else:
        sign = 1 if part.r > 0 else -1
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                yield SparseVector(n, ((i, sign), (j, sign)))


def strip_first_nonzero(x: SparseVector) -> tuple[int, int, SparseVector]:
    """(position, value, instance with that coordinate zeroed); needs a nonzero."""
    if x.nnz == 0:
        raise ValueError("cannot strip the zero vector")
    (i, b), rest = x.entries[0], x.entries[1:]
    return i, b, SparseVector(x.n, rest)


def part_of_c3(x: SparseVector) -> PartId:
    """First-nonzero part of an at-most-3-sparse instance.

    First nonzero at position i <= n-2 selects the (i, value) part; anything
    later, and the zero vector, land in the residual.
    """
    if x.nnz > 3:
        raise ValueError(f"instance has {x.nnz} nonzeros, expected at most 3")
    if x.nnz == 0:
        return C3Residual()
    i, b = x.entries[0]
    if i <= x.n - 2:
        return C3Part(i, b)
    return C3Residual()


#: names of the two partitions, as stored in composite model files
PARTITIONS = ("c2", "c3")

#: sparsity of every part's transformed instances, for both partitions
CHILD_K = 2


def route(kind: str, x: SparseVector) -> tuple[PartId, SparseVector]:
    """(part, transformed instance) of x under the ``"c2"`` or ``"c3"`` partition.

    ``c2`` leaves instances unchanged; ``c3`` zeroes the first nonzero of
    instances in a (position, value) part and leaves the residual unchanged.
    """
    if kind == "c2":
        return part_of_c2(x), x
    if kind == "c3":
        part = part_of_c3(x)
        if isinstance(part, C3Part):
            return part, strip_first_nonzero(x)[2]
        return part, x
    raise ValueError(f"unknown router {kind!r}")


def part_index(part: PartId) -> int:
    """Small stable integer per part, used to derive per-part seeds."""
    if isinstance(part, C2Part):
        return part.r + 2
    if isinstance(part, C3Part):
        return 2 * part.i + (0 if part.b > 0 else 1)
    return 0
