"""Training procedures: majority table, score-matrix learner, partition glue.

``table_majority_learn`` is the sample-hungry baseline: per-instance majority
with unseen instances defaulting to +1.  ``matrix_mw_learn`` learns +-1 cell
labels of an n x m matrix through a trace-capped positive semidefinite pair,
updated by matrix exponentiated gradient on the hinge loss and converted
online-to-batch by averaging the per-iterate margins.  ``partition_learn``
splits a sample along the parts of a named partition, trains one sub-learner
per part, and routes predictions.  ``learn_h2``/``learn_h3`` compose these
into the efficient learners for at-most-2-sparse and at-most-3-sparse
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import Sample, distinct_rows, erm_binary_halfspace
from .errors import GuardError, NumericError
from .predictors import (
    BinaryHalfspacePredictor,
    CompositePredictor,
    MajorityTable,
    MatrixPredictor,
    TrainedPredictor,
)
from .realizations import group_rows, part_order, realize_c2, route_rows
from .rng import derive_seed, generator

#: Bytes of score matrices an h2 or h3 model may hold unless forced.  An h2
#: model holds three dense n x n float64 matrices (parts r = 0, +-2), an h3
#: model one h2 model per first-nonzero part and the residual: 2n - 3 of them.
MATRIX_BYTE_BUDGET = 1 << 28
H2_N_LIMIT = math.isqrt(MATRIX_BYTE_BUDGET // (3 * 8))
H3_N_LIMIT = max(n for n in range(2, H2_N_LIMIT) if (2 * n - 3) * 3 * 8 * n * n <= MATRIX_BYTE_BUDGET)


@dataclass(frozen=True)
class LearnerConfig:
    """Seed and score-matrix learner hyperparameters.

    ``beta`` is the decomposability budget; when unset the matrix parts use
    ``4 * log2(n)``.  The trace cap is ``2 * beta * (rows + cols)``.
    """

    seed: int = 0
    beta: float | None = None
    eta: float = 0.5
    epochs: int = 10

    def __post_init__(self) -> None:
        if self.beta is not None and not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and positive: got {self.beta}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and positive: got {self.eta}")


def table_majority_learn(sample: Sample) -> MajorityTable:
    """Majority label per distinct instance; ties and unseen instances -> +1."""
    distinct, inverse = distinct_rows(sample.items)
    votes = np.bincount(inverse, weights=sample.y, minlength=len(distinct))
    return MajorityTable(sample.n, sample.k, distinct, np.where(votes >= 0, 1, -1))


def _eg_margins(C: np.ndarray, tau: float, d: int) -> tuple[np.ndarray, float]:
    """Margins and capped trace of the exponentiated-gradient iterate.

    The PSD pair is exp(sym(C)) and exp(-sym(C)) rescaled to the trace cap;
    via the SVD C = U S V^T the margin block is 2c U sinh(S) V^T and the raw
    trace is 2 (sum_k 2 cosh(S_k) + d - 2K).  Large spectra are evaluated in
    a scaled domain so nothing overflows; a spectrum too large even for that
    gives non-finite margins, silently, for the caller to report.
    """
    U, S, Vt = np.linalg.svd(C, full_matrices=False)
    K = S.size
    smax = float(S[0]) if K else 0.0
    if smax < 600.0:
        trace_raw = 2.0 * (2.0 * np.cosh(S).sum() + (d - 2 * K))
        scale = 1.0 if trace_raw <= tau else tau / trace_raw
        margins = (U * (2.0 * scale * np.sinh(S))) @ Vt
        return margins, float(min(trace_raw, tau))
    with np.errstate(over="ignore", invalid="ignore"):
        up = np.exp(S - smax)
        down = np.exp(-S - smax)
        scaled_trace = 2.0 * ((up + down).sum() + (d - 2 * K) * math.exp(-smax))
        margins = (U * (tau * (up - down) / scaled_trace)) @ Vt
    return margins, tau


def matrix_mw_learn(
    cells: np.ndarray | Sequence[tuple[int, int, int]],
    dims: tuple[int, int],
    cfg: LearnerConfig,
    realization: int,
) -> MatrixPredictor:
    """Learn +-1 labels of matrix cells by matrix exponentiated gradient.

    ``cells`` holds one (row, col, label) triple per example, 1-based, and
    ``realization`` tags the predictor with the coordinate-sum part r whose
    cell map produced them.
    Maintains a PSD pair (P, N) of size rows+cols with trace(P) + trace(N)
    capped at tau; each example incurs the hinge loss on the (P - N) margin
    at its cell, the accumulated negative gradient is exponentiated
    spectrally and rescaled to the cap when exceeded.  The returned predictor
    is the sign of the margins averaged over all iterates (0 -> +1).
    The example order is reshuffled every epoch from the config seed, so the
    procedure is deterministic given (cells, cfg).
    """
    n_rows, n_cols = dims
    if n_rows < 1 or n_cols < 1:
        raise ValueError("matrix dimensions must be positive")
    cells = np.asarray(cells).reshape(-1, 3)
    rows, cols, labels = cells.T
    outside = (rows < 1) | (rows > n_rows) | (cols < 1) | (cols > n_cols)
    bad = np.flatnonzero(outside | ((labels != 1) & (labels != -1)))
    if bad.size:  # name the first bad cell in input order
        i = bad[0]
        if outside[i]:
            raise ValueError(f"cell ({rows[i]}, {cols[i]}) outside {n_rows}x{n_cols}")
        raise ValueError(f"cell label must be +-1: got {labels[i]}")

    beta = cfg.beta if cfg.beta is not None else 4.0 * math.log2(max(2, max(dims)))
    d = n_rows + n_cols
    tau = 2.0 * beta * d

    C = np.zeros((n_rows, n_cols))
    margin_sum = np.zeros((n_rows, n_cols))
    max_trace = 0.0
    margins: np.ndarray | None = None
    dwell = 0  # steps taken on the current margins and not yet in margin_sum
    flat = (rows.astype(np.intp) - 1) * n_cols + (cols - 1)
    m = len(cells)
    rng = generator(cfg.seed)

    # The iterate, and so the margins, change only at a hinge violation: each
    # pass of the inner loop jumps to the next violation in the shuffled order.
    for epoch in range(cfg.epochs):
        order = rng.permutation(m)
        at, lab = flat[order], labels[order]
        pos = 0
        while pos < m:
            if margins is None:
                if not np.isfinite(C).all():
                    raise NumericError(f"non-finite accumulator in epoch {epoch + 1}; reduce eta")
                margins, trace_now = _eg_margins(C, tau, d)
                if not np.isfinite(margins).all():
                    raise NumericError(f"non-finite margins in epoch {epoch + 1}; reduce eta")
                max_trace = max(max_trace, trace_now)
            hits = np.flatnonzero(lab[pos:] * margins.take(at[pos:]) < 1.0)
            if not hits.size:
                dwell += m - pos
                break
            j = pos + int(hits[0])
            margin_sum += (dwell + j + 1 - pos) * margins
            dwell = 0
            C.flat[at[j]] += 0.5 * cfg.eta * lab[j]
            margins = None  # iterate changed, recompute lazily
            pos = j + 1
    if dwell:
        margin_sum += dwell * margins
    steps = cfg.epochs * m
    scores = margin_sum / steps if steps else margin_sum
    return MatrixPredictor(n_rows, n_cols, scores, realization, max_trace=max_trace, trace_cap=tau)


def partition_learn(
    sample: Sample,
    kind: str,
    train: Callable[[int, Sample], TrainedPredictor],
) -> CompositePredictor:
    """Split a sample along the ``kind`` partition and train one learner per part.

    Slices keep their original order and hold the routed (transformed)
    instances; parts are trained in ``part_order``, and parts with no
    examples predict the +1 default.
    """
    parts, child = route_rows(kind, sample.items, sample.n)
    groups = group_rows(parts)
    children = {}
    for part in part_order(kind, groups):
        rows = groups[part]
        children[part] = train(part, Sample(child.shape[1], sample.n, child[rows], sample.y[rows]))
    return CompositePredictor(kind, sample.n, children)


def _check_size(n: int, limit: int, what: str, force: bool) -> None:
    if n > limit and not force:
        raise GuardError(f"{what} holds dense n x n score matrices; the guard stops n > {limit} "
                         f"({MATRIX_BYTE_BUDGET >> 20} MiB) unless forced")


def learn_h2(sample: Sample, cfg: LearnerConfig | None = None, *, force: bool = False) -> CompositePredictor:
    """Learner for halfspaces over at-most-2-sparse instances.

    Partitions by coordinate sum.  The sum parts r in {0, +-2} are realized
    as matrix cells and trained with ``matrix_mw_learn`` (sum pairs also fill
    the mirrored cell); the singleton parts r = +-1 are plain per-cell
    majority, which is exact empirical risk minimization there.  Guarded at
    n <= ``H2_N_LIMIT`` unless ``force`` is set.
    """
    cfg = cfg or LearnerConfig()
    _check_size(sample.n, H2_N_LIMIT, "learn_h2", force)
    n = sample.n

    def train(part: int, part_sample: Sample) -> TrainedPredictor:
        r = part - 2
        if abs(r) == 1:
            return table_majority_learn(part_sample)
        rows, cols = realize_c2(part_sample.items)
        cells = np.column_stack((rows, cols, part_sample.y))
        if abs(r) == 2:  # each sum-pair cell is followed by its mirror
            cells = np.stack((cells, cells[:, [1, 0, 2]]), axis=1).reshape(-1, 3)
        child_cfg = replace(cfg, seed=derive_seed(cfg.seed, 2, part))
        return matrix_mw_learn(cells, (n, n), child_cfg, realization=r)

    return partition_learn(sample, "c2", train)


def learn_h3(sample: Sample, cfg: LearnerConfig | None = None, *, force: bool = False) -> CompositePredictor:
    """Learner for halfspaces over at-most-3-sparse instances.

    Partitions by first nonzero coordinate; each such part is reduced to an
    at-most-2-sparse problem by zeroing that coordinate and handed to
    ``learn_h2``.  The residual part (first nonzero beyond n-2, or the zero
    vector) is already 2-sparse and learned directly.  Guarded at
    n <= ``H3_N_LIMIT`` unless ``force`` is set.
    """
    cfg = cfg or LearnerConfig()
    _check_size(sample.n, H3_N_LIMIT, "learn_h3", force)

    def train(part: int, part_sample: Sample) -> TrainedPredictor:
        return learn_h2(part_sample, replace(cfg, seed=derive_seed(cfg.seed, 3, part)), force=force)

    return partition_learn(sample, "c3", train)


LEARNER_NAMES = ("table", "h2", "h3", "erm-binary")


def make_learner(name: str, cfg: LearnerConfig, *, force: bool = False) -> Callable[[Sample], TrainedPredictor]:
    """Named training procedure as a Sample -> TrainedPredictor callable."""
    if name == "table":
        return table_majority_learn
    if name == "h2":
        return lambda sample: learn_h2(sample, cfg, force=force)
    if name == "h3":
        return lambda sample: learn_h3(sample, cfg, force=force)
    if name == "erm-binary":
        def train(sample: Sample) -> TrainedPredictor:
            psi, _ = erm_binary_halfspace(sample, force=force)
            return BinaryHalfspacePredictor(psi)

        return train
    raise ValueError(f"unknown learner {name!r}; choose from {LEARNER_NAMES}")
