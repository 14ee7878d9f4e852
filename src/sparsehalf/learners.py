"""Training procedures: majority table, score-matrix learner, partition glue.

``table_majority_learn`` is the sample-hungry baseline: per-instance majority
with unseen instances defaulting to +1.  ``matrix_mw_learn`` scores the +-1
cell labels of an n x m matrix through a trace-capped positive semidefinite
pair, updated by matrix exponentiated gradient on the hinge loss and
converted online-to-batch by averaging the per-iterate margins; the iterate
changes once per block of ``LearnerConfig.batch`` steps.  ``partition_learn``
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

from .core import Sample, TrainedPredictor, distinct_rows, erm_binary_halfspace
from .errors import NumericError
from .predictors import CompositePredictor, MajorityTable, MatrixPredictor
from .realizations import group_rows, part_names, realize_c2, route_rows
from .rng import derive_seed, generator


@dataclass(frozen=True)
class LearnerConfig:
    """Seed and score-matrix learner hyperparameters.

    ``beta`` is the decomposability budget; when unset the matrix parts use
    ``4 * log2(n)``.  The trace cap is ``2 * beta * (rows + cols)``.
    ``batch`` is the block of steps whose hinge violations share one iterate.
    """

    seed: int = 0
    beta: float | None = None
    eta: float = 0.5
    epochs: int = 10
    batch: int = 64

    def __post_init__(self) -> None:
        if self.beta is not None and not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and positive: got {self.beta}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if not 0 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and positive: got {self.eta}")


def table_majority_learn(sample: Sample) -> MajorityTable:
    """Majority label per distinct instance; ties and unseen instances -> +1."""
    distinct, inverse = distinct_rows(sample.items)
    votes = np.bincount(inverse, weights=sample.y, minlength=len(distinct))
    return MajorityTable(sample.n, sample.k, distinct, np.where(votes >= 0, 1, -1))


def _eg_margins(C: np.ndarray, tau: float, d: int) -> np.ndarray:
    """Margins of the exponentiated-gradient iterate.

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
        return (U * (2.0 * scale * np.sinh(S))) @ Vt
    with np.errstate(over="ignore", invalid="ignore"):
        up = np.exp(S - smax)
        down = np.exp(-S - smax)
        scaled_trace = 2.0 * ((up + down).sum() + (d - 2 * K) * math.exp(-smax))
        return (U * (tau * (up - down) / scaled_trace)) @ Vt


def _cross_component(flat: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Cells whose row and column lie in different components of the graph of training cells.

    ``flat`` holds the 0-based flat indices of the training cells, the edges of
    a bipartite graph on rows and columns.  sym(C) is block diagonal over its
    components at every iterate, so these cells' margins are exactly 0; in
    floating point they come out as round-off that depends on the BLAS kernel.
    Components come from min-label propagation over the m edges, with label
    jumping, so no buffer but the returned mask is rows x cols.
    """
    n_rows, n_cols = dims
    row, col = np.divmod(flat.astype(np.intp), n_cols)
    col += n_rows  # graph nodes: the rows, then the columns
    label = np.arange(n_rows + n_cols)  # a node of the same component, never above the node itself
    while True:
        low = np.minimum(label[row], label[col])
        lower = label.copy()
        for nodes in (row, col, label[row], label[col]):  # the edge's ends and their labels
            np.minimum.at(lower, nodes, low)
        lower = lower[lower]
        if np.array_equal(lower, label):  # every edge's ends share a label, one per component
            return label[:n_rows, None] != label[None, n_rows:]
        label = lower


def matrix_mw_learn(
    cells: np.ndarray | Sequence[tuple[int, int, int]],
    dims: tuple[int, int],
    cfg: LearnerConfig,
) -> np.ndarray:
    """The rows x cols score matrix whose signs learn +-1 labels of matrix cells, by matrix exponentiated gradient.

    ``cells`` holds one (row, col, label) triple per example, 1-based.
    Maintains a PSD pair (P, N) of size rows+cols with trace(P) + trace(N)
    capped at tau; each example incurs the hinge loss on the (P - N) margin
    at its cell, the accumulated negative gradient is exponentiated
    spectrally and rescaled to the cap when exceeded.  The scores are the
    margins averaged over all iterates, their sign (0 -> +1) the label.  Cells
    whose row and column no chain of training cells connects score exactly 0.
    The example order is reshuffled every epoch from the config seed, so the
    procedure is deterministic given (cells, cfg).

    Mini-batch: each epoch's shuffled steps fall in blocks of ``cfg.batch``
    (the last one shorter).  Every step of a block sees the margins of the
    iterate at the block's start; the block's hinge violations are added to
    the accumulator in step order and the iterate changes once, at the
    block's end.  ``batch=1`` is the plain online learner.  The default, 64,
    is the largest B of 1, 16, 64 and 256 whose mean test error stayed
    within max(0.005, 0.05 x B = 1's) of B = 1's in every cell of the sweep
    in ``results/learner_params/`` (h3, n = 16 to 48, m = 4 to 32 n^2,
    with and without label noise), where it made 10 to 36 times fewer SVDs.
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
    margins: np.ndarray | None = None
    dwell = 0  # steps taken on the current margins and not yet in margin_sum
    flat = (rows.astype(np.intp) - 1) * n_cols + (cols - 1)
    m, batch = len(cells), cfg.batch
    rng = generator(cfg.seed)

    # The iterate, and so the margins, change only after a block with a hinge
    # violation: each pass of the inner loop jumps to the next violation j in
    # the shuffled order and applies all violations of j's block at once.
    for epoch in range(cfg.epochs):
        order = rng.permutation(m)
        at, lab = flat[order], labels[order]
        pos = 0
        while pos < m:
            if margins is None:
                if not np.isfinite(C).all():
                    raise NumericError(f"non-finite accumulator in epoch {epoch + 1}; reduce eta")
                margins = _eg_margins(C, tau, d)
                if not np.isfinite(margins).all():
                    raise NumericError(f"non-finite margins in epoch {epoch + 1}; reduce eta")
            hits = np.flatnonzero(lab[pos:] * margins.take(at[pos:]) < 1.0)
            if not hits.size:
                dwell += m - pos
                break
            j = pos + int(hits[0])
            end = min((j // batch + 1) * batch, m)  # the end of j's block
            block = pos + hits[:np.searchsorted(hits, end - pos)]  # the violations in [j, end)
            margin_sum += (dwell + end - pos) * margins
            dwell = 0
            np.add.at(C.reshape(-1), at[block], 0.5 * cfg.eta * lab[block])  # repeated cells add up in step order
            margins = None  # iterate changed, recompute lazily
            pos = end
        if pos == 0:  # a clean epoch: the margins are final, and the epochs left only dwell on them
            dwell += (cfg.epochs - epoch - 1) * m
            break
    if dwell:
        margin_sum += dwell * margins
    steps = cfg.epochs * m
    scores = margin_sum / steps if steps else margin_sum
    scores[_cross_component(flat, dims)] = 0.0
    return scores


def partition_learn(sample: Sample, kind: str, train: Callable[[int, Sample], TrainedPredictor]) -> CompositePredictor:
    """Split a sample along the ``kind`` partition and train one learner per part.

    Slices keep their original order and hold the routed (transformed)
    instances; ``train(part, slice)`` fits them one after another with the
    parts in ``part_names`` order, and parts with no examples predict the +1 default.
    """
    parts, child = route_rows(kind, sample.items, sample.n)
    groups = group_rows(parts)
    trained = {part: train(part, Sample(child.shape[1], sample.n, child[groups[part]], sample.y[groups[part]]))
               for part in part_names(kind, sample.n) if part in groups}
    return CompositePredictor(kind, sample.n, trained)


def learn_h2(sample: Sample, cfg: LearnerConfig | None = None) -> CompositePredictor:
    """Learner for halfspaces over at-most-2-sparse instances.

    Partitions by coordinate sum.  The sum parts r in {0, +-2} are realized
    as n x n matrix cells, scored by ``matrix_mw_learn`` (sum pairs also fill
    the mirrored cell) and tagged with r; the singleton parts r = +-1 are
    plain per-cell majority, which is exact empirical risk minimization there.
    """
    cfg = cfg or LearnerConfig()
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
        return MatrixPredictor(n, matrix_mw_learn(cells, (n, n), child_cfg), r)

    return partition_learn(sample, "c2", train)


def learn_h3(sample: Sample, cfg: LearnerConfig | None = None) -> CompositePredictor:
    """Learner for halfspaces over at-most-3-sparse instances.

    Partitions by first nonzero coordinate; each such part is reduced to an
    at-most-2-sparse problem by zeroing that coordinate and handed to
    ``learn_h2``.  The residual part (first nonzero beyond n-2, or the zero
    vector) is already 2-sparse and learned directly.  The 2n-3 parts are
    fitted one after another in this process; each part's seed derives from
    its part number.
    """
    cfg = cfg or LearnerConfig()

    def train(part: int, part_sample: Sample) -> TrainedPredictor:
        return learn_h2(part_sample, replace(cfg, seed=derive_seed(cfg.seed, 3, part)))

    return partition_learn(sample, "c3", train)


LEARNER_NAMES = ("table", "h2", "h3", "erm-binary")


def make_learner(name: str, cfg: LearnerConfig) -> Callable[[Sample], TrainedPredictor]:
    """Named training procedure as a Sample -> TrainedPredictor callable."""
    if name == "table":
        return table_majority_learn
    if name == "h2":
        return lambda sample: learn_h2(sample, cfg)
    if name == "h3":
        return lambda sample: learn_h3(sample, cfg)
    if name == "erm-binary":
        return lambda sample: erm_binary_halfspace(sample)[0]
    raise ValueError(f"unknown learner {name!r}; choose from {LEARNER_NAMES}")
