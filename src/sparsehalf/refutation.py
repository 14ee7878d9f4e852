"""Distinguishing planted from uniform majority formulas via a learner.

``refute`` converts a majority formula into labeled examples (one per
clause, random sign coin), trains the configured learner on a strict
subsample drawn with replacement, and measures the result on the full
per-clause sample: small error says "exceptional", otherwise "typical".
Training on a strict subsample is the whole point: a memorizing learner fed
the full sample will call anything exceptional.  ``refutation_game`` runs
Monte Carlo rounds of this against planted (fully satisfiable) and uniform
sources and reports verdict rates and measured errors.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .core import BinaryAssignment, Sample, empirical_error
from .formulas import Formula, FormulaKind, FormulaSourceConfig, formula_to_sample, sample_formula
from .learners import LearnerConfig, make_learner
from .rng import derive_seed, generator

TYPICAL = "typical"
EXCEPTIONAL = "exceptional"

MODES = ("planted", "uniform")


@dataclass(frozen=True)
class RefuterConfig:
    """Subsample fraction, verdict threshold, and the learner to train."""

    fraction: float = 0.5
    threshold: float = 0.375
    learner: str = "erm-binary"
    learner_config: LearnerConfig = field(default_factory=LearnerConfig)
    seed: int = 0
    force: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.fraction <= 1:
            raise ValueError("subsample fraction must lie in (0, 1]")
        if not 0 < self.threshold < 1:
            raise ValueError("threshold must lie in (0, 1)")


@dataclass(frozen=True)
class GameConfig:
    """Formula sizes and round counts for the refutation game.

    Clause count is ceil(delta * n^(1+mu)).  ``modes`` selects which sources
    to play; each gets ``trials`` independent rounds.
    """

    n: int
    delta: float
    mu: float = 0.0
    trials: int = 1
    modes: tuple[str, ...] = MODES
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.delta < math.inf:
            raise ValueError(f"clause density must be finite and >= 1: got {self.delta}")
        if not 0 <= self.mu <= 0.5:
            raise ValueError("density exponent must lie in [0, 0.5]")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}")

    @property
    def clause_count(self) -> int:
        return max(1, math.ceil(self.delta * self.n ** (1.0 + self.mu)))


@dataclass(frozen=True)
class Verdict:
    kind: str
    error: Fraction


@dataclass(frozen=True)
class RoundRecord:
    """One round's outcome; the game's n, delta, mu and fraction are the same in every round."""

    mode: str
    trial: int
    error: Fraction
    verdict: str
    wall_ms: float


@dataclass(frozen=True)
class GameStats:
    rows: tuple[RoundRecord, ...]

    def rate(self, mode: str, verdict: str) -> float:
        rounds = [r for r in self.rows if r.mode == mode]
        if not rounds:
            return 0.0
        return sum(1 for r in rounds if r.verdict == verdict) / len(rounds)

    def mean_error(self, mode: str) -> float:
        rounds = [r for r in self.rows if r.mode == mode]
        if not rounds:
            return float("nan")
        return sum(float(r.error) for r in rounds) / len(rounds)


def refute(phi: Formula, cfg: RefuterConfig) -> Verdict:
    """Train on a random subsample of the formula's examples, judge on all of them.

    The formula is only ever touched through its per-clause sample.  The
    subsample has exactly ceil(fraction * m) examples drawn uniformly with
    replacement; the verdict compares the full-sample error against the
    threshold with exact rational arithmetic.

    Soundness on uniform formulas depends on the clause density Δ = m/n.
    The subsample covers about s = 1 - e^{-fraction} of the distinct
    clauses; the trained hypothesis never saw the rest, so on a uniform
    formula it errs on about half of them.  For ERM over binary halfspaces,
    Hoeffding plus a union bound over the 2^n assignments keeps the fit to
    the seen clauses from pulling the error under the threshold only when
    Δ > (1 - e^{-fraction}) * ln 2 / (2 * (1/2 - threshold)^2),
    about 8.7 at fraction 1/2 and threshold 3/8.  That is a density
    heuristic, not a probability bound: it takes the error on the unseen
    clauses as exactly 1/2 and leaves out its binomial spread, so uniform
    formulas above it still get an occasional "exceptional" verdict (the
    comparison is ``<=``, so an error of exactly the threshold counts).
    """
    if phi.kind is not FormulaKind.MAJ:
        raise ValueError("the refuter runs on majority formulas")
    if phi.m < 1:
        raise ValueError("formula has no clauses")
    full = formula_to_sample(phi, derive_seed(cfg.seed, 0))
    take = math.ceil(cfg.fraction * len(full))
    picks = generator(cfg.seed, 1).integers(0, len(full), size=take)
    subsample = Sample(full.k, full.n, full.items[picks], full.y[picks])
    learner_cfg = replace(cfg.learner_config, seed=derive_seed(cfg.seed, 2))
    hypothesis = make_learner(cfg.learner, learner_cfg, force=cfg.force)(subsample)
    error = empirical_error(hypothesis, full)
    kind = EXCEPTIONAL if error <= Fraction(cfg.threshold) else TYPICAL
    return Verdict(kind, error)


def _round_formula(mode: str, game: GameConfig, seed: int) -> Formula:
    if mode == "planted":
        bits = generator(seed, 10).integers(0, 2, size=game.n) * 2 - 1
        psi = BinaryAssignment(tuple(int(b) for b in bits))
        cfg = FormulaSourceConfig(game.n, game.clause_count, mode="planted", psi=psi, seed=derive_seed(seed, 11))
    else:
        cfg = FormulaSourceConfig(game.n, game.clause_count, mode="uniform", seed=derive_seed(seed, 11))
    return sample_formula(cfg, FormulaKind.MAJ)


def refutation_game(game: GameConfig, refuter: RefuterConfig) -> GameStats:
    """Independent refutation rounds per mode with seeds base_seed + round index."""
    rows: list[RoundRecord] = []
    index = 0
    for mode in game.modes:
        for trial in range(game.trials):
            round_seed = game.base_seed + index
            index += 1
            start = time.perf_counter()
            phi = _round_formula(mode, game, round_seed)
            verdict = refute(phi, replace(refuter, seed=derive_seed(round_seed, 12)))
            wall_ms = (time.perf_counter() - start) * 1000.0
            rows.append(RoundRecord(mode, trial, verdict.error, verdict.kind, wall_ms))
    return GameStats(tuple(rows))
