"""Three-literal OR and majority formulas: sampling, valuation, I/O, reduction.

A clause is three literals over distinct variables; a formula is an ordered
conjunction of clauses over n +-1-valued variables.  OR clauses need one
agreeing literal, majority clauses need two.  ``formula_value`` is the exact
brute-force optimum over all 2^n assignments.  Each majority clause converts
to a labeled 3-sparse example, which is the bridge between formulas and
halfspace learning used by :mod:`sparsehalf.refutation`.  ``formula_value``
and ERM (:func:`sparsehalf.core.erm_binary_halfspace`) share one enumeration
kernel, :func:`sparsehalf.core.best_pattern`.

File format: DIMACS-style.  Header ``p cnf <n> <m>`` or ``p maj3 <n> <m>``,
then clauses as whitespace-separated signed variable indices terminated by 0,
one clause per line when written by this package.  ``c``/``#`` lines are
comments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    EXHAUSTIVE_N_LIMIT,
    BinaryAssignment,
    Label,
    Sample,
    SparseVector,
    assignment_from_index,
    best_pattern,
)
from .errors import FormatError, GuardError
from .rng import generator


class FormulaKind(enum.Enum):
    CNF = "cnf"
    MAJ = "maj3"


@dataclass(frozen=True)
class Literal:
    """Variable index (1-based) with a +-1 sign; sign -1 means negated."""

    var: int
    sign: int

    def __post_init__(self) -> None:
        if self.var < 1:
            raise ValueError(f"variable index must be >= 1: got {self.var}")
        if self.sign not in (-1, 1):
            raise ValueError(f"literal sign must be +-1: got {self.sign}")


@dataclass(frozen=True)
class Clause3:
    """Exactly three literals over pairwise distinct variables."""

    kind: FormulaKind
    lits: tuple[Literal, Literal, Literal]

    def __post_init__(self) -> None:
        if len(self.lits) != 3:
            raise ValueError(f"a clause has exactly 3 literals: got {len(self.lits)}")
        variables = [lit.var for lit in self.lits]
        if len(set(variables)) != 3:
            raise ValueError(f"clause variables must be pairwise distinct: got {variables}")
        object.__setattr__(self, "lits", tuple(self.lits))

    @staticmethod
    def from_ints(kind: FormulaKind, a: int, b: int, c: int) -> "Clause3":
        lits = tuple(Literal(abs(v), 1 if v > 0 else -1) for v in (a, b, c))
        return Clause3(kind, lits)  # type: ignore[arg-type]


@dataclass(frozen=True)
class Formula:
    n: int
    kind: FormulaKind
    clauses: tuple[Clause3, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("formula needs n >= 1 variables")
        clauses = tuple(self.clauses)
        for cl in clauses:
            if cl.kind is not self.kind:
                raise ValueError("all clauses must share the formula kind")
            for lit in cl.lits:
                if lit.var > self.n:
                    raise ValueError(f"variable {lit.var} out of range [1, {self.n}]")
        object.__setattr__(self, "clauses", clauses)

    @property
    def m(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class FormulaSourceConfig:
    """How to draw a random formula: size, uniform or planted mode, seed."""

    n: int
    m: int
    mode: str = "uniform"
    psi: BinaryAssignment | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("need at least one clause")
        if self.mode not in ("uniform", "planted"):
            raise ValueError(f"mode must be 'uniform' or 'planted': got {self.mode!r}")
        if self.mode == "planted":
            if self.psi is None:
                raise ValueError("planted mode requires an assignment")
            if self.psi.n != self.n:
                raise ValueError("planted assignment length must equal n")


def eval_clause(clause: Clause3, psi: BinaryAssignment) -> bool:
    """OR: some literal agrees with psi; majority: at least two agree."""
    agree = 0
    for lit in clause.lits:
        if lit.var > psi.n:
            raise ValueError(f"variable {lit.var} out of range for assignment of length {psi.n}")
        if psi.bits[lit.var - 1] == lit.sign:
            agree += 1
    return agree >= 1 if clause.kind is FormulaKind.CNF else agree >= 2


def formula_value(phi: Formula, *, force: bool = False) -> tuple[Fraction, BinaryAssignment]:
    """Exact best satisfied-clause fraction over all 2^n assignments, with a witness.

    The witness is the first maximizer in lexicographic order (+1 < -1).
    Guarded at n <= 24 unless ``force`` is set.  A clause's row holds its
    literal signs on its variables, so <row, psi> counts agreeing minus
    disagreeing literals: majority needs > 0, OR needs > -3.
    """
    if phi.n > EXHAUSTIVE_N_LIMIT and not force:
        raise GuardError(f"formula value enumerates 2^{phi.n} assignments; the guard stops n > {EXHAUSTIVE_N_LIMIT} unless forced")
    if phi.m == 0:
        raise ValueError("formula has no clauses")
    rows = np.zeros((phi.m, phi.n), dtype=np.int8)
    for row, cl in enumerate(phi.clauses):
        for lit in cl.lits:
            rows[row, lit.var - 1] = lit.sign
    above = np.full(phi.m, -3 if phi.kind is FormulaKind.CNF else 0)
    count, index = best_pattern(rows, above)
    return Fraction(count, phi.m), BinaryAssignment(assignment_from_index(index, phi.n))


def _draw_clause(rng: np.random.Generator, n: int, kind: FormulaKind) -> Clause3:
    variables = rng.choice(n, size=3, replace=False) + 1
    signs = rng.integers(0, 2, size=3) * 2 - 1
    lits = tuple(Literal(int(v), int(s)) for v, s in zip(variables, signs))
    return Clause3(kind, lits)  # type: ignore[arg-type]


def sample_formula(cfg: FormulaSourceConfig, kind: FormulaKind) -> Formula:
    """Draw a random formula.

    Uniform mode draws each clause independently: three distinct variables
    uniformly without replacement, signs independent fair coins.  Planted
    mode rejection-samples each clause until the hidden assignment satisfies
    it, so the result has value 1 under that assignment.
    """
    if cfg.n < 3:
        raise ValueError("need n >= 3 variables for 3-literal clauses")
    rng = generator(cfg.seed)
    clauses = []
    for _ in range(cfg.m):
        clause = _draw_clause(rng, cfg.n, kind)
        if cfg.mode == "planted":
            while not eval_clause(clause, cfg.psi):
                clause = _draw_clause(rng, cfg.n, kind)
        clauses.append(clause)
    return Formula(cfg.n, kind, tuple(clauses))


def clause_to_example(clause: Clause3, b: int, n: int) -> tuple[SparseVector, Label]:
    """The labeled 3-sparse example (x, y) a majority clause generates for coin b.

    The instance places b * sign on each of the clause's three variables and
    the label is b itself.
    """
    if clause.kind is not FormulaKind.MAJ:
        raise ValueError("only majority clauses convert to examples")
    if b not in (-1, 1):
        raise ValueError(f"b must be +-1: got {b}")
    pairs = [(lit.var, b * lit.sign) for lit in clause.lits]
    return SparseVector.from_pairs(n, pairs), b


def formula_to_sample(phi: Formula, seed: int) -> Sample:
    """One example per clause, in clause order, each with an independent fair coin."""
    if phi.kind is not FormulaKind.MAJ:
        raise ValueError("only majority formulas convert to samples")
    coins = generator(seed).integers(0, 2, size=phi.m) * 2 - 1
    signed = [sorted((lit.sign * lit.var for lit in cl.lits), key=abs) for cl in phi.clauses]
    items = np.array(signed, dtype=np.int32).reshape(phi.m, 3) * coins[:, None]
    return Sample(3, phi.n, items, coins)


# ---------------------------------------------------------------------------
# DIMACS-style serialization

_KIND_TOKENS = {kind.value: kind for kind in FormulaKind}


def serialize_formula(phi: Formula) -> str:
    lines = [f"p {phi.kind.value} {phi.n} {phi.m}"]
    for cl in phi.clauses:
        lines.append(" ".join(str(lit.sign * lit.var) for lit in cl.lits) + " 0")
    return "\n".join(lines) + "\n"


def parse_formula(text: str) -> Formula:
    n = m = None
    kind = None
    literal_buf: list[int] = []
    clauses: list[Clause3] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("c", "#")):
            continue
        if line.startswith("p"):
            if kind is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] not in _KIND_TOKENS:
                raise FormatError(f"line {lineno}: malformed header {line!r}")
            kind = _KIND_TOKENS[parts[1]]
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: malformed header {line!r}") from exc
            continue
        if kind is None:
            raise FormatError(f"line {lineno}: clause before header")
        for tok in line.split():
            try:
                value = int(tok)
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad literal {tok!r}") from exc
            if value == 0:
                if len(literal_buf) != 3:
                    raise FormatError(f"line {lineno}: clause has {len(literal_buf)} literals, expected 3")
                if any(abs(v) > n for v in literal_buf):
                    raise FormatError(f"line {lineno}: variable out of range [1, {n}]")
                try:
                    clauses.append(Clause3.from_ints(kind, *literal_buf))
                except ValueError as exc:
                    raise FormatError(f"line {lineno}: {exc}") from exc
                literal_buf = []
            else:
                literal_buf.append(value)

    if kind is None:
        raise FormatError("missing 'p <kind> <n> <m>' header")
    if literal_buf:
        raise FormatError("unterminated clause at end of input")
    if len(clauses) != m:
        raise FormatError(f"header declares {m} clauses, found {len(clauses)}")
    return Formula(n, kind, tuple(clauses))
