"""Three-literal OR and majority formulas: sampling, valuation, I/O, reduction.

A clause is three literals over distinct variables; a formula is an ordered
conjunction of clauses over n +-1-valued variables, held as one m x 3 matrix
of signed variable indices.  OR clauses need one agreeing literal, majority
clauses need two.  ``formula_value`` is the exact brute-force optimum over
all 2^n assignments.  Each majority clause converts to a labeled 3-sparse
example, which is the bridge between formulas and halfspace learning used
by :mod:`sparsehalf.refutation`.  ``formula_value``
and ERM (:func:`sparsehalf.core.erm_binary_halfspace`) share one enumeration
kernel, :func:`sparsehalf.core.best_pattern`, which meets in the middle: a
clause is a few rank-one terms over the leading and the trailing variables'
assignments, so all 2^n counts are one blocked matrix product.

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

from .core import BinaryAssignment, Sample, assignment_from_index, best_pattern
from .errors import FormatError
from .rng import generator


class FormulaKind(enum.Enum):
    CNF = "cnf"
    MAJ = "maj3"


#: A clause holds under psi iff <its literal signs, psi on its variables> > ABOVE[kind]:
#: that counts agreeing minus disagreeing literals; OR needs one to agree, majority two.
ABOVE = {FormulaKind.CNF: -3, FormulaKind.MAJ: 0}


@dataclass(frozen=True, eq=False)
class Formula:
    """An ordered conjunction of m three-literal clauses over n variables.

    ``lits`` is an int32 m x 3 matrix with one row per clause: its literals
    as signed variable indices sign * variable, in written order.  It is
    checked once, here, and stored read-only.
    """

    n: int
    kind: FormulaKind
    lits: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n <= np.iinfo(np.int32).max:
            raise ValueError("need 1 <= n < 2^31 variables, so that literals fit in int32")
        lits = np.asarray(self.lits)
        if lits.ndim != 2 or lits.shape[1] != 3 or (lits.size and lits.dtype.kind not in "iu"):
            raise ValueError(f"need an m x 3 integer literal matrix: got {lits.dtype} {lits.shape}")
        variables = np.abs(lits)
        if ((variables < 1) | (variables > self.n)).any():
            raise ValueError(f"variables must lie in [1, {self.n}]")
        if (variables[:, [0, 0, 1]] == variables[:, [1, 2, 2]]).any():
            raise ValueError("clause variables must be pairwise distinct")
        lits = lits.astype(np.int32)
        lits.setflags(write=False)
        object.__setattr__(self, "lits", lits)

    @property
    def m(self) -> int:
        return len(self.lits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return (self.n, self.kind) == (other.n, other.kind) and np.array_equal(self.lits, other.lits)


@dataclass(frozen=True)
class FormulaSourceConfig:
    """How to draw a random formula: size, the planted assignment if any, seed.

    A formula is planted exactly when ``psi`` is given.  ``mode`` may name
    that choice too ("planted" or "uniform"), and must then agree with ``psi``.
    """

    n: int
    m: int
    mode: str | None = None
    psi: BinaryAssignment | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("need at least one clause")
        implied = "uniform" if self.psi is None else "planted"
        if self.mode not in (None, implied):
            raise ValueError(f"mode {self.mode!r} does not match psi: expected {implied!r}")
        if self.psi is not None and self.psi.n != self.n:
            raise ValueError("planted assignment length must equal n")


def formula_value(phi: Formula) -> tuple[Fraction, BinaryAssignment]:
    """Exact best satisfied-clause fraction over all 2^n assignments, with a witness.

    The witness is the first maximizer in lexicographic order (+1 < -1).  A
    clause's row holds its literal signs on its variables and is compared
    against ``ABOVE[kind]``.
    """
    if phi.m == 0:
        raise ValueError("formula has no clauses")
    rows = np.zeros((phi.m, phi.n), dtype=np.int8)
    np.put_along_axis(rows, np.abs(phi.lits) - 1, np.sign(phi.lits), axis=1)
    count, index = best_pattern(rows, np.full(phi.m, ABOVE[phi.kind]))
    return Fraction(count, phi.m), BinaryAssignment(assignment_from_index(index, phi.n))


def sample_formula(cfg: FormulaSourceConfig, kind: FormulaKind) -> Formula:
    """Draw a random formula as arrays, in blocks of at most 2^15 clauses.

    A clause is a uniform ordered triple of distinct variables (a, then b
    shifted past a, then c shifted past min(a, b) and max(a, b)) with three
    fair signs.  With ``cfg.psi`` a row is kept exactly when psi satisfies it,
    so psi gives value 1; kept rows stay in draw order and the next block
    redraws only the shortfall.  The per-clause loop this replaced drew the
    same law but used the generator in another order, so its bytes differ.
    """
    if cfg.n < 3:
        raise ValueError("need n >= 3 variables for 3-literal clauses")
    rng = generator(cfg.seed)
    psi = None if cfg.psi is None else np.array(cfg.psi.bits)
    lits = np.empty((cfg.m, 3), dtype=np.int32)
    done = 0
    while done < cfg.m:
        variables = rng.integers(0, [cfg.n, cfg.n - 1, cfg.n - 2], size=(min(cfg.m - done, 1 << 15), 3))
        a, b, c = variables.T  # views: the shifts below write into variables
        b += b >= a
        c += c >= np.minimum(a, b)
        c += c >= np.maximum(a, b)
        signs = rng.integers(0, 2, size=variables.shape) * 2 - 1
        block = (variables + 1) * signs
        if psi is not None:
            block = block[np.einsum("ij,ij->i", signs, psi[variables]) > ABOVE[kind]]
        lits[done:done + len(block)] = block
        done += len(block)
    return Formula(cfg.n, kind, lits)


def formula_to_sample(phi: Formula, seed: int) -> Sample:
    """One example per majority clause, in clause order, each with an independent fair coin b.

    The instance places b * sign on each of the clause's three variables
    (the row sorted by variable, times b) and the label is b itself.
    """
    if phi.kind is not FormulaKind.MAJ:
        raise ValueError("only majority formulas convert to samples")
    coins = generator(seed).integers(0, 2, size=phi.m) * 2 - 1
    by_variable = np.take_along_axis(phi.lits, np.argsort(np.abs(phi.lits), axis=1), axis=1)
    return Sample(3, phi.n, by_variable * coins[:, None], coins)


# ---------------------------------------------------------------------------
# DIMACS-style serialization

_KIND_TOKENS = {kind.value: kind for kind in FormulaKind}


def serialize_formula(phi: Formula) -> str:
    """The header, then one ``a b c 0`` line per clause; 2^15 clauses at a time become Python ints and text."""
    blocks = [f"p {phi.kind.value} {phi.n} {phi.m}\n"]
    for start in range(0, phi.m, 1 << 15):
        columns = phi.lits[start:start + (1 << 15)].T.tolist()
        blocks.append("".join(map("{} {} {} 0\n".format, *columns)))
    return "".join(blocks)


def parse_formula(text: str) -> Formula:
    n = m = None
    kind = None
    clause: list[int] = []
    lits: list[int] = []  # the clauses' literals laid end to end

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
            if value:
                clause.append(value)
                continue
            if len(clause) != 3:
                raise FormatError(f"line {lineno}: clause has {len(clause)} literals, expected 3")
            variables = [abs(v) for v in clause]
            if max(variables) > n:
                raise FormatError(f"line {lineno}: variable out of range [1, {n}]")
            if len(set(variables)) != 3:
                raise FormatError(f"line {lineno}: clause variables must be pairwise distinct: got {variables}")
            lits += clause
            clause = []

    if kind is None:
        raise FormatError("missing 'p <kind> <n> <m>' header")
    if clause:
        raise FormatError("unterminated clause at end of input")
    if len(lits) != 3 * m:
        raise FormatError(f"header declares {m} clauses, found {len(lits) // 3}")
    return Formula(n, kind, np.array(lits).reshape(m, 3))
