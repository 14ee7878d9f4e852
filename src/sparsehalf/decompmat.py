"""Decomposable sign matrices: symmetrization, certificates, constructions.

An n x m sign matrix W is beta-decomposable when its symmetrization
[[0, W], [W^T, 0]] splits as P - N with P, N positive semidefinite and every
diagonal entry of both at most beta.  This module provides:

* ``verify_decomposition`` -- the single checker every construction must pass;
* closed-form constructions (spectral split, tensor products, principal
  minors, diagonal and all-ones matrices, row-threshold matrices);
* ``certify_min_beta`` -- a numeric upper-bound certifier that bisects on
  beta and tests feasibility by Dykstra cyclic projection, one loop over
  three constraint sets: the affine reconstruction set, the PSD cones
  (P and N together), and the diagonal cap.

The verifier and the Dykstra feasibility test read the same gaps
(reconstruction error, smallest eigenvalue, diagonal excess over beta) from
one function.  Their tolerances, the certifier's iteration budget and its
bisection resolution are module constants, not keywords.  The certified
value is an upper bound on the true minimal beta up to those tolerances.
Dense float64 matrices only, with a 256-dimension guard on the certifier.

A certificate file holds ``dim <d>``, ``beta <value>``, then P and N in
:mod:`sparsehalf.core`'s float-matrix codec: ``%.17g`` per entry, byte for
byte the text of formatting each entry alone, read back bit for bit.  The
rows are streamed to the file as they are made; reading does not verify.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .core import format_float_rows, read_float_rows
from .errors import FormatError, GuardError, NumericError

#: dimension guard for the dense eigen/projection paths
MAX_CERTIFY_DIM = 256

_KRON_ELEMENT_GUARD = 1 << 24

#: the verifier's tolerances: on max|P - N - sym(W)|, on the PSD deficit (the
#: negated smallest eigenvalue; also the PSD test of a tensor factor), on the
#: diagonal excess over beta, and on max|P - P^T| and max|N - N^T|
RECON_TOL, PSD_TOL, DIAG_TOL, SYM_TOL = 1e-9, 1e-8, 1e-9, 1e-12

#: the gap Dykstra must get below for a beta to count as feasible, its
#: iteration budget per beta, and the width at which the bisection stops
TOLERANCE, MAX_ITERATIONS, BETA_RESOLUTION = 1e-7, 2000, 1e-3

#: Dykstra iterations between feasibility checks
_CHECK_EVERY = 20


@dataclass(frozen=True)
class Decomposition:
    """A certified pair (P, N) with P - N equal to some symmetrization.

    ``shape`` records the (rows, cols) of the source sign matrix when known;
    operations that need to map source rows/columns onto symmetrization
    coordinates (minor deletion, tensoring) require it.
    """

    P: np.ndarray
    N: np.ndarray
    beta: float
    shape: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        P = np.array(self.P, dtype=float)
        N = np.array(self.N, dtype=float)
        if P.shape != N.shape or P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("P and N must be square matrices of equal size")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.shape is not None:
            rows, cols = self.shape
            if rows + cols != P.shape[0]:
                raise ValueError("source shape inconsistent with matrix size")
            object.__setattr__(self, "shape", (int(rows), int(cols)))
        P.setflags(write=False)
        N.setflags(write=False)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def d(self) -> int:
        return int(self.P.shape[0])


@dataclass(frozen=True)
class VerifyReport:
    """Worst violation of each decomposition requirement, plus the verdict."""

    ok: bool
    recon_error: float
    min_eigenvalue: float
    diag_excess: float
    sym_error: float

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        status = "pass" if self.ok else "FAIL"
        return (
            f"{status}: recon={self.recon_error:.3e} min_eig={self.min_eigenvalue:.3e} "
            f"diag_excess={self.diag_excess:.3e} sym={self.sym_error:.3e}"
        )


def check_sign_matrix(W: np.ndarray) -> np.ndarray:
    W = np.asarray(W)
    if W.ndim != 2:
        raise ValueError("sign matrix must be 2-dimensional")
    if not np.isin(W, (-1, 1)).all():
        raise ValueError("sign matrix entries must be +-1")
    return W


def symmetrize(W: np.ndarray) -> np.ndarray:
    """The block matrix [[0, W], [W^T, 0]]."""
    W = np.asarray(W, dtype=float)
    n, m = W.shape
    out = np.zeros((n + m, n + m))
    out[:n, n:] = W
    out[n:, :n] = W.T
    return out


def _gaps(P: np.ndarray, N: np.ndarray, S: np.ndarray, beta: float) -> tuple[float, float, float]:
    """(max|P - N - S|, smallest eigenvalue of P and N, largest diagonal entry of either minus beta)."""
    recon = float(np.abs(P - N - S).max(initial=0.0))
    min_eigenvalue = float(min(np.linalg.eigvalsh(P).min(), np.linalg.eigvalsh(N).min()))
    diag_excess = float(max(np.diag(P).max(initial=0.0), np.diag(N).max(initial=0.0)) - beta)
    return recon, min_eigenvalue, diag_excess


def verify_decomposition(W: np.ndarray, dec: Decomposition) -> VerifyReport:
    """Check P - N = sym(W), PSD-ness, and the diagonal cap, within the module tolerances.

    Failures are reported, never raised.
    """
    W = np.asarray(W, dtype=float)
    n, m = W.shape
    if n + m != dec.d:
        raise ValueError(f"decomposition size {dec.d} does not match sym({n}x{m}) = {n + m}")
    sym_error = max(
        float(np.abs(dec.P - dec.P.T).max(initial=0.0)),
        float(np.abs(dec.N - dec.N.T).max(initial=0.0)),
    )
    recon_error, min_eigenvalue, diag_excess = _gaps(dec.P, dec.N, symmetrize(W), dec.beta)
    ok = recon_error <= RECON_TOL and min_eigenvalue >= -PSD_TOL and diag_excess <= DIAG_TOL and sym_error <= SYM_TOL
    return VerifyReport(ok, recon_error, min_eigenvalue, diag_excess, sym_error)


def _eigen_part(eigvals: np.ndarray, eigvecs: np.ndarray) -> np.ndarray:
    """The symmetrized sum of max(lambda, 0) v v^T over the eigenpairs (lambda, v)."""
    out = (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T
    return (out + out.T) / 2.0


def spectral_split(M: np.ndarray, *, shape: tuple[int, int] | None = None) -> Decomposition:
    """Eigen-positive part minus eigen-negative part of a symmetric matrix.

    Always a valid decomposition of M; its beta (the largest diagonal entry
    of either part) is a cheap upper bound for the certifier.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("input must be square")
    if np.abs(M - M.T).max(initial=0.0) > 1e-9:
        raise ValueError("input must be symmetric")
    sym = (M + M.T) / 2.0
    try:
        eigvals, eigvecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    P = _eigen_part(eigvals, eigvecs)
    N = _eigen_part(-eigvals, eigvecs)
    beta = float(max(np.diag(P).max(initial=0.0), np.diag(N).max(initial=0.0), 0.0))
    return Decomposition(P, N, beta, shape=shape)


def tensor_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product in the standard block layout."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.size * B.size > _KRON_ELEMENT_GUARD:
        raise GuardError(f"tensor product would hold {A.size * B.size} entries")
    return np.kron(A, B)


def tensor_decomposition(dec: Decomposition, A: np.ndarray) -> Decomposition:
    """Decomposition of W tensor A from a decomposition of W and a PSD factor A.

    Uses sym(W) (x) A = sym(W (x) A): tensoring P and N with A keeps them PSD
    and multiplies the diagonal cap by A's largest diagonal entry.
    """
    if dec.shape is None:
        raise ValueError("decomposition must carry its source shape for tensoring")
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("tensor factor must be square")
    if np.abs(A - A.T).max(initial=0.0) > 1e-9:
        raise ValueError("tensor factor must be symmetric")
    if np.linalg.eigvalsh(A).min() < -PSD_TOL:
        raise ValueError("tensor factor must be positive semidefinite")
    alpha = float(np.diag(A).max(initial=0.0))
    n, m = dec.shape
    a = A.shape[0]
    return Decomposition(
        tensor_product(dec.P, A),
        tensor_product(dec.N, A),
        dec.beta * alpha,
        shape=(n * a, m * a),
    )


def delete_rowcol_decomposition(
    dec: Decomposition, *, row: int | None = None, col: int | None = None
) -> Decomposition:
    """Decomposition of the source with one row or one column removed.

    Row i of the source maps to symmetrization coordinate i, column j to
    coordinate rows + j (1-based); deleting takes the corresponding principal
    minors of P and N, which stay PSD, so beta is unchanged.
    """
    if dec.shape is None:
        raise ValueError("decomposition must carry its source shape for deletion")
    if (row is None) == (col is None):
        raise ValueError("specify exactly one of row=, col=")
    rows, cols = dec.shape
    if row is not None:
        if not 1 <= row <= rows:
            raise ValueError(f"row {row} out of range [1, {rows}]")
        coord = row - 1
        new_shape = (rows - 1, cols)
    else:
        if not 1 <= col <= cols:
            raise ValueError(f"column {col} out of range [1, {cols}]")
        coord = rows + col - 1
        new_shape = (rows, cols - 1)
    keep = [i for i in range(dec.d) if i != coord]
    sel = np.ix_(keep, keep)
    return Decomposition(dec.P[sel], dec.N[sel], dec.beta, shape=new_shape)


def triangular_matrix(n: int) -> np.ndarray:
    """The n x n sign matrix with +1 on and above the diagonal, -1 below."""
    if n < 1:
        raise ValueError("need n >= 1")
    rows = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]
    return np.where(cols >= rows, 1, -1).astype(np.int8)


def all_ones_decomposition(n: int) -> Decomposition:
    """Rank-one split of the all-ones matrix; both parts have diagonal 1/2."""
    if n < 1:
        raise ValueError("need n >= 1")
    P = np.full((2 * n, 2 * n), 0.5)
    block = np.array([[1.0, -1.0], [-1.0, 1.0]])
    N = 0.5 * np.kron(block, np.ones((n, n)))
    return Decomposition(P, N, 0.5, shape=(n, n))


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
    return Decomposition(P, N, beta, shape=(n, n))


# ---------------------------------------------------------------------------
# Numeric minimal-beta certifier (Dykstra cyclic projection + bisection)

def _project_affine(P: np.ndarray, N: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    residual = S - (P - N)
    return P + residual / 2.0, N - residual / 2.0


def _project_psd(M: np.ndarray) -> np.ndarray:
    return _eigen_part(*np.linalg.eigh((M + M.T) / 2.0))


def _project_diag_cap(M: np.ndarray, beta: float) -> np.ndarray:
    out = M.copy()
    np.fill_diagonal(out, np.minimum(np.diag(out), beta))
    return out


def _dykstra_feasible(
    S: np.ndarray,
    beta: float,
    start: tuple[np.ndarray, np.ndarray],
) -> tuple[bool, tuple[np.ndarray, np.ndarray]]:
    """Search for (P, N) with P - N = S, both PSD, diagonals <= beta.

    Dykstra's corrections make the cyclic projections converge to a point of
    the intersection when one exists; with a finite budget, failure to reach
    the tolerance is reported as infeasible (so the certified beta stays an
    upper bound).  No projection writes in place, so neither the start point
    nor the previous iterate is copied.
    """
    projections = (
        lambda P, N: _project_affine(P, N, S),
        lambda P, N: (_project_psd(P), _project_psd(N)),
        lambda P, N: (_project_diag_cap(P, beta), _project_diag_cap(N, beta)),
    )
    P, N = start
    zero = np.zeros(P.shape)
    corrections = [(zero, zero)] * len(projections)  # one (P, N) pair per constraint set
    prev_P, prev_N = P, N
    for iteration in range(1, MAX_ITERATIONS + 1):
        for k, project in enumerate(projections):
            vP, vN = P + corrections[k][0], N + corrections[k][1]
            P, N = project(vP, vN)
            corrections[k] = (vP - P, vN - N)

        if iteration % _CHECK_EVERY == 0 or iteration == MAX_ITERATIONS:
            recon, min_eigenvalue, diag_excess = _gaps(P, N, S, beta)
            if max(recon, diag_excess, -min_eigenvalue, 0.0) <= TOLERANCE:
                return True, (P, N)
            delta = max(np.abs(P - prev_P).max(initial=0.0), np.abs(N - prev_N).max(initial=0.0))
            if delta <= TOLERANCE * 1e-2:
                return False, (P, N)  # stalled short of the intersection
            prev_P, prev_N = P, N
    return False, (P, N)


def _repair(
    S: np.ndarray,
    P: np.ndarray,
    N: np.ndarray,
    beta: float,
    shape: tuple[int, int],
) -> Decomposition:
    """Turn an approximately feasible Dykstra point into a strictly verifying one.

    The affine correction makes the reconstruction exact up to roundoff, a
    uniform eigenvalue shift (which preserves P - N) removes any residual
    PSD deficit, and whatever the diagonals grew to is folded into the
    reported beta, so the result verifies at the module tolerances.
    """
    P = (P + P.T) / 2.0
    N = (N + N.T) / 2.0
    P, N = _project_affine(P, N, S)
    mineig = min(np.linalg.eigvalsh(P).min(), np.linalg.eigvalsh(N).min())
    if mineig < 0:
        shift = (-float(mineig) + 1e-12) * np.eye(P.shape[0])
        P = P + shift
        N = N + shift
    max_diag = float(max(np.diag(P).max(initial=0.0), np.diag(N).max(initial=0.0), 0.0))
    return Decomposition(P, N, max(beta, max_diag), shape=shape)


def certify_min_beta(W: np.ndarray) -> tuple[float, Decomposition]:
    """Bisect on beta for the smallest value Dykstra can certify feasible.

    The bisection starts from the nuclear-norm lower bound ||sym(W)||_* / (2d),
    so a spectral split already at that bound (as for the triangular
    matrices) needs no Dykstra run at all.

    Returns the certified beta (an upper bound on the true minimum, and at
    most the spectral split's) and a repaired decomposition that passes
    ``verify_decomposition`` at the module tolerances.
    """
    W = check_sign_matrix(np.asarray(W))
    n, m = W.shape
    if n + m > MAX_CERTIFY_DIM:
        raise GuardError(f"certifier limited to n+m <= {MAX_CERTIFY_DIM}: got {n + m}")
    S = symmetrize(W)
    spectral = spectral_split(S, shape=(n, m))

    hi, best_point = spectral.beta, (spectral.P, spectral.N)
    # tr P + tr N >= ||S||_* for every decomposition, and the trace sum is at
    # most 2 d beta, so no beta below ||S||_* / (2d) is feasible; the spectral
    # split meets the nuclear norm with equality.
    bound = (np.trace(spectral.P) + np.trace(spectral.N)) / (2.0 * spectral.d)
    lo = min(max(float(bound), 0.0), hi)
    while hi - lo > BETA_RESOLUTION:
        mid = (hi + lo) / 2.0
        feasible, point = _dykstra_feasible(S, mid, best_point)
        if feasible:
            hi = mid
            best_point = point
        else:
            lo = mid

    dec = _repair(S, best_point[0], best_point[1], hi, (n, m))
    report = verify_decomposition(W, dec)
    if not report.ok:
        raise NumericError(f"certifier could not repair its decomposition: {report}")
    return dec.beta, dec


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
    if base.shape is None or base.shape != (m, m) or base.d != 2 * m:
        raise ValueError(f"base certificate must decompose the {m}x{m} triangular matrix")
    # symmetrization coordinates in the base: row block for level t_i, then column blocks
    coords = [ti for ti in t] + [m + j for j in range(n)]
    sel = np.ix_(coords, coords)
    dec = Decomposition(base.P[sel], base.N[sel], base.beta, shape=(n, n))
    return W, dec


# ---------------------------------------------------------------------------
# Certificate file format

def _decomposition_lines(dec: Decomposition) -> Iterator[str]:
    yield f"dim {dec.d}\nbeta {dec.beta!r}\nP\n"
    yield from format_float_rows(dec.P)
    yield "N\n"
    yield from format_float_rows(dec.N)


def serialize_decomposition(dec: Decomposition) -> str:
    return "".join(_decomposition_lines(dec))


def parse_decomposition(text: str) -> Decomposition:
    return _decomposition_of(text.splitlines())


def _decomposition_of(lines: list[str]) -> Decomposition:
    numbered = [(number, s) for number, line in enumerate(lines, 1) if (s := line.strip())]
    numbers, lines = [number for number, _ in numbered], [s for _, s in numbered]
    if len(lines) < 3 or not lines[0].startswith("dim ") or not lines[1].startswith("beta "):
        raise FormatError("expected 'dim <d>' then 'beta <value>' headers")
    try:
        d = int(lines[0].split()[1])
        beta = float(lines[1].split()[1])
    except (IndexError, ValueError) as exc:
        raise FormatError(f"bad header: {exc}") from exc
    if not 0 <= beta < float("inf"):
        raise FormatError(f"header, line {numbers[1]}: beta must be finite and nonnegative, got {lines[1]!r}")
    if lines[2] != "P" or len(lines) != 4 + 2 * d or lines[3 + d] != "N":
        raise FormatError("expected 'P' and 'N' blocks of d rows each")
    P = read_float_rows(lines[3:3 + d], d, lambda i: f"P block, line {numbers[3 + i]}", "entries")
    N = read_float_rows(lines[4 + d:], d, lambda i: f"N block, line {numbers[4 + d + i]}", "entries")
    return Decomposition(P, N, beta)


def write_decomposition(path: str, dec: Decomposition) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(_decomposition_lines(dec))


def read_decomposition(path: str, shape: tuple[int, int] | None = None) -> Decomposition:
    with open(path, "r", encoding="ascii") as fh:  # line by line, never the whole text at once
        dec = _decomposition_of([part for line in fh for part in line.splitlines()])
    if shape is not None:
        dec = replace(dec, shape=shape)
    return dec
