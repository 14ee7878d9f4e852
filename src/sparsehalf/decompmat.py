"""Decomposable sign matrices: symmetrization, the verifier, the certifier, certificate files.

An n x m sign matrix W is beta-decomposable when its symmetrization
[[0, W], [W^T, 0]] splits as P - N with P, N positive semidefinite and every
diagonal entry of both at most beta.  This module provides:

* ``verify_decomposition`` -- the single checker every decomposition must pass;
* ``spectral_split`` -- eigen-positive minus eigen-negative part, always a
  valid decomposition and the certifier's upper bound;
* ``triangular_matrix`` -- T_n, the matrix ``certify-beta`` certifies;
* ``certify_min_beta`` -- a numeric upper-bound certifier that bisects on
  beta and tests feasibility by Dykstra cyclic projection, one loop over
  three constraint sets: the affine reconstruction set, the PSD cones
  (P and N together), and the diagonal cap.

The paper's closure constructions (tensor products, principal minors,
diagonal and all-ones matrices, row-threshold matrices carved out of T (x) J)
run on no library path; ``tests/oracles.py`` builds them on this module, and
the tests check each against the verifier.

The verifier and the Dykstra feasibility test read the same gaps
(reconstruction error, smallest eigenvalue, diagonal excess over beta) from
one function.  Their tolerances, the certifier's iteration budget and its
bisection resolution are module constants, not keywords.  The certified
value is an upper bound on the true minimal beta up to those tolerances.
Dense float64 matrices only.

A certificate file holds ``dim <d>``, ``beta <value>``, then P and N in
:mod:`sparsehalf.core`'s float-matrix codec: ``%.17g`` per entry, byte for
byte the text of formatting each entry alone, read back bit for bit.  The
rows are streamed to the file as they are made; reading does not verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import format_float_rows, read_float_rows
from .errors import FormatError, NumericError

#: the verifier's tolerances: on max|P - N - sym(W)|, on the PSD deficit (the
#: negated smallest eigenvalue), on the diagonal excess over beta, and on
#: max|P - P^T| and max|N - N^T|
RECON_TOL, PSD_TOL, DIAG_TOL, SYM_TOL = 1e-9, 1e-8, 1e-9, 1e-12

#: the gap Dykstra must get below for a beta to count as feasible, its
#: iteration budget per beta, and the width at which the bisection stops
TOLERANCE, MAX_ITERATIONS, BETA_RESOLUTION = 1e-7, 2000, 1e-3

#: Dykstra iterations between feasibility checks
_CHECK_EVERY = 20


@dataclass(frozen=True)
class Decomposition:
    """A certified pair (P, N) with P - N equal to some symmetrization.

    Which sign matrix it decomposes is the caller's to say: the verifier
    takes that matrix and checks only that its n + m matches P's size.
    """

    P: np.ndarray
    N: np.ndarray
    beta: float

    def __post_init__(self) -> None:
        P = np.array(self.P, dtype=float)
        N = np.array(self.N, dtype=float)
        if P.shape != N.shape or P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("P and N must be square matrices of equal size")
        if not 0 <= self.beta < np.inf:
            raise ValueError(f"beta must be finite and nonnegative, got {self.beta}")
        if not (np.isfinite(P).all() and np.isfinite(N).all()):
            raise ValueError("P and N entries must be finite")
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

    def __str__(self) -> str:
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


def spectral_split(M: np.ndarray) -> Decomposition:
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
    return Decomposition(P, N, beta)


def triangular_matrix(n: int) -> np.ndarray:
    """The n x n sign matrix with +1 on and above the diagonal, -1 below."""
    if n < 1:
        raise ValueError("need n >= 1")
    rows = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]
    return np.where(cols >= rows, 1, -1).astype(np.int8)


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


def _repair(S: np.ndarray, P: np.ndarray, N: np.ndarray, beta: float) -> Decomposition:
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
    return Decomposition(P, N, max(beta, max_diag))


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
    S = symmetrize(W)
    spectral = spectral_split(S)

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

    dec = _repair(S, best_point[0], best_point[1], hi)
    report = verify_decomposition(W, dec)
    if not report.ok:
        raise NumericError(f"certifier could not repair its decomposition: {report}")
    return dec.beta, dec


# ---------------------------------------------------------------------------
# Certificate file format

def _decomposition_lines(dec: Decomposition) -> Iterator[str]:
    yield f"dim {dec.d}\nbeta {dec.beta!r}\nP\n"
    yield from format_float_rows(dec.P)
    yield "N\n"
    yield from format_float_rows(dec.N)


def serialize_decomposition(dec: Decomposition) -> str:
    return "".join(_decomposition_lines(dec))


def write_decomposition(path: str, dec: Decomposition) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(_decomposition_lines(dec))


def read_decomposition(path: str) -> Decomposition:
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:  # as read_text does, line by line
        lines = [part for line in fh for part in line.splitlines()]
    numbered = [(number, s) for number, line in enumerate(lines, 1) if (s := line.strip())]
    numbers, lines = [number for number, _ in numbered], [s for _, s in numbered]
    if len(lines) < 3 or not lines[0].startswith("dim ") or not lines[1].startswith("beta "):
        raise FormatError("expected 'dim <d>' then 'beta <value>' headers")
    header = []
    for line, number, (key, convert) in zip(lines, numbers, (("dim <d>", int), ("beta <value>", float))):
        tokens = line.split()
        if len(tokens) != 2:
            raise FormatError(f"header, line {number}: expected '{key}', got {line!r}")
        try:
            header.append(convert(tokens[1]))
        except ValueError:
            raise FormatError(f"header, line {number}: bad value in {line!r}") from None
    d, beta = header
    if not 0 <= beta < float("inf"):
        raise FormatError(f"header, line {numbers[1]}: beta must be finite and nonnegative, got {lines[1]!r}")
    laid_out = [lines[2] == "P", 0 <= 3 + d < len(lines) and lines[3 + d] == "N", len(lines) == 4 + 2 * d]
    if not all(laid_out):  # name the P marker, the N marker or the line past the N rows, within the file
        at = min(max((2, 3 + d, 4 + 2 * d)[laid_out.index(False)], 2), len(lines) - 1)
        raise FormatError(f"layout, line {numbers[at]}: expected 'P' and 'N' blocks of {d} rows, got {lines[at]!r}")
    P = read_float_rows(lines[3:3 + d], d, lambda i: f"P block, line {numbers[3 + i]}", "entries")
    N = read_float_rows(lines[4 + d:], d, lambda i: f"N block, line {numbers[4 + d + i]}", "entries")
    return Decomposition(P, N, beta)
