"""Output checks that do not rely on the program.

Every check recomputes what it needs from the benchmark's own inputs with
its own code (parsers, enumeration, linear algebra), or tests a property the
method must have.  None compares with a stored copy of earlier output.  Each
``check_*`` function returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

TRADEOFF_HEADER = "algo,n,m,trial,train_err,test_err,wall_ms"
GAME_HEADER = "mode,trial,n,delta,mu,fraction,err,verdict,wall_ms"


def fmt12(x: float) -> str:
    """A float with 12 significant digits, the precision the CLI prints."""
    return f"{float(x):.12g}"


def count_of(field: str, denominator: int) -> int | None:
    """k when ``field`` prints k/denominator for an integer k, else None."""
    try:
        k = round(float(field) * denominator)
    except (ValueError, OverflowError):
        return None
    return k if 0 <= k <= denominator and fmt12(k / denominator) == field else None


def parse_fraction_line(text: str, tag: str) -> Fraction:
    """The exact value of a '<tag> <float> <num>/<den>' line; ValueError if malformed."""
    lines = text.strip().splitlines()
    parts = lines[-1].split() if lines else []
    if len(parts) != 3 or parts[0] != tag or "/" not in parts[2]:
        raise ValueError(f"expected '{tag} <float> <num>/<den>', got {text.strip()!r}")
    num, den = parts[2].split("/")
    value = Fraction(int(num), int(den))
    if fmt12(value) != parts[1]:
        raise ValueError(f"printed float {parts[1]} disagrees with {value}")
    return value


# ---------------------------------------------------------------------------
# tradeoff

def check_tradeoff(csv_text: str, *, algos: list[str], sizes: list[int], trials: int,
                   test_size: int, gap_size: int, gap: Fraction,
                   table_bar_size: int, table_bar: Fraction) -> list[str]:
    lines = csv_text.splitlines()
    if not lines or lines[0] != TRADEOFF_HEADER:
        return [f"tradeoff CSV header is {lines[:1]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != 7 for r in rows):
        return ["tradeoff CSV row without 7 fields"]
    expected = [(a, m, t) for t in range(trials) for m in sizes for a in algos]
    got = [(r[0], int(r[2]), int(r[3])) for r in rows]
    if got != expected:
        return [f"tradeoff rows {got} differ from algo x size x trial {expected}"]

    problems = []
    test_err: dict[tuple[str, int, int], Fraction] = {}
    for algo, _, m_s, trial_s, train_s, test_s, _ in rows:
        m, trial = int(m_s), int(trial_s)
        k_train = count_of(train_s, m)
        k_test = count_of(test_s, test_size)
        if k_train is None:
            problems.append(f"{algo} m={m}: train_err {train_s} is not k/{m}")
        if k_test is None:
            problems.append(f"{algo} m={m}: test_err {test_s} is not k/{test_size}")
            continue
        test_err[algo, m, trial] = Fraction(k_test, test_size)
        if algo == "table" and k_train != 0:
            problems.append(f"table m={m}: train_err {train_s} is not 0 on a fixed target")
    for trial in range(trials):
        table = test_err.get(("table", gap_size, trial))
        h3 = test_err.get(("h3", gap_size, trial))
        if table is not None and h3 is not None and table - h3 < gap:
            problems.append(f"m={gap_size}: table {table} - h3 {h3} < {gap}")
        table = test_err.get(("table", table_bar_size, trial))
        if table is not None and table > table_bar:
            problems.append(f"m={table_bar_size}: table test_err {table} > {table_bar}")
    return problems


# ---------------------------------------------------------------------------
# learn-eval

def instance_keys(idx: np.ndarray, val: np.ndarray) -> np.ndarray:
    """One integer per exactly-3-sparse instance (0-based indices < 32)."""
    code = 2 * idx.astype(np.int64) + (val > 0)
    return (code[:, 0] * 64 + code[:, 1]) * 64 + code[:, 2]


def table_test_error(train_keys: np.ndarray, test_keys: np.ndarray, test_labels: np.ndarray) -> Fraction:
    """Error of the majority table on a noiseless target.

    A seen instance gets its training label, which is the target's, so only
    unseen instances with label -1 (the table answers +1) are wrong.
    """
    unseen = ~np.isin(test_keys, train_keys)
    return Fraction(int((unseen & (test_labels < 0)).sum()), len(test_labels))


def check_eval(stdout: str, *, size: int, expected: Fraction | None = None,
               at_most: Fraction | None = None) -> tuple[Fraction | None, list[str]]:
    try:
        err = parse_fraction_line(stdout, "err")
    except ValueError as exc:
        return None, [str(exc)]
    problems = []
    if size % err.denominator:
        problems.append(f"error {err} is not k/{size}")
    if expected is not None and err != expected:
        problems.append(f"error {err} != {expected} computed apart")
    if at_most is not None and err > at_most:
        problems.append(f"error {err} > {at_most}")
    return err, problems


# ---------------------------------------------------------------------------
# refute

def parse_maj3(text: str) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, 0-based variables [m, 3], signs [m, 3]) of a 'p maj3' formula file."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith(("c", "#"))]
    if not lines or lines[0][:2] != ["p", "maj3"] or len(lines[0]) != 4:
        raise ValueError("expected a 'p maj3 <n> <m>' header")
    n, m = int(lines[0][2]), int(lines[0][3])
    lits = np.array([[int(t) for t in ln] for ln in lines[1:]], dtype=np.int64)
    if lits.shape != (m, 4) or (lits[:, 3] != 0).any():
        raise ValueError(f"expected {m} clauses of three literals and a 0")
    lits = lits[:, :3]
    return n, np.abs(lits) - 1, np.sign(lits)


def satisfied_majority(bits: np.ndarray, variables: np.ndarray, signs: np.ndarray) -> int:
    """Clauses with at least two literals true under the +-1 assignment ``bits``."""
    return int(((bits[variables] * signs).sum(axis=1) > 0).sum())


_LOW_WORDS = (0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
              0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000)


def max_satisfied_majority(n: int, variables: np.ndarray, signs: np.ndarray) -> int:
    """Most majority clauses any of the 2^n assignments satisfies.

    Bit-sliced: each variable is a bitset over all assignments (64 per
    word), each clause's majority a few word operations, and the per-
    assignment satisfied counts live in binary counter planes.  The maximum
    is read off the planes from the top bit down.
    """
    if n < 6:
        raise ValueError("bit-sliced enumeration needs n >= 6")
    words = 1 << (n - 6)
    word_idx = np.arange(words, dtype=np.uint64)
    ones = np.uint64(0xFFFFFFFFFFFFFFFF)
    columns = [np.full(words, _LOW_WORDS[v], dtype=np.uint64) for v in range(6)]
    columns += [np.where((word_idx >> np.uint64(v - 6)) & np.uint64(1), ones, np.uint64(0)) for v in range(6, n)]
    planes = [np.zeros(words, dtype=np.uint64) for _ in range(int(len(variables)).bit_length())]
    for (a, b, c), (sa, sb, sc) in zip(variables, signs):
        la = columns[a] if sa > 0 else ~columns[a]
        lb = columns[b] if sb > 0 else ~columns[b]
        lc = columns[c] if sc > 0 else ~columns[c]
        carry = (la & lb) | (lc & (la | lb))
        for plane in planes:
            next_carry = plane & carry
            plane ^= carry
            carry = next_carry
    best, candidates = 0, np.full(words, ones)
    for bit in reversed(range(len(planes))):
        hit = candidates & planes[bit]
        if hit.any():
            candidates, best = hit, best | (1 << bit)
    return best


def check_to_sample(sample_text: str, variables: np.ndarray, signs: np.ndarray) -> list[str]:
    """One example per clause, in order: x = b * (clause signs), label b."""
    lines = [ln for ln in sample_text.splitlines() if ln.strip() and not ln.startswith("#")]
    if len(lines) != len(variables):
        return [f"sample has {len(lines)} examples, formula has {len(variables)} clauses"]
    for row, line in enumerate(lines):
        label, *tokens = line.split()
        b = int(label)
        want = sorted((int(v) + 1, b * int(s)) for v, s in zip(variables[row], signs[row]))
        got = [tuple(int(p) for p in tok.split(":")) for tok in tokens]
        if got != want:
            return [f"example {row + 1} is {line!r}, clause gives {want} with label {b:+d}"]
    return []


def parse_binary_model(text: str) -> np.ndarray:
    lines = text.splitlines()
    if len(lines) < 2 or lines[0].split()[:1] != ["binary"]:
        raise ValueError("expected a 'binary <n>' model")
    bits = np.array([int(t) for t in lines[1].split()], dtype=np.int64)
    if len(bits) != int(lines[0].split()[1]) or not np.isin(bits, (-1, 1)).all():
        raise ValueError("binary model weights are not n values of +-1")
    return bits


def check_game(csv_text: str, *, trials: int, clauses: int, threshold: Fraction,
               planted_rate: float, uniform_mean: float) -> list[str]:
    lines = csv_text.splitlines()
    if not lines or lines[0] != GAME_HEADER:
        return [f"game CSV header is {lines[:1]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != 2 * trials or any(len(r) != 9 for r in rows):
        return [f"game CSV has {len(rows)} rows, expected {2 * trials}"]
    problems = []
    errors: dict[str, list[Fraction]] = {"planted": [], "uniform": []}
    for mode, trial, *_, err_s, verdict, _ in rows:
        k = count_of(err_s, clauses)
        if mode not in errors or k is None:
            problems.append(f"round {mode} {trial}: err {err_s} is not k/{clauses}")
            continue
        err = Fraction(k, clauses)
        if verdict != ("exceptional" if err <= threshold else "typical"):
            problems.append(f"round {mode} {trial}: verdict {verdict} at err {err}")
        errors[mode].append(err)
    per_mode = {mode: len(errs) for mode, errs in errors.items()}
    if problems or set(per_mode.values()) != {trials}:
        return problems or [f"game CSV has {per_mode} rounds per mode, expected {trials} each"]
    # verdicts agree with the errors, so the planted rate can be read off the errors
    rate = sum(err <= threshold for err in errors["planted"]) / trials
    if rate < planted_rate:
        problems.append(f"planted exceptional rate {rate} < {planted_rate}")
    mean = float(sum(errors["uniform"]) / trials)
    if mean < uniform_mean:
        problems.append(f"uniform mean error {mean:.4f} < {uniform_mean}")
    return problems


# ---------------------------------------------------------------------------
# certify

def triangular(n: int) -> np.ndarray:
    """+1 on and above the diagonal, -1 below."""
    return np.where(np.arange(n)[None, :] >= np.arange(n)[:, None], 1.0, -1.0)


def parse_certificate(text: str) -> tuple[float, np.ndarray, np.ndarray]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    d = int(lines[0][1])
    if lines[0][0] != "dim" or lines[1][0] != "beta" or lines[2] != ["P"] or lines[3 + d] != ["N"]:
        raise ValueError("expected dim, beta, P block, N block")
    P = np.array(lines[3:3 + d], dtype=float)
    N = np.array(lines[4 + d:4 + 2 * d], dtype=float)
    if P.shape != (d, d) or N.shape != (d, d):
        raise ValueError("P and N must be d x d")
    return float(lines[1][1]), P, N


def spectral_beta(S: np.ndarray) -> float:
    """Largest diagonal entry of the eigen-positive and eigen-negative parts of S."""
    w, V = np.linalg.eigh(S)
    pos = np.einsum("ij,j,ij->i", V, np.clip(w, 0, None), V)
    neg = np.einsum("ij,j,ij->i", V, np.clip(-w, 0, None), V)
    return float(max(pos.max(), neg.max()))


def check_certificate(cert_text: str, stdout: str, n: int) -> list[str]:
    try:
        beta, P, N = parse_certificate(cert_text)
    except (ValueError, IndexError) as exc:
        return [f"certificate does not parse: {exc}"]
    T = triangular(n)
    S = np.block([[np.zeros((n, n)), T], [T.T, np.zeros((n, n))]])
    if P.shape != S.shape:
        return [f"certificate dimension {P.shape[0]} != {2 * n}"]
    problems = []
    recon = np.abs(P - N - S).max()
    if recon > 1e-9:
        problems.append(f"|P - N - sym(T_n)| = {recon:.3g} > 1e-9")
    asym = max(np.abs(P - P.T).max(), np.abs(N - N.T).max())
    if asym > 1e-9:
        problems.append(f"P or N is not symmetric: {asym:.3g}")
    mineig = min(np.linalg.eigvalsh(P).min(), np.linalg.eigvalsh(N).min())
    if mineig < -1e-8:
        problems.append(f"smallest eigenvalue {mineig:.3g} < -1e-8")
    diag = max(np.diag(P).max(), np.diag(N).max())
    if diag > beta + 1e-9:
        problems.append(f"diagonal {diag!r} > beta {beta!r} + 1e-9")
    parts = stdout.split()
    if len(parts) != 2 or parts[0] != "beta_hat" or parts[1] != fmt12(beta):
        problems.append(f"printed {stdout.strip()!r} does not match beta {beta!r} in the file")
    lower = np.linalg.svd(T, compute_uv=False).sum() / (2 * n)
    upper = spectral_beta(S)
    if not lower - 1e-9 <= beta <= upper + 1e-9:
        problems.append(f"beta {beta!r} outside [{lower!r}, {upper!r}]")
    return problems
