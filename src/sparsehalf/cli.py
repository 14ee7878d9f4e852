"""Command-line front door: formula tooling, training, refutation, experiments.

Every command is deterministic given its full flag set including seeds.  A
file-producing command returns the paths it wrote, and ``main`` writes one
JSON run manifest next to the first of them (same path plus
``.manifest.json``).  Exit codes: 0 success, 2 usage or bad
input, 3 size-guard violation, 4 numerical failure.  Every size guard is
here, in ``_check_size``, checked before anything is drawn; the library runs
at any size.  ``--force`` lifts it, and prices an exhaustive pass first.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__
from .core import (
    SPLIT_BITS,
    BinaryAssignment,
    Sample,
    empirical_error,
    parse_sample,
    read_text,
    sample_exact_sparse,
    serialize_sample,
)
from .decompmat import (
    certify_min_beta,
    read_decomposition,
    triangular_matrix,
    verify_decomposition,
    write_decomposition,
)
from .errors import GuardError, NumericError
from .formulas import (
    FormulaKind,
    FormulaSourceConfig,
    formula_to_sample,
    formula_value,
    parse_formula,
    sample_formula,
    serialize_formula,
)
from .learners import LEARNER_NAMES, LearnerConfig, make_learner
from .predictors import read_predictor, write_predictor
from .refutation import GameConfig, RefuterConfig, refutation_game, refute
from .rng import derive_seed, generator

_KIND_FLAGS = {"3cnf": FormulaKind.CNF, "3maj": FormulaKind.MAJ}

TRADEOFF_ALGOS = ("table", "h3", "erm-binary")

#: Largest n at which the 2^n enumerations, ERM and formula value, run unless
#: forced.  A pass at n = 24 is 2^24 patterns x at most 4n + 2 = 98 terms, about
#: 0.07 s at the rate ``_check_size`` prices them at; each n past it doubles that.
EXHAUSTIVE_N_LIMIT = 24

#: Bytes of score matrices an h2 or h3 model, or of the m x 3 int32 clause
#: matrix a formula, may hold unless forced.  An h2 model holds three dense
#: n x n float64 matrices (parts r = 0, +-2), an h3 model one h2 model per
#: first-nonzero part and the residual: 2n - 3 of them.
MATRIX_BYTE_BUDGET = 1 << 28
H2_N_LIMIT = math.isqrt(MATRIX_BYTE_BUDGET // (3 * 8))
H3_N_LIMIT = max(n for n in range(2, H2_N_LIMIT) if (2 * n - 3) * 3 * 8 * n * n <= MATRIX_BYTE_BUDGET)

#: Widest symmetrization, n + m for n x m, that the certifier eigendecomposes twice per Dykstra
#: iteration; it admits T_n up to n = 128, the size bench/run.py certifies.  No --force lifts it.
MAX_CERTIFY_DIM = 256

_STOPS = "the guard stops n > {limit}"
_MATRICES = f"holds dense n x n score matrices; {_STOPS} ({MATRIX_BYTE_BUDGET >> 20} MiB) unless forced"
#: what a command runs -> (the largest n it runs at unless forced, its refusal)
_LIMITS = {
    "val": (EXHAUSTIVE_N_LIMIT, f"formula value enumerates 2^{{n}} assignments; {_STOPS} unless forced"),
    "erm-binary": (EXHAUSTIVE_N_LIMIT, f"ERM enumerates 2^{{n}} patterns; {_STOPS} unless forced"),
    "h2": (H2_N_LIMIT, f"learn_h2 {_MATRICES}"),
    "h3": (H3_N_LIMIT, f"learn_h3 {_MATRICES}"),
    "certify-beta": (MAX_CERTIFY_DIM, "certifier limited to n+m <= {limit}: got {n}"),
}


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return path


def _write_manifest(args: argparse.Namespace, outputs: list[str], wall_s: float) -> None:
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    manifest = {
        "command": args.command,
        "flags": flags,
        "seeds": {k: v for k, v in flags.items() if "seed" in k},
        "version": __version__,
        "wall_clock_s": round(wall_s, 6),
        "outputs": outputs,
    }
    _write(outputs[0] + ".manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _check_size(args: argparse.Namespace, what: list[str], n: int, fits: dict[int, int], k: int = 3,
                clauses: int = 0, flag: str = "") -> None:
    """GuardError for the first of ``what`` past its limit at n, or for the ``clauses`` that ``flag`` asks for past
    the byte budget; or with ``--force`` the price of the exhaustive passes, ``fits[r]`` of them over r k-sparse
    examples each, where ERM over none enumerates nothing."""
    force = getattr(args, "force", False)  # gen-formula and certify-beta have no --force
    for name in what:
        limit, refusal = _LIMITS.get(name, (math.inf, ""))  # the table learner has no guard
        if n > limit and not force and (name != "erm-binary" or any(fits)):
            raise GuardError(refusal.format(n=n, limit=limit))
    if 12 * clauses > MATRIX_BYTE_BUDGET and not force:  # an m x 3 int32 clause matrix
        raise GuardError(f"{flag} asks for {clauses} clauses, {12 * clauses} bytes; the guard stops past "
                         f"{MATRIX_BYTE_BUDGET} bytes" + " unless forced" * ("force" in args))
    if not force or n <= EXHAUSTIVE_N_LIMIT or not {"val", "erm-binary"} & set(what):
        return
    # best_pattern sums each of r rows' <= floor(k/2) + 1 terms over the 2^|a| + 2^|b| patterns of its halves, at
    # about 6e8 a second, then multiplies 2^n x R pattern-terms, R <= (floor(k/2) + 1) r, and <= 4n + 2 for k <= 3,
    # at about 2.4e10 a second (both measured at n = 20-24 on one core of a 2-CPU Intel Xeon at 2.0 GHz)
    per_row = k // 2 + 1
    terms = (1 << n) * sum(c * (min(per_row * r, 4 * n + 2) if k <= 3 else per_row * r) for r, c in fits.items())
    rows, count = sum(r * c for r, c in fits.items()), sum(fits.values())
    halves = (1 << (n - SPLIT_BITS)) + (1 << SPLIT_BITS)  # n > SPLIT_BITS
    seconds = terms / 2.4e10 + per_row * rows * halves / 6e8
    passes = "exhaustive pass" if count == 1 else f"{count} exhaustive passes"
    print(f"force: {passes} over 2^{n} patterns x {rows} rows, "
          f"~{terms:.3g} pattern-terms (~{seconds:.1f} s)", file=sys.stderr)


def _learner_config(args: argparse.Namespace, seed: int) -> LearnerConfig:
    given = {name: getattr(args, name) for name in ("beta", "eta", "epochs")}
    return LearnerConfig(seed=seed, **{name: value for name, value in given.items() if value is not None})


def _refuter_config(args: argparse.Namespace, seed: int = 0) -> RefuterConfig:
    return RefuterConfig(fraction=args.fraction, threshold=args.threshold, learner=args.algo,
                         learner_config=_learner_config(args, 0), seed=seed)


def _add_learner_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")
    p.add_argument("--beta", type=float, default=None, help="decomposability budget for the matrix learner")
    p.add_argument("--eta", type=float, default=None, help="matrix learner step size")
    p.add_argument("--epochs", type=int, default=None, help="matrix learner passes over the data")


def _add_refuter_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algo", choices=LEARNER_NAMES, default="erm-binary")
    p.add_argument("--fraction", type=float, default=0.5)
    p.add_argument("--threshold", type=float, default=0.375)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# Commands

def cmd_gen_formula(args: argparse.Namespace) -> list[str]:
    _check_size(args, [], args.n, {}, clauses=args.clauses, flag="--clauses")
    psi = None
    if args.mode == "planted":
        psi = BinaryAssignment(generator(args.seed, 0).integers(0, 2, size=args.n) * 2 - 1)
    cfg = FormulaSourceConfig(args.n, args.clauses, psi=psi, seed=derive_seed(args.seed, 1))
    phi = sample_formula(cfg, _KIND_FLAGS[args.kind])  # before any file is written, so a refusal leaves none
    outputs = [_write(args.out, serialize_formula(phi))]
    if psi is not None:
        outputs.append(_write(args.out + ".psi", " ".join(f"{b:+d}" for b in psi.bits) + "\n"))
    return outputs


def cmd_val(args: argparse.Namespace) -> None:
    phi = parse_formula(read_text(args.infile))
    _check_size(args, ["val"], phi.n, {phi.m: 1})
    value, _ = formula_value(phi)
    print(f"val {_fmt(value)} {value.numerator}/{value.denominator}")


def cmd_to_sample(args: argparse.Namespace) -> list[str]:
    sample = formula_to_sample(parse_formula(read_text(args.infile)), args.seed)
    return [_write(args.out, serialize_sample(sample))]


def cmd_learn(args: argparse.Namespace) -> list[str]:
    sample = parse_sample(read_text(args.train))
    cfg = _learner_config(args, args.seed)
    _check_size(args, [args.algo], sample.n, {len(sample): 1}, sample.k)
    write_predictor(args.model, make_learner(args.algo, cfg)(sample))
    return [args.model]


def cmd_eval(args: argparse.Namespace) -> None:
    predictor = read_predictor(args.model)
    sample = parse_sample(read_text(args.data))
    error = empirical_error(predictor, sample)
    print(f"err {_fmt(error)} {error.numerator}/{error.denominator}")


def cmd_refute(args: argparse.Namespace) -> None:
    phi = parse_formula(read_text(args.infile))
    cfg = _refuter_config(args, args.seed)
    _check_size(args, [args.algo], phi.n, {math.ceil(cfg.fraction * phi.m): 1})  # the learner sees the subsample
    verdict = refute(phi, cfg)
    print(f"{verdict.kind} err={_fmt(verdict.error)} "
          f"({verdict.error.numerator}/{verdict.error.denominator})")


def cmd_game(args: argparse.Namespace) -> list[str]:
    game = GameConfig(
        n=args.n,
        delta=args.delta,
        mu=args.mu,
        trials=args.trials,
        modes=tuple(args.modes.split(",")),
        base_seed=args.seed,
    )
    refuter = _refuter_config(args)
    fits = {math.ceil(refuter.fraction * game.clause_count): len(game.modes) * game.trials}  # one fit per round
    _check_size(args, [args.algo], game.n, fits, clauses=game.clause_count, flag=f"--delta {_fmt(game.delta)}")
    stats = refutation_game(game, refuter)
    fixed = f"{game.n},{_fmt(game.delta)},{_fmt(game.mu)},{_fmt(refuter.fraction)}"  # the same in every round
    _write(args.out, "mode,trial,n,delta,mu,fraction,err,verdict,wall_ms\n" + "".join(
        f"{row.mode},{row.trial},{fixed},{_fmt(row.error)},{row.verdict},{row.wall_ms:.3f}\n" for row in stats.rows))
    for mode in game.modes:
        print(
            f"{mode}: exceptional_rate={stats.rate(mode, 'exceptional'):.3f} "
            f"typical_rate={stats.rate(mode, 'typical'):.3f} "
            f"mean_err={stats.mean_error(mode):.4f}"
        )
    return [args.out]


def cmd_tradeoff(args: argparse.Namespace) -> list[str]:
    algos = args.algos.split(",")
    for algo in algos:
        if algo not in TRADEOFF_ALGOS:
            raise ValueError(f"tradeoff algos must come from {TRADEOFF_ALGOS}: got {algo!r}")
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise ValueError(f"--sizes takes comma-separated ints: got {args.sizes!r}") from None
    if any(s < 0 for s in sizes):
        raise ValueError("sizes must be nonnegative")
    if args.test_size < 1:
        raise ValueError(f"--test-size must be at least 1: got {args.test_size}")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1: got {args.trials}")
    _learner_config(args, args.seed)  # --beta, --eta and --epochs are checked before any draw
    n = args.n
    _check_size(args, algos, n, {m: sizes.count(m) * args.trials for m in sizes})  # one fit per size and trial

    lines = ["algo,n,m,trial,train_err,test_err,wall_ms"]
    for trial in range(args.trials):
        target = BinaryAssignment(generator(args.seed, trial, 0).integers(0, 2, size=n) * 2 - 1)
        test_xs = sample_exact_sparse(n, 3, args.test_size, derive_seed(args.seed, trial, 1))
        test = Sample(3, n, test_xs, target.predict_many(test_xs, n))
        for size_idx, m in enumerate(sizes):
            train_xs = sample_exact_sparse(n, 3, m, derive_seed(args.seed, trial, 2, size_idx))
            train = Sample(3, n, train_xs, target.predict_many(train_xs, n))
            for algo_idx, algo in enumerate(algos):
                cfg = _learner_config(args, derive_seed(args.seed, trial, 3, algo_idx))
                t0 = time.perf_counter()
                predictor = make_learner(algo, cfg)(train)
                wall_ms = (time.perf_counter() - t0) * 1000.0
                train_err = _fmt(empirical_error(predictor, train)) if m else "nan"
                test_err = _fmt(empirical_error(predictor, test))
                lines.append(f"{algo},{n},{m},{trial},{train_err},{test_err},{wall_ms:.3f}")
    return [_write(args.out, "\n".join(lines) + "\n")]


def cmd_certify_beta(args: argparse.Namespace) -> list[str]:
    _check_size(args, ["certify-beta"], 2 * args.n, {})  # T_n's symmetrization is 2n wide
    W = triangular_matrix(args.n)
    beta_hat, dec = certify_min_beta(W)
    write_decomposition(args.out, dec)
    loaded = read_decomposition(args.out)
    report = verify_decomposition(W, loaded)
    if not report.ok:
        raise NumericError(f"written certificate does not re-verify: {report}")
    print(f"beta_hat {_fmt(beta_hat)}")
    return [args.out]


# ---------------------------------------------------------------------------
# Parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsehalf", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sparsehalf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-formula", help="draw a random 3-literal formula")
    p.add_argument("--kind", choices=sorted(_KIND_FLAGS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--clauses", type=int, required=True)
    p.add_argument("--mode", choices=("uniform", "planted"), default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_formula)

    p = sub.add_parser("val", help="exact formula value by exhaustive enumeration")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--force", action="store_true", help="override the n guard")
    p.set_defaults(func=cmd_val)

    p = sub.add_parser("to-sample", help="labeled per-clause sample of a majority formula")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_to_sample)

    p = sub.add_parser("learn", help="train a predictor on a sample file")
    p.add_argument("--algo", choices=LEARNER_NAMES, required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--model", required=True)
    _add_learner_flags(p)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("eval", help="empirical error of a stored predictor on a sample")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("refute", help="typical/exceptional verdict for a majority formula")
    p.add_argument("--in", dest="infile", required=True)
    _add_refuter_flags(p)
    _add_learner_flags(p)
    p.set_defaults(func=cmd_refute)

    p = sub.add_parser("game", help="Monte Carlo refutation game, CSV output")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--modes", default="planted,uniform")
    _add_refuter_flags(p)
    p.add_argument("--out", required=True)
    _add_learner_flags(p)
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("tradeoff", help="error-vs-sample-size curves at fixed compute")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--algos", default="table,h3")
    p.add_argument("--sizes", required=True, help="comma-separated training sizes")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--test-size", type=int, default=2048)
    p.add_argument("--out", required=True)
    _add_learner_flags(p)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("certify-beta", help="numeric decomposability certificate")
    p.add_argument("--matrix", choices=("tn",), default="tn", help="matrix family: tn, the n x n triangular")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_certify_beta)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        outputs = args.func(args)
        if outputs:
            _write_manifest(args, outputs, time.perf_counter() - start)
        return 0
    except (GuardError, NumericError, ValueError, OSError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
