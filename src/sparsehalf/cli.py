"""Command-line front door: formula tooling, training, refutation, experiments.

Every command is deterministic given its full flag set including seeds.  A
file-producing command returns the paths it wrote, and ``main`` writes one
JSON run manifest next to the first of them (same path plus
``.manifest.json``).  Exit codes: 0 success, 2 usage or bad
input, 3 size-guard violation, 4 numerical failure.  Guards on exhaustive
paths can be overridden with ``--force``, which prints a cost estimate first.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__
from .core import (
    EXHAUSTIVE_N_LIMIT,
    Sample,
    empirical_error,
    parse_sample,
    sample_exact_sparse,
    serialize_sample,
)
from .core import BinaryAssignment
from .decompmat import (
    certify_min_beta,
    read_decomposition,
    triangular_matrix,
    verify_decomposition,
    write_decomposition,
)
from .errors import FormatError, GuardError, NumericError
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
from .predictors import BinaryHalfspacePredictor, read_predictor, write_predictor
from .refutation import GameConfig, RefuterConfig, refutation_game, refute
from .rng import derive_seed, generator

_KIND_FLAGS = {"3cnf": FormulaKind.CNF, "3maj": FormulaKind.MAJ}

TRADEOFF_ALGOS = ("table", "h3", "erm-binary")


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
    with open(outputs[0] + ".manifest.json", "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_force_estimate(n: int, rows: list[int]) -> None:
    """Price one exhaustive pass over 2^n patterns per entry of ``rows``, each over that many rows."""
    # best_pattern fills one uint64 word of pass bits per row and 64 patterns, at about
    # 1.7e8 words a second (measured at n = 24 on one core of a 2-core AMD EPYC)
    words = (1 << max(0, n - 6)) * sum(max(r, 1) for r in rows)
    passes = "exhaustive pass" if len(rows) == 1 else f"{len(rows)} exhaustive passes"
    print(f"force: {passes} over 2^{n} patterns x {sum(rows)} rows, "
          f"~{words:.3g} row-words (~{words / 1.7e8:.1f} s)", file=sys.stderr)


def _learner_config(args: argparse.Namespace, seed: int) -> LearnerConfig:
    kwargs = {"seed": seed}
    for name in ("beta", "eta", "epochs"):
        value = getattr(args, name, None)
        if value is not None:
            kwargs[name] = value
    return LearnerConfig(**kwargs)


def _add_learner_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=float, default=None, help="decomposability budget for the matrix learner")
    p.add_argument("--eta", type=float, default=None, help="matrix learner step size")
    p.add_argument("--epochs", type=int, default=None, help="matrix learner passes over the data")


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# Commands

def cmd_gen_formula(args: argparse.Namespace) -> list[str]:
    kind = _KIND_FLAGS[args.kind]
    outputs = [args.out]
    if args.mode == "planted":
        bits = generator(args.seed, 0).integers(0, 2, size=args.n) * 2 - 1
        psi = BinaryAssignment(tuple(int(b) for b in bits))
        cfg = FormulaSourceConfig(args.n, args.clauses, mode="planted", psi=psi, seed=derive_seed(args.seed, 1))
        psi_path = args.out + ".psi"
        with open(psi_path, "w", encoding="ascii") as fh:
            fh.write(" ".join(f"{b:+d}" for b in psi.bits) + "\n")
        outputs.append(psi_path)
    else:
        cfg = FormulaSourceConfig(args.n, args.clauses, mode="uniform", seed=derive_seed(args.seed, 1))
    phi = sample_formula(cfg, kind)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(serialize_formula(phi))
    return outputs


def cmd_val(args: argparse.Namespace) -> None:
    with open(args.infile, "r", encoding="ascii") as fh:
        phi = parse_formula(fh.read())
    if phi.n > EXHAUSTIVE_N_LIMIT and args.force:
        _print_force_estimate(phi.n, [phi.m])
    value, _ = formula_value(phi, force=args.force)
    print(f"val {_fmt(value)} {value.numerator}/{value.denominator}")


def cmd_to_sample(args: argparse.Namespace) -> list[str]:
    with open(args.infile, "r", encoding="ascii") as fh:
        phi = parse_formula(fh.read())
    sample = formula_to_sample(phi, args.seed)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(serialize_sample(sample))
    return [args.out]


def _read_sample(path: str) -> Sample:
    # a non-ASCII byte becomes a lone surrogate: '#' lines may hold it, and no data line reads it as a digit
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        return parse_sample(fh.read())


def cmd_learn(args: argparse.Namespace) -> list[str]:
    sample = _read_sample(args.train)
    if args.algo == "erm-binary" and sample.n > EXHAUSTIVE_N_LIMIT and args.force:
        _print_force_estimate(sample.n, [len(sample)])
    cfg = _learner_config(args, args.seed)
    predictor = make_learner(args.algo, cfg, force=args.force)(sample)
    write_predictor(args.model, predictor)
    return [args.model]


def cmd_eval(args: argparse.Namespace) -> None:
    predictor = read_predictor(args.model)
    sample = _read_sample(args.data)
    error = empirical_error(predictor, sample)
    print(f"err {_fmt(error)} {error.numerator}/{error.denominator}")


def cmd_refute(args: argparse.Namespace) -> None:
    with open(args.infile, "r", encoding="ascii") as fh:
        phi = parse_formula(fh.read())
    cfg = RefuterConfig(
        fraction=args.fraction,
        threshold=args.threshold,
        learner=args.algo,
        learner_config=_learner_config(args, 0),
        seed=args.seed,
        force=args.force,
    )
    if args.algo == "erm-binary" and phi.n > EXHAUSTIVE_N_LIMIT and args.force:
        _print_force_estimate(phi.n, [math.ceil(cfg.fraction * phi.m)])  # ERM sees the subsample
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
    refuter = RefuterConfig(
        fraction=args.fraction,
        threshold=args.threshold,
        learner=args.algo,
        learner_config=_learner_config(args, 0),
        force=args.force,
    )
    if args.algo == "erm-binary" and args.n > EXHAUSTIVE_N_LIMIT and args.force:
        rounds = len(game.modes) * game.trials  # one ERM fit on the subsample per round
        _print_force_estimate(args.n, [math.ceil(refuter.fraction * game.clause_count)] * rounds)
    stats = refutation_game(game, refuter)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write("mode,trial,n,delta,mu,fraction,err,verdict,wall_ms\n")
        fixed = f"{game.n},{_fmt(game.delta)},{_fmt(game.mu)},{_fmt(refuter.fraction)}"  # the same in every round
        for row in stats.rows:
            fh.write(f"{row.mode},{row.trial},{fixed},{_fmt(row.error)},{row.verdict},{row.wall_ms:.3f}\n")
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
    sizes = [int(s) for s in args.sizes.split(",")]
    if any(s < 0 for s in sizes):
        raise ValueError("sizes must be nonnegative")
    if "erm-binary" in algos and args.n > EXHAUSTIVE_N_LIMIT and args.force:
        _print_force_estimate(args.n, sizes * args.trials)  # one ERM fit per size and trial
    n = args.n

    lines = ["algo,n,m,trial,train_err,test_err,wall_ms"]
    for trial in range(args.trials):
        target_bits = generator(args.seed, trial, 0).integers(0, 2, size=n) * 2 - 1
        target = BinaryHalfspacePredictor(BinaryAssignment(tuple(int(b) for b in target_bits)))
        test_xs = sample_exact_sparse(n, 3, args.test_size, derive_seed(args.seed, trial, 1))
        test = Sample(3, n, test_xs, target.predict_many(test_xs, n))
        for size_idx, m in enumerate(sizes):
            train_xs = sample_exact_sparse(n, 3, m, derive_seed(args.seed, trial, 2, size_idx))
            train = Sample(3, n, train_xs, target.predict_many(train_xs, n))
            for algo_idx, algo in enumerate(algos):
                cfg = _learner_config(args, derive_seed(args.seed, trial, 3, algo_idx))
                t0 = time.perf_counter()
                predictor = make_learner(algo, cfg, force=args.force)(train)
                wall_ms = (time.perf_counter() - t0) * 1000.0
                train_err = _fmt(empirical_error(predictor, train)) if m else "nan"
                test_err = _fmt(empirical_error(predictor, test))
                lines.append(f"{algo},{n},{m},{trial},{train_err},{test_err},{wall_ms:.3f}")
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return [args.out]


def cmd_certify_beta(args: argparse.Namespace) -> list[str]:
    W = triangular_matrix(args.n)
    beta_hat, dec = certify_min_beta(W)
    write_decomposition(args.out, dec)
    loaded = read_decomposition(args.out, shape=(args.n, args.n))
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")
    _add_learner_flags(p)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("eval", help="empirical error of a stored predictor on a sample")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("refute", help="typical/exceptional verdict for a majority formula")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--algo", choices=LEARNER_NAMES, default="erm-binary")
    p.add_argument("--fraction", type=float, default=0.5)
    p.add_argument("--threshold", type=float, default=0.375)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")
    _add_learner_flags(p)
    p.set_defaults(func=cmd_refute)

    p = sub.add_parser("game", help="Monte Carlo refutation game, CSV output")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--modes", default="planted,uniform")
    p.add_argument("--algo", choices=LEARNER_NAMES, default="erm-binary")
    p.add_argument("--fraction", type=float, default=0.5)
    p.add_argument("--threshold", type=float, default=0.375)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    _add_learner_flags(p)
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("tradeoff", help="error-vs-sample-size curves at fixed compute")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--algos", default="table,h3")
    p.add_argument("--sizes", required=True, help="comma-separated training sizes")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-size", type=int, default=2048)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
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
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
