"""One cell row of the h3 mini-batch sweep: test error, fit time and SVDs per block size B.

For each trial and training size m = ratio * n^2, the training and test
samples are drawn as ``sparsehalf tradeoff --algos h3`` draws them (same
seed paths), so at p = 0 the rows' errors are that command's.  With
``--noise p`` each training label flips with probability p, from a stream
of ``--noise-seed`` alone; test labels stay clean.  The learner seed
derives from the trial only, so every B sees the same sample, test set and
shuffles.  Fits run in this process, so the SVDs can be counted and
``wall_ms`` is one core's fit time.

    PYTHONPATH=src python results/learner_params/sweep.py --n 16 --batch 64 --out h3.csv
    PYTHONPATH=src python results/learner_params/sweep.py --summary results/learner_params

The summary reads every ``h3_*.csv`` in a directory and writes
``summary.csv``: per cell and B, the mean test error, its paired
difference from B = 1, the bar max(0.005, 0.05 * B = 1's error), and the
mean fit time and SVD count.  It prints the largest B within the bar in
every cell.
"""

from __future__ import annotations

import argparse
import csv
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from sparsehalf import learners
from sparsehalf.core import BinaryAssignment, Sample, empirical_error, sample_exact_sparse
from sparsehalf.learners import LearnerConfig, learn_h3
from sparsehalf.predictors import BinaryHalfspacePredictor
from sparsehalf.rng import derive_seed, generator

COLUMNS = "n,m,p,batch,trial,train_err,test_err,svds,wall_ms"


def run_cell(n: int, ratios: list[int], batch: int, trials: int, seed: int, test_size: int,
             noise: float, noise_seed: int) -> list[str]:
    svds = [0]
    eg_margins = learners._eg_margins

    def counted(*args):
        svds[0] += 1
        return eg_margins(*args)

    learners._eg_margins = counted
    lines = [COLUMNS]
    for trial in range(trials):
        target_bits = generator(seed, trial, 0).integers(0, 2, size=n) * 2 - 1
        target = BinaryHalfspacePredictor(BinaryAssignment(tuple(int(b) for b in target_bits)))
        test_xs = sample_exact_sparse(n, 3, test_size, derive_seed(seed, trial, 1))
        test = Sample(3, n, test_xs, target.predict_many(test_xs, n))
        for size_idx, m in enumerate(ratio * n * n for ratio in ratios):
            train_xs = sample_exact_sparse(n, 3, m, derive_seed(seed, trial, 2, size_idx))
            flips = generator(noise_seed, trial, size_idx).random(m) < noise
            train = Sample(3, n, train_xs, np.where(flips, -1, 1) * target.predict_many(train_xs, n))
            cfg = LearnerConfig(seed=derive_seed(seed, trial, 3, 0), batch=batch)
            svds[0] = 0
            t0 = time.perf_counter()
            predictor = learn_h3(train, cfg)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            lines.append(f"{n},{m},{noise:g},{batch},{trial},{float(empirical_error(predictor, train)):.12g},"
                         f"{float(empirical_error(predictor, test)):.12g},{svds[0]},{wall_ms:.3f}")
    return lines


def summarize(directory: Path) -> int:
    cells = defaultdict(dict)  # (n, m, p) -> batch -> rows
    for path in sorted(directory.glob("h3_*.csv")):
        with open(path) as fh:
            for row in csv.DictReader(fh):
                key = (int(row["n"]), int(row["m"]), float(row["p"]))
                cells[key].setdefault(int(row["batch"]), []).append(row)
    batches = sorted({b for by_batch in cells.values() for b in by_batch})
    passing = set(batches)
    out = ["n,ratio,p,batch,trials,test_err,diff_vs_b1,bar,within_bar,fit_s,svds"]
    for (n, m, p), by_batch in sorted(cells.items()):
        base = {r["trial"]: float(r["test_err"]) for r in by_batch[1]}
        base_mean = float(np.mean(list(base.values())))
        bar = max(0.005, 0.05 * base_mean)
        for batch in batches:
            rows = by_batch.get(batch, [])
            if sorted(r["trial"] for r in rows) != sorted(base):
                raise SystemExit(f"cell n={n} m={m} p={p}: batch {batch} does not have B = 1's trials")
            diff = float(np.mean([float(r["test_err"]) - base[r["trial"]] for r in rows]))
            ok = diff <= bar
            if not ok:
                passing.discard(batch)
            out.append(f"{n},{m // (n * n)},{p:g},{batch},{len(rows)},"
                       f"{np.mean([float(r['test_err']) for r in rows]):.5f},{diff:+.5f},{bar:.5f},{ok},"
                       f"{np.mean([float(r['wall_ms']) for r in rows]) / 1000:.3f},"
                       f"{np.mean([int(r['svds']) for r in rows]):.0f}")
    (directory / "summary.csv").write_text("\n".join(out) + "\n")
    print(f"largest B within the bar in every cell: {max(passing)}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int)
    parser.add_argument("--ratios", default="4,8,16,32", help="training sizes as multiples of n^2")
    parser.add_argument("--batch", type=int, default=1)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--test-size", type=int, default=4096)
    parser.add_argument("--noise", type=float, default=0.0)
    parser.add_argument("--noise-seed", type=int, default=8)
    parser.add_argument("--out")
    parser.add_argument("--summary", type=Path, help="summarize the CSVs in this directory instead")
    args = parser.parse_args()
    if args.summary:
        return summarize(args.summary)
    lines = run_cell(args.n, [int(r) for r in args.ratios.split(",")], args.batch, args.trials, args.seed,
                     args.test_size, args.noise, args.noise_seed)
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
