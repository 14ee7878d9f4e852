#!/bin/sh
# The h3 mini-batch sweep, run from the repository root.  Seeds 7 (samples and
# learner) and 8 (label noise) were fixed before any cell was run.  Each line is
# independent; the sweep ran them two at a time on a 2-CPU box, then the summary:
#   grep -- "--out" results/learner_params/commands.sh | PYTHONPATH=src OPENBLAS_NUM_THREADS=1 xargs -P 2 -I{} sh -c "{}"
export PYTHONPATH=src OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1
python results/learner_params/sweep.py --n 48 --batch 1 --out results/learner_params/h3_n48_p0_b1.csv
python results/learner_params/sweep.py --n 48 --batch 16 --out results/learner_params/h3_n48_p0_b16.csv
python results/learner_params/sweep.py --n 48 --batch 64 --out results/learner_params/h3_n48_p0_b64.csv
python results/learner_params/sweep.py --n 48 --batch 256 --out results/learner_params/h3_n48_p0_b256.csv
python results/learner_params/sweep.py --n 32 --batch 1 --out results/learner_params/h3_n32_p0_b1.csv
python results/learner_params/sweep.py --n 32 --batch 16 --out results/learner_params/h3_n32_p0_b16.csv
python results/learner_params/sweep.py --n 32 --batch 64 --out results/learner_params/h3_n32_p0_b64.csv
python results/learner_params/sweep.py --n 32 --batch 256 --out results/learner_params/h3_n32_p0_b256.csv
python results/learner_params/sweep.py --n 24 --batch 1 --out results/learner_params/h3_n24_p0_b1.csv
python results/learner_params/sweep.py --n 24 --batch 16 --out results/learner_params/h3_n24_p0_b16.csv
python results/learner_params/sweep.py --n 24 --batch 64 --out results/learner_params/h3_n24_p0_b64.csv
python results/learner_params/sweep.py --n 24 --batch 256 --out results/learner_params/h3_n24_p0_b256.csv
python results/learner_params/sweep.py --n 16 --batch 1 --out results/learner_params/h3_n16_p0_b1.csv
python results/learner_params/sweep.py --n 16 --batch 16 --out results/learner_params/h3_n16_p0_b16.csv
python results/learner_params/sweep.py --n 16 --batch 64 --out results/learner_params/h3_n16_p0_b64.csv
python results/learner_params/sweep.py --n 16 --batch 256 --out results/learner_params/h3_n16_p0_b256.csv
python results/learner_params/sweep.py --n 24 --noise 0.1 --batch 1 --out results/learner_params/h3_n24_p0.1_b1.csv
python results/learner_params/sweep.py --n 24 --noise 0.1 --batch 16 --out results/learner_params/h3_n24_p0.1_b16.csv
python results/learner_params/sweep.py --n 24 --noise 0.1 --batch 64 --out results/learner_params/h3_n24_p0.1_b64.csv
python results/learner_params/sweep.py --n 24 --noise 0.1 --batch 256 --out results/learner_params/h3_n24_p0.1_b256.csv
python results/learner_params/sweep.py --n 16 --noise 0.1 --batch 1 --out results/learner_params/h3_n16_p0.1_b1.csv
python results/learner_params/sweep.py --n 16 --noise 0.1 --batch 16 --out results/learner_params/h3_n16_p0.1_b16.csv
python results/learner_params/sweep.py --n 16 --noise 0.1 --batch 64 --out results/learner_params/h3_n16_p0.1_b64.csv
python results/learner_params/sweep.py --n 16 --noise 0.1 --batch 256 --out results/learner_params/h3_n16_p0.1_b256.csv
python results/learner_params/sweep.py --summary results/learner_params
