"""The four benchmark workloads: inputs made from the seed, CLI commands, checks.

A workload is a list of operations.  One operation is one ``sparsehalf.cli``
command together with the check of its output; every round of a run
attempts all of them, in order, on the same inputs.  Commands run with the
workload's directory as working directory, so their arguments name files
relative to it.  Checks may keep what an earlier operation of the round
established (the formula value, say) for a later one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[str], list[str]]


class Tradeoff:
    """The paper's data/compute experiment at the criterion-11 sizes."""

    N = 24
    SIZES = [2880, 11520, 138760]
    TEST_SIZE = 4096

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        argv = ["tradeoff", "--n", str(self.N), "--algos", "table,h3",
                "--sizes", ",".join(map(str, self.SIZES)), "--trials", "1",
                "--test-size", str(self.TEST_SIZE), "--seed", str(seed), "--out", "tradeoff.csv"]
        self.ops = [Op("tradeoff", argv, self.check)]

    def check(self, stdout: str) -> list[str]:
        return checks.check_tradeoff(
            (self.workdir / "tradeoff.csv").read_text(), algos=["table", "h3"], sizes=self.SIZES,
            trials=1, test_size=self.TEST_SIZE, gap_size=11520, gap=Fraction(1, 10),
            table_bar_size=138760, table_bar=Fraction(1, 20))


class LearnEval:
    """Training and prediction through the text formats, models read back from disk."""

    N = 24
    TRAIN = 11520
    TEST = 138760

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 24])
        weights = rng.choice([-1, 1], size=self.N)
        train = self._write(workdir / "train.sample", rng, weights, self.TRAIN)
        test = self._write(workdir / "test.sample", rng, weights, self.TEST)
        self.table_test = checks.table_test_error(train[0], test[0], test[1])
        self.ops = [
            Op("learn h3", ["learn", "--algo", "h3", "--train", "train.sample", "--model", "h3.model",
                            "--seed", str(seed)], self._model_check(workdir / "h3.model", "composite")),
            Op("learn table", ["learn", "--algo", "table", "--train", "train.sample", "--model", "table.model"],
               self._model_check(workdir / "table.model", "table")),
            self._eval("table", "train", self.TRAIN, expected=Fraction(0)),
            self._eval("table", "test", self.TEST, expected=self.table_test),
            self._eval("h3", "train", self.TRAIN),
            self._eval("h3", "test", self.TEST, at_most=self.table_test - Fraction(1, 10)),
        ]

    def _write(self, path: Path, rng: np.random.Generator, weights: np.ndarray, count: int):
        """Uniform exactly-3-sparse instances labelled sign(<w, x>); returns (keys, labels)."""
        idx = np.sort(np.argsort(rng.random((count, self.N)), axis=1)[:, :3], axis=1)
        val = rng.choice([-1, 1], size=(count, 3))
        labels = np.where((weights[idx] * val).sum(axis=1) > 0, 1, -1)
        lines = [f"# sparse-sample n={self.N} k=3"]
        lines += [f"{y:+d} {i + 1}:{a:+d} {j + 1}:{b:+d} {k + 1}:{c:+d}"
                  for y, (i, j, k), (a, b, c) in zip(labels.tolist(), idx.tolist(), val.tolist())]
        path.write_text("\n".join(lines) + "\n")
        return checks.instance_keys(idx, val), labels

    @staticmethod
    def _model_check(path: Path, tag: str) -> Callable[[str], list[str]]:
        def check(stdout: str) -> list[str]:
            head = path.read_text().split(maxsplit=1)[:1]
            return [] if head == [tag] else [f"{path.name} starts with {head}, expected {tag!r}"]
        return check

    def _eval(self, model: str, data: str, size: int, **bars) -> Op:
        def check(stdout: str) -> list[str]:
            return checks.check_eval(stdout, size=size, **bars)[1]
        return Op(f"eval {model} {data}", ["eval", "--model", f"{model}.model", "--data", f"{data}.sample"], check)


class Refute:
    """The refutation game, then one uniform formula through val, ERM and eval."""

    N = 22
    DELTA = 16
    CLAUSES = 176
    TRIALS = 5

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.value: Fraction | None = None
        self._max_sat: dict[str, int] = {}
        self.ops = [
            Op("game", ["game", "--n", str(self.N), "--delta", str(self.DELTA), "--trials", str(self.TRIALS),
                        "--seed", str(seed), "--out", "game.csv"], self.check_game),
            Op("gen-formula", ["gen-formula", "--kind", "3maj", "--n", str(self.N), "--clauses",
                               str(self.CLAUSES), "--mode", "uniform", "--seed", str(seed), "--out", "f.maj3"],
               self.check_formula),
            Op("to-sample", ["to-sample", "--in", "f.maj3", "--seed", str(seed + 1), "--out", "f.sample"],
               self.check_to_sample),
            Op("val", ["val", "--in", "f.maj3"], self.check_val),
            Op("learn erm-binary", ["learn", "--algo", "erm-binary", "--train", "f.sample", "--model", "f.model"],
               self.check_erm),
            Op("eval erm-binary", ["eval", "--model", "f.model", "--data", "f.sample"], self.check_eval),
        ]

    def _formula(self):
        return checks.parse_maj3((self.workdir / "f.maj3").read_text())

    def check_game(self, stdout: str) -> list[str]:
        return checks.check_game((self.workdir / "game.csv").read_text(), trials=self.TRIALS,
                                 clauses=self.DELTA * self.N, threshold=Fraction(3, 8),
                                 planted_rate=0.75, uniform_mean=0.40)

    def check_formula(self, stdout: str) -> list[str]:
        try:
            n, variables, _ = self._formula()
        except ValueError as exc:
            return [str(exc)]
        if n != self.N or len(variables) != self.CLAUSES:
            return [f"formula has n={n}, m={len(variables)}"]
        if (np.sort(variables, axis=1)[:, 1:] == np.sort(variables, axis=1)[:, :-1]).any():
            return ["a clause repeats a variable"]
        return []

    def check_to_sample(self, stdout: str) -> list[str]:
        _, variables, signs = self._formula()
        return checks.check_to_sample((self.workdir / "f.sample").read_text(), variables, signs)

    def check_val(self, stdout: str) -> list[str]:
        self.value = None
        try:
            value = checks.parse_fraction_line(stdout, "val")
        except ValueError as exc:
            return [str(exc)]
        text = (self.workdir / "f.maj3").read_text()
        if text not in self._max_sat:
            self._max_sat[text] = checks.max_satisfied_majority(*checks.parse_maj3(text))
        best = Fraction(self._max_sat[text], self.CLAUSES)
        if value != best:
            return [f"val {value} != {best} by enumeration of all 2^{self.N} assignments"]
        self.value = value
        return []

    def check_erm(self, stdout: str) -> list[str]:
        try:
            bits = checks.parse_binary_model((self.workdir / "f.model").read_text())
        except ValueError as exc:
            return [str(exc)]
        _, variables, signs = self._formula()
        got = Fraction(checks.satisfied_majority(bits, variables, signs), self.CLAUSES)
        if self.value is None or got != self.value:
            return [f"ERM weights satisfy {got} of the clauses, val is {self.value}"]
        return []

    def check_eval(self, stdout: str) -> list[str]:
        err, problems = checks.check_eval(stdout, size=self.CLAUSES)
        if err is not None and (self.value is None or err + self.value != 1):
            problems.append(f"err {err} + val {self.value} != 1")
        return problems


class Certify:
    """The decomposability certifier at the largest size its guard allows."""

    N = 128

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        argv = ["certify-beta", "--matrix", "tn", "--n", str(self.N), "--out", "tn.cert"]
        self.ops = [Op("certify-beta", argv, self.check)]

    def check(self, stdout: str) -> list[str]:
        return checks.check_certificate((self.workdir / "tn.cert").read_text(), stdout, self.N)


WORKLOADS = {"tradeoff": Tradeoff, "learn-eval": LearnEval, "refute": Refute, "certify": Certify}
