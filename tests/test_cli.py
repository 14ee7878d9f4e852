"""Command-line harness: every subcommand, manifests, exit codes, determinism."""

import argparse
import json
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import core_env, eval_clause, frozen_core_env, runnable_openblas_cores, sample_formula_stepwise
from sparsehalf import cli, core
from sparsehalf.cli import H2_N_LIMIT, H3_N_LIMIT, MATRIX_BYTE_BUDGET, build_parser, main
from sparsehalf.core import BinaryAssignment, Sample, distinct_rows, parse_sample, sample_exact_sparse, serialize_sample
from sparsehalf.decompmat import read_decomposition, triangular_matrix, verify_decomposition
from sparsehalf.formulas import FormulaKind, FormulaSourceConfig, parse_formula, serialize_formula
from sparsehalf.learners import LearnerConfig, learn_h3
from sparsehalf.predictors import read_predictor, write_predictor
from sparsehalf.rng import derive_seed

FROZEN = Path(__file__).parent / "fixtures" / "frozen"


def run(*argv):
    return main(list(argv))


def read(path):
    return path.read_text(encoding="ascii")


@pytest.fixture
def planted(tmp_path):
    out = tmp_path / "planted.maj3"
    assert run("gen-formula", "--kind", "3maj", "--n", "10", "--clauses", "60",
               "--mode", "planted", "--seed", "3", "--out", str(out)) == 0
    return out


@pytest.fixture
def uniform(tmp_path):
    out = tmp_path / "uniform.maj3"
    assert run("gen-formula", "--kind", "3maj", "--n", "10", "--clauses", "60",
               "--seed", "4", "--out", str(out)) == 0
    return out


class TestGenFormula:
    def test_planted_has_value_one(self, planted, capsys):
        assert run("val", "--in", str(planted)) == 0
        assert capsys.readouterr().out.startswith("val 1 1/1")

    def test_planted_sidecar_satisfies_all_clauses(self, planted):
        bits = tuple(int(t) for t in read(planted.with_name("planted.maj3.psi")).split())
        psi = BinaryAssignment(bits)
        phi = parse_formula(read(planted))
        assert all(eval_clause(phi.kind, clause, psi) for clause in phi.lits.tolist())

    def test_file_reparses_identically(self, uniform):
        from sparsehalf.formulas import serialize_formula

        text = read(uniform)
        assert serialize_formula(parse_formula(text)) == text

    def test_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("gen-formula", "--kind", "3maj", "--n", "12", "--clauses", "72", "--seed", "1", "--out", str(a))
        run("gen-formula", "--kind", "3maj", "--n", "12", "--clauses", "72", "--seed", "2", "--out", str(b))
        assert read(a) != read(b)

    def test_manifest_written(self, planted):
        manifest = json.loads(read(planted.with_name("planted.maj3.manifest.json")))
        assert manifest["command"] == "gen-formula"
        assert manifest["flags"]["seed"] == 3
        assert str(planted) in manifest["outputs"]

    def test_refused_planted_formula_writes_no_file(self, tmp_path, capsys):
        assert run("gen-formula", "--kind", "3maj", "--n", "2", "--clauses", "5", "--mode", "planted",
                   "--out", str(tmp_path / "f.maj3")) == 2
        assert "need n >= 3 variables" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_cnf_generation(self, tmp_path, capsys):
        out = tmp_path / "f.cnf"
        assert run("gen-formula", "--kind", "3cnf", "--n", "8", "--clauses", "20", "--seed", "0", "--out", str(out)) == 0
        assert parse_formula(read(out)).kind.value == "cnf"


class TestValGuards:
    def test_guard_exit_code(self, tmp_path):
        out = tmp_path / "big.maj3"
        run("gen-formula", "--kind", "3maj", "--n", "25", "--clauses", "10", "--seed", "0", "--out", str(out))
        assert run("val", "--in", str(out)) == 3

    def test_force_overrides_with_estimate(self, tmp_path, capsys):
        out = tmp_path / "big.maj3"
        run("gen-formula", "--kind", "3maj", "--n", "25", "--clauses", "4", "--seed", "0", "--out", str(out))
        assert run("val", "--in", str(out), "--force") == 0
        captured = capsys.readouterr()
        assert "force:" in captured.err
        assert captured.out.startswith("val ")

    def test_missing_file_is_usage_error(self):
        assert run("val", "--in", "/nonexistent/file") == 2


class TestToSampleLearnEval:
    def test_to_sample_line_count(self, planted, tmp_path):
        out = tmp_path / "s.txt"
        assert run("to-sample", "--in", str(planted), "--seed", "5", "--out", str(out)) == 0
        sample = parse_sample(read(out))
        assert len(sample) == 60

    def test_learn_eval_round_trip(self, planted, tmp_path, capsys):
        data = tmp_path / "s.txt"
        run("to-sample", "--in", str(planted), "--seed", "5", "--out", str(data))
        for algo in ("table", "h3", "erm-binary"):
            model = tmp_path / f"{algo}.model"
            assert run("learn", "--algo", algo, "--train", str(data), "--model", str(model), "--seed", "1") == 0
            assert run("eval", "--model", str(model), "--data", str(data)) == 0
            line = capsys.readouterr().out.strip()
            assert line.startswith("err ")

    def test_table_at_most_erm_error(self, uniform, tmp_path, capsys):
        data = tmp_path / "s.txt"
        run("to-sample", "--in", str(uniform), "--seed", "6", "--out", str(data))
        errs = {}
        for algo in ("table", "erm-binary"):
            model = tmp_path / f"{algo}.model"
            run("learn", "--algo", algo, "--train", str(data), "--model", str(model), "--seed", "1")
            run("eval", "--model", str(model), "--data", str(data))
            errs[algo] = float(capsys.readouterr().out.split()[1])
        assert errs["table"] <= errs["erm-binary"]

    @pytest.mark.parametrize("flag", ["--beta", "--eta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learner_flag_is_usage_error(self, planted, tmp_path, capsys, flag, value):
        data = tmp_path / "s.txt"
        run("to-sample", "--in", str(planted), "--seed", "5", "--out", str(data))
        model = tmp_path / "h3.model"
        assert run("learn", "--algo", "h3", "--train", str(data), "--model", str(model), flag, value) == 2
        assert f"error: {flag[2:]} must be finite and positive" in capsys.readouterr().err
        assert not model.exists()

    def test_overflowing_step_is_one_error_line(self, planted, tmp_path):
        data = tmp_path / "s.txt"
        run("to-sample", "--in", str(planted), "--seed", "5", "--out", str(data))
        proc = cli_process("learn", "--algo", "h3", "--train", str(data), "--model", str(tmp_path / "h3.model"),
                           "--eta", "1e308", "--beta", "1e308")
        assert proc.returncode == 4
        # 60 examples: every part's epoch is one block of the default 64 steps, so the first new iterate is epoch 2's
        assert proc.stderr == "error: non-finite margins in epoch 2; reduce eta\n"

    def test_force_estimate_prices_every_key_of_wide_rows(self, tmp_path, capsys, monkeypatch):
        # 300 8-sparse rows at n = 25: best_pattern builds more rank-one terms than 3-sparse rows ever need
        built = []

        def counted(*args):
            keys, terms = rank_one_terms(*args)
            built.append(len(keys))
            return keys, terms

        rank_one_terms = core._rank_one_terms
        monkeypatch.setattr(core, "_rank_one_terms", counted)
        rows = sample_exact_sparse(25, 8, 300, 11)
        data = tmp_path / "wide.sample"
        data.write_text(serialize_sample(Sample(8, 25, rows, np.where(rows[:, 0] > 0, 1, -1))))
        assert run("learn", "--algo", "erm-binary", "--train", str(data), "--model", str(tmp_path / "m"),
                   "--force") == 0
        terms = float(re.search(r"~(\S+) pattern-terms", capsys.readouterr().err).group(1))
        assert max(built) > 4 * 25 + 2  # past the 3-sparse cap
        assert terms >= (1 << 25) * max(built)

    def test_eval_on_garbage_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a sample\n")
        model = tmp_path / "m"
        model.write_text("binary 2\n+1 -1\n")
        assert run("eval", "--model", str(model), "--data", str(bad)) == 2


def cli_process(*argv, env=None, limit=None):
    """The CLI run as its own process, as a user runs it; ``env`` replaces the environment, and ``limit`` caps its
    address space, in bytes."""
    cap = None if limit is None else lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return subprocess.run([sys.executable, "-m", "sparsehalf.cli", *argv], capture_output=True, text=True, env=env,
                          preexec_fn=cap)


def write_sample(path, n, count, seed):
    rows = sample_exact_sparse(n, 3, count, seed)
    path.write_text(serialize_sample(Sample(3, n, rows, np.where(rows[:, 0] > 0, 1, -1))))
    return path


class TestModelDimensionMismatch:
    """A model whose n does not match the data is a usage error, never a traceback."""

    def assert_usage_error(self, *argv):
        proc = cli_process(*argv)
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_h3_model_on_wider_data(self, tmp_path):
        train = write_sample(tmp_path / "train8", 8, 200, 1)
        data = write_sample(tmp_path / "data24", 24, 50, 2)
        model = tmp_path / "h3.model"
        assert run("learn", "--algo", "h3", "--train", str(train), "--model", str(model)) == 0
        self.assert_usage_error("eval", "--model", str(model), "--data", str(data))

    def test_matrix_child_of_other_n(self, tmp_path):
        data = tmp_path / "data8"
        data.write_text("# sparse-sample n=8 k=3\n+1 1:+1 5:+1 7:-1\n")  # reads cell (5, 7)
        model = tmp_path / "m"
        model.write_text("composite c3 8 1\npart i=1,b=+1\nmatrix r=0 2 2\n0 0\n0 0\n")
        self.assert_usage_error("eval", "--model", str(model), "--data", str(data))

    def test_c2_part_key_under_c3(self, tmp_path):
        data = write_sample(tmp_path / "data8", 8, 50, 2)
        model = tmp_path / "m"
        model.write_text("composite c3 8 1\npart r=0\nbinary 8\n+1 +1 +1 +1 +1 +1 +1 +1\n")
        self.assert_usage_error("eval", "--model", str(model), "--data", str(data))

    def test_table_model_on_other_n(self, tmp_path):
        data = write_sample(tmp_path / "data8", 8, 50, 2)
        model = tmp_path / "m"
        model.write_text("table 4 3 1\n1:+1 2:-1 3:+1 -> -1\n")
        self.assert_usage_error("eval", "--model", str(model), "--data", str(data))


class TestModelNesting:
    """Models nest c3 over c2 over leaves; a deeper file is a usage error naming the line, never a traceback."""

    @pytest.mark.parametrize("text,message", [
        ("composite c2 3 1\npart r=0\n" * 3000 + "binary 3\n+1 +1 +1\n",
         "composite node, line 3: a c2 part holds only leaves, got 'composite c2'"),
        ("composite c3 3 1\npart residual\ncomposite c3 3 0\n",
         "composite node, line 3: a c3 part holds only c2 composites and leaves, got 'composite c3'"),
    ], ids=["c2-3000-deep", "c3-under-c3"])
    def test_refused_before_recursing(self, tmp_path, text, message):
        model, data = tmp_path / "deep.model", write_sample(tmp_path / "s.sample", 3, 10, 1)
        model.write_text(text)
        proc = cli_process("eval", "--model", str(model), "--data", str(data))
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


class TestReadersAllocateWhatTheFileHolds:
    """A header's dimensions never size an allocation before the file's rows are read."""

    @staticmethod
    def assert_eval_usage_error(tmp_path, model_text, sample_text):
        model, data = tmp_path / "m", tmp_path / "d"
        model.write_text(model_text)
        data.write_text(sample_text)
        proc = cli_process("eval", "--model", str(model), "--data", str(data))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("model", [
        "matrix r=0 3000000 3000000\n0 0\n",
        "composite c2 3 1\npart r=0\nmatrix r=0 3000000 3000000\n0 0\n",
    ], ids=["top-level", "under-composite"])
    def test_huge_matrix_header(self, tmp_path, model):
        self.assert_eval_usage_error(tmp_path, model, "# sparse-sample n=3 k=1\n+1 1:+1\n")

    def test_huge_sample_k(self, tmp_path):
        self.assert_eval_usage_error(tmp_path, "binary 3\n+1 +1 +1\n",
                                     "# sparse-sample n=3 k=1000000000000\n+1 1:+1\n")

    def test_huge_sample_k_within_n(self, tmp_path):
        """k <= n passes the header check, and one row padded to k = 2e9 would take 8 GB; under a 2 GB
        address-space limit, so that the test cannot exhaust the machine."""
        model, data = tmp_path / "m", tmp_path / "d"
        model.write_text("binary 2\n+1 +1\n")
        data.write_text("# sparse-sample n=2000000000 k=2000000000\n+1 1:+1\n")
        proc = cli_process("eval", "--model", str(model), "--data", str(data), limit=2 << 30)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: header k=2000000000 pads 1 rows")

    def test_composite_header_n_lists_no_parts(self, tmp_path):
        """A c3 composite at n = 2e9 has 4e9 - 3 parts: the reader and the constructor check the one part key
        the file holds, and list none.  Under a 2 GB address-space limit, so that the test cannot exhaust the
        machine; listing the parts would end in a MemoryError traceback after about 10 s."""
        model, data = tmp_path / "m", tmp_path / "d"
        model.write_text("composite c3 2000000000 1\npart i=1999999998,b=-1\ntable 2000000000 2 0\n")
        data.write_text("# sparse-sample n=2000000000 k=3\n+1 1:+1 2:-1 7:+1\n")
        start = time.perf_counter()
        proc = cli_process("eval", "--model", str(model), "--data", str(data), limit=2 << 30)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "err 0 0/1\n", "")
        assert time.perf_counter() - start < 1.0


class TestMatrixGuard:
    def test_h3_above_the_limit_exits_3(self, tmp_path, capsys):
        n = H3_N_LIMIT + 1
        data = tmp_path / "wide"
        data.write_text(f"# sparse-sample n={n} k=3\n+1 1:+1 2:-1 {n}:+1\n")
        assert run("learn", "--algo", "h3", "--train", str(data), "--model", str(tmp_path / "m")) == 3
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()


ERM_25 = "error: ERM enumerates 2^25 patterns; the guard stops n > 24 unless forced"
H3_179 = "error: learn_h3 holds dense n x n score matrices; the guard stops n > 178 (256 MiB) unless forced"
#: case -> (argv, exit code, stderr, files written); inputs are read from {in}/, outputs go to {out}/
GATE_CASES = {
    "val": (["val", "--in", "{in}/f25.maj3"], 3,
            "error: formula value enumerates 2^25 assignments; the guard stops n > 24 unless forced", []),
    "val-force": (["val", "--in", "{in}/f25.maj3", "--force"], 0,
                  "force: exhaustive pass over 2^25 patterns x 2 rows, ~1.34e+08 pattern-terms (~0.0 s)", []),
    "learn-erm-binary": (["learn", "--algo", "erm-binary", "--train", "{in}/s25.sample", "--model", "{out}/m"], 3,
                         ERM_25, []),
    "learn-h3": (["learn", "--algo", "h3", "--train", "{in}/s179.sample", "--model", "{out}/m"], 3, H3_179, []),
    "learn-h2": (["learn", "--algo", "h2", "--train", "{in}/s3345.sample", "--model", "{out}/m"], 3,
                 "error: learn_h2 holds dense n x n score matrices; the guard stops n > 3344 (256 MiB) unless forced",
                 []),
    "learn-table": (["learn", "--algo", "table", "--train", "{in}/s3345.sample", "--model", "{out}/m"], 0, "",
                    ["m", "m.manifest.json"]),
    "refute-erm-binary": (["refute", "--in", "{in}/f25.maj3"], 3, ERM_25, []),
    "refute-h3": (["refute", "--in", "{in}/f179.maj3", "--algo", "h3"], 3, H3_179, []),
    "game": (["game", "--n", "25", "--delta", "1", "--trials", "1", "--out", "{out}/g.csv"], 3, ERM_25, []),
    "game-h3": (["game", "--n", "179", "--delta", "1", "--trials", "1", "--algo", "h3", "--out", "{out}/g.csv"], 3,
                H3_179, []),
    "tradeoff-erm-binary": (["tradeoff", "--n", "25", "--algos", "erm-binary", "--sizes", "4", "--test-size", "8",
                             "--out", "{out}/t.csv"], 3, ERM_25, []),
    "tradeoff-erm-binary-force": (["tradeoff", "--n", "25", "--algos", "erm-binary", "--sizes", "4", "--test-size", "8",
                                   "--force", "--out", "{out}/t.csv"], 0,
                                  "force: exhaustive pass over 2^25 patterns x 4 rows, "
                                  "~2.68e+08 pattern-terms (~0.0 s)", ["t.csv", "t.csv.manifest.json"]),
    "tradeoff-h3": (["tradeoff", "--n", "179", "--algos", "table,h3", "--sizes", "10", "--test-size", "4",
                     "--out", "{out}/t.csv"], 3, H3_179, []),
    # a billion rounds or trials are counted, not listed, on the way to the gate
    "game-trials": (["game", "--n", "25", "--delta", "1", "--trials", "1000000000", "--out", "{out}/g.csv"], 3,
                    ERM_25, []),
    "tradeoff-trials": (["tradeoff", "--n", "25", "--algos", "erm-binary", "--sizes", "4", "--trials", "1000000000",
                         "--test-size", "8", "--out", "{out}/t.csv"], 3, ERM_25, []),
    "certify-beta": (["certify-beta", "--n", "129", "--out", "{out}/t.cert"], 3,
                     "error: certifier limited to n+m <= 256: got 258", []),
    # an m x 3 int32 clause matrix of 112 GiB and of 109 TiB
    "gen-formula-clauses": (["gen-formula", "--kind", "3maj", "--n", "10", "--clauses", "10000000000",
                             "--out", "{out}/f.maj3"], 3,
                            "error: --clauses asks for 10000000000 clauses, 120000000000 bytes; "
                            "the guard stops past 268435456 bytes", []),
    "game-delta": (["game", "--n", "10", "--delta", "1e12", "--trials", "1", "--out", "{out}/g.csv"], 3,
                   "error: --delta 1e+12 asks for 10000000000000 clauses, 120000000000000 bytes; "
                   "the guard stops past 268435456 bytes unless forced", []),
}


class TestSizeGate:
    """Every size guard is the CLI's: one line, exit 3, no traceback and no file; --force lifts it.  Each command
    runs under a 2 GB address-space limit, so that a gate met too late cannot exhaust the machine."""

    def test_limits_follow_the_byte_budget(self):
        assert 3 * 8 * H2_N_LIMIT**2 <= MATRIX_BYTE_BUDGET < 3 * 8 * (H2_N_LIMIT + 1) ** 2
        h3_bytes = lambda n: (2 * n - 3) * 3 * 8 * n * n  # noqa: E731
        assert h3_bytes(H3_N_LIMIT) <= MATRIX_BYTE_BUDGET < h3_bytes(H3_N_LIMIT + 1)

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("inputs")
        (d / "f25.maj3").write_text("p maj3 25 2\n1 -2 3 0\n-4 5 25 0\n")
        (d / "f179.maj3").write_text("p maj3 179 2\n1 -2 3 0\n-4 5 179 0\n")
        (d / "s25.sample").write_text("# sparse-sample n=25 k=3\n+1 1:+1 2:-1 25:+1\n")
        (d / "s179.sample").write_text("# sparse-sample n=179 k=3\n+1 1:+1 2:-1 179:+1\n")
        (d / "s3345.sample").write_text("# sparse-sample n=3345 k=2\n+1 1:+1 2:-1\n-1 3345:+1\n")
        return d

    @pytest.mark.parametrize("case", GATE_CASES)
    def test_each_command_meets_the_gate_once(self, tmp_path, inputs, case):
        argv, code, line, written = GATE_CASES[case]
        proc = cli_process(*(a.format(**{"in": inputs, "out": tmp_path}) for a in argv), limit=2 << 30)
        assert (proc.returncode, proc.stderr) == (code, line + "\n" if line else "")
        assert sorted(p.name for p in tmp_path.iterdir()) == written


class TestSampleBytes:
    """Sample files are ASCII, but a '#' comment line may hold any bytes."""

    HEADER = b"# sparse-sample n=4 k=2\n"
    BODY = b"+1 1:+1\n-1 2:-1 3:+1\n"

    def test_comment_with_non_ascii_bytes_is_ignored(self, tmp_path, capsys):
        plain, commented = tmp_path / "plain.sample", tmp_path / "commented.sample"
        plain.write_bytes(self.HEADER + self.BODY)
        commented.write_bytes(self.HEADER + "# café\n".encode("utf-8") + self.BODY + b"#\xff\xfe\n")
        for data in (plain, commented):
            assert run("learn", "--algo", "table", "--train", str(data), "--model", str(data) + ".model") == 0
            assert run("eval", "--model", str(plain) + ".model", "--data", str(data)) == 0
        assert (tmp_path / "plain.sample.model").read_bytes() == (tmp_path / "commented.sample.model").read_bytes()
        out = capsys.readouterr().out.splitlines()
        assert out == ["err 0 0/1", "err 0 0/1"]

    @pytest.mark.parametrize("line,number", [
        ("-1 2:-1 café\n", 3),  # a non-ASCII token
        ("+1 \u0661:+1\n", 3),  # an Arabic-Indic digit one, which int() would read as 1
        ("+1 1:+1\u00a0\n", 3),  # a no-break space, which str.split() would take for a space
        ("\uff0b1\n", 3),  # a fullwidth plus sign
    ])
    @pytest.mark.parametrize("command", ["learn", "eval"])
    def test_non_ascii_data_line_is_a_format_error_naming_it(self, tmp_path, capsys, command, line, number):
        model = tmp_path / "m.model"
        (tmp_path / "ok.sample").write_bytes(self.HEADER + self.BODY)
        assert run("learn", "--algo", "table", "--train", str(tmp_path / "ok.sample"), "--model", str(model)) == 0
        data = tmp_path / "bad.sample"
        data.write_bytes(self.HEADER + b"+1 1:+1\n" + line.encode("utf-8"))
        argv = (["learn", "--algo", "table", "--train", str(data), "--model", str(tmp_path / "x.model")]
                if command == "learn" else ["eval", "--model", str(model), "--data", str(data)])
        capsys.readouterr()
        assert run(*argv) == 2
        assert capsys.readouterr().err.startswith(f"error: line {number}: ")


class TestFormulaBytes:
    """Formula files are read like samples: a comment line may hold any bytes."""

    TEXT = b"p maj3 4 2\n1 -2 3 0\n"
    EXTRA = {"val": [], "to-sample": ["--out", "{path}.sample"], "refute": []}

    @pytest.mark.parametrize("command", sorted(EXTRA))
    def test_comment_with_non_ascii_bytes_is_ignored(self, tmp_path, capsys, command):
        plain, commented = tmp_path / "plain.maj3", tmp_path / "commented.maj3"
        plain.write_bytes(self.TEXT + b"-1 2 4 0\n")
        commented.write_bytes("c café\n".encode("utf-8") + self.TEXT + b"-1 2 4 0\nc \xff\xfe\n")
        for path in (plain, commented):
            assert run(command, "--in", str(path), *[a.format(path=path) for a in self.EXTRA[command]]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:len(out) // 2] == out[len(out) // 2:]
        if command == "to-sample":
            assert (tmp_path / "plain.maj3.sample").read_bytes() == (tmp_path / "commented.maj3.sample").read_bytes()

    @pytest.mark.parametrize("command", sorted(EXTRA))
    def test_non_ascii_literal_is_a_format_error_naming_it(self, tmp_path, capsys, command):
        data = tmp_path / "bad.maj3"
        data.write_bytes(self.TEXT + "-1 2 é 0\n".encode("utf-8"))
        assert run(command, "--in", str(data), *[a.format(path=data) for a in self.EXTRA[command]]) == 2
        assert capsys.readouterr().err == "error: line 3: bad literal '\\udcc3\\udca9'\n"
        assert list(tmp_path.iterdir()) == [data]


class TestModelBytes:
    """Model files are decoded like samples: a non-ASCII byte is a FormatError naming its node and line."""

    @pytest.mark.parametrize("model,message", [
        ("table 4 2 2\n1:+1 -> +1\n2:-1 é -> -1\n", "table node, line 3: expected idx:val token, got '\\udcc3\\udca9'"),
        ("matrix r=0 2 2\n0 0\n0 é\n", "matrix node, line 3: expected floats, got '0 \\udcc3\\udca9'"),
        ("table 4 2é 1\n1:+1 -> +1\n", "table node, line 1: expected ints, got '4 2\\udcc3\\udca9 1'"),
    ], ids=["table-row", "matrix-row", "node-header"])
    def test_non_ascii_byte_is_a_format_error_naming_its_line(self, tmp_path, capsys, model, message):
        path, data = tmp_path / "m", tmp_path / "d"
        path.write_bytes(model.encode("utf-8"))
        data.write_text("# sparse-sample n=4 k=2\n+1 1:+1\n")
        assert run("eval", "--model", str(path), "--data", str(data)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestFrozenOutputs:
    """Outputs recorded before samples and formulas became arrays; they must not change.

    The exceptions are what pins the block sampler's own draws: the ``gen_*``
    formulas and the game's rows were re-recorded when ``sample_formula``
    stopped drawing clause by clause (their ``.psi`` files did not move).  The
    ``stepwise_*`` formulas keep the per-clause sampler's bytes, so the sample
    and the models built from them are still the older recordings.
    """

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("mode", ["uniform", "planted"])
    @pytest.mark.parametrize("kind", ["3maj", "3cnf"])
    def test_gen_formula(self, tmp_path, kind, mode, seed):
        name = f"gen_{kind}_{mode}_s{seed}.txt"
        out = tmp_path / name
        assert run("gen-formula", "--kind", kind, "--n", "12", "--clauses", "60", "--mode", mode,
                   "--seed", str(seed), "--out", str(out)) == 0
        assert out.read_bytes() == (FROZEN / name).read_bytes()
        psi = tmp_path / f"{name}.psi"
        assert psi.exists() == (mode == "planted")
        if mode == "planted":
            assert psi.read_bytes() == (FROZEN / f"{name}.psi").read_bytes()

    @pytest.mark.parametrize("name", [f"gen_{kind}_planted_s{seed}.txt" for kind in ("3maj", "3cnf") for seed in (0, 1)])
    def test_planted_fixture_holds_under_its_psi(self, name):
        psi = BinaryAssignment(tuple(int(t) for t in read(FROZEN / f"{name}.psi").split()))
        phi = parse_formula(read(FROZEN / name))
        assert all(eval_clause(phi.kind, clause, psi) for clause in phi.lits.tolist())

    @pytest.mark.parametrize("m, seed", [(60, 0), (150, 5)])
    def test_stepwise_fixture_is_the_per_clause_draw(self, m, seed):
        # gen-formula's uniform draw at --seed, made by the per-clause sampler
        phi = sample_formula_stepwise(FormulaSourceConfig(12, m, seed=derive_seed(seed, 1)), FormulaKind.MAJ)
        assert serialize_formula(phi) == read(FROZEN / f"stepwise_3maj_n12_m{m}_s{seed}.txt")

    def test_to_sample(self, tmp_path):
        out = tmp_path / "s.txt"
        assert run("to-sample", "--in", str(FROZEN / "stepwise_3maj_n12_m60_s0.txt"), "--seed", "7", "--out", str(out)) == 0
        assert out.read_bytes() == (FROZEN / "to_sample_3maj_uniform_s0_seed7.txt").read_bytes()

    def test_game_csv(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run("game", "--n", "16", "--delta", "16", "--trials", "4", "--seed", "0", "--out", str(out)) == 0
        rows = [",".join(line.split(",")[:-1]) for line in read(out).splitlines()]  # drop wall_ms
        assert rows == (FROZEN / "game_n16_delta16.csv").read_text().splitlines()

    def test_tradeoff_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run("tradeoff", "--n", "10", "--algos", "table,h3,erm-binary", "--sizes", "0,200,1600",
                   "--test-size", "512", "--trials", "2", "--seed", "3", "--out", str(out)) == 0
        rows = [",".join(line.split(",")[:-1]) for line in read(out).splitlines()]  # drop wall_ms
        assert rows == (FROZEN / "tradeoff_n10.csv").read_text().splitlines()

    @pytest.mark.parametrize("algo", ["table", "erm-binary"])
    def test_model_bytes(self, tmp_path, algo):
        sample, model = tmp_path / "f.sample", tmp_path / "f.model"
        assert run("to-sample", "--in", str(FROZEN / "stepwise_3maj_n12_m150_s5.txt"), "--seed", "6",
                   "--out", str(sample)) == 0
        assert run("learn", "--algo", algo, "--train", str(sample), "--model", str(model)) == 0
        assert model.read_bytes() == (FROZEN / f"{algo}.model").read_bytes()

    def test_composite_model(self, tmp_path, capsys):
        """A hand-built c3 tree at n = 5, recorded when a matrix node still had a row and a column count: c2 parts
        holding matrix (r = 0, +-2) and table (r = +-1) leaves, a binary leaf, and the residual, with scores -0.0,
        1e-300, 0.1 and -2.5e10.  Its sample holds every at-most-3-sparse vector at n = 5 under the label the
        tree gave it then, so eval errs on none."""
        model, out = FROZEN / "composite.model", tmp_path / "composite.model"
        write_predictor(str(out), read_predictor(str(model)))
        assert out.read_bytes() == model.read_bytes()
        sample = parse_sample(read(FROZEN / "composite.sample"))
        assert len(distinct_rows(sample.items)[0]) == len(sample) == 1 + 2 * 5 + 4 * 10 + 8 * 10
        assert run("eval", "--model", str(model), "--data", str(FROZEN / "composite.sample")) == 0
        assert capsys.readouterr().out == "err 0 0/1\n"

    def test_certificate_bytes(self, tmp_path):
        # like h3's scores, the 17-digit entries depend on the BLAS kernel: run with the recording's
        out = tmp_path / "tn16.cert"
        proc = cli_process("certify-beta", "--matrix", "tn", "--n", "16", "--out", str(out), env=frozen_core_env())
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == (FROZEN / "certify_tn16.cert").read_bytes()

    def test_h3_predicted_labels(self):
        # labels, not scores: the 17-digit scores depend on the LAPACK build
        n = 10
        bits = np.random.default_rng(31).integers(0, 2, n) * 2 - 1
        target = BinaryAssignment(tuple(int(b) for b in bits))
        xs = sample_exact_sparse(n, 3, 1500, 32)
        flips = np.random.default_rng(33).random(len(xs)) < 0.1
        train = Sample(3, n, xs, np.where(flips, -1, 1) * target.predict_many(xs, n))
        predictor = learn_h3(train, LearnerConfig(seed=34))
        labels = predictor.predict_many(sample_exact_sparse(n, 3, 600, 35), n)
        assert "".join("+" if v > 0 else "-" for v in labels) == (FROZEN / "h3_labels.txt").read_text().strip()


@pytest.mark.skipif(len(runnable_openblas_cores()) < 2, reason="needs two OpenBLAS core types this CPU can run")
@pytest.mark.parametrize("argv", [
    pytest.param("--n 10 --algos table,h3 --sizes 0,200,1600 --test-size 512 --trials 2 --seed 3", id="frozen-fixture"),
    # a sweep cell at B = 64 (results/learner_params, n = 16, m = 4 n^2): some cells inside one component
    # score exactly 0 in exact arithmetic, so round-off labels them, and their test error moves by a few points
    pytest.param("--n 16 --algos h3 --sizes 1024 --test-size 4096 --trials 5 --seed 7", id="n16-m1024",
                 marks=pytest.mark.xfail(reason="in-component exact zeros are still labelled by round-off")),
])
def test_tradeoff_errors_do_not_depend_on_the_blas_kernel(tmp_path, argv):
    """h3 scores differ in their last digits between BLAS kernels; labels, and so errors, must not."""
    errors = {}
    for core in runnable_openblas_cores():
        out = tmp_path / f"{core}.csv"
        proc = cli_process("tradeoff", *argv.split(), "--out", str(out), env=core_env(core))
        assert proc.returncode == 0, proc.stderr
        errors[core] = [line.split(",")[:6] for line in read(out).splitlines()]  # up to train_err, test_err
    first, *others = errors.values()
    assert all(other == first for other in others), errors


@pytest.mark.skipif(len(runnable_openblas_cores()) < 2, reason="needs two OpenBLAS core types this CPU can run")
def test_exhaustive_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    """The 2^n enumeration counts in BLAS products of small integers, which every kernel sums exactly."""
    formula, sample = tmp_path / "f.maj3", tmp_path / "f.sample"
    assert run("gen-formula", "--kind", "3maj", "--n", "16", "--clauses", "128", "--mode", "uniform", "--seed", "5",
               "--out", str(formula)) == 0
    assert run("to-sample", "--in", str(formula), "--seed", "6", "--out", str(sample)) == 0
    outputs = {}
    for core in runnable_openblas_cores():
        model, game = tmp_path / f"{core}.model", tmp_path / f"{core}.csv"
        procs = [cli_process(*argv, env=core_env(core)) for argv in (
            ("val", "--in", str(formula)),
            ("learn", "--algo", "erm-binary", "--train", str(sample), "--model", str(model)),
            ("game", "--n", "16", "--delta", "8", "--trials", "2", "--seed", "3", "--out", str(game)),
        )]
        assert [proc.returncode for proc in procs] == [0, 0, 0], [proc.stderr for proc in procs]
        rows = [line.rsplit(",", 1)[0] for line in read(game).splitlines()]  # all but wall_ms
        outputs[core] = [proc.stdout for proc in procs], model.read_bytes(), rows
    first, *others = outputs.values()
    assert all(other == first for other in others), outputs


class TestRefuteAndGame:
    def test_refute_planted(self, planted, capsys):
        assert run("refute", "--in", str(planted), "--seed", "2") == 0
        out = capsys.readouterr().out
        assert out.startswith("exceptional err=")

    def test_refute_uniform_small_fraction(self, uniform, capsys):
        assert run("refute", "--in", str(uniform), "--fraction", "0.1", "--seed", "2") == 0
        assert capsys.readouterr().out.startswith("typical")

    def test_game_csv_and_determinism(self, tmp_path, capsys):
        args = ["game", "--n", "8", "--delta", "4", "--trials", "3", "--seed", "11", "--fraction", "0.5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        capsys.readouterr()

        def strip_wall(text):
            lines = text.strip().splitlines()
            assert lines[0] == "mode,trial,n,delta,mu,fraction,err,verdict,wall_ms"
            return [",".join(line.split(",")[:-1]) for line in lines]

        assert strip_wall(read(a)) == strip_wall(read(b))
        assert len(read(a).strip().splitlines()) == 1 + 6
        assert (tmp_path / "a.csv.manifest.json").exists()

    def test_h3_separates_at_paper_scale_and_the_table_does_not(self, tmp_path, capsys):
        """n = 32, m = 32 n^2, threshold 0.2, seed 1, all fixed before this test first ran.

        The bars come from a run at seed 0: h3 erred 0.023-0.060 on planted and
        0.326-0.332 on uniform formulas, the table 0.217-0.222 on planted ones.
        A memorizer errs about e^{-1/2}/2 = 0.30 on a uniform formula, so 0.2
        lies between h3's two errors and under the table's planted one.
        """
        verdicts = {}
        for algo in ("h3", "table"):
            out = tmp_path / f"{algo}.csv"
            assert run("game", "--n", "32", "--delta", "1024", "--trials", "4", "--threshold", "0.2", "--seed", "1",
                       "--algo", algo, "--out", str(out)) == 0
            for row in read(out).splitlines()[1:]:
                mode, *_, verdict, _ = row.split(",")
                verdicts.setdefault((algo, mode), []).append(verdict)
        capsys.readouterr()
        assert verdicts["h3", "planted"] == ["exceptional"] * 4
        assert verdicts["h3", "uniform"] == ["typical"] * 4
        assert verdicts["table", "planted"] == ["typical"] * 4

    def test_force_estimate_prices_the_subsample(self, tmp_path, capsys):
        out = tmp_path / "big.maj3"
        run("gen-formula", "--kind", "3maj", "--n", "25", "--clauses", "7", "--mode", "planted", "--seed", "0",
            "--out", str(out))
        assert run("refute", "--in", str(out), "--fraction", "0.5", "--force") == 0
        assert "force: exhaustive pass over 2^25 patterns x 4 rows" in capsys.readouterr().err

    def test_force_estimate_prices_every_round(self, tmp_path, capsys):
        # two modes x two trials, each ERM fit on ceil(0.5 * 25) = 13 of the 25 clauses
        assert run("game", "--n", "25", "--delta", "1", "--trials", "2", "--force", "--out", str(tmp_path / "g.csv")) == 0
        assert "force: 4 exhaustive passes over 2^25 patterns x 52 rows" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["inf", "nan"])
    def test_non_finite_delta_is_usage_error(self, tmp_path, delta):
        proc = cli_process("game", "--n", "8", "--delta", delta, "--trials", "1", "--out", str(tmp_path / "g.csv"))
        assert proc.returncode == 2
        assert "error: clause density must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_seed_too_large_for_every_round_is_refused_before_the_first(self, tmp_path, capsys):
        # two modes x two trials seed rounds base_seed + 0 .. 3, so the last 64-bit seed runs out at the second
        argv = ["game", "--n", "8", "--delta", "2", "--trials", "2", "--out", str(tmp_path / "g.csv"), "--seed"]
        assert run(*argv, str(2**64 - 1)) == 2
        assert capsys.readouterr() == ("", f"error: seed must be in [0, 2^64 - 4] to seed 4 rounds: got {2**64 - 1}\n")
        assert list(tmp_path.iterdir()) == []
        assert run(*argv, str(2**64 - 4)) == 0

    def test_repeated_mode_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert run("game", "--n", "8", "--delta", "4", "--trials", "1", "--modes", "planted,planted",
                   "--out", str(out)) == 2
        assert capsys.readouterr() == ("", "error: a mode is played once per game: got planted,planted\n")
        assert list(tmp_path.iterdir()) == []

    def test_refute_cnf_is_usage_error(self, tmp_path):
        out = tmp_path / "f.cnf"
        run("gen-formula", "--kind", "3cnf", "--n", "8", "--clauses", "20", "--seed", "0", "--out", str(out))
        assert run("refute", "--in", str(out)) == 2


class TestTradeoff:
    def test_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run("tradeoff", "--n", "8", "--algos", "table,h3,erm-binary", "--sizes", "0,64",
                   "--trials", "2", "--seed", "5", "--test-size", "512", "--out", str(out)) == 0
        lines = read(out).strip().splitlines()
        assert lines[0] == "algo,n,m,trial,train_err,test_err,wall_ms"
        assert len(lines) == 1 + 3 * 2 * 2
        assert (tmp_path / "t.csv.manifest.json").exists()
        for line in lines[1:]:
            algo, n, m, trial, train_err, test_err, wall = line.split(",")
            if m == "0":
                assert train_err == "nan"
                if algo in ("table", "h3"):
                    # constant +1 predictor against exactly balanced labels
                    assert abs(float(test_err) - 0.5) <= 0.05
                else:
                    # empty-sample binary ERM falls back to all-ones weights
                    assert 0.0 <= float(test_err) <= 1.0

    def test_determinism_modulo_wall(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["tradeoff", "--n", "6", "--algos", "table", "--sizes", "16", "--trials", "1",
                "--seed", "9", "--test-size", "128"]
        run(*args, "--out", str(a))
        run(*args, "--out", str(b))
        strip = lambda p: [",".join(l.split(",")[:-1]) for l in read(p).strip().splitlines()]
        assert strip(a) == strip(b)

    def test_force_estimate_prices_every_fit(self, tmp_path, capsys):
        assert run("tradeoff", "--n", "25", "--algos", "erm-binary", "--sizes", "0,4,3", "--trials", "2",
                   "--test-size", "8", "--force", "--out", str(tmp_path / "t.csv")) == 0
        assert "force: 6 exhaustive passes over 2^25 patterns x 14 rows" in capsys.readouterr().err

    def test_paper_scale_draw_stays_small(self, tmp_path):
        """n = 128 and m = 16 n^2: the one-shot draw's 262 144 x 128 scores and indices were 512 MiB alone."""
        tracemalloc.start()
        try:
            assert run("tradeoff", "--n", "128", "--algos", "table", "--sizes", "262144", "--test-size", "64",
                       "--seed", "3", "--out", str(tmp_path / "t.csv")) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 << 20

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_empty_test_sample_is_refused_before_any_draw(self, tmp_path, capsys, monkeypatch, size):
        def draw(*args):
            raise AssertionError("drew a sample")
        monkeypatch.setattr(cli, "sample_exact_sparse", draw)
        assert run("tradeoff", "--n", "6", "--algos", "table", "--sizes", "8", "--test-size", size,
                   "--out", str(tmp_path / "t.csv")) == 2
        assert capsys.readouterr().err == f"error: --test-size must be at least 1: got {size}\n"
        assert list(tmp_path.iterdir()) == []

    def test_bad_algo_is_usage_error(self, tmp_path):
        assert run("tradeoff", "--n", "6", "--algos", "h2", "--sizes", "8", "--out", str(tmp_path / "x.csv")) == 2

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_no_trial_is_usage_error(self, tmp_path, capsys, trials):
        """As in game: a run with no trial would write a header-only CSV and a manifest."""
        assert run("tradeoff", "--n", "6", "--algos", "table", "--sizes", "8", "--trials", trials,
                   "--out", str(tmp_path / "t.csv")) == 2
        assert capsys.readouterr().err == f"error: --trials must be at least 1: got {trials}\n"
        assert list(tmp_path.iterdir()) == []

    def test_h3_refusal_comes_before_the_draw(self, tmp_path):
        """4e8 training rows would take 4.47 GiB; under a 2 GB address-space limit, so that the test cannot
        exhaust the machine, drawing them before the h3 guard would end in a MemoryError traceback."""
        proc = cli_process("tradeoff", "--n", "179", "--algos", "table,h3", "--sizes", "400000000", "--test-size", "4",
                           "--out", str(tmp_path / "t.csv"), limit=2 << 30)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", H3_179 + "\n")
        assert list(tmp_path.iterdir()) == []

    def test_non_integer_size_names_the_flag_and_its_value(self, tmp_path, capsys):
        assert run("tradeoff", "--n", "6", "--sizes", "10,x", "--out", str(tmp_path / "t.csv")) == 2
        assert capsys.readouterr().err == "error: --sizes takes comma-separated ints: got '10,x'\n"
        assert list(tmp_path.iterdir()) == []


class TestCertifyBeta:
    def test_writes_verifiable_certificate(self, tmp_path, capsys):
        out = tmp_path / "t6.cert"
        assert run("certify-beta", "--matrix", "tn", "--n", "6", "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("beta_hat ")
        beta = float(printed.split()[1])
        assert beta > 0
        dec = read_decomposition(str(out))
        assert verify_decomposition(triangular_matrix(6), dec).ok
        assert dec.beta == pytest.approx(beta)
        manifest = json.loads(read(tmp_path / "t6.cert.manifest.json"))
        assert manifest["flags"] == {"matrix": "tn", "n": 6, "out": str(out)}

    def test_unknown_matrix_family(self, tmp_path):
        assert run("certify-beta", "--matrix", "xx", "--n", "4", "--out", str(tmp_path / "x")) == 2

    def test_guard(self, tmp_path):
        assert run("certify-beta", "--matrix", "tn", "--n", "200", "--out", str(tmp_path / "x")) == 3

    def test_guard_comes_before_the_matrix_is_built(self, tmp_path):
        """T_n at n = 1e8 would take 8.88 PiB; under a 2 GB address-space limit, so that the test cannot
        exhaust the machine, building it first would end in a MemoryError traceback."""
        proc = cli_process("certify-beta", "--n", "100000000", "--out", str(tmp_path / "t.cert"), limit=2 << 30)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "error: certifier limited to n+m <= 256: got 200000000\n"
        assert list(tmp_path.iterdir()) == []


MANIFEST_CASES = {
    "gen-formula-uniform": ["gen-formula", "--kind", "3maj", "--n", "8", "--clauses", "20", "--seed", "1",
                            "--out", "{out}/f.maj3"],
    "gen-formula-planted": ["gen-formula", "--kind", "3cnf", "--n", "8", "--clauses", "20", "--mode", "planted",
                            "--seed", "1", "--out", "{out}/f.cnf"],
    "to-sample": ["to-sample", "--in", "{in}/f.maj3", "--seed", "2", "--out", "{out}/f.sample"],
    "learn": ["learn", "--algo", "table", "--train", "{in}/f.sample", "--model", "{out}/f.model", "--seed", "3"],
    "game": ["game", "--n", "8", "--delta", "2", "--trials", "1", "--seed", "4", "--out", "{out}/g.csv"],
    "tradeoff": ["tradeoff", "--n", "6", "--algos", "table", "--sizes", "16", "--test-size", "32",
                 "--out", "{out}/t.csv"],
    "certify-beta": ["certify-beta", "--n", "4", "--out", "{out}/t4.cert"],
}


@pytest.mark.parametrize("case", sorted(MANIFEST_CASES))
def test_manifest_names_command_outputs_and_flags(tmp_path, case, capsys):
    inputs, outputs = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    outputs.mkdir()
    assert run("gen-formula", "--kind", "3maj", "--n", "8", "--clauses", "20", "--out", str(inputs / "f.maj3")) == 0
    assert run("to-sample", "--in", str(inputs / "f.maj3"), "--out", str(inputs / "f.sample")) == 0
    argv = [a.format(**{"in": inputs, "out": outputs}) for a in MANIFEST_CASES[case]]
    assert run(*argv) == 0
    capsys.readouterr()
    first = next(a for a in argv if a.startswith(str(outputs)))
    manifest = json.loads(read(Path(first + ".manifest.json")))
    assert manifest["command"] == argv[0]
    assert manifest["outputs"][0] == first
    written = {str(p) for p in outputs.iterdir()} - {first + ".manifest.json"}
    assert sorted(manifest["outputs"]) == sorted(written)
    if case == "gen-formula-planted":
        assert manifest["outputs"] == [first, first + ".psi"]
    parsed = vars(build_parser().parse_args(argv))
    assert manifest["flags"] == {k: v for k, v in parsed.items() if k not in ("func", "command")}


LEARNERS = ("table", "h2", "h3", "erm-binary")
INT, FLOAT, STORE, TRUE = "int", "float", "_StoreAction", "_StoreTrueAction"
LEARNER_FLAGS = {
    "seed": (("--seed",), 0, INT, None, False, STORE),
    "force": (("--force",), False, None, None, False, TRUE),
    "beta": (("--beta",), None, FLOAT, None, False, STORE),
    "eta": (("--eta",), None, FLOAT, None, False, STORE),
    "epochs": (("--epochs",), None, INT, None, False, STORE),
}
REFUTER_FLAGS = {
    "algo": (("--algo",), "erm-binary", None, LEARNERS, False, STORE),
    "fraction": (("--fraction",), 0.5, FLOAT, None, False, STORE),
    "threshold": (("--threshold",), 0.375, FLOAT, None, False, STORE),
}
OUT = {"out": (("--out",), None, None, None, True, STORE)}
#: dest -> (option strings, default, type, choices, required, action) for each parser, "" the top level;
#: the manifest's flag keys are these dests, so a change here changes every manifest
PARSER_CONTRACT = {
    "": {"version": (("--version",), "==SUPPRESS==", None, None, False, "_VersionAction")},
    "gen-formula": {
        "kind": (("--kind",), None, None, ("3cnf", "3maj"), True, STORE),
        "n": (("--n",), None, INT, None, True, STORE),
        "clauses": (("--clauses",), None, INT, None, True, STORE),
        "mode": (("--mode",), "uniform", None, ("uniform", "planted"), False, STORE),
        "seed": (("--seed",), 0, INT, None, False, STORE),
        **OUT,
    },
    "val": {
        "infile": (("--in",), None, None, None, True, STORE),
        "force": (("--force",), False, None, None, False, TRUE),
    },
    "to-sample": {
        "infile": (("--in",), None, None, None, True, STORE),
        "seed": (("--seed",), 0, INT, None, False, STORE),
        **OUT,
    },
    "learn": {
        "algo": (("--algo",), None, None, LEARNERS, True, STORE),
        "train": (("--train",), None, None, None, True, STORE),
        "model": (("--model",), None, None, None, True, STORE),
        **LEARNER_FLAGS,
    },
    "eval": {
        "model": (("--model",), None, None, None, True, STORE),
        "data": (("--data",), None, None, None, True, STORE),
    },
    "refute": {
        "infile": (("--in",), None, None, None, True, STORE),
        **REFUTER_FLAGS,
        **LEARNER_FLAGS,
    },
    "game": {
        "n": (("--n",), None, INT, None, True, STORE),
        "delta": (("--delta",), None, FLOAT, None, True, STORE),
        "mu": (("--mu",), 0.0, FLOAT, None, False, STORE),
        "trials": (("--trials",), None, INT, None, True, STORE),
        "modes": (("--modes",), "planted,uniform", None, None, False, STORE),
        **REFUTER_FLAGS,
        **LEARNER_FLAGS,
        **OUT,
    },
    "tradeoff": {
        "n": (("--n",), None, INT, None, True, STORE),
        "algos": (("--algos",), "table,h3", None, None, False, STORE),
        "sizes": (("--sizes",), None, None, None, True, STORE),
        "trials": (("--trials",), 1, INT, None, False, STORE),
        "test_size": (("--test-size",), 2048, INT, None, False, STORE),
        **LEARNER_FLAGS,
        **OUT,
    },
    "certify-beta": {
        "matrix": (("--matrix",), "tn", None, ("tn",), False, STORE),
        "n": (("--n",), None, INT, None, True, STORE),
        **OUT,
    },
}


def option_table(parser):
    """dest -> (option strings, default, type, choices, required, action) of the parser's own options."""
    return {a.dest: (tuple(a.option_strings), a.default, getattr(a.type, "__name__", a.type),
                     None if a.choices is None else tuple(a.choices), a.required, type(a).__name__)
            for a in parser._actions if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))}


def test_parser_options_are_frozen():
    """Each subcommand's flags, dests, defaults, types, choices, required-ness and actions; order is free."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    tables = {"": option_table(parser), **{name: option_table(p) for name, p in sub.choices.items()}}
    assert tables == PARSER_CONTRACT
    assert (sub.dest, sub.required) == ("command", True)


class TestEntryPoints:
    def test_usage_error_exit_code(self):
        assert run("learn", "--algo", "bogus", "--train", "x", "--model", "y") == 2
        assert run() == 2

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sparsehalf.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "sparsehalf" in proc.stdout

    def test_import_loads_no_process_pool(self):
        # no module of the package imports a process pool, and start-up must not load one; scipy is a test dependency
        code = ("import sys, sparsehalf.cli; "
                "print([m for m in ('concurrent.futures', 'multiprocessing', 'scipy') if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout == "[]\n"

    def test_package_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sparsehalf", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "sparsehalf" in proc.stdout
