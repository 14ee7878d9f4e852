"""Command-line harness: every subcommand, manifests, exit codes, determinism."""

import json
import multiprocessing
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import eval_clause
from sparsehalf import learners
from sparsehalf.cli import build_parser, main
from sparsehalf.core import BinaryAssignment, Sample, parse_sample, sample_exact_sparse, serialize_sample
from sparsehalf.decompmat import read_decomposition, triangular_matrix, verify_decomposition
from sparsehalf.formulas import parse_formula
from sparsehalf.learners import H3_N_LIMIT, LearnerConfig, learn_h3
from sparsehalf.predictors import BinaryHalfspacePredictor

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
        assert proc.stderr == "error: non-finite margins in epoch 1; reduce eta\n"

    def test_overflow_in_a_worker_exits_4(self, planted, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(learners, "_workers", lambda parts: min(2, parts))
        data = tmp_path / "s.txt"
        run("to-sample", "--in", str(planted), "--seed", "5", "--out", str(data))
        assert run("learn", "--algo", "h3", "--train", str(data), "--model", str(tmp_path / "h3.model"),
                   "--eta", "1e308", "--beta", "1e308") == 4
        assert capsys.readouterr().err == "error: non-finite margins in epoch 1; reduce eta\n"
        assert not multiprocessing.active_children()

    def test_eval_on_garbage_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a sample\n")
        model = tmp_path / "m"
        model.write_text("binary 2\n+1 -1\n")
        assert run("eval", "--model", str(model), "--data", str(bad)) == 2


def cli_process(*argv):
    """The CLI run as its own process, as a user runs it."""
    return subprocess.run([sys.executable, "-m", "sparsehalf.cli", *argv], capture_output=True, text=True)


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
        limit = 2 << 30
        proc = subprocess.run([sys.executable, "-m", "sparsehalf.cli", "eval", "--model", str(model), "--data", str(data)],
                              capture_output=True, text=True,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: header k=2000000000 pads 1 rows")


class TestMatrixGuard:
    def test_h3_above_the_limit_exits_3(self, tmp_path, capsys):
        n = H3_N_LIMIT + 1
        data = tmp_path / "wide"
        data.write_text(f"# sparse-sample n={n} k=3\n+1 1:+1 2:-1 {n}:+1\n")
        assert run("learn", "--algo", "h3", "--train", str(data), "--model", str(tmp_path / "m")) == 3
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()


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


class TestFrozenOutputs:
    """Outputs recorded before samples and formulas became arrays; they must not change."""

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

    def test_to_sample(self, tmp_path):
        out = tmp_path / "s.txt"
        assert run("to-sample", "--in", str(FROZEN / "gen_3maj_uniform_s0.txt"), "--seed", "7", "--out", str(out)) == 0
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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tradeoff_rows_for_any_worker_count(self, tmp_path, monkeypatch, workers):
        monkeypatch.setattr(learners, "_workers", lambda parts: min(workers, parts))
        out = tmp_path / "t.csv"
        assert run("tradeoff", "--n", "10", "--algos", "table,h3", "--sizes", "0,200,1600",
                   "--test-size", "512", "--trials", "2", "--seed", "3", "--out", str(out)) == 0
        rows = [",".join(line.split(",")[:-1]) for line in read(out).splitlines()]  # drop wall_ms
        frozen = (FROZEN / "tradeoff_n10.csv").read_text().splitlines()
        assert rows == [row for row in frozen if not row.startswith("erm-binary,")]
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("algo", ["table", "erm-binary"])
    def test_model_bytes(self, tmp_path, algo):
        formula, sample, model = tmp_path / "f.maj3", tmp_path / "f.sample", tmp_path / "f.model"
        assert run("gen-formula", "--kind", "3maj", "--n", "12", "--clauses", "150", "--seed", "5",
                   "--out", str(formula)) == 0
        assert run("to-sample", "--in", str(formula), "--seed", "6", "--out", str(sample)) == 0
        assert run("learn", "--algo", algo, "--train", str(sample), "--model", str(model)) == 0
        assert model.read_bytes() == (FROZEN / f"{algo}.model").read_bytes()

    def test_certificate_bytes(self, tmp_path):
        # recorded on one machine: like h3's scores, the 17-digit entries depend on the LAPACK build
        out = tmp_path / "tn16.cert"
        assert run("certify-beta", "--matrix", "tn", "--n", "16", "--out", str(out)) == 0
        assert out.read_bytes() == (FROZEN / "certify_tn16.cert").read_bytes()

    def test_h3_predicted_labels(self):
        # labels, not scores: the 17-digit scores depend on the LAPACK build
        n = 10
        bits = np.random.default_rng(31).integers(0, 2, n) * 2 - 1
        target = BinaryHalfspacePredictor(BinaryAssignment(tuple(int(b) for b in bits)))
        xs = sample_exact_sparse(n, 3, 1500, 32)
        flips = np.random.default_rng(33).random(len(xs)) < 0.1
        train = Sample(3, n, xs, np.where(flips, -1, 1) * target.predict_many(xs, n))
        predictor = learn_h3(train, LearnerConfig(seed=34))
        labels = predictor.predict_many(sample_exact_sparse(n, 3, 600, 35), n)
        assert "".join("+" if v > 0 else "-" for v in labels) == (FROZEN / "h3_labels.txt").read_text().strip()


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

    def test_bad_algo_is_usage_error(self, tmp_path):
        assert run("tradeoff", "--n", "6", "--algos", "h2", "--sizes", "8", "--out", str(tmp_path / "x.csv")) == 2


class TestCertifyBeta:
    def test_writes_verifiable_certificate(self, tmp_path, capsys):
        out = tmp_path / "t6.cert"
        assert run("certify-beta", "--matrix", "tn", "--n", "6", "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("beta_hat ")
        beta = float(printed.split()[1])
        assert beta > 0
        dec = read_decomposition(str(out), shape=(6, 6))
        assert verify_decomposition(triangular_matrix(6), dec).ok
        assert dec.beta == pytest.approx(beta)
        manifest = json.loads(read(tmp_path / "t6.cert.manifest.json"))
        assert manifest["flags"] == {"matrix": "tn", "n": 6, "out": str(out)}

    def test_unknown_matrix_family(self, tmp_path):
        assert run("certify-beta", "--matrix", "xx", "--n", "4", "--out", str(tmp_path / "x")) == 2

    def test_guard(self, tmp_path):
        assert run("certify-beta", "--matrix", "tn", "--n", "200", "--out", str(tmp_path / "x")) == 3


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
        # the pool modules load inside learn_h3 only, so --version stays as quick as before
        code = "import sys, sparsehalf.cli; print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout == "[]\n"

    def test_package_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sparsehalf", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "sparsehalf" in proc.stdout
