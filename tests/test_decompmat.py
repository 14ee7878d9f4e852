"""Decomposable-matrix calculus: verifier, numeric certifier, certificate files, and the paper's constructions.

The constructions (tensor products, principal minors, diagonal, all-ones and
row-threshold matrices) live in ``oracles``; each is checked here against
the library's verifier.
"""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    all_ones_decomposition,
    delete_rowcol_decomposition,
    diagonal_decomposition,
    frozen_core_env,
    row_threshold_decomposition,
    row_threshold_matrix,
    tensor_decomposition,
)
from sparsehalf.decompmat import (
    DIAG_TOL,
    PSD_TOL,
    RECON_TOL,
    SYM_TOL,
    Decomposition,
    certify_min_beta,
    read_decomposition,
    serialize_decomposition,
    spectral_split,
    symmetrize,
    triangular_matrix,
    verify_decomposition,
    write_decomposition,
)
from sparsehalf.errors import FormatError

FIXTURES = Path(__file__).parent / "fixtures"
SPECTRAL_BETA_T8 = 1.1435080342292838  # frozen from the eigendecomposition


def read_certificate_text(tmp_path, text):
    """``read_decomposition`` of a certificate file holding ``text`` (lone surrogates as the bytes they stand for)."""
    path = tmp_path / "t.cert"
    path.write_bytes(text.encode("ascii", "surrogateescape"))
    return read_decomposition(str(path))


def random_sign(rng, n, m):
    return rng.integers(0, 2, size=(n, m)) * 2 - 1


class TestSymmetrize:
    def test_scalar(self):
        assert np.array_equal(symmetrize(np.array([[1.0]])), np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_symmetric_by_construction(self):
        W = np.random.default_rng(0).standard_normal((8, 5))
        S = symmetrize(W)
        assert np.array_equal(S, S.T)
        assert np.array_equal(S[:8, 8:], W)

    def test_tensor_identity(self):
        rng = np.random.default_rng(1)
        W = rng.standard_normal((4, 3))
        A = rng.standard_normal((3, 3))
        A = A + A.T
        lhs = np.kron(symmetrize(W), A)
        rhs = symmetrize(np.kron(W, A))
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestVerify:
    def test_all_ones_rank_one_split(self):
        n = 3
        P = np.full((2 * n, 2 * n), 0.5)
        N = 0.5 * np.kron(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.ones((n, n)))
        dec = Decomposition(P, N, 1.0)
        assert verify_decomposition(np.ones((n, n)), dec).ok

    def test_zero_split_of_nonzero_fails(self):
        n = 2
        dec = Decomposition(np.zeros((4, 4)), np.zeros((4, 4)), 1.0)
        report = verify_decomposition(np.ones((n, n)), dec)
        assert not report.ok
        assert report.recon_error == 1.0

    @staticmethod
    def off_by(requirement, t):
        """The exact all-ones split of the 2 x 2 all-ones matrix, off by t in one requirement only."""
        dec = all_ones_decomposition(2)
        P, N, beta, eye = dec.P.copy(), dec.N.copy(), dec.beta, np.eye(4)
        if requirement == "recon":
            N = N + t * eye  # P - N misses sym(W) by t on the diagonal; N stays PSD, its diagonal within beta + 1
            beta += 1.0
        elif requirement == "psd":
            P, N = P - t * eye, N - t * eye  # the same shift of both keeps P - N
        elif requirement == "diag":
            beta -= t
        else:
            P[0, 1] += t  # eigvalsh reads the lower triangle only, and N's matching entry keeps P - N
            N[0, 1] += t
        return verify_decomposition(np.ones((2, 2)), Decomposition(P, N, beta))

    @pytest.mark.parametrize("requirement,tolerance,field,sign", [
        ("recon", RECON_TOL, "recon_error", 1),
        ("psd", PSD_TOL, "min_eigenvalue", -1),
        ("diag", DIAG_TOL, "diag_excess", 1),
        ("sym", SYM_TOL, "sym_error", 1),
    ])
    def test_each_requirement_at_its_tolerance(self, requirement, tolerance, field, sign):
        assert self.off_by(requirement, 0.0).ok
        within, past = self.off_by(requirement, 0.99 * tolerance), self.off_by(requirement, 1.01 * tolerance)
        assert within.ok and not past.ok
        assert sign * getattr(within, field) == pytest.approx(0.99 * tolerance, rel=1e-3)
        assert sign * getattr(past, field) == pytest.approx(1.01 * tolerance, rel=1e-3)

    def test_spectral_split_passes(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            W = random_sign(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            dec = spectral_split(symmetrize(W))
            assert verify_decomposition(W, dec).ok


class TestSpectralSplit:
    def test_zero(self):
        dec = spectral_split(np.zeros((3, 3)))
        assert dec.beta == 0
        assert np.abs(dec.P).max() == 0 and np.abs(dec.N).max() == 0

    def test_diagonal(self):
        dec = spectral_split(np.diag([3.0, -2.0]))
        assert dec.beta == pytest.approx(3.0)
        assert np.allclose(dec.P, np.diag([3.0, 0.0]))
        assert np.allclose(dec.N, np.diag([0.0, 2.0]))

    def test_frozen_t8_regression(self):
        dec = spectral_split(symmetrize(triangular_matrix(8).astype(float)))
        assert dec.beta == pytest.approx(SPECTRAL_BETA_T8, abs=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((9, 9))
        M = M + M.T
        dec = spectral_split(M)
        assert np.abs(dec.P - dec.N - M).max() <= 1e-9

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            spectral_split(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestTensor:
    def test_identity_factor_keeps_beta(self):
        W = np.ones((3, 3))
        dec = tensor_decomposition(all_ones_decomposition(3), np.eye(2))
        assert dec.beta == all_ones_decomposition(3).beta
        assert verify_decomposition(np.kron(W, np.eye(2)), dec).ok

    def test_all_ones_tensor(self):
        dec = tensor_decomposition(all_ones_decomposition(2), np.ones((2, 2)))
        assert dec.beta <= 1.0
        assert verify_decomposition(np.ones((4, 4)), dec).ok

    def test_random_cases_scale_beta(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            W = random_sign(rng, 4, 4)
            base = spectral_split(symmetrize(W))
            A = rng.standard_normal((2, 2))
            A = A @ A.T
            dec = tensor_decomposition(base, A)
            assert dec.beta == pytest.approx(base.beta * np.diag(A).max())
            assert verify_decomposition(np.kron(W, A), dec).ok

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            tensor_decomposition(all_ones_decomposition(2), np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestDelete:
    def test_minor_identity_exact(self):
        rng = np.random.default_rng(6)
        W = rng.standard_normal((5, 4))
        n = 5
        assert np.array_equal(
            symmetrize(np.delete(W, 2, axis=0)),
            np.delete(np.delete(symmetrize(W), 2, axis=0), 2, axis=1),
        )
        assert np.array_equal(
            symmetrize(np.delete(W, 1, axis=1)),
            np.delete(np.delete(symmetrize(W), n + 1, axis=0), n + 1, axis=1),
        )

    def test_delete_from_all_ones(self):
        dec = delete_rowcol_decomposition(all_ones_decomposition(4), 4, row=2)
        assert dec.beta == all_ones_decomposition(4).beta
        assert verify_decomposition(np.ones((3, 4)), dec).ok

    def test_delete_down_to_single_cell(self):
        rng = np.random.default_rng(7)
        W = random_sign(rng, 3, 3)
        dec = spectral_split(symmetrize(W))
        for row in (3, 2):
            dec = delete_rowcol_decomposition(dec, W.shape[0], row=row)
            W = np.delete(W, row - 1, axis=0)
        for col in (3, 2):
            dec = delete_rowcol_decomposition(dec, W.shape[0], col=col)
            W = np.delete(W, col - 1, axis=1)
        assert W.shape == (1, 1)
        assert verify_decomposition(W, dec).ok

    def test_index_errors(self):
        dec = all_ones_decomposition(3)
        with pytest.raises(ValueError):
            delete_rowcol_decomposition(dec, 3, row=4)
        with pytest.raises(ValueError):
            delete_rowcol_decomposition(dec, 3, row=1, col=1)
        with pytest.raises(ValueError):
            delete_rowcol_decomposition(dec, 3)


class TestTriangular:
    def test_small(self):
        assert np.array_equal(triangular_matrix(1), np.array([[1]]))
        assert np.array_equal(triangular_matrix(2), np.array([[1, 1], [-1, 1]]))
        assert list(triangular_matrix(3)[2]) == [-1, -1, 1]


class TestDiagonal:
    def test_zero(self):
        dec = diagonal_decomposition(np.zeros((3, 3)))
        assert dec.beta == 0
        assert verify_decomposition(np.zeros((3, 3)), dec).ok
        assert np.abs(dec.P).max() == 0 and np.abs(dec.N).max() == 0

    def test_plus_minus_two(self):
        D = np.diag([2.0, -2.0])
        dec = diagonal_decomposition(D)
        assert dec.beta == 2.0
        assert verify_decomposition(D, dec).ok

    def test_random(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            D = np.diag(rng.standard_normal(8))
            dec = diagonal_decomposition(D)
            assert dec.beta == pytest.approx(np.abs(np.diag(D)).max())
            assert verify_decomposition(D, dec).ok

    def test_rejects_non_diagonal(self):
        with pytest.raises(ValueError):
            diagonal_decomposition(np.ones((2, 2)))


class TestCertifier:
    def test_all_ones_within_rank_one_bound(self):
        beta, dec = certify_min_beta(np.ones((4, 4)))
        assert beta <= 1.0 + 1e-3
        assert verify_decomposition(np.ones((4, 4)), dec).ok

    def test_t4_regression_band(self):
        # sym(T4) != 0, so the certified beta is strictly positive; the
        # certifier lands at the spectral optimum for this matrix
        beta, _ = certify_min_beta(triangular_matrix(4))
        assert 0.0 < beta
        assert beta == pytest.approx(0.9238795, abs=2e-3)

    def test_below_spectral_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            W = random_sign(rng, 5, 3)
            spectral = spectral_split(symmetrize(W)).beta
            beta, dec = certify_min_beta(W)
            assert beta <= spectral + 1e-6
            assert verify_decomposition(W, dec).ok

    def test_triangular_needs_no_dykstra_run(self, monkeypatch):
        # the spectral split of sym(T_n) meets the nuclear-norm lower bound,
        # so the bisection has nothing to search
        import sparsehalf.decompmat as decompmat

        calls = []
        original = decompmat._dykstra_feasible

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(decompmat, "_dykstra_feasible", counted)
        W = triangular_matrix(16)
        beta, dec = certify_min_beta(W)
        assert calls == []
        assert beta == pytest.approx(spectral_split(symmetrize(W)).beta)
        assert verify_decomposition(W, dec).ok

    def test_dykstra_certificate_bytes(self):
        # the 17-digit entries depend on the BLAS kernel: run with the recording's, BLAS on one thread
        script = """
import numpy as np
from sparsehalf import decompmat
runs, original = [], decompmat._dykstra_feasible
def recorded(*args):
    feasible, point = original(*args)
    runs.append(feasible)
    return feasible, point
decompmat._dykstra_feasible = recorded
W = np.array([[1, 1, -1, -1], [-1, 1, -1, -1], [-1, 1, 1, 1], [-1, -1, -1, 1], [1, -1, 1, -1]])
text = decompmat.serialize_decomposition(decompmat.certify_min_beta(W)[1])
print(True in runs and False in runs)  # the bisection moves both ends through Dykstra
print(text, end="")
"""
        env = frozen_core_env() | {"OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        both_ends, text = proc.stdout.split("\n", 1)
        assert both_ends == "True"
        assert text == (FIXTURES / "frozen" / "certify_dykstra_5x4.cert").read_text()


class TestRowThreshold:
    def test_matrix_entries_match_thresholds(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            t = [int(v) for v in rng.integers(0, n + 1, size=n)]
            W = row_threshold_matrix(t)
            for i in range(n):
                for j in range(n):
                    assert W[i, j] == (-1 if j + 1 <= t[i] else 1)

    def test_all_zero_thresholds_is_all_ones(self):
        W, dec = row_threshold_decomposition([0, 0, 0, 0])
        assert (W == 1).all()
        assert verify_decomposition(W, dec).ok

    def test_full_staircase_including_n(self):
        W, dec = row_threshold_decomposition([1, 2, 3, 4])
        expected = np.where(np.arange(1, 5)[None, :] > np.arange(1, 5)[:, None], 1, -1)
        assert np.array_equal(W, expected)
        assert (W[-1] == -1).all()  # threshold n means an all-minus-one row
        assert verify_decomposition(W, dec).ok

    def test_random_thresholds_inherit_base_beta(self):
        rng = np.random.default_rng(12)
        base = certify_min_beta(triangular_matrix(17))[1]
        for _ in range(5):
            t = [int(v) for v in rng.integers(0, 17, size=16)]
            W, dec = row_threshold_decomposition(t)
            assert dec.beta == base.beta
            assert verify_decomposition(W, dec).ok

    def test_agrees_with_tensor_then_delete_pipeline(self):
        # the fused index lookup equals the literal tensor + minor route
        t = [2, 0, 1]
        m = 4
        base = certify_min_beta(triangular_matrix(m))[1]
        W, fused = row_threshold_decomposition(t, base=base)
        big = tensor_decomposition(base, np.ones((m, m)))
        # delete all tensor rows/cols except the ones the carving keeps,
        # in descending order so indices stay valid
        keep_rows = [t[i] * m + 1 for i in range(3)]  # first row inside block t_i+1
        keep_cols = [j * m + 1 for j in range(3)]  # first column inside block j+1
        dec, rows = big, m * m
        for row in sorted(set(range(1, m * m + 1)) - set(keep_rows), reverse=True):
            dec, rows = delete_rowcol_decomposition(dec, rows, row=row), rows - 1
        for col in sorted(set(range(1, m * m + 1)) - set(keep_cols), reverse=True):
            dec = delete_rowcol_decomposition(dec, rows, col=col)
        # the deletion route keeps rows in index order; reorder to threshold order
        order = np.argsort(np.argsort(keep_rows, kind="stable"), kind="stable")
        sel = np.ix_(list(order) + [3 + i for i in range(3)], list(order) + [3 + i for i in range(3)])
        assert np.allclose(dec.P[sel], fused.P)
        assert np.allclose(dec.N[sel], fused.N)
        assert verify_decomposition(W, fused).ok

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            row_threshold_decomposition([0, 5, 0, 0])

    def test_default_base_is_computed_without_hidden_state(self):
        t = [3, 0, 8, 5, 1, 8, 2, 6]
        _, given = row_threshold_decomposition(t, base=certify_min_beta(triangular_matrix(len(t) + 1))[1])
        first = serialize_decomposition(row_threshold_decomposition(t)[1])
        assert first == serialize_decomposition(given)
        assert serialize_decomposition(row_threshold_decomposition(t)[1]) == first


class TestCacheFormat:
    def test_round_trip(self, tmp_path):
        dec = spectral_split(symmetrize(triangular_matrix(4).astype(float)))
        text = serialize_decomposition(dec)
        back = read_certificate_text(tmp_path, text)
        assert np.array_equal(back.P, dec.P)
        assert np.array_equal(back.N, dec.N)
        assert back.beta == dec.beta
        assert serialize_decomposition(back) == text

    @pytest.mark.parametrize(
        "text",
        [
            "beta 1.0\nP\n0\nN\n0\n",  # missing dim header
            "dim 2\nbeta 1.0\nP\n0 0\nN\n0 0\n",  # wrong row counts
            "dim 1\nbeta x\nP\n0\nN\n0\n",  # bad beta
        ],
    )
    def test_rejects_malformed(self, tmp_path, text):
        with pytest.raises(FormatError):
            read_certificate_text(tmp_path, text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("dim 1\nbeta 1.0\nP\nx\nN\n0\n", "^P block, line 4: expected floats, got 'x'$"),
            ("dim 2\nbeta 1.0\nP\nx 0\n0 0\nN\n0 0\n0 0\n", "^P block, line 4: expected floats, got 'x 0'$"),
            ("dim 1\n\nbeta 1.0\nP\n0\n\nN\n1e\n", "^N block, line 8: expected floats, got '1e'$"),
            ("dim 1\nbeta 1.0\nP\nnan\nN\n0\n", "^P block, line 4: entries must be finite, got 'nan'$"),
            ("dim 2\nbeta 1.0\nP\n0 0\n0 0\nN\n0 0\n-inf 0\n", "^N block, line 8: entries must be finite, got .-inf 0.$"),
            ("dim 1\nbeta nan\nP\n0\nN\n0\n", "^header, line 2: beta must be finite and nonnegative, got 'beta nan'$"),
            ("dim 1\nbeta -inf\nP\n0\nN\n0\n", "^header, line 2: beta must be finite and nonnegative"),
            ("dim 1\nbeta inf\nP\n0\nN\n0\n", "^header, line 2: beta must be finite and nonnegative"),
            ("dim 1\nbeta -1\nP\n0\nN\n0\n", "^header, line 2: beta must be finite and nonnegative"),
            ("dim 2\nbeta 1.0\nP\n0 0\n0\nN\n0 0\n0 0\n", "^P block, line 5: matrix row 2 has 1 entries, expected 2$"),
            ("dim x\nbeta 1.0\nP\n0\nN\n0\n", "^header, line 1: bad value in 'dim x'$"),
            ("\ndim 1\nbeta x\nP\n0\nN\n0\n", "^header, line 3: bad value in 'beta x'$"),
            ("dim 1 junk\nbeta 0.5\nP\n0\nN\n0\n", "^header, line 1: expected 'dim <d>', got 'dim 1 junk'$"),
            ("dim 1\n\nbeta 0.5 more\nP\n0\nN\n0\n", "^header, line 3: expected 'beta <value>', got 'beta 0.5 more'$"),
        ],
    )
    def test_malformed_entries_name_block_and_line(self, tmp_path, text, message):
        with pytest.raises(FormatError, match=message):
            read_certificate_text(tmp_path, text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("dim 1\nbeta 0.5\nP\udcc3\udca9\n0\nN\n0\n", "layout, line 3: expected 'P' and 'N' blocks of 1 rows, got 'P\\udcc3\\udca9'"),
            ("dim 1\n\nbeta 0.5\nP\n0\n0\nN\n0\n", "layout, line 6: expected 'P' and 'N' blocks of 1 rows, got '0'"),
            ("dim 1\nbeta 0.5\nP\n0\nN\n0\n0\n", "layout, line 7: expected 'P' and 'N' blocks of 1 rows, got '0'"),
            ("dim 2\nbeta 0.5\nP\n0 0\n0 0\nN\n0 0\n", "layout, line 7: expected 'P' and 'N' blocks of 2 rows, got '0 0'"),
            ("dim 3\nbeta 0.5\nP\n0 0 0\n", "layout, line 4: expected 'P' and 'N' blocks of 3 rows, got '0 0 0'"),
        ],
        ids=["P-marker", "N-marker", "N-rows-long", "N-rows-short", "ends-in-P"],
    )
    def test_layout_errors_name_their_line(self, tmp_path, text, message):
        with pytest.raises(FormatError) as excinfo:
            read_certificate_text(tmp_path, text)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("text,message", [
        (b"dim 1\nbeta 0.5\nP\n0.5\xc3\xa9\nN\n0.5\n", "P block, line 4: expected floats, got '0.5\\udcc3\\udca9'"),
        (b"dim 1\nbeta \xc3\xa9\nP\n0.5\nN\n0.5\n", "header, line 2: bad value in 'beta \\udcc3\\udca9'"),
    ], ids=["P-row", "beta-line"])
    def test_non_ascii_byte_is_a_format_error_naming_its_line(self, tmp_path, text, message):
        """Certificates are decoded like samples: a non-ASCII byte is a lone surrogate that no value reads."""
        path = tmp_path / "t.cert"
        path.write_bytes(text)
        with pytest.raises(FormatError) as excinfo:
            read_decomposition(str(path))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("m", [9, 17, 33])
    def test_committed_certificates_reserialize_to_their_bytes(self, tmp_path, m):
        # T_m certificates are computed, not committed: write one as certify-beta would, then read it back
        path = tmp_path / f"t{m}.cert"
        write_decomposition(str(path), certify_min_beta(triangular_matrix(m))[1])
        dec = read_decomposition(str(path))
        assert serialize_decomposition(dec) == path.read_text()
        write_decomposition(str(tmp_path / "again.cert"), dec)
        assert (tmp_path / "again.cert").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("name", ["certify_tn16.cert", "certify_dykstra_5x4.cert"])
    def test_frozen_certificates_reserialize_to_their_bytes(self, tmp_path, name):
        path = FIXTURES / "frozen" / name
        dec = read_decomposition(str(path))
        assert serialize_decomposition(dec) == path.read_text()
        write_decomposition(str(tmp_path / "t.cert"), dec)
        assert (tmp_path / "t.cert").read_bytes() == path.read_bytes()

    def test_reads_blank_lines_padding_and_crlf(self, tmp_path):
        dec = read_certificate_text(tmp_path, "\n dim 1\r\nbeta 0.5\n\nP\n 0.5 \n\x0cN\n0.5\n\n")
        assert (dec.P.tolist(), dec.N.tolist(), dec.beta) == ([[0.5]], [[0.5]], 0.5)
        assert serialize_decomposition(dec) == "dim 1\nbeta 0.5\nP\n0.5\nN\n0.5\n"


class TestCertificateMemory:
    """At d = 256 the certificate holds 131 072 values; its text is about 2.6 MB."""

    @pytest.fixture(scope="class")
    def cert(self, tmp_path_factory):
        _, dec = certify_min_beta(triangular_matrix(128))
        path = tmp_path_factory.mktemp("cert") / "t128.cert"
        write_decomposition(str(path), dec)
        return dec, path

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_writer_streams_its_rows(self, cert, tmp_path):
        dec, path = cert
        assert self.peak(lambda: write_decomposition(str(tmp_path / "again.cert"), dec)) <= 1.5 * path.stat().st_size
        assert (tmp_path / "again.cert").read_bytes() == path.read_bytes()

    def test_reader_holds_the_lines_not_the_whole_text_twice(self, cert):
        _, path = cert
        assert self.peak(lambda: read_decomposition(str(path))) <= 2.8 * path.stat().st_size
