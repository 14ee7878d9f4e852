"""Formula layer: clause semantics, exact value, sampling, reduction, DIMACS I/O."""

import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from oracles import clause_to_example, eval_clause, iter_all_clauses, predict, sample_formula_stepwise, to_dense, vectors
from sparsehalf.core import BinaryAssignment, assignment_from_index, empirical_error
from sparsehalf.errors import FormatError
from sparsehalf.formulas import (
    Formula,
    FormulaKind,
    FormulaSourceConfig,
    formula_to_sample,
    formula_value,
    parse_formula,
    sample_formula,
    serialize_formula,
)

MAJ = FormulaKind.MAJ
CNF = FormulaKind.CNF


def plus_rows(phi):
    """Each majority clause's example for coin +1, from the library's formula_to_sample."""
    sample = formula_to_sample(phi, 0)
    return sample.items * sample.y[:, None]


def library_example(clause, b, n):
    """(x, y) the library makes of one majority clause for coin b: b x its coin-(+1) row, labeled b."""
    (x,) = vectors(b * plus_rows(Formula(n, MAJ, [clause])), n)
    return x, b


class TestEvalClause:
    def test_majority_two_agree(self):
        psi = BinaryAssignment((1, 1, -1, 1))
        assert eval_clause(MAJ, (1, 2, 3), psi)

    def test_cnf_all_disagree(self):
        psi = BinaryAssignment((1, 1, 1))
        assert not eval_clause(CNF, (-1, -2, -3), psi)

    def test_cnf_one_agrees(self):
        psi = BinaryAssignment((1, 1, 1))
        assert eval_clause(CNF, (1, -2, -3), psi)

    def test_majority_is_sign_of_literal_sum(self):
        # semantic oracle: MAJ(l1,l2,l3) = sign(sum of literal values)
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(3, 9))
            c = ((rng.choice(n, 3, replace=False) + 1) * (rng.integers(0, 2, 3) * 2 - 1)).tolist()
            psi = BinaryAssignment(tuple(int(v) for v in rng.integers(0, 2, n) * 2 - 1))
            total = sum(np.sign(v) * psi.bits[abs(v) - 1] for v in c)
            assert eval_clause(MAJ, c, psi) == (total > 0)

    def test_clause_invariants(self):
        for rows in (
            [[1, 1, 2]],  # repeated variable
            [[4, -4, 2]],  # repeated variable, opposite signs
            [[0, 1, 2]],  # variable 0
            [[1, 2, 7]],  # variable > n
            [[1, -7, 2]],  # negated variable > n
            [[1, 2]],  # width 2
            [[1, 2, 3, 4]],  # width 4
            [[1, 2, 3], [1, 2, 2]],  # the second clause repeats a variable
        ):
            with pytest.raises(ValueError):
                Formula(6, MAJ, rows)

    def test_literal_matrix_is_read_only_int32(self):
        phi = Formula(6, MAJ, np.array([[-2, 3, 6]], dtype=np.int64))
        assert phi.lits.dtype == np.int32 and phi.lits.shape == (1, 3) and phi.m == 1
        with pytest.raises(ValueError):
            phi.lits[0, 0] = 1


class TestFormulaValue:
    def test_single_clause(self):
        phi = Formula(3, MAJ, [[1, 2, 3]])
        val, witness = formula_value(phi)
        assert val == 1
        assert eval_clause(MAJ, phi.lits[0].tolist(), witness)

    def test_opposite_pair(self):
        phi = Formula(3, MAJ, [[1, 2, 3], [-1, -2, -3]])
        assert formula_value(phi)[0] == Fraction(1, 2)

    # the pinned results below are of formulas drawn by the per-clause sampler
    def test_frozen_regression(self):
        phi = sample_formula_stepwise(FormulaSourceConfig(10, 60, seed=1234), MAJ)
        val, witness = formula_value(phi)
        assert val == Fraction(13, 20)
        assert witness.bits == (1, 1, -1, -1, 1, -1, 1, 1, -1, -1)

    # recorded on the enumeration code before best_pattern replaced it:
    # (value, witness) of the uniform formula with n=20, m=160 and this seed,
    # drawn by the per-clause sampler
    FROZEN_N20 = {
        (MAJ, 0): (Fraction(11, 16), "+++----+---++---++-+"),
        (MAJ, 1): (Fraction(21, 32), "---+--+-------++++++"),
        (MAJ, 2): (Fraction(107, 160), "+++++-+++--++---+--+"),
        (CNF, 0): (Fraction(159, 160), "+-+---++---++-+-++++"),
        (CNF, 1): (Fraction(157, 160), "-+-++-+--+----+++-++"),
        (CNF, 2): (Fraction(157, 160), "+++++-++--+-+++-+--+"),
    }

    @pytest.mark.parametrize("kind, seed", list(FROZEN_N20))
    def test_frozen_regression_n20(self, kind, seed):
        val, witness = formula_value(sample_formula_stepwise(FormulaSourceConfig(20, 160, seed=seed), kind))
        bits = "".join("+" if b > 0 else "-" for b in witness.bits)
        assert (val, bits) == self.FROZEN_N20[kind, seed]

    def test_witness_attains_value(self):
        for seed in range(5):
            phi = sample_formula(FormulaSourceConfig(8, 30, seed=seed), MAJ)
            val, witness = formula_value(phi)
            attained = Fraction(sum(eval_clause(MAJ, c, witness) for c in phi.lits.tolist()), phi.m)
            assert attained == val

    def test_matches_naive_enumeration(self):
        # independent oracle: pure-python maximum over all assignments
        phi = sample_formula(FormulaSourceConfig(7, 25, seed=3), CNF)
        best = max(
            sum(eval_clause(CNF, c, BinaryAssignment(assignment_from_index(i, 7))) for c in phi.lits.tolist())
            for i in range(2**7)
        )
        assert formula_value(phi)[0] == Fraction(best, phi.m)


class TestSampleFormula:
    def test_planted_value_is_one(self):
        psi = BinaryAssignment(tuple(1 if i % 2 else -1 for i in range(10)))
        for kind in (MAJ, CNF):
            phi = sample_formula(FormulaSourceConfig(10, 80, psi=psi, seed=3), kind)
            assert all(eval_clause(kind, c, psi) for c in phi.lits.tolist())
            assert formula_value(phi)[0] == 1

    def test_a_given_psi_plants_the_formula(self):
        psi = BinaryAssignment(tuple(1 if i % 3 else -1 for i in range(8)))
        phi = sample_formula(FormulaSourceConfig(8, 30, psi=psi, seed=4), MAJ)
        assert all(eval_clause(MAJ, c, psi) for c in phi.lits.tolist())

    @pytest.mark.parametrize("mode,planted", [("uniform", True), ("planted", False), ("hidden", False)])
    def test_a_named_mode_must_agree_with_psi(self, mode, planted):
        psi = BinaryAssignment((1,) * 8) if planted else None
        with pytest.raises(ValueError):
            FormulaSourceConfig(8, 30, mode=mode, psi=psi, seed=4)

    def test_seeds_differ(self):
        a = sample_formula(FormulaSourceConfig(12, 72, seed=1), MAJ)
        b = sample_formula(FormulaSourceConfig(12, 72, seed=2), MAJ)
        assert a != b
        assert a == sample_formula(FormulaSourceConfig(12, 72, seed=1), MAJ)

    def test_uniform_majority_satisfaction_near_half(self):
        # any fixed assignment satisfies a uniform majority clause w.p. exactly 1/2
        psi = BinaryAssignment(tuple(1 if i % 3 else -1 for i in range(12)))
        phi = sample_formula(FormulaSourceConfig(12, 5000, seed=77), MAJ)
        frac = sum(eval_clause(MAJ, c, psi) for c in phi.lits.tolist()) / 5000
        assert abs(frac - 0.5) <= 0.03


class TestSamplerLaw:
    """The block sampler's law, against bars fixed before these tests first ran.

    At n = 7 there are 210 ordered triples of distinct variables; each must
    be equally likely (chi-square p >= 1e-4), as must each sign.  A planted
    clause is a uniform clause conditioned on psi satisfying it, so its
    count of literals that agree with psi has a known law.
    """

    M = 210_000
    TRIPLES = [(a * 7 + b) * 7 + c for a, b, c in permutations(range(7), 3)]

    def triple_p_value(self, phi):
        v = np.abs(phi.lits).astype(np.int64) - 1
        counts = np.bincount((v[:, 0] * 7 + v[:, 1]) * 7 + v[:, 2], minlength=7**3)[self.TRIPLES]
        assert counts.sum() == phi.m
        return chisquare(counts).pvalue

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_triples_and_signs_are_uniform(self, seed):
        phi = sample_formula(FormulaSourceConfig(7, self.M, seed=seed), MAJ)
        assert self.triple_p_value(phi) >= 1e-4
        assert abs((phi.lits > 0).mean() - 0.5) <= 0.005

    def test_the_per_clause_oracle_draws_the_same_law(self):
        phi = sample_formula_stepwise(FormulaSourceConfig(7, 200_000, seed=0), MAJ)
        assert self.triple_p_value(phi) >= 1e-4
        assert abs((phi.lits > 0).mean() - 0.5) <= 0.005

    @pytest.mark.parametrize("kind, shares", [(MAJ, {2: 3 / 4, 3: 1 / 4}), (CNF, {1: 3 / 7, 2: 3 / 7, 3: 1 / 7})])
    def test_planted_clauses_hold_with_the_conditioned_agreement(self, kind, shares):
        psi = np.array([1, -1, -1, 1, 1, -1, 1])
        phi = sample_formula(FormulaSourceConfig(7, self.M, psi=BinaryAssignment(tuple(psi)), seed=3), kind)
        agree = (np.sign(phi.lits) == psi[np.abs(phi.lits) - 1]).sum(axis=1)
        assert set(np.unique(agree).tolist()) == set(shares)  # every clause holds
        observed = np.bincount(agree, minlength=4) / phi.m
        assert all(abs(observed[count] - share) <= 0.01 for count, share in shares.items()), observed

    def test_planted_rows_are_the_held_uniform_rows_in_draw_order(self):
        # a planted draw's first block is the uniform draw of that seed and size, filtered by psi
        psi = BinaryAssignment((1, -1, -1, 1, 1, -1, 1, 1))
        uniform = sample_formula(FormulaSourceConfig(8, 1000, seed=5), MAJ).lits
        planted = sample_formula(FormulaSourceConfig(8, 1000, psi=psi, seed=5), MAJ).lits
        held = uniform[[eval_clause(MAJ, clause, psi) for clause in uniform.tolist()]]
        assert 0 < len(held) < 1000
        assert np.array_equal(planted[:len(held)], held)


class TestClauseToExample:
    def test_negative_coin(self):
        x, y = clause_to_example((-2, 3, 6), -1, 6)
        assert list(to_dense(x)) == [0, 1, -1, 0, 0, -1]
        assert y == -1
        assert library_example((-2, 3, 6), -1, 6) == (x, y)

    def test_positive_coin(self):
        x, y = clause_to_example((1, -2, 4), 1, 4)
        assert list(to_dense(x)) == [1, -1, 0, 1]
        assert y == 1
        assert library_example((4, 1, -2), 1, 4) == (x, y)  # literal order does not matter

    def test_plain(self):
        x, y = clause_to_example((1, 2, 3), 1, 5)
        assert list(to_dense(x)) == [1, 1, 1, 0, 0]
        assert y == 1
        assert library_example((3, 2, 1), 1, 5) == (x, y)

    def test_rejects_cnf(self):
        with pytest.raises(ValueError):
            formula_to_sample(Formula(5, CNF, [[1, 2, 3]]), 0)

    def test_two_generators_per_instance(self):
        # every exactly-3-sparse instance arises from exactly one (clause, coin)
        # pair per label, hence exactly two clauses overall
        n = 5
        clauses = list(iter_all_clauses(n))
        rows = plus_rows(Formula(n, MAJ, clauses))
        seen = {}
        for b in (1, -1):
            for c, x in zip(clauses, vectors(b * rows, n)):
                seen.setdefault((x.entries, b), []).append((c, b))
        assert all(len(v) == 1 for v in seen.values())
        by_instance = {}
        for (entries, _y), gens in seen.items():
            by_instance.setdefault(entries, []).extend(gens)
        assert all(len(v) == 2 for v in by_instance.values())


class TestFormulaToSample:
    def test_one_example_per_clause(self):
        phi = sample_formula(FormulaSourceConfig(9, 40, seed=8), MAJ)
        sample = formula_to_sample(phi, 0)
        assert len(sample) == phi.m
        assert sample.k == 3 and sample.n == 9
        # row j is clause j's example for its own coin, which is also its label
        examples = [clause_to_example(c, int(b), phi.n) for c, b in zip(phi.lits.tolist(), sample.y)]
        assert vectors(sample.items, phi.n) == [x for x, _ in examples]
        assert sample.y.tolist() == [y for _, y in examples]

    def test_rejects_cnf(self):
        phi = sample_formula(FormulaSourceConfig(9, 10, seed=8), CNF)
        with pytest.raises(ValueError):
            formula_to_sample(phi, 0)

    def test_error_is_coin_invariant(self):
        # homogeneous hypotheses are right on an example iff the clause is
        # satisfied, regardless of the coin, so the error matches the
        # unsatisfied fraction for every seed
        phi = sample_formula(FormulaSourceConfig(9, 40, seed=8), MAJ)
        rng = np.random.default_rng(1)
        for _ in range(5):
            psi = BinaryAssignment(tuple(int(v) for v in rng.integers(0, 2, 9) * 2 - 1))
            unsat = Fraction(sum(not eval_clause(MAJ, c, psi) for c in phi.lits.tolist()), phi.m)
            for seed in (0, 1, 99):
                err = empirical_error(psi, formula_to_sample(phi, seed))
                assert err == unsat

    def test_per_position_label_means(self):
        phi = sample_formula(FormulaSourceConfig(8, 30, seed=4), MAJ)
        draws = 10_000
        totals = np.zeros(phi.m)
        for seed in range(draws):
            totals += formula_to_sample(phi, seed).y
        assert np.abs(totals / draws).max() <= 0.05


class TestCorrespondence:
    def test_prediction_correct_iff_clause_satisfied(self):
        for n in (3, 4):
            clauses = list(iter_all_clauses(n))
            rows = plus_rows(Formula(n, MAJ, clauses))
            for c, row in zip(clauses, rows):
                for i in range(2**n):
                    psi = BinaryAssignment(assignment_from_index(i, n))
                    sat = eval_clause(MAJ, c, psi)
                    for b in (1, -1):
                        (x,) = vectors(b * row[None], n)
                        assert (predict(psi, x) == b) == sat


class TestDimacs:
    def test_documented_forms(self):
        phi = parse_formula("p maj3 6 1\n-2 3 6 0\n")
        assert phi.kind is MAJ and phi.n == 6
        assert phi.lits.tolist() == [[-2, 3, 6]]
        phi = parse_formula("p cnf 3 1\n1 -2 3 0\n")
        assert phi.kind is CNF
        assert phi.lits.tolist() == [[1, -2, 3]]

    def test_round_trip_is_byte_identical(self):
        rng = np.random.default_rng(0)
        for seed in range(1000):
            kind = MAJ if seed % 2 else CNF
            phi = sample_formula(FormulaSourceConfig(int(rng.integers(3, 15)), int(rng.integers(1, 30)), seed=seed), kind)
            text = serialize_formula(phi)
            assert parse_formula(text) == phi
            assert serialize_formula(parse_formula(text)) == text

    def test_comments_and_multiline_clauses(self):
        phi = parse_formula("c comment\np maj3 5 2\n1 2\n3 0 -1 -4\n5 0\n")
        assert phi.m == 2

    @pytest.mark.parametrize(
        "text",
        [
            "p maj 6 1\n-2 3 6 0\n",  # bad kind token
            "p maj3 6 1\n-2 3 0\n",  # wrong literal count
            "p maj3 6 1\n-2 3 7 0\n",  # index out of range
            "p maj3 6 1\n-2 3 3 0\n",  # repeated variable
            "p maj3 6 2\n-2 3 6 0\n",  # clause count mismatch
            "p maj3 6 1\n-2 3 6\n",  # unterminated clause
            "1 2 3 0\n",  # missing header
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(FormatError):
            parse_formula(text)

    @pytest.mark.parametrize("n", [2**31, 10**20])
    def test_n_beyond_int32_is_value_error(self, n):
        # the literal matrix is int32; a literal beyond int64 must not overflow on the way
        with pytest.raises(ValueError):
            parse_formula(f"p maj3 {n} 1\n{n - 1} 1 2 0\n")

    @pytest.mark.parametrize("m", [1, 1 << 15, (1 << 15) + 1, 3 << 15])
    def test_blocks_write_one_line_per_clause(self, m):
        phi = sample_formula(FormulaSourceConfig(12, m, seed=m), CNF)
        lines = [f"p cnf 12 {m}"] + [f"{a} {b} {c} 0" for a, b, c in phi.lits.tolist()]
        assert serialize_formula(phi) == "\n".join(lines) + "\n"

    def test_peak_is_a_small_multiple_of_the_text(self):
        """A block of clauses at a time becomes Python ints and lines; the whole formula at once peaked at 16.8x."""
        phi = sample_formula(FormulaSourceConfig(32, 200_000, seed=0), MAJ)
        tracemalloc.start()
        try:
            text = serialize_formula(phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(text)

    @given(st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, seed):
        phi = sample_formula(FormulaSourceConfig(6, 5, seed=seed), MAJ)
        assert parse_formula(serialize_formula(phi)) == phi
