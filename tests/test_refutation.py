"""Refuter behavior on planted and uniform sources, and the Monte Carlo game."""

import pytest

from sparsehalf.core import BinaryAssignment
from sparsehalf.formulas import FormulaKind, FormulaSourceConfig, sample_formula
from sparsehalf.refutation import GameConfig, RefuterConfig, refutation_game, refute


def planted_formula(n, m, seed):
    psi = BinaryAssignment(tuple(1 if i % 2 else -1 for i in range(n)))
    return sample_formula(FormulaSourceConfig(n, m, psi=psi, seed=seed), FormulaKind.MAJ)


def uniform_formula(n, m, seed):
    return sample_formula(FormulaSourceConfig(n, m, seed=seed), FormulaKind.MAJ)


class TestRefute:
    def test_planted_is_exceptional_with_erm(self):
        phi = planted_formula(12, 72, 3)
        verdict = refute(phi, RefuterConfig(fraction=0.5, learner="erm-binary", seed=0))
        assert verdict.kind == "exceptional"
        assert float(verdict.error) <= 0.25

    def test_uniform_is_typical_with_erm(self):
        phi = uniform_formula(16, 128, 4)
        verdict = refute(phi, RefuterConfig(fraction=0.2, learner="erm-binary", seed=0))
        assert verdict.kind == "typical"
        assert float(verdict.error) > 0.375

    def test_full_fraction_table_memorizes_anything(self):
        # training on the whole sample lets the table learner call even a
        # uniform formula exceptional; the subsample cap is what the verdict
        # hinges on
        for seed in range(5):
            phi = uniform_formula(14, 84, seed)
            verdict = refute(phi, RefuterConfig(fraction=1.0, learner="table", seed=seed))
            assert verdict.kind == "exceptional"

    def test_threshold_comparison_is_exact(self):
        phi = planted_formula(10, 40, 5)
        low = refute(phi, RefuterConfig(fraction=1.0, threshold=0.375, learner="erm-binary", seed=1))
        assert low.error == 0
        assert low.kind == "exceptional"

    def test_rejects_cnf(self):
        phi = sample_formula(FormulaSourceConfig(8, 10, seed=0), FormulaKind.CNF)
        with pytest.raises(ValueError):
            refute(phi, RefuterConfig())

    def test_deterministic(self):
        phi = uniform_formula(10, 60, 6)
        cfg = RefuterConfig(fraction=0.5, learner="erm-binary", seed=9)
        assert refute(phi, cfg) == refute(phi, cfg)

    @pytest.mark.parametrize("fraction,expected", [(0.05, 3), (0.3, 18), (1.0, 60)])
    def test_subsample_size_is_ceil_of_fraction(self, monkeypatch, fraction, expected):
        import sparsehalf.refutation as refutation_mod

        seen = {}

        def spy(name, cfg):
            def train(sample):
                seen["size"] = len(sample)
                from sparsehalf.learners import table_majority_learn

                return table_majority_learn(sample)

            return train

        monkeypatch.setattr(refutation_mod, "make_learner", spy)
        refute(uniform_formula(10, 60, 1), RefuterConfig(fraction=fraction, seed=0))
        assert seen["size"] == expected


class TestGame:
    def test_single_trial_rows(self):
        stats = refutation_game(GameConfig(n=8, delta=4, trials=1, base_seed=0), RefuterConfig(learner="table"))
        assert len(stats.rows) == 2
        assert {r.mode for r in stats.rows} == {"planted", "uniform"}
        for row in stats.rows:
            assert 0 <= float(row.error) <= 1
            assert row.verdict in ("typical", "exceptional")
            assert row.wall_ms >= 0

    def test_mode_selection_and_determinism(self):
        game = GameConfig(n=8, delta=4, trials=3, modes=("uniform",), base_seed=5)
        refuter = RefuterConfig(learner="erm-binary")
        a = refutation_game(game, refuter)
        b = refutation_game(game, refuter)
        assert [r.error for r in a.rows] == [r.error for r in b.rows]
        assert all(r.mode == "uniform" for r in a.rows)

    def test_typical_rate_non_increasing_in_fraction(self):
        rates = []
        for fraction in (0.05, 0.2, 0.5, 1.0):
            game = GameConfig(n=14, delta=8, trials=30, modes=("uniform",), base_seed=77)
            stats = refutation_game(game, RefuterConfig(fraction=fraction, learner="erm-binary"))
            rates.append(stats.rate("uniform", "typical"))
        assert all(rates[i] >= rates[i + 1] for i in range(len(rates) - 1)), rates

    def test_typical_rate_non_decreasing_in_density(self):
        # ERM fits the seen clauses less well as the density grows, so the
        # uniform typical rate climbs towards 1 once the density passes the
        # soundness bound in the refute docstring (~8.7 at fraction 1/2).
        rates = []
        for delta in (4, 8, 16):
            game = GameConfig(n=14, delta=delta, trials=30, modes=("uniform",), base_seed=77)
            stats = refutation_game(game, RefuterConfig(fraction=0.5, learner="erm-binary"))
            rates.append(stats.rate("uniform", "typical"))
        assert all(rates[i] <= rates[i + 1] for i in range(len(rates) - 1)), rates

    def test_planted_mode_uses_fresh_assignments(self):
        game = GameConfig(n=10, delta=5, trials=4, modes=("planted",), base_seed=9)
        stats = refutation_game(game, RefuterConfig(fraction=0.5, learner="erm-binary"))
        assert stats.rate("planted", "exceptional") >= 0.75

    def test_repeated_mode_is_refused(self):
        with pytest.raises(ValueError, match="^a mode is played once per game: got planted,uniform,planted$"):
            GameConfig(n=8, delta=4, trials=1, modes=("planted", "uniform", "planted"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GameConfig(n=8, delta=0.5, trials=1)
        with pytest.raises(ValueError):
            GameConfig(n=8, delta=4, trials=0)
        with pytest.raises(ValueError):
            GameConfig(n=8, delta=4, trials=1, modes=("weird",))
        with pytest.raises(ValueError):
            RefuterConfig(fraction=0.0)
