"""Tests for the evolutionary engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evolutionary import GAConfig, evolve


def sphere_fitness(genome):
    """Maximum at the all-fives genome."""
    return -sum((g - 5) ** 2 for g in genome)


class TestConfig:
    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            GAConfig(population=1)

    def test_rejects_bad_elitism(self):
        with pytest.raises(ValueError):
            GAConfig(population=10, elitism=10)


class TestEvolve:
    def test_solves_simple_problem(self):
        bounds = [(0, 10)] * 6
        result = evolve(
            bounds,
            sphere_fitness,
            GAConfig(population=30, generations=200, seed=1, patience=80),
        )
        assert result.best_fitness == 0
        assert result.best_genome == [5] * 6

    def test_deterministic_per_seed(self):
        bounds = [(0, 20)] * 10
        r1 = evolve(bounds, sphere_fitness, GAConfig(seed=3, generations=20))
        r2 = evolve(bounds, sphere_fitness, GAConfig(seed=3, generations=20))
        assert r1.best_genome == r2.best_genome
        assert r1.history == r2.history

    def test_history_monotone(self):
        bounds = [(0, 20)] * 10
        result = evolve(bounds, sphere_fitness, GAConfig(seed=5, generations=30))
        assert result.history == sorted(result.history)

    def test_seed_individual_respected(self):
        bounds = [(0, 10)] * 6
        perfect = [5] * 6
        result = evolve(
            bounds,
            sphere_fitness,
            GAConfig(seed=1, generations=1, patience=0),
            seeds=[perfect],
        )
        assert result.best_fitness == 0

    def test_seed_clipped_to_bounds(self):
        bounds = [(0, 10)] * 4
        result = evolve(
            bounds,
            sphere_fitness,
            GAConfig(seed=1, generations=1, patience=0),
            seeds=[[99, -5, 3, 5]],
        )
        assert all(0 <= g <= 10 for g in result.best_genome)

    def test_repair_applied(self):
        bounds = [(0, 10)] * 4

        def repair(genome, rng):
            out = list(genome)
            out[0] = 5  # enforce a "constraint"
            return out

        result = evolve(
            bounds,
            sphere_fitness,
            GAConfig(seed=2, generations=10),
            repair=repair,
        )
        assert result.best_genome[0] == 5

    def test_early_stopping(self):
        bounds = [(5, 5)] * 3  # trivially optimal immediately
        result = evolve(
            bounds,
            sphere_fitness,
            GAConfig(seed=1, generations=500, patience=3),
        )
        assert result.generations_run <= 10

    def test_rejects_invalid_bounds(self):
        with pytest.raises(ValueError):
            evolve([(5, 3)], sphere_fitness)

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=10, deadline=None)
    def test_genomes_within_bounds(self, seed):
        bounds = [(2, 7), (0, 1), (-3, 3)]
        result = evolve(
            bounds,
            sphere_fitness,
            GAConfig(seed=seed, generations=5, population=10),
        )
        for gene, (lo, hi) in zip(result.best_genome, bounds):
            assert lo <= gene <= hi


class TestTelemetry:
    """Per-generation telemetry riding on GAResult (backward-compatible)."""

    def _run(self, **overrides):
        cfg = dict(population=10, generations=5, seed=0, patience=0)
        cfg.update(overrides)
        return evolve([(0, 10)] * 4, sphere_fitness, GAConfig(**cfg))

    def test_per_generation_lists_align(self):
        result = self._run()
        # Entry 0 covers the initial population; one entry per generation.
        assert len(result.gen_wall_s) == result.generations_run + 1
        assert len(result.gen_evaluations) == result.generations_run + 1
        assert all(w >= 0.0 for w in result.gen_wall_s)

    def test_evaluation_counts(self):
        result = self._run(population=10, generations=3)
        assert result.gen_evaluations == [10, 10, 10, 10]
        assert result.evaluations == 40

    def test_backward_compatible_defaults(self):
        from repro.core.evolutionary import GAResult

        legacy = GAResult(best_genome=[1], best_fitness=0.0, generations_run=2)
        assert legacy.gen_wall_s == []
        assert legacy.gen_evaluations == []
        assert legacy.evaluations == 0

    def test_telemetry_does_not_change_search(self):
        # Same seed, same result — telemetry must not consume RNG draws.
        a = self._run(seed=3)
        b = self._run(seed=3)
        assert a.best_genome == b.best_genome
        assert a.history == b.history

    def test_ga_events_emitted_when_traced(self):
        from repro.obs import observe

        with observe(metrics=False) as session:
            result = self._run(generations=2)
        counts = session.event_counts()
        assert counts["ga.generation"] == result.generations_run + 1
        assert counts["ga.done"] == 1
        gen_events = [
            e for e in session.recorder.events if e.etype == "ga.generation"
        ]
        assert [e.fields["gen"] for e in gen_events] == list(
            range(result.generations_run + 1)
        )
        for e in gen_events:
            assert e.fields["best"] >= e.fields["mean"]
            # Wall time rides in a strippable field.
            assert "gen_wall_s" in e.fields
            assert "gen_wall_s" not in e.to_dict()
