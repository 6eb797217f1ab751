"""Unit tests for the alias-method sampler."""

import numpy as np
import pytest
from scipy import stats

from repro.embedding.alias import AliasSampler, build_alias_tables


def _implied_mass(prob: np.ndarray, alias: np.ndarray) -> np.ndarray:
    """Probability mass the (prob, alias) tables actually assign.

    Column i keeps mass prob[i] for i and routes 1 - prob[i] to
    alias[i]; summing both contributions and dividing by n recovers the
    exact distribution the sampler draws from.
    """
    implied = prob.astype(float).copy()
    np.add.at(implied, alias, 1.0 - prob)
    return implied / prob.size


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AliasSampler(np.array([]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AliasSampler(np.array([1.0, -0.5]))

    def test_rejects_zero_total(self):
        with pytest.raises(ValueError):
            AliasSampler(np.array([0.0, 0.0]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            AliasSampler(np.ones((2, 2)))

    def test_size(self):
        assert AliasSampler(np.ones(7)).size == 7


class TestSampling:
    def test_sample_count_and_dtype(self, rng):
        sampler = AliasSampler(np.array([1.0, 2.0, 3.0]))
        draws = sampler.sample(1000, rng)
        assert draws.shape == (1000,)
        assert draws.dtype == np.int64
        assert draws.min() >= 0 and draws.max() <= 2

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            AliasSampler(np.ones(3)).sample(-1, rng)

    def test_zero_count(self, rng):
        assert AliasSampler(np.ones(3)).sample(0, rng).size == 0

    def test_distribution_matches_weights(self, rng):
        weights = np.array([0.1, 0.2, 0.3, 0.4])
        sampler = AliasSampler(weights)
        draws = sampler.sample(200_000, rng)
        empirical = np.bincount(draws, minlength=4) / draws.size
        assert np.allclose(empirical, weights, atol=0.01)

    def test_zero_weight_never_drawn(self, rng):
        sampler = AliasSampler(np.array([0.0, 1.0, 0.0, 1.0]))
        draws = sampler.sample(50_000, rng)
        assert set(np.unique(draws)) <= {1, 3}

    def test_single_element(self, rng):
        sampler = AliasSampler(np.array([5.0]))
        assert np.all(sampler.sample(100, rng) == 0)

    def test_heavily_skewed_weights(self, rng):
        weights = np.array([1e-6, 1.0])
        draws = AliasSampler(weights).sample(100_000, rng)
        assert np.mean(draws == 1) > 0.999

    def test_unnormalized_weights_ok(self, rng):
        a = AliasSampler(np.array([2.0, 6.0]))
        draws = a.sample(100_000, rng)
        assert np.isclose(np.mean(draws == 1), 0.75, atol=0.01)


class TestBuildAliasTables:
    """The vectorized construction must be exact, not approximately right."""

    @pytest.mark.parametrize(
        "weights",
        [
            [1.0],
            [1.0, 1.0, 1.0],
            [0.1, 0.2, 0.3, 0.4],
            [1e-6, 1.0],                    # one tiny, one dominant
            [5.0, 1e-9, 1e-9, 1e-9],        # one giant fed by many smalls
            [0.0, 1.0, 0.0, 2.0, 0.0],      # zeros interleaved
        ],
    )
    def test_tables_carry_exact_mass(self, weights):
        weights = np.asarray(weights, dtype=float)
        for vectorized in (True, False):
            prob, alias = build_alias_tables(weights, vectorized=vectorized)
            expected = weights / weights.sum()
            assert np.allclose(
                _implied_mass(prob, alias), expected, rtol=0.0, atol=1e-12
            )

    def test_vectorized_matches_loop_distribution(self, rng):
        # The two builders may pair small/large columns in a different
        # order, so the tables themselves can differ — but the implied
        # distribution must be identical to float precision.
        weights = rng.uniform(0.0, 1.0, 5_000)
        weights[rng.integers(0, weights.size, 50)] = 0.0
        vec = build_alias_tables(weights)
        loop = build_alias_tables(weights, vectorized=False)
        assert np.allclose(
            _implied_mass(*vec), _implied_mass(*loop), rtol=0.0, atol=1e-12
        )

    def test_chi_squared_large_sample(self, rng):
        # 1e6 draws against the exact expected counts: a biased table
        # construction fails this decisively, honest sampling noise
        # doesn't (p uniform under the null; reject only below 1e-3).
        weights = rng.uniform(0.1, 1.0, 64)
        sampler = AliasSampler(weights)
        draws = sampler.sample(1_000_000, np.random.default_rng(123))
        observed = np.bincount(draws, minlength=weights.size)
        expected = weights / weights.sum() * draws.size
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 1e-3
