import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, norm

from avq import hilbert, inference, measurement, variables
from avq.errors import BadDistribution, NotFinite, ZeroEvidence


class TestDiscretePrior:
    def test_rejects_nan_weight(self):
        with pytest.raises(NotFinite):
            inference.DiscretePrior([0.0, 1.0], [np.nan, 1.0])

    def test_rejects_nan_value(self):
        with pytest.raises(NotFinite):
            inference.DiscretePrior([np.nan, 1.0], [0.5, 0.5])


def test_std_normal_cdf_matches_scipy():
    x = np.linspace(-8.0, 8.0, 3201)
    phi = np.array([inference._std_normal_cdf(v) for v in x])
    assert np.max(np.abs(phi - norm.cdf(x))) <= 5e-16


class TestBayesPosterior:
    def test_constant_likelihood(self):
        prior = inference.DiscretePrior([0.0, 1.0, 2.0], [1 / 3] * 3)
        post = inference.bayes_posterior(prior, lambda v: 0.7)
        assert np.allclose(post.weights, [1 / 3] * 3)

    def test_binary(self):
        prior = inference.DiscretePrior([0.0, 1.0], [0.5, 0.5])
        post = inference.bayes_posterior(prior, [0.8, 0.2])
        assert np.allclose(post.weights, [0.8, 0.2])

    def test_point_mass(self):
        prior = inference.DiscretePrior([0.0, 1.0], [1.0, 0.0])
        post = inference.bayes_posterior(prior, [0.3, 0.9])
        assert np.allclose(post.weights, [1.0, 0.0])

    def test_zero_evidence(self):
        prior = inference.DiscretePrior([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ZeroEvidence):
            inference.bayes_posterior(prior, [0.0, 0.0])

    def test_proportional_likelihoods_same_posterior(self):
        prior = inference.DiscretePrior([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        lik = np.array([0.1, 0.4, 0.5])
        p1 = inference.bayes_posterior(prior, lik)
        p2 = inference.bayes_posterior(prior, 7.3 * lik)
        assert np.allclose(p1.weights, p2.weights)

    def test_sufficiency_bernoulli(self):
        """Posterior from the full sample equals the posterior from the
        sufficient statistic T = sum x_i, exactly."""
        thetas = np.array([0.2, 0.5, 0.8])
        prior = inference.DiscretePrior(thetas, [1 / 3] * 3)
        x = np.array([1, 0, 1, 1, 0])
        full_lik = np.prod([thetas ** xi * (1 - thetas) ** (1 - xi)
                            for xi in x], axis=0)
        t_stat = x.sum()
        suff_lik = binom.pmf(t_stat, len(x), thetas)
        p_full = inference.bayes_posterior(prior, full_lik)
        p_suff = inference.bayes_posterior(prior, suff_lik)
        assert np.allclose(p_full.weights, p_suff.weights, atol=1e-14)


class TestMseDecompose:
    def test_oracle_estimator(self):
        spec = inference.SimulationSpec(100, 1, theta=2.5)
        mse, var, bias2 = inference.mse_decompose(
            lambda data: 2.5, lambda rng, th: None, spec)
        assert mse == var == bias2 == 0.0

    def test_sample_mean(self):
        spec = inference.SimulationSpec(20000, 7, theta=1.0)
        mse, var, bias2 = inference.mse_decompose(
            np.mean, lambda rng, th: th + rng.standard_normal(4), spec)
        se = 0.25 * np.sqrt(2.0 / spec.n)  # SE of a chi-square mean estimate
        assert abs(mse - 0.25) < 3 * se

    def test_constant_estimator(self):
        spec = inference.SimulationSpec(500, 3, theta=1.0)
        mse, var, bias2 = inference.mse_decompose(
            lambda data: 4.0, lambda rng, th: None, spec)
        assert var == pytest.approx(0.0, abs=1e-12)
        assert bias2 == pytest.approx(9.0)

    def test_identity_exact(self):
        spec = inference.SimulationSpec(1000, 11, theta=0.3)
        mse, var, bias2 = inference.mse_decompose(
            np.mean, lambda rng, th: th + rng.standard_normal(3), spec)
        assert mse == pytest.approx(var + bias2, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.floats(-3.0, 3.0))
def test_mse_identity_property(seed, theta):
    spec = inference.SimulationSpec(200, seed, theta=theta)
    mse, var, bias2 = inference.mse_decompose(
        np.mean, lambda rng, th: th + rng.standard_normal(2), spec)
    assert abs(mse - (var + bias2)) < 1e-12


class TestCredibilityInterval:
    def test_point_mass(self):
        iv = inference.credibility_interval(
            inference.DiscretePrior([2.0], [1.0]), 0.9)
        assert iv.lower == iv.upper == 2.0

    def test_normal_samples(self):
        g = np.random.default_rng(5)
        iv = inference.credibility_interval(g.standard_normal(10 ** 6), 0.95)
        assert iv.lower == pytest.approx(-1.96, abs=0.03)
        assert iv.upper == pytest.approx(1.96, abs=0.03)

    def test_uniform_samples(self):
        g = np.random.default_rng(6)
        iv = inference.credibility_interval(g.random(10 ** 6), 0.5)
        assert iv.lower == pytest.approx(0.25, abs=0.01)
        assert iv.upper == pytest.approx(0.75, abs=0.01)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            inference.credibility_interval(np.zeros(10), 1.5)

    @pytest.mark.parametrize("weights, level", [
        ([0.1] * 10, 1.0 - 2.0**-53),  # the weights sum to 1 - 2^-53
        ([0.5, 0.5 - 5e-11], 1.0 - 1e-11),
    ])
    def test_a_tail_past_the_last_cumulative_weight_ends_at_the_last_value(self, weights,
                                                                          level):
        values = np.arange(len(weights), dtype=float)
        iv = inference.credibility_interval(inference.DiscretePrior(values, weights), level)
        assert (iv.lower, iv.upper, iv.level) == (0.0, values[-1], level)

    def test_unbounded_endpoints_are_allowed(self):
        iv = inference.IntervalEstimate(-np.inf, np.inf, 0.5)
        assert (iv.lower, iv.upper) == (-np.inf, np.inf)
        assert inference.IntervalEstimate(np.inf, np.inf, 0.5).lower == np.inf

    def test_fields_are_the_checked_floats(self):
        iv = inference.IntervalEstimate(np.float64(-1.0), 2, np.float32(0.5))
        assert (iv.lower, iv.upper, iv.level) == (-1.0, 2.0, 0.5)
        assert all(type(x) is float for x in (iv.lower, iv.upper, iv.level))


class TestConfidenceCoverage:
    def test_always_rule(self):
        spec = inference.SimulationSpec(200, 2)
        cov = inference.confidence_coverage(
            lambda data: (-np.inf, np.inf), lambda rng, th: None, spec)
        assert cov == 1.0

    def test_empty_rule(self):
        spec = inference.SimulationSpec(200, 2)
        cov = inference.confidence_coverage(
            lambda data: (1.0, 1.0), lambda rng, th: None, spec)
        assert cov == 0.0

    def test_an_interval_estimate_rule_counts_as_its_pair(self):
        spec = inference.SimulationSpec(200, 2, theta=0.5)
        for lower, upper, want in ((0.0, 1.0, 1.0), (0.6, np.inf, 0.0)):
            cov = inference.confidence_coverage(
                lambda data: inference.IntervalEstimate(lower, upper, 0.9),
                lambda rng, th: None, spec)
            assert cov == want

    def test_normal_mean_interval(self):
        n = 9
        spec = inference.SimulationSpec(20000, 13, theta=0.7)
        half = 1.96 / np.sqrt(n)
        cov = inference.confidence_coverage(
            lambda data: (np.mean(data) - half, np.mean(data) + half),
            lambda rng, th: th + rng.standard_normal(n), spec)
        se = np.sqrt(0.95 * 0.05 / spec.n)
        assert abs(cov - 0.95) < 3 * se


class TestPValue:
    def test_infinite_observed(self):
        spec = inference.SimulationSpec(10, 1)
        assert inference.p_value_one_sided(
            lambda rng, th: None, lambda d: 0.0, -np.inf, spec) == 1.0
        assert inference.p_value_one_sided(
            lambda rng, th: None, lambda d: 0.0, np.inf, spec) == 0.0

    def test_normal_tail(self):
        spec = inference.SimulationSpec(40000, 17, theta=0.0)
        p = inference.p_value_one_sided(
            lambda rng, th: th + rng.standard_normal(1), np.mean, 1.645, spec)
        se = np.sqrt(0.05 * 0.95 / spec.n)
        assert abs(p - 0.05) < 3 * se

    @pytest.mark.parametrize("seed", [0, 1, 17, 2**31 - 1])
    @pytest.mark.parametrize("observed", [-0.3, 0.0, 1.645])
    def test_count_matches_array_of_estimates(self, seed, observed):
        spec = inference.SimulationSpec(3001, seed, theta=0.2)
        p = inference.p_value_one_sided(normal_draw, float, observed, spec)
        assert type(p) is float
        assert p == float(np.mean(estimate_array(spec) > observed))

    def test_memory_does_not_grow_with_replicates(self):
        spec = inference.SimulationSpec(10**5, 3)
        inference.p_value_one_sided(normal_draw, float, 1.0, inference.SimulationSpec(9, 3))
        tracemalloc.start()  # after a first run has loaded numpy.random
        try:
            inference.p_value_one_sided(normal_draw, float, 1.0, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19  # an array of the estimates would be 0.8 MB


def normal_draw(rng, theta):
    return theta + rng.standard_normal()


def estimate_array(spec):
    """Every replicate's estimate, float(normal_draw(rng, theta)), in one array."""
    rng = spec.rng()
    return np.array([float(normal_draw(rng, spec.theta)) for _ in range(spec.n)])


@pytest.mark.parametrize("seed", [0, 5, 2**31 - 1])
def test_mse_decompose_matches_array_of_estimates(seed):
    spec = inference.SimulationSpec(2001, seed, theta=0.2)
    err = estimate_array(spec) - spec.theta
    mse = float(np.mean(err ** 2))
    bias_sq = float(np.mean(err)) ** 2
    assert inference.mse_decompose(float, normal_draw, spec) == (mse, mse - bias_sq, bias_sq)


class TestProp2:
    def test_standard_window(self):
        spec = inference.SimulationSpec(100000, 23)
        res = inference.prop2_experiment(-1.96, 1.96, spec)
        assert res.analytic == pytest.approx(0.95, abs=1e-4)
        assert abs(res.credibility - res.analytic) < 3 * res.se_credibility
        assert abs(res.coverage - res.analytic) < 3 * res.se_coverage

    def test_narrow_window(self):
        spec = inference.SimulationSpec(50000, 29)
        res = inference.prop2_experiment(-0.01, 0.01, spec)
        assert res.analytic < 0.01
        assert res.credibility < 0.03 and res.coverage < 0.03

    def test_wide_window(self):
        spec = inference.SimulationSpec(50000, 31)
        res = inference.prop2_experiment(-8.0, 8.0, spec)
        assert res.credibility == pytest.approx(1.0, abs=1e-3)
        assert res.coverage == pytest.approx(1.0, abs=1e-3)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            inference.prop2_experiment(1.0, -1.0, inference.SimulationSpec(10, 1))

    def test_random_pairs_agree(self):
        g = np.random.default_rng(37)
        for k in range(10):
            c1 = float(g.uniform(-2.5, 0.0))
            c2 = float(c1 + g.uniform(0.5, 3.0))
            spec = inference.SimulationSpec(50000, 1000 + k)
            res = inference.prop2_experiment(c1, c2, spec)
            assert abs(res.credibility - res.coverage) < 3 * res.combined_se + 1e-9


class TestDeterminism:
    def test_prop2_bit_identical(self):
        spec = inference.SimulationSpec(10000, 41)
        r1 = inference.prop2_experiment(-1.0, 1.0, spec)
        r2 = inference.prop2_experiment(-1.0, 1.0, spec)
        assert r1 == r2


def whole_array_prop2(c1, c2, spec):
    """The experiment drawing every posterior at once: (credibility, coverage)."""
    rng = spec.rng()
    x = spec.theta + rng.standard_normal(spec.n)
    theta_post = x + rng.standard_normal(spec.n)
    cred = float(np.mean((x + c1 <= theta_post) & (theta_post <= x + c2)))
    cov = float(np.mean((x + c1 <= spec.theta) & (spec.theta <= x + c2)))
    return cred, cov


class TestProp2Blocks:
    @pytest.mark.parametrize("n", [10_000, inference._BLOCK - 1, inference._BLOCK,
                                   inference._BLOCK + 1, 65_535, 65_536, 65_537, 200_003])
    @pytest.mark.parametrize("seed, theta, c1, c2", [
        (0, 0.0, -1.96, 1.96), (6, 0.0, -0.5, 0.1), (2**31 - 1, 2.5, -1.0, 3.0)])
    def test_matches_whole_array_draw(self, n, seed, theta, c1, c2):
        spec = inference.SimulationSpec(n, seed, theta=theta)
        res = inference.prop2_experiment(c1, c2, spec)
        assert type(res.credibility) is float and type(res.coverage) is float
        assert (res.credibility, res.coverage) == whole_array_prop2(c1, c2, spec)

    def test_memory_at_a_million(self):
        spec = inference.SimulationSpec(10**6, 6)
        tracemalloc.start()
        try:
            inference.prop2_experiment(-1.96, 1.96, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20  # the data draws are 8 MB


def coordinate_variable(d):
    return variables.AccessibleVariable(
        "v", np.arange(d, dtype=float),
        tuple(np.diag(e).astype(complex) for e in np.eye(d)))


# The three checks of a probability vector, each on a 2-vector.
PROBABILITY_CHECKS = {
    "DiscretePrior": lambda w: inference.DiscretePrior([0.0, 1.0], w),
    "density_of": lambda w: measurement.density_of(w, coordinate_variable(2)),
    "diagonal_kraus_vs_bayes": lambda w: measurement.diagonal_kraus_vs_bayes(
        measurement.KrausInstrument((np.eye(2, dtype=complex),)), w, 0),
}


@pytest.mark.parametrize("check", PROBABILITY_CHECKS.values(), ids=PROBABILITY_CHECKS.keys())
class TestProbabilityVectorsAgree:
    def test_sum_within_the_residual_bound(self, check):
        check([0.5, 0.5 + 5e-11])

    def test_sum_beyond_the_residual_bound(self, check):
        with pytest.raises(BadDistribution) as info:
            check([0.5, 0.5 + 2e-10])
        assert info.value.tol == hilbert.RESIDUAL_TOL
        assert info.value.residual == pytest.approx(2e-10, rel=1e-3)

    def test_tiny_negative_weight(self, check):
        with pytest.raises(BadDistribution, match="nonnegative"):
            check([1.0 + 1e-13, -1e-13])

    def test_nan_weight(self, check):
        with pytest.raises(NotFinite):
            check([np.nan, 1.0])
