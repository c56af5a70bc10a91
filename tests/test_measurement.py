import numpy as np
import pytest

from avq import hilbert, measurement, variables
from avq.errors import (BadDistribution, DimMismatch, DomainError, NotDiagonal,
                        NotEffect, NotFinite, ValueMismatch, ZeroProbabilityBranch)

from conftest import (random_density, random_diagonal_instrument,
                      random_instrument, random_maximal_variable, random_model,
                      random_state)


def coordinate_variable(d, name="v"):
    return variables.AccessibleVariable(
        name, np.arange(d, dtype=float),
        tuple(np.outer(e, e).astype(complex) for e in np.eye(d)))


def binary_model():
    """p(x=0 | u) = (0.8, 0.2) over parameters u = (0, 1)."""
    return measurement.StatisticalModel(
        [0.0, 1.0], (0, 1), [[0.8, 0.2], [0.2, 0.8]])


def test_empty_povm_rejected():
    with pytest.raises(BadDistribution):
        measurement.Povm(())


def test_empty_instrument_rejected():
    with pytest.raises(BadDistribution):
        measurement.KrausInstrument(())


class TestStackedFamilies:
    """Effects and Kraus operators are (n, d, d) stacks, built and checked
    in batched calls that agree with the per-operator definitions."""

    def test_povm_equals_per_effect_loop(self, rng):
        for _ in range(40):
            d, nx = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            v = random_maximal_variable(rng, d)
            m = measurement.StatisticalModel(v.values, tuple(range(nx)),
                                             random_model(rng, d, nx).likelihood)
            povm = measurement.povm_of_model(m, v)
            assert povm.effects.shape == (nx, d, d)
            loop = [measurement.likelihood_effect(m, v, x) for x in m.sample_points]
            assert np.array_equal(povm.effects, np.array(loop))

    def test_branch_probabilities_equal_per_operator_loop(self, rng):
        for _ in range(40):
            d, n = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            k = random_instrument(rng, d, n)
            sigma = random_density(rng, d)
            loop = [min(max(np.real(hilbert.trace_product(hilbert.dagger(a) @ a, sigma)), 0.0),
                        1.0) for a in k.kraus]
            assert np.array_equal(measurement.branch_probabilities(k, sigma), loop)

    @pytest.mark.parametrize("family", [
        (np.eye(2), np.eye(3)),
        (np.eye(2), np.zeros((2, 3))),
        (np.eye(2), [[1.0, 0.0], [0.0]]),
    ])
    def test_ragged_family_is_dim_mismatch(self, family):
        with pytest.raises(DimMismatch):
            measurement.Povm(family)
        with pytest.raises(DimMismatch):
            measurement.KrausInstrument(family)

    @pytest.mark.parametrize("family", [np.eye(2), np.zeros((2, 2, 3)), 1.0])
    def test_non_square_or_unstacked_is_dim_mismatch(self, family):
        with pytest.raises(DimMismatch):
            measurement.Povm(family)
        with pytest.raises(DimMismatch):
            measurement.KrausInstrument(family)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        f = np.eye(2, dtype=complex)
        f[0, 1] = bad
        with pytest.raises(NotFinite):
            measurement.Povm((f, np.eye(2) - f))
        with pytest.raises(NotFinite):
            measurement.KrausInstrument((f,))

    def test_empty_stack_rejected(self):
        with pytest.raises(BadDistribution):
            measurement.Povm(np.zeros((0, 2, 2)))
        with pytest.raises(BadDistribution):
            measurement.KrausInstrument(np.zeros((0, 2, 2)))

    def test_effect_checks(self):
        with pytest.raises(NotEffect):  # not Hermitian
            measurement.Povm((np.array([[0.5, 0.1], [0.0, 0.5]]),
                              np.array([[0.5, -0.1], [0.0, 0.5]])))
        with pytest.raises(NotEffect):  # spectrum leaves [0, 1]
            measurement.Povm((np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])))
        with pytest.raises(BadDistribution):  # incomplete
            measurement.Povm((np.diag([0.5, 0.5]), np.diag([0.2, 0.5])))

    def test_one_off_diagonal_entry_is_not_diagonal(self):
        # the second branch is sqrt(1/2) times a rotation by 1e-6 mixing
        # basis vectors 0 and 2
        c, s = np.cos(1e-6), np.sin(1e-6)
        u = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
        k = measurement.KrausInstrument(np.sqrt(0.5) * np.array([np.eye(3), u]))
        with pytest.raises(NotDiagonal):
            measurement.diagonal_kraus_vs_bayes(k, [0.2, 0.3, 0.5], 0)


class TestStatisticalModel:
    def test_column_normalization_enforced(self):
        with pytest.raises(BadDistribution):
            measurement.StatisticalModel([0.0, 1.0], (0, 1),
                                         [[0.8, 0.3], [0.2, 0.8]])

    @pytest.mark.parametrize("values,lik,error", [
        ([0, 1], [[np.nan, 0.5], [0.5, 0.5]], NotFinite),
        ([0, 1], [[np.inf, 0.5], [0.5, 0.5]], NotFinite),
        ([0, np.nan], [[0.5, 0.5], [0.5, 0.5]], NotFinite),
        ([0, 1], [[0.5, 0.5]], DimMismatch),
        ([0, 1, 2], [[0.5, 0.5], [0.5, 0.5]], DimMismatch),
    ])
    def test_rejects_non_finite_and_wrong_shape(self, values, lik, error):
        with pytest.raises(error):
            measurement.StatisticalModel(values, (0, 1), lik)
        assert issubclass(error, DomainError)

    def test_duplicate_sample_points_rejected(self):
        # with a repeated point, likelihood_effect could reach only its
        # first row, while povm_of_model builds one effect per row
        with pytest.raises(BadDistribution, match="distinct"):
            measurement.StatisticalModel([0.0, 1.0], (0, 0),
                                         [[0.8, 0.3], [0.2, 0.7]])

    def test_unknown_sample_point(self):
        with pytest.raises(ValueMismatch):
            binary_model().sample_index(7)

    def test_dict_roundtrip(self):
        m = binary_model()
        back = measurement.StatisticalModel.from_dict(m.to_dict())
        assert np.allclose(back.likelihood, m.likelihood)
        assert back.sample_points == m.sample_points


class TestLikelihoodEffect:
    def test_deterministic_model(self):
        v = coordinate_variable(3)
        m = measurement.StatisticalModel(
            np.arange(3.0), (0, 1, 2), np.eye(3))
        for j in range(3):
            f = measurement.likelihood_effect(m, v, j)
            assert np.allclose(f, v.projectors[j])

    def test_uniform_model(self):
        v = coordinate_variable(2)
        m = measurement.StatisticalModel(
            [0.0, 1.0], (0, 1, 2, 3), np.full((4, 2), 0.25))
        assert np.allclose(measurement.likelihood_effect(m, v, 0), np.eye(2) / 4)

    def test_binary_assembly(self):
        f = measurement.likelihood_effect(binary_model(), coordinate_variable(2), 0)
        assert np.allclose(f, np.diag([0.8, 0.2]))

    def test_value_mismatch(self):
        v = variables.AccessibleVariable(
            "v", [5.0, 6.0], coordinate_variable(2).projectors)
        with pytest.raises(ValueMismatch):
            measurement.likelihood_effect(binary_model(), v, 0)

    def test_effect_bounds_random(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 9))
            nx = int(rng.integers(2, 11))
            m = random_model(rng, d, nx)
            v = random_maximal_variable(rng, d)
            v = variables.AccessibleVariable(v.name, np.arange(d, dtype=float),
                                             v.projectors)
            f = measurement.likelihood_effect(m, v, int(rng.integers(nx)))
            hilbert.require_effect(f)


class TestPovm:
    def test_deterministic_projective(self):
        v = coordinate_variable(3)
        m = measurement.StatisticalModel(np.arange(3.0), (0, 1, 2), np.eye(3))
        povm = measurement.povm_of_model(m, v)
        for f, p in zip(povm.effects, v.projectors):
            assert np.allclose(f, p)

    def test_binary_effects(self):
        povm = measurement.povm_of_model(binary_model(), coordinate_variable(2))
        assert np.allclose(povm.effects[0], np.diag([0.8, 0.2]))
        assert np.allclose(povm.effects[1], np.diag([0.2, 0.8]))

    def test_one_point_sample_space(self):
        v = coordinate_variable(2)
        m = measurement.StatisticalModel([0.0, 1.0], (0,), [[1.0, 1.0]])
        povm = measurement.povm_of_model(m, v)
        assert len(povm.effects) == 1
        assert np.allclose(povm.effects[0], np.eye(2))

    def test_completeness_random(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 7))
            m = random_model(rng, d, int(rng.integers(2, 6)))
            povm = measurement.povm_of_model(m, coordinate_variable(d))
            total = sum(povm.effects)
            assert np.max(np.abs(total - np.eye(d))) < 1e-10


class TestDensityOf:
    def test_point_mass(self):
        v = coordinate_variable(2)
        sigma = measurement.density_of([1.0, 0.0], v)
        assert np.allclose(sigma, np.diag([1.0, 0.0]))

    def test_uniform(self):
        sigma = measurement.density_of([0.25] * 4, coordinate_variable(4))
        assert np.allclose(sigma, np.eye(4) / 4)

    def test_spin_half_weights(self):
        sigma = measurement.density_of([0.7, 0.3], coordinate_variable(2))
        assert np.allclose(sigma, np.diag([0.7, 0.3]))

    def test_degenerate_rank_normalization(self):
        v = variables.AccessibleVariable(
            "v", [0.0, 1.0],
            (np.diag([1.0, 1.0, 0.0]).astype(complex),
             np.diag([0.0, 0.0, 1.0]).astype(complex)))
        sigma = measurement.density_of([0.5, 0.5], v)
        assert abs(np.trace(sigma).real - 1.0) < 1e-12
        assert np.allclose(np.diag(sigma).real, [0.25, 0.25, 0.5])

    def test_bad_distribution(self):
        with pytest.raises(BadDistribution):
            measurement.density_of([0.7, 0.4], coordinate_variable(2))


class TestEvidence:
    def test_identity_and_zero(self, rng):
        q = measurement.evidence(random_density(rng, 3))
        assert q(np.eye(3)) == pytest.approx(1.0)
        assert q(np.zeros((3, 3))) == pytest.approx(0.0)

    def test_pure_overlap(self):
        plus_x = np.array([1.0, 1.0]) / np.sqrt(2.0)
        q = measurement.evidence(np.diag([1.0, 0.0]).astype(complex))
        assert q(np.outer(plus_x, plus_x)) == pytest.approx(0.5)

    def test_additivity_simple(self, rng):
        q = measurement.evidence(random_density(rng, 4))
        f1, f2 = 0.3 * np.eye(4), 0.4 * np.eye(4)
        assert q(f1) + q(f2) == pytest.approx(q(f1 + f2), abs=1e-14)

    def test_additivity_random(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            q = measurement.evidence(random_density(rng, d))
            v1, v2 = random_state(rng, d), random_state(rng, d)
            f1 = 0.5 * np.outer(v1, np.conj(v1))
            f2 = 0.5 * np.outer(v2, np.conj(v2))
            assert abs(q(f1 + f2) - q(f1) - q(f2)) < 1e-13


class TestKrausUpdate:
    def test_identity_instrument(self, rng):
        sigma = random_density(rng, 3)
        k = measurement.KrausInstrument((np.eye(3, dtype=complex),))
        p, post = measurement.kraus_update(k, sigma, 0)
        assert p == pytest.approx(1.0)
        assert np.max(np.abs(post - sigma)) < 1e-12

    def test_projective_on_pure(self, rng):
        psi = random_state(rng, 3)
        sigma = np.outer(psi, np.conj(psi))
        k = measurement.KrausInstrument(
            tuple(np.outer(e, e).astype(complex) for e in np.eye(3)))
        for j in range(3):
            p, post = measurement.kraus_update(k, sigma, j)
            assert p == pytest.approx(abs(psi[j]) ** 2)
            e = np.zeros(3)
            e[j] = 1.0
            assert np.max(np.abs(post - np.outer(e, e))) < 1e-10

    def test_proportional_identity(self, rng):
        sigma = random_density(rng, 2)
        a = np.sqrt(0.5) * np.eye(2, dtype=complex)
        k = measurement.KrausInstrument((a, a))
        for j in (0, 1):
            p, post = measurement.kraus_update(k, sigma, j)
            assert p == pytest.approx(0.5)
            assert np.max(np.abs(post - sigma)) < 1e-12

    def test_zero_branch(self):
        sigma = np.diag([1.0, 0.0]).astype(complex)
        k = measurement.KrausInstrument(
            (np.diag([1.0, 0.0]).astype(complex),
             np.diag([0.0, 1.0]).astype(complex)))
        with pytest.raises(ZeroProbabilityBranch):
            measurement.kraus_update(k, sigma, 1)

    def test_random_instruments(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 6))
            k = random_instrument(rng, d, int(rng.integers(2, 5)))
            sigma = random_density(rng, d)
            probs = measurement.branch_probabilities(k, sigma)
            assert probs.sum() == pytest.approx(1.0, abs=1e-10)
            j = int(np.argmax(probs))
            _, post = measurement.kraus_update(k, sigma, j)
            assert abs(np.trace(post).real - 1.0) < 1e-10


class TestDiagonalKrausVsBayes:
    def test_uniform_prior_binary(self):
        k = measurement.KrausInstrument(
            (np.diag([np.sqrt(0.8), np.sqrt(0.2)]).astype(complex),
             np.diag([np.sqrt(0.2), np.sqrt(0.8)]).astype(complex)))
        kp, bp = measurement.diagonal_kraus_vs_bayes(k, [0.5, 0.5], 0)
        assert np.allclose(kp, [0.8, 0.2], atol=1e-12)
        assert np.allclose(bp, [0.8, 0.2], atol=1e-12)

    def test_point_mass_prior(self):
        k = measurement.KrausInstrument(
            (np.diag([np.sqrt(0.8), np.sqrt(0.2)]).astype(complex),
             np.diag([np.sqrt(0.2), np.sqrt(0.8)]).astype(complex)))
        kp, bp = measurement.diagonal_kraus_vs_bayes(k, [1.0, 0.0], 0)
        assert np.allclose(kp, [1.0, 0.0], atol=1e-12)
        assert np.allclose(bp, [1.0, 0.0], atol=1e-12)

    def test_uninformative_instrument(self):
        a = np.sqrt(0.5) * np.eye(2, dtype=complex)
        k = measurement.KrausInstrument((a, a))
        kp, bp = measurement.diagonal_kraus_vs_bayes(k, [0.3, 0.7], 1)
        assert np.allclose(kp, [0.3, 0.7], atol=1e-12)
        assert np.allclose(bp, [0.3, 0.7], atol=1e-12)

    def test_rejects_non_diagonal(self):
        theta = np.pi / 4
        u = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]], dtype=complex)
        k = measurement.KrausInstrument((u,))
        with pytest.raises(NotDiagonal):
            measurement.diagonal_kraus_vs_bayes(k, [0.5, 0.5], 0)

    def test_random_agreement(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 6))
            k = random_diagonal_instrument(rng, d, int(rng.integers(2, 5)))
            prior = rng.random(d) + 0.05
            prior /= prior.sum()
            probs = measurement.branch_probabilities(
                k, np.diag(prior).astype(complex))
            j = int(np.argmax(probs))
            kp, bp = measurement.diagonal_kraus_vs_bayes(k, prior, j)
            assert np.max(np.abs(kp - bp)) < 1e-12


class TestDataProbability:
    def test_deterministic_pure(self):
        v = coordinate_variable(3)
        m = measurement.StatisticalModel(np.arange(3.0), (0, 1, 2), np.eye(3))
        sigma = np.diag([0.0, 1.0, 0.0]).astype(complex)
        assert measurement.data_probability(sigma, m, v, 1) == pytest.approx(1.0)

    def test_binary_mixed(self):
        sigma = np.diag([0.5, 0.5]).astype(complex)
        assert measurement.data_probability(
            sigma, binary_model(), coordinate_variable(2), 0) == pytest.approx(0.5)

    def test_binary_point(self):
        sigma = np.diag([1.0, 0.0]).astype(complex)
        assert measurement.data_probability(
            sigma, binary_model(), coordinate_variable(2), 0) == pytest.approx(0.8)

    def test_sums_to_one(self, rng):
        d = 4
        m = random_model(rng, d, 6)
        v = coordinate_variable(d)
        sigma = random_density(rng, d)
        total = sum(measurement.data_probability(sigma, m, v, x)
                    for x in m.sample_points)
        assert total == pytest.approx(1.0, abs=1e-10)


class TestRandomCheck:
    def test_same_seed_same_report(self):
        report = measurement.random_check(20, 4)
        assert report == measurement.random_check(20, 4)
        assert report["cases"] == 20
        assert report["povm_completeness_residual"] < 1e-10
        assert report["kraus_probability_residual"] < 1e-10
        assert report["kraus_vs_bayes_residual"] < 1e-12

    @pytest.mark.parametrize("cases", [0, -2])
    def test_needs_a_case(self, cases):
        with pytest.raises(DomainError, match="at least one case"):
            measurement.random_check(cases, 1)


class TestFocusedLikelihood:
    def test_equal_effects_equal_evidence(self, rng):
        """Two different models with identical likelihood effects must be
        indistinguishable through every downstream computation."""
        v = coordinate_variable(2)
        m1 = binary_model()
        # a relabeled model with the same likelihood columns for x = 0
        m2 = measurement.StatisticalModel(
            [0.0, 1.0], ("lo", "hi"), [[0.8, 0.2], [0.2, 0.8]])
        f1 = measurement.likelihood_effect(m1, v, 0)
        f2 = measurement.likelihood_effect(m2, v, "lo")
        assert np.max(np.abs(f1 - f2)) < 1e-12
        sigma = random_density(rng, 2)
        q = measurement.evidence(sigma)
        assert q(f1) == q(f2)
        assert measurement.data_probability(sigma, m1, v, 0) == \
            measurement.data_probability(sigma, m2, v, "lo")
