import numpy as np
import pytest

from avq import born, hilbert, spin, variables
from avq.errors import DimMismatch, DomainError, NotMaximal, NotProjector

from conftest import random_density, random_maximal_variable, random_state


def direction_variable(two_r, a, name):
    return variables.AccessibleVariable.from_operator(
        name, spin.component_operator(two_r, a))


class TestTransitionProbability:
    def test_same_variable_identity_table(self, rng):
        v = random_maximal_variable(rng, 4)
        t = born.transition_table(v, v)
        assert np.max(np.abs(t.matrix - np.eye(4))) < 1e-10

    def test_z_vs_x_half(self):
        vz = direction_variable(1, [0, 0, 1], "z")
        vx = direction_variable(1, [1, 0, 0], "x")
        t = born.transition_table(vz, vx)
        assert np.max(np.abs(t.matrix - 0.5)) < 1e-10

    def test_sixty_degree_tilt(self):
        vz = direction_variable(1, [0, 0, 1], "z")
        tilt = [np.sin(np.pi / 3), 0.0, np.cos(np.pi / 3)]
        vb = direction_variable(1, tilt, "b")
        # +1/2 answers sit at index 1 (values ascend)
        p = born.transition_probability(vz, 1, vb, 1)
        assert p == pytest.approx(0.75, abs=1e-10)

    def test_doubly_stochastic(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 7))
            va = random_maximal_variable(rng, d, "a")
            vb = random_maximal_variable(rng, d, "b")
            t = born.transition_table(va, vb)
            assert np.max(np.abs(t.matrix.sum(axis=0) - 1.0)) < 1e-10
            assert np.max(np.abs(t.matrix.sum(axis=1) - 1.0)) < 1e-10

    def test_rejects_degenerate(self):
        v = variables.AccessibleVariable("c", [1.0], (np.eye(2, dtype=complex),))
        with pytest.raises(NotMaximal):
            born.transition_probability(v, 0, v, 0)

    def test_dim_mismatch(self, rng):
        va = random_maximal_variable(rng, 2, "a")
        vb = random_maximal_variable(rng, 3, "b")
        with pytest.raises(DimMismatch):
            born.transition_probability(va, 0, vb, 0)


class TestBornProjector:
    def test_full_projector(self, rng):
        s = random_state(rng, 3)
        assert born.born_projector(s, np.eye(3)) == pytest.approx(1.0)

    def test_own_projector(self, rng):
        s = random_state(rng, 3)
        assert born.born_projector(s, np.outer(s, np.conj(s))) == pytest.approx(1.0)

    def test_z_vs_x(self):
        plus_x = np.array([1.0, 1.0]) / np.sqrt(2.0)
        p = born.born_projector([1.0, 0.0], np.outer(plus_x, plus_x))
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_rejects_non_projector(self):
        with pytest.raises(NotProjector):
            born.born_projector([1.0, 0.0], 0.5 * np.eye(2))


class TestBornDensity:
    def test_maximally_mixed(self):
        p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        assert born.born_density(np.eye(4) / 4, p) == pytest.approx(0.5)

    def test_pure_reduces_to_projector(self):
        plus_x = np.array([1.0, 1.0]) / np.sqrt(2.0)
        sigma = np.diag([1.0, 0.0]).astype(complex)
        assert born.born_density(sigma, np.outer(plus_x, plus_x)) == \
            pytest.approx(0.5, abs=1e-12)

    def test_diagonal(self):
        sigma = np.diag([0.7, 0.3]).astype(complex)
        assert born.born_density(sigma, np.diag([1.0, 0.0])) == pytest.approx(0.7)

    def test_affine_in_state(self, rng):
        s1, s2 = random_density(rng, 3), random_density(rng, 3)
        v = random_state(rng, 3)
        p = np.outer(v, np.conj(v))
        lam = 0.3
        mix = born.born_density(lam * s1 + (1 - lam) * s2, p)
        assert mix == pytest.approx(lam * born.born_density(s1, p)
                                    + (1 - lam) * born.born_density(s2, p),
                                    abs=1e-12)


class TestLikelihoodDensity:
    def test_identity(self, rng):
        assert born.likelihood_density(random_density(rng, 3), np.eye(3)) == \
            pytest.approx(1.0)

    def test_half_identity(self, rng):
        assert born.likelihood_density(random_density(rng, 4), 0.5 * np.eye(4)) == \
            pytest.approx(0.5)

    def test_diagonal_effect(self):
        f = np.diag([0.8, 0.2]).astype(complex)
        sigma = np.diag([0.5, 0.5]).astype(complex)
        assert born.likelihood_density(sigma, f) == pytest.approx(0.5)


class TestSpinHalfTransition:
    def test_same_direction(self):
        assert born.spin_half_transition([0, 0, 1], [0, 0, 1], +1) == 1.0

    def test_orthogonal(self):
        for sign in (+1, -1):
            assert born.spin_half_transition([0, 0, 1], [1, 0, 0], sign) == \
                pytest.approx(0.5)

    def test_rejects_nan_direction(self):
        with pytest.raises(ValueError):
            born.spin_half_transition([np.nan, 0, 1], [0, 0, 1], +1)

    def test_medical_geometry(self):
        a = spin.unit([-1.0, -1.0, -1.0])
        b = spin.unit([-1.0, 1.0, 1.0])
        assert float(a @ b) == pytest.approx(-1.0 / 3.0)
        assert born.spin_half_transition(a, b, +1) == pytest.approx(1.0 / 3.0)

    def test_matches_abstract_route(self, rng):
        for _ in range(100):
            a = spin.unit(rng.normal(size=3))
            b = spin.unit(rng.normal(size=3))
            va = direction_variable(1, a, "a")
            vb = direction_variable(1, b, "b")
            # +1/2 answers at index 1 (ascending values)
            p = born.transition_probability(va, 1, vb, 1)
            assert abs(p - born.spin_half_transition(a, b, +1)) < 1e-10


class TestCrossval:
    def test_same_seed_same_report(self):
        report = born.crossval(25, 3)
        assert report == born.crossval(25, 3)
        assert report["pairs"] == 25 and report["max_deviation"] < 1e-10

    @pytest.mark.parametrize("pairs", [0, -1])
    def test_needs_a_pair(self, pairs):
        with pytest.raises(DomainError, match="at least one pair"):
            born.crossval(pairs, 1)


class TestSingletJoint:
    def test_perfect_anticorrelation(self, rng):
        a = spin.unit(rng.normal(size=3))
        joint = born.singlet_joint(a, a)
        assert joint[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert joint[1, 1] == pytest.approx(0.0, abs=1e-12)
        assert joint[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_uniform(self):
        joint = born.singlet_joint([0, 0, 1], [1, 0, 0])
        assert np.max(np.abs(joint - 0.25)) < 1e-12

    def test_forty_five_degrees(self):
        b = [np.sin(np.pi / 4), 0.0, np.cos(np.pi / 4)]
        assert born.singlet_correlation([0, 0, 1], b) == \
            pytest.approx(-np.sqrt(2.0) / 2.0, abs=1e-10)

    def test_normalization_and_marginals(self, rng):
        a = spin.unit(rng.normal(size=3))
        b = spin.unit(rng.normal(size=3))
        joint = born.singlet_joint(a, b)
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(joint.sum(axis=0) - 0.5)) < 1e-10
        assert np.max(np.abs(joint.sum(axis=1) - 0.5)) < 1e-10

    def test_correlation_is_minus_dot(self, rng):
        for _ in range(200):
            a = spin.unit(rng.normal(size=3))
            b = spin.unit(rng.normal(size=3))
            assert abs(born.singlet_correlation(a, b) + float(a @ b)) < 1e-10


class TestCsvExport:
    def test_transition_table_csv(self, tmp_path, rng):
        va = random_maximal_variable(rng, 2, "a")
        vb = random_maximal_variable(rng, 2, "b")
        t = born.transition_table(va, vb)
        path = tmp_path / "table.csv"
        t.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("a\\b")
