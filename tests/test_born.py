import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avq import born, hilbert, measurement, spin, variables
from avq.errors import DimMismatch, DomainError, NotMaximal, NotProjector

from conftest import (SX, random_density, random_instrument, random_maximal_variable,
                      random_state, random_unitary)

TOL = hilbert.RESIDUAL_TOL


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


def born_rule(sigma, f) -> float:
    """born.probabilities for one effect, with sigma and F checked first as
    every library caller checks them."""
    return float(born.probabilities(hilbert.require_density(sigma),
                                    hilbert.require_effect(f)[None])[0])


def pure(s):
    s = hilbert.as_state(s)
    return np.outer(s, np.conj(s))


class TestBornProjector:
    def test_full_projector(self, rng):
        s = random_state(rng, 3)
        assert born_rule(pure(s), np.eye(3)) == pytest.approx(1.0)

    def test_own_projector(self, rng):
        s = random_state(rng, 3)
        assert born_rule(pure(s), pure(s)) == pytest.approx(1.0)

    def test_z_vs_x(self):
        plus_x = np.array([1.0, 1.0]) / np.sqrt(2.0)
        p = born_rule(pure([1.0, 0.0]), np.outer(plus_x, plus_x))
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_rejects_non_projector(self):
        with pytest.raises(NotProjector):
            hilbert.require_projector(0.5 * np.eye(2))


class TestBornDensity:
    def test_maximally_mixed(self):
        p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        assert born_rule(np.eye(4) / 4, p) == pytest.approx(0.5)

    def test_pure_reduces_to_projector(self):
        plus_x = np.array([1.0, 1.0]) / np.sqrt(2.0)
        sigma = np.diag([1.0, 0.0]).astype(complex)
        assert born_rule(sigma, np.outer(plus_x, plus_x)) == \
            pytest.approx(0.5, abs=1e-12)

    def test_diagonal(self):
        sigma = np.diag([0.7, 0.3]).astype(complex)
        assert born_rule(sigma, np.diag([1.0, 0.0])) == pytest.approx(0.7)

    def test_affine_in_state(self, rng):
        s1, s2 = random_density(rng, 3), random_density(rng, 3)
        p = pure(random_state(rng, 3))
        lam = 0.3
        mix = born_rule(lam * s1 + (1 - lam) * s2, p)
        assert mix == pytest.approx(lam * born_rule(s1, p) + (1 - lam) * born_rule(s2, p),
                                    abs=1e-12)


class TestLikelihoodDensity:
    def test_identity(self, rng):
        assert born_rule(random_density(rng, 3), np.eye(3)) == pytest.approx(1.0)

    def test_half_identity(self, rng):
        assert born_rule(random_density(rng, 4), 0.5 * np.eye(4)) == pytest.approx(0.5)

    def test_diagonal_effect(self):
        f = np.diag([0.8, 0.2]).astype(complex)
        sigma = np.diag([0.5, 0.5]).astype(complex)
        assert born_rule(sigma, f) == pytest.approx(0.5)


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


def correlation(joint) -> float:
    """E[alpha beta], the signed sum of a 2x2 joint law of outcome signs."""
    return float((joint * np.outer(born.OUTCOMES, born.OUTCOMES)).sum())


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
        assert correlation(born.singlet_joint([0, 0, 1], b)) == \
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
            assert abs(correlation(born.singlet_joint(a, b)) + float(a @ b)) < 1e-10


def random_effects(rng, d):
    """A random complete (n, d, d) effect stack, 1 <= n <= 3."""
    return random_instrument(rng, d, int(rng.integers(1, 4))).effects


def kron_reference(psi, fa, fb) -> np.ndarray:
    """[i, j] = Re <psi| F_i (x) G_j |psi> with the dense Kronecker product."""
    return np.array([[np.vdot(psi, np.kron(f, g) @ psi).real for g in fb] for f in fa])


class TestJoint:
    """born.joint, the Born law of local questions on one pure state."""

    def test_one_party_is_the_born_rule(self, rng):
        for d in range(1, 9):
            psi, f = random_state(rng, d), random_effects(rng, d)
            assert np.max(np.abs(born.joint(psi, f) - born.probabilities(pure(psi), f))) \
                < TOL

    def test_marginals_are_the_reduced_laws(self, rng):
        for _ in range(20):
            da, db = (int(n) for n in rng.integers(1, 5, size=2))
            psi = random_state(rng, da * db)
            fa, fb = random_effects(rng, da), random_effects(rng, db)
            p = born.joint(psi, fa, fb)
            t = psi.reshape(da, db)
            rho_a = np.einsum("ab,cb->ac", t, np.conj(t))
            rho_b = np.einsum("ab,ac->bc", t, np.conj(t))
            assert np.max(np.abs(p.sum(1) - born.probabilities(rho_a, fa))) < TOL
            assert np.max(np.abs(p.sum(0) - born.probabilities(rho_b, fb))) < TOL

    def test_product_state_factorizes(self, rng):
        """On psi_A (x) psi_B (x) ... the law is the outer product of the
        one-party laws, for one to three parties."""
        for k in (1, 2, 3):
            dims = [int(n) for n in rng.integers(1, 4, size=k)]
            states = [random_state(rng, d) for d in dims]
            stacks = [random_effects(rng, d) for d in dims]
            psi, law = np.ones(1), np.ones(())
            for s, f in zip(states, stacks):
                psi = np.multiply.outer(psi, s).ravel()
                law = np.multiply.outer(law, born.joint(s, f))
            assert np.max(np.abs(born.joint(psi, *stacks) - law)) < TOL

    def test_ghz_signs_multiply_to_one(self):
        """(|000> + |111>)/sqrt2 with sigma_x on each qubit: every outcome
        triple with sign product -1 has probability zero, so E[xxx] = 1."""
        ghz = np.zeros(8, dtype=complex)
        ghz[[0, 7]] = 1.0 / np.sqrt(2.0)
        x = np.stack([(np.eye(2) + s * SX) / 2 for s in born.OUTCOMES])
        p = born.joint(ghz, x, x, x)
        signs = np.multiply.outer(np.multiply.outer(born.OUTCOMES, born.OUTCOMES),
                                  born.OUTCOMES)
        assert np.max(np.abs(p[signs < 0])) < TOL
        assert np.max(np.abs(p[signs > 0] - 0.25)) < TOL

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), da=st.integers(1, 4), db=st.integers(1, 4))
    def test_equals_the_kronecker_reference(self, seed, da, db):
        rng = np.random.default_rng(seed)
        psi = random_state(rng, da * db)
        fa, fb = random_effects(rng, da), random_effects(rng, db)
        assert np.max(np.abs(born.joint(psi, fa, fb) - kron_reference(psi, fa, fb))) < TOL


UP = np.diag([1.0, 0.0]).astype(complex)
OVER = np.diag([1.0 + 5e-11, 0.0]).astype(complex)  # an effect the checks accept


def over_instrument():
    return measurement.KrausInstrument(np.stack([np.sqrt(OVER), np.diag([0.0, 1.0])]))


def over_model():
    """Likelihoods 1 + 5e-11 and -5e-11 for sample point 0, so its
    likelihood effect on the z basis is OVER."""
    return measurement.StatisticalModel([0.0, 1.0], (0, 1), [[1.0 + 5e-11, 0.0],
                                                             [-5e-11, 1.0]])


def z_basis():
    return variables.AccessibleVariable.from_basis("z", [0.0, 1.0], np.eye(2), [1, 1])


def over_basis():
    """The basis sqrt(1 + 5e-11) I, whose V^dag V - I the checks accept."""
    return variables.AccessibleVariable.from_basis("v", [0.0, 1.0],
                                                   np.sqrt(1.0 + 5e-11) * np.eye(2), [1, 1])


class TestOnePolicy:
    """Every Born probability goes through one snap into [0, 1]."""

    @pytest.mark.parametrize("entry", [
        lambda: born.probabilities(UP, OVER[None])[0],
        lambda: measurement.evidence(UP)(OVER),
        lambda: measurement.kraus_update(over_instrument(), UP, 0)[0],
        lambda: measurement.branch_probabilities(over_instrument(), UP)[0],
        lambda: measurement.evidence(UP)(measurement.likelihood_effect(over_model(),
                                                                       z_basis(), 0)),
        lambda: born.transition_probability(over_basis(), 0, over_basis(), 0),
        lambda: born.transition_table(over_basis(), over_basis()).matrix[0, 0],
    ], ids=["probabilities", "evidence", "kraus_update", "branch_probabilities",
            "likelihood_evidence", "transition_probability", "transition_table"])
    def test_an_accepted_overshoot_snaps_to_one(self, entry):
        assert entry() == 1.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8),
           reach=st.tuples(*[st.floats(-0.99, 0.99)] * 5), aligned=st.booleans())
    def test_accepted_input_gives_a_probability(self, seed, d, reach, aligned):
        """Inputs at the edge of every check they pass (each residual up to
        0.99 of its tolerance) give a value in [0, 1], or a DomainError, from
        every Born entry point; never an AssertionError."""
        trace, least, over, skew, norm = (r * TOL for r in reach)
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, d)
        w = u if aligned else random_unitary(rng, d)
        lam = rng.random(d) ** 4
        lam[-1] = 0.0
        lam = lam / lam.sum() * (1.0 + trace + abs(least))
        lam[-1] = -abs(least)
        sigma = u @ np.diag(lam) @ hilbert.dagger(u) + np.triu(np.full((d, d), skew), 1)
        f_values = rng.random(d)
        f_values[0], f_values[-1] = 1.0 + over, -abs(least)
        f = w @ np.diag(f_values) @ hilbert.dagger(w) + np.triu(np.full((d, d), skew), 1)
        q = np.clip(f_values, 0.0, None)
        inst = measurement.KrausInstrument(np.stack([
            w @ np.diag(np.sqrt(q)) @ hilbert.dagger(w),
            w @ np.diag(np.sqrt(np.clip(1.0 - q, 0.0, None))) @ hilbert.dagger(w)]))
        lik = np.stack([f_values, 1.0 - f_values])
        model = measurement.StatisticalModel(np.arange(d, dtype=float), (0, 1), lik)
        va, vb = (variables.AccessibleVariable.from_basis(
            name, np.arange(d, dtype=float), np.sqrt(1.0 + abs(norm)) * v, np.ones(d, int))
            for name, v in (("a", u), ("b", w)))
        a = spin.unit(rng.normal(size=3)) * (1.0 + norm * 1e-2)
        b = a if aligned else -a
        sm = hilbert.require_density(sigma)
        entries = [
            lambda: born.probabilities(sm, hilbert.require_effect(f)[None]),
            lambda: born.probabilities(sm, measurement.Povm([f, np.eye(d) - f]).effects),
            lambda: measurement.evidence(sigma)(f),
            lambda: measurement.branch_probabilities(inst, sigma),
            lambda: measurement.kraus_update(inst, sigma, 0)[0],
            lambda: measurement.evidence(sigma)(measurement.likelihood_effect(model, va, 0)),
            lambda: born.transition_probability(va, 0, vb, 0),
            lambda: born.transition_table(va, vb).matrix,
            lambda: born.spin_half_transition(a, b, +1),
            lambda: born.spin_half_transition(a, b, -1),
            lambda: born.singlet_joint(a, b),
        ]
        for entry in entries:
            try:
                p = np.asarray(entry())
            except DomainError:
                continue
            assert np.all((p >= 0.0) & (p <= 1.0))
