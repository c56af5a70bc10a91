import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avq import hilbert, measurement, variables
from avq.errors import BadDistribution, NotEffect, NotFinite, NotHermitian, NotProjector

from conftest import SX, SZ, random_hermitian, random_state


def decompose(h):
    """eig_hermitian's merged levels, through the variable built on them."""
    return variables.AccessibleVariable.from_operator("h", h)


class TestEigHermitian:
    def test_diagonal(self):
        dec = decompose(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(dec.values, [1.0, 2.0, 3.0])
        for k, p in enumerate(dec.projectors):
            e = np.zeros(3)
            e[k] = 1.0
            assert np.allclose(p, np.outer(e, e))

    def test_pauli_x(self):
        dec = decompose(SX)
        assert np.allclose(dec.values, [-1.0, 1.0])
        eye = np.eye(2)
        assert np.allclose(dec.projectors[0], (eye - SX) / 2, atol=1e-12)
        assert np.allclose(dec.projectors[1], (eye + SX) / 2, atol=1e-12)

    def test_identity_merges(self):
        dec = decompose(np.eye(4))
        assert len(dec.values) == 1
        assert np.allclose(dec.values, [1.0])
        assert np.allclose(dec.projectors[0], np.eye(4))

    def test_merging_does_not_chain(self):
        # gaps of 0.9e-8 each fall under the 1e-8 merge tolerance, but the
        # whole spectrum spans 1.8e-6: levels pair up instead of collapsing
        dec = decompose(np.diag(np.arange(200) * 0.9e-8))
        assert len(dec.values) == 100
        assert dec.sizes.tolist() == [2] * 100
        for p in dec.projectors:
            w = np.diag(p).real > 0.5
            spread = np.ptp(np.arange(200)[w] * 0.9e-8)
            assert spread < hilbert.EIGEN_MERGE_TOL

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_random_reconstruction(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 13))
            h = random_hermitian(rng, d)
            dec = decompose(h)
            assert np.max(np.abs(dec.spectral_sum(dec.values) - h)) < 1e-8
            assert np.max(np.abs(dec.spectral_sum(np.ones(len(dec.sizes))) - np.eye(d))) < 1e-10
            for i, p in enumerate(dec.projectors):
                for j, q in enumerate(dec.projectors):
                    expect = p if i == j else 0.0
                    assert np.max(np.abs(p @ q - expect)) < 1e-10


class TestPredicates:
    def test_projector_checks(self, rng):
        """A variable checks its own projectors."""
        v = random_state(rng, 4)
        p = np.outer(v, np.conj(v))
        variables.AccessibleVariable("v", [0.0, 1.0], (p, np.eye(4) - p))
        with pytest.raises(NotProjector):
            variables.AccessibleVariable("v", [0.0, 1.0], (0.5 * p, np.eye(4) - 0.5 * p))

    def test_effect_bounds(self):
        hilbert.require_effect(0.3 * np.eye(2))
        for bad in (1.5 * np.eye(2), -0.1 * np.eye(2)):
            with pytest.raises(NotEffect):
                hilbert.require_effect(bad)

    def test_density(self, rng):
        hilbert.require_density(np.eye(3) / 3)
        with pytest.raises(Exception):
            hilbert.require_density(np.eye(3))

    def test_state_norm(self):
        with pytest.raises(ValueError):
            hilbert.as_state([1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0)])
    def test_state_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            hilbert.as_state([bad, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("check", [
        hilbert.require_density,
        hilbert.require_hermitian,
        hilbert.require_effect,
        hilbert.require_unitary,
        lambda u: variables.conjugated_variable(
            variables.AccessibleVariable.from_operator("z", SZ), u, lambda x: x),
        measurement.Evidence(np.eye(2) / 2),
    ], ids=["require_density", "require_hermitian", "require_effect", "require_unitary",
            "conjugated_variable_unitary", "evidence_call"])
    def test_operator_rejects_non_finite(self, check, bad):
        m = np.diag([bad, 1.0])
        with pytest.raises(NotFinite, match="operator entries must be finite"):
            check(m)


class TestCompletenessResidual:
    def test_value(self):
        stack = np.stack([np.diag([1.0, 0.25]), np.diag([0.0, 0.5])]).astype(complex)
        assert hilbert.completeness_residual(stack) == 0.25

    def test_povm_and_instrument_errors_carry_it(self):
        stack = np.stack([np.diag([0.5, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        with pytest.raises(BadDistribution) as povm:
            measurement.Povm(stack)
        with pytest.raises(BadDistribution) as kraus:
            measurement.KrausInstrument(np.sqrt(stack))
        assert povm.value.residual == hilbert.completeness_residual(stack) == 0.5
        assert kraus.value.residual == hilbert.completeness_residual(np.sqrt(stack) ** 2)

    def test_random_check_reports_it(self):
        """The reported POVM residual is the worst completeness_residual of
        the random models' POVMs, rebuilt here from the same draws."""
        report = measurement.random_check(5, 11)
        draws = np.random.default_rng(11)
        worst = 0.0
        for _ in range(5):
            d, nx = int(draws.integers(2, 6)), int(draws.integers(2, 5))
            lik = draws.random((nx, d))
            lik /= lik.sum(axis=0, keepdims=True)
            draws.random(d)  # the prior
            var = variables.AccessibleVariable("v", np.arange(d, dtype=float),
                                               tuple(np.diag(e).astype(complex)
                                                     for e in np.eye(d)))
            model = measurement.StatisticalModel(np.arange(d, dtype=float), tuple(range(nx)),
                                                 lik)
            worst = max(worst, hilbert.completeness_residual(
                measurement.povm_of_model(model, var).effects))
        assert report["povm_completeness_residual"] == worst


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 8))
def test_eig_roundtrip_property(seed, d):
    g = np.random.default_rng(seed)
    h = random_hermitian(g, d)
    dec = decompose(h)
    assert np.max(np.abs(dec.spectral_sum(dec.values) - h)) < 1e-8


class TestSerialization:
    def test_operator_roundtrip(self, rng):
        a = random_hermitian(rng, 3)
        assert np.allclose(hilbert.operator_from_dict(hilbert.operator_to_dict(a)), a)
