import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avq import hilbert, measurement, variables
from avq.errors import (DimMismatch, NotEffect, NotFinite, NotHermitian, NotProjector,
                        NotUnitary)

from conftest import SX, SY, SZ, random_hermitian, random_state, random_unitary


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
            assert np.max(np.abs(variables.operator_of(dec) - h)) < 1e-8
            assert np.max(np.abs(dec.spectral_sum(np.ones(len(dec.sizes))) - np.eye(d))) < 1e-10
            for i, p in enumerate(dec.projectors):
                for j, q in enumerate(dec.projectors):
                    expect = p if i == j else 0.0
                    assert np.max(np.abs(p @ q - expect)) < 1e-10


class TestTensor:
    def test_identities(self):
        assert np.allclose(hilbert.tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_product(self):
        t = hilbert.tensor(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
        assert np.allclose(t, np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_disjoint_factors_commute(self):
        a = hilbert.tensor(SZ, np.eye(2))
        b = hilbert.tensor(np.eye(2), SX)
        assert np.max(np.abs(a @ b - b @ a)) < 1e-12

    def test_mixed_product_rule(self, rng):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        lhs = hilbert.tensor(a, np.eye(3)) @ hilbert.tensor(np.eye(2), b)
        assert np.max(np.abs(lhs - hilbert.tensor(a, b))) < 1e-10


class TestConjugate:
    def test_identity(self, rng):
        a = random_hermitian(rng, 3)
        assert np.allclose(hilbert.conjugate(np.eye(3), a), a)

    def test_pauli(self):
        assert np.allclose(hilbert.conjugate(SX, SZ), -SZ)

    def test_spectrum_preserved(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 8))
            u = random_unitary(rng, d)
            a = random_hermitian(rng, d)
            c = hilbert.conjugate(u, a)
            assert hilbert.hermitian_residual(c) <= 1e-9
            assert np.max(np.abs(np.linalg.eigvalsh(c)
                                 - np.linalg.eigvalsh(a))) < 1e-8

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            hilbert.conjugate(2.0 * np.eye(2), SZ)


class TestTraceProduct:
    def test_identity_pair(self):
        for d in (1, 2, 5):
            assert abs(hilbert.trace_product(np.eye(d), np.eye(d)) - d) < 1e-12

    def test_state_projector(self):
        proj = np.diag([1.0, 0.0])
        assert abs(hilbert.trace_product(np.eye(2) / 2, proj) - 0.5) < 1e-12

    def test_pauli_orthogonality(self):
        assert abs(hilbert.trace_product(SX, SY)) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            hilbert.trace_product(np.eye(2), np.eye(3))

    def test_cyclicity(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 8))
            a, b, c = (random_hermitian(rng, d) for _ in range(3))
            abc = hilbert.trace_product(a @ b, c)
            cab = hilbert.trace_product(c @ a, b)
            assert abs(abc - cab) < 1e-9


class TestPredicates:
    def test_projector_checks(self, rng):
        v = random_state(rng, 4)
        p = np.outer(v, np.conj(v))
        hilbert.require_projector(p)
        with pytest.raises(NotProjector):
            hilbert.require_projector(0.5 * p)

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
        lambda m: hilbert.trace_product(np.eye(2), m),
        lambda m: hilbert.trace_product(m, np.eye(2)),
        measurement.evidence(np.eye(2) / 2),
    ], ids=["require_density", "require_hermitian", "trace_product_right",
            "trace_product_left", "evidence_call"])
    def test_operator_rejects_non_finite(self, check, bad):
        m = np.diag([bad, 1.0])
        with pytest.raises(NotFinite, match="operator entries must be finite"):
            check(m)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 8))
def test_eig_roundtrip_property(seed, d):
    g = np.random.default_rng(seed)
    h = random_hermitian(g, d)
    dec = decompose(h)
    assert np.max(np.abs(variables.operator_of(dec) - h)) < 1e-8


class TestSerialization:
    def test_operator_roundtrip(self, rng):
        a = random_hermitian(rng, 3)
        assert np.allclose(hilbert.operator_from_dict(hilbert.operator_to_dict(a)), a)

    def test_state_roundtrip(self, rng):
        s = random_state(rng, 5)
        assert np.allclose(hilbert.state_from_dict(hilbert.state_to_dict(s)), s)
