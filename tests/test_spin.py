import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avq import hilbert, spin, variables
from avq.errors import NotFinite


def random_direction(rng):
    return spin.unit(rng.normal(size=3))


def inline_residuals(two_r):
    """Max-norm residuals of the commutation relations, the Casimir and the
    2 pi turn exp(2 pi i A_z) = (-1)^(2r) I, written out independently of
    spin.algebra_residuals."""
    ops = spin.spin_operators(two_r)
    c1 = ops.az @ ops.plus - ops.plus @ ops.az - ops.plus
    c2 = ops.az @ ops.minus - ops.minus @ ops.az + ops.minus
    c3 = ops.minus @ ops.plus - ops.plus @ ops.minus + 2.0 * ops.az
    r = ops.r
    casimir = ops.casimir() - r * (r + 1) * np.eye(ops.dim)
    turn = np.diag(np.exp(2j * np.pi * ops.m_values)) - (-1) ** two_r * np.eye(ops.dim)
    return (max(np.max(np.abs(c)) for c in (c1, c2, c3)),
            np.max(np.abs(casimir)), np.max(np.abs(turn)))


class TestSpinOperators:
    def test_half_az(self):
        ops = spin.spin_operators(1)
        assert np.allclose(ops.az, np.diag([0.5, -0.5]))

    def test_spin_one_casimir(self):
        ops = spin.spin_operators(2)
        assert np.max(np.abs(ops.casimir() - 2.0 * np.eye(3))) < 1e-10

    def test_spin_zero(self):
        ops = spin.spin_operators(0)
        for m in (ops.ax, ops.ay, ops.az, ops.plus, ops.minus):
            assert m.shape == (1, 1) and abs(m[0, 0]) == 0.0

    def test_commutation_all_r(self):
        for two_r in range(21):
            assert inline_residuals(two_r)[0] < 1e-12

    def test_casimir_all_r(self):
        for two_r in range(21):
            assert inline_residuals(two_r)[1] < 1e-10

    @pytest.mark.parametrize("two_r", range(21))
    def test_algebra_residuals_match_inline(self, two_r):
        report = spin.algebra_residuals(two_r)
        comm, cas, turn = inline_residuals(two_r)
        assert report["full_turn_sign"] == (-1.0) ** two_r
        assert report["commutation_residual"] == pytest.approx(comm, abs=1e-12)
        assert report["casimir_residual"] == pytest.approx(cas, abs=1e-12)
        assert report["full_turn_residual"] == pytest.approx(turn, abs=1e-12)
        assert turn < 1e-10

    def test_eigen_relation(self):
        ops = spin.spin_operators(3)
        assert np.allclose(np.diag(ops.az).real, ops.m_values)


def fresh_ladder(two_r):
    """The ladder built entry by entry, without ``_bands``."""
    r = two_r / 2.0
    d = two_r + 1
    m = r - np.arange(d)
    plus = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        plus[k - 1, k] = np.sqrt(r * (r + 1) - m[k] * (m[k] + 1))
    minus = plus.conj().T
    return ((plus + minus) / 2.0, (plus - minus) / 2.0j, np.diag(m).astype(complex),
            plus, minus)


class TestCachedLadder:
    @pytest.mark.parametrize("two_r", [0, 1, 2, 3, 4, 7, 20, 95])
    def test_equals_fresh_build(self, two_r):
        ops = spin.spin_operators(two_r)
        for got, want in zip((ops.ax, ops.ay, ops.az, ops.plus, ops.minus),
                             fresh_ladder(two_r)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()  # signed zeros too

    @pytest.mark.parametrize("two_r", [0, 3, 40])
    def test_a_write_does_not_reach_the_next_call(self, two_r):
        ops = spin.spin_operators(two_r)
        for a in (ops.ax, ops.ay, ops.az, ops.plus, ops.minus):
            a[0, 0] = 7.0
        again = spin.spin_operators(two_r)
        for got, want in zip((again.ax, again.ay, again.az, again.plus, again.minus),
                             fresh_ladder(two_r)):
            assert got.tobytes() == want.tobytes()

    def test_derived_operators_are_writable(self):
        comp = spin.component_operator(3, [0.0, 0.0, 1.0])
        comp[0, 0] = 0.0
        assert spin.spin_operators(3).az[0, 0] == 1.5

    @pytest.mark.parametrize("two_r", [-1, 1.5, -0.5])
    def test_invalid_two_r_still_raises(self, two_r):
        with pytest.raises(ValueError):
            spin.spin_operators(two_r)


class TestRotation:
    def test_zero_angle(self):
        assert np.allclose(spin.rotation(2, [0.0, 0.0, 1.0], 0.0), np.eye(3))

    def test_unitary(self, rng):
        for _ in range(10):
            u = spin.rotation(3, random_direction(rng), rng.uniform(0, 4 * np.pi))
            hilbert.require_unitary(u)

    def test_double_valued_half_integer(self, rng):
        n = random_direction(rng)
        assert np.max(np.abs(spin.rotation(1, n, 2 * np.pi) + np.eye(2))) < 1e-10

    def test_single_valued_integer(self, rng):
        n = random_direction(rng)
        assert np.max(np.abs(spin.rotation(2, n, 2 * np.pi) - np.eye(3))) < 1e-10

    def test_conjugation_covariance(self, rng):
        for two_r in (1, 2, 3):
            for _ in range(5):
                n = random_direction(rng)
                a = random_direction(rng)
                omega = rng.uniform(0, 2 * np.pi)
                u = spin.rotation(two_r, n, omega)
                lhs = hilbert.conjugate(u, spin.component_operator(two_r, a))
                rhs = spin.component_operator(
                    two_r, spin.rotation_matrix(n, omega) @ a)
                assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestComponentOperator:
    def test_z_axis(self):
        for two_r in (1, 2, 4):
            assert np.allclose(spin.component_operator(two_r, [0, 0, 1]),
                               spin.spin_operators(two_r).az)

    def test_x_axis_half(self):
        w = np.linalg.eigvalsh(spin.component_operator(1, [1, 0, 0]))
        assert np.allclose(w, [-0.5, 0.5])

    def test_spectrum_direction_independent(self, rng):
        for two_r in (1, 2, 3):
            expect = spin.spin_operators(two_r).m_values[::-1]
            for _ in range(5):
                w = np.linalg.eigvalsh(
                    spin.component_operator(two_r, random_direction(rng)))
                assert np.max(np.abs(w - expect)) < 1e-9

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            spin.component_operator(1, [1.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            spin.component_operator(1, [np.nan, 0.0, 1.0])


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(two_r=st.integers(0, 40),
       v=st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                               st.floats(-1.0, 1.0))] * 3))
def test_component_is_the_dense_ladder_sum(two_r, v):
    """Across CACHED_DIM, and for directions with signed zero components,
    the component filled from its diagonals has the bits of the dense sum
    n0 A_x + n1 A_y + n2 A_z, signed zeros included, so the variable built
    from it is the same to the byte."""
    assume(np.linalg.norm(v) > 1e-3)
    n = spin.unit(v)
    ax, ay, az, _, _ = fresh_ladder(two_r)
    dense = n[0] * ax + n[1] * ay + n[2] * az
    comp = spin.component_operator(two_r, n)
    assert np.array_equal(comp, dense) and same_bytes(comp, dense)
    got, want = (variables.AccessibleVariable.from_operator("a", h) for h in (comp, dense))
    for field in ("values", "basis", "sizes"):
        assert same_bytes(getattr(got, field), getattr(want, field))


class TestCoherentState:
    def test_lowest_weight_eigenvector(self, rng):
        for two_r in (1, 2, 3, 4):
            r = two_r / 2.0
            for _ in range(10):
                a = random_direction(rng)
                v = spin.coherent_state(two_r, a)
                res = spin.component_operator(two_r, a) @ v + r * v
                assert np.max(np.abs(res)) < 1e-9

    def test_x_axis_half(self):
        v = spin.coherent_state(1, [1.0, 0.0, 0.0])
        assert np.allclose(v, np.array([1.0, -1.0]) / np.sqrt(2.0), atol=1e-12)

    def test_canonical_phase(self, rng):
        v = spin.coherent_state(3, random_direction(rng))
        lead = v[np.nonzero(np.abs(v) > 1e-12)[0][0]]
        assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_antipodal_orthogonal_half(self, rng):
        a = random_direction(rng)
        v1 = spin.coherent_state(1, a)
        v2 = spin.coherent_state(1, -a)
        assert abs(np.vdot(v1, v2)) < 1e-10


def rotation_route_coherent_state(two_r, a):
    """Reference: rotate |r;-r> along the geodesic from z to a, then fix the
    phase (the construction the closed form replaced)."""
    av = spin.as_direction(a)
    lowest = np.zeros(two_r + 1, dtype=complex)
    lowest[-1] = 1.0
    axis = np.cross(av, [0.0, 0.0, 1.0])
    nrm = np.linalg.norm(axis)
    if nrm < 1e-14:
        if av[2] > 0:
            return spin._canonical_phase(lowest)
        axis = np.array([1.0, 0.0, 0.0])
    else:
        axis = axis / nrm
    u = spin.rotation(two_r, axis, np.arccos(np.clip(av[2], -1.0, 1.0)))
    return spin._canonical_phase(u @ lowest)


class TestClosedFormMatchesRotationRoute:
    def test_projectors_and_phase(self, rng):
        for two_r in range(41):
            dirs = [random_direction(rng) for _ in range(8)]
            dirs += [np.array(a, dtype=float) for a in
                     ([0, 0, 1], [0, 0, -1], [1, 0, 0], [0, -1, 0])]
            for a in dirs:
                v, ref = spin.coherent_state(two_r, a), rotation_route_coherent_state(two_r, a)
                assert np.max(np.abs(np.outer(v, v.conj())
                                     - np.outer(ref, ref.conj()))) < 1e-12
                # below a 1e-6 leading amplitude the reference phase is rounding noise
                if np.abs(ref)[np.abs(ref) > 1e-12][0] > 1e-6:
                    assert np.max(np.abs(v - ref)) < 1e-9

    def test_rows_are_the_states(self, rng):
        dirs = np.array([random_direction(rng) for _ in range(20)])
        rows = spin.coherent_states(5, dirs)
        assert rows.shape == (20, 6)
        for row, a in zip(rows, dirs):
            assert np.max(np.abs(spin._canonical_phase(row)
                                 - spin.coherent_state(5, a))) < 1e-15

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            spin.coherent_states(2, [[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            spin.coherent_states(2, [[np.nan, 0.0, 1.0]])


class TestResolutionDeviation:
    def test_half_order_16(self):
        assert spin.resolution_deviation(1, 16) < 1e-10

    def test_spin_two_order_32(self):
        assert spin.resolution_deviation(4, 32) < 1e-8

    @pytest.mark.parametrize("two_r,order", [(1, 16), (4, 32), (1, 24), (2, 24),
                                             (3, 24), (4, 24), (20, 24), (40, 48)])
    def test_resolves_identity(self, two_r, order):
        assert spin.resolution_deviation(two_r, order) < 1e-12

    def test_trivial(self):
        assert spin.resolution_deviation(0, 1) == 0.0

    @pytest.mark.parametrize("two_r,order", [(1, 3), (1, 16), (4, 7), (16, 18), (20, 24)])
    def test_kept_quadrature_gives_the_fresh_one_bits(self, two_r, order):
        """The quadrature is kept per order; twice over, the deviation has
        the bits of the product quadrature built afresh."""
        nodes, weights = np.polynomial.legendre.leggauss(order)
        phi = np.tile(2.0 * np.pi * np.arange(order) / order, order)
        c = np.repeat(nodes, order)
        s = np.sqrt(1.0 - c * c)
        amps = spin.coherent_states(two_r, np.stack([s * np.cos(phi), s * np.sin(phi), c], 1))
        d = two_r + 1
        w = np.repeat(weights, order) * (2.0 * np.pi / order) * d / (4.0 * np.pi)
        want = float(np.max(np.abs((amps.T * w) @ amps.conj() - np.eye(d))))
        for _ in range(2):
            assert spin.resolution_deviation(two_r, order) == want

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            spin.resolution_deviation(4, 3)


class TestParseSpin:
    def test_forms(self):
        assert spin.parse_spin("1/2") == 1
        assert spin.parse_spin("0.5") == 1
        assert spin.parse_spin("3/2") == 3
        assert spin.parse_spin("2") == 4

    def test_rejects(self):
        with pytest.raises(ValueError):
            spin.parse_spin("0.3")
        with pytest.raises(ValueError):
            spin.parse_spin("-1")

    @pytest.mark.parametrize("text", ["1/0", "inf", "nan", "1/inf", "1e308",
                                      "1/2/3", "1/", "x"])
    def test_rejects_non_finite_and_malformed(self, text):
        with pytest.raises(ValueError):
            spin.parse_spin(text)


def test_unit_rejects_zero():
    with pytest.raises(ValueError):
        spin.unit([0.0, 0.0, 0.0])


def test_unit_rejects_nan():
    with pytest.raises(NotFinite):
        spin.unit([np.nan, 0.0, 1.0])


def test_rotation_matrix_orthogonal(rng):
    n = random_direction(rng)
    r = spin.rotation_matrix(n, rng.uniform(0, 2 * np.pi))
    assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-12
    assert np.linalg.det(r) == pytest.approx(1.0)
