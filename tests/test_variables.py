import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avq import hilbert, spin, variables
from avq.errors import DimMismatch, DomainError, NotPermutation

from conftest import SX, random_maximal_variable, random_unitary


def spin_half_z():
    return variables.AccessibleVariable(
        "z", [0.5, -0.5],
        (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))


class TestAccessibleVariable:
    def test_rejects_duplicate_values(self):
        with pytest.raises(ValueError):
            variables.AccessibleVariable(
                "v", [1.0, 1.0],
                (np.diag([1.0, 0.0]).astype(complex),
                 np.diag([0.0, 1.0]).astype(complex)))

    def test_rejects_incomplete_projectors(self):
        with pytest.raises(ValueError):
            variables.AccessibleVariable(
                "v", [1.0], (np.diag([1.0, 0.0]).astype(complex),))


class TestOperatorOf:
    def test_constant_variable(self):
        v = variables.AccessibleVariable("c", [1.0], (np.eye(3, dtype=complex),))
        assert np.allclose(variables.operator_of(v), np.eye(3))

    def test_spin_half_z(self):
        assert np.allclose(variables.operator_of(spin_half_z()),
                           spin.spin_operators(1).az)

    def test_pauli_x_projectors_roundtrip(self):
        eye = np.eye(2)
        v = variables.AccessibleVariable("x", [1.0, 2.0],
                                         ((eye + SX) / 2, (eye - SX) / 2))
        a = variables.operator_of(v)
        back = variables.AccessibleVariable.from_operator("x", a)
        assert np.allclose(np.sort(back.values), [1.0, 2.0])
        assert np.max(np.abs(variables.operator_of(back) - a)) < 1e-10

    def test_random_roundtrip(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 9))
            v = random_maximal_variable(rng, d)
            back = variables.AccessibleVariable.from_operator(
                v.name, variables.operator_of(v))
            order = np.argsort(v.values)
            assert np.max(np.abs(np.sort(back.values) - v.values[order])) < 1e-8
            for k, j in enumerate(np.argsort(back.values)):
                assert np.max(np.abs(back.projectors[j]
                                     - v.projectors[order[k]])) < 1e-7

    def test_near_degenerate_spectrum_builds(self):
        # 0 and 0.9e-8 merge; 1.05e-8 is more than the merge tolerance
        # above the level's first eigenvalue, so it starts a level of its own
        v = variables.AccessibleVariable.from_operator(
            "x", np.diag([0.0, 0.9e-8, 1.05e-8]))
        assert v.values.tolist() == [0.0, 1.05e-8]
        assert v.sizes.tolist() == [2, 1]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 3e-8), min_size=1, max_size=12),
       st.floats(-2.0, 2.0))
def test_eig_levels_always_build_a_variable(gaps, offset):
    """Whatever eig_hermitian merges, its levels make a valid variable."""
    w = offset + np.cumsum([0.0] + gaps)
    v = variables.AccessibleVariable.from_operator("h", np.diag(w))
    assert v.sizes.sum() == len(w)
    assert (np.diff(v.values) > variables.VALUE_GAP_TOL).all()


class TestDerivedVariable:
    def test_identity(self):
        v = spin_half_z()
        w = variables.derived_variable(v, lambda u: u)
        assert np.allclose(w.values, v.values)
        for p, q in zip(w.projectors, v.projectors):
            assert np.allclose(p, q)

    def test_spin_one_square(self):
        v = variables.AccessibleVariable.from_operator(
            "z", spin.spin_operators(2).az)
        w = variables.derived_variable(v, lambda u: u * u)
        assert sorted(w.values.tolist()) == [0.0, 1.0]
        ranks = dict(zip(w.values.tolist(), w.sizes.tolist()))
        assert ranks[1.0] == 2 and ranks[0.0] == 1

    def test_constant_function(self):
        v = spin_half_z()
        w = variables.derived_variable(v, lambda u: 7.0)
        assert w.values.tolist() == [7.0]
        assert np.allclose(w.projectors[0], np.eye(2))

    def test_operator_consistency(self, rng):
        v = random_maximal_variable(rng, 5)
        w = variables.derived_variable(v, lambda u: round(u))
        expect = sum(round(u) * p for u, p in zip(v.values, v.projectors))
        assert np.max(np.abs(variables.operator_of(w) - expect)) < 1e-10


def derived_by_scan(v, t):
    """derived_variable as a scan: each image joins the first fiber whose
    value lies within VALUE_GAP_TOL of it, or starts one; the basis is v's
    column blocks stacked in fiber order."""
    new_values, fibers = [], []
    for j, u in enumerate(v.values):
        img = float(t(u))
        for k, w in enumerate(new_values):
            if abs(img - w) <= variables.VALUE_GAP_TOL:
                fibers[k].append(j)
                break
        else:
            new_values.append(img)
            fibers.append([j])
    blocks = v.blocks()
    basis = np.hstack([blocks[j] for fiber in fibers for j in fiber])
    sizes = [v.sizes[fiber].sum() for fiber in fibers]
    return variables.AccessibleVariable.from_basis("v'", new_values, basis, sizes)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       points=st.lists(st.tuples(st.integers(0, 2),
                                 st.sampled_from([0.0, 0.45, 0.55, 0.9, 0.999, 1.001,
                                                  1.1, 1.5, 2.5]),
                                 st.sampled_from([-1.0, 1.0])),
                       min_size=1, max_size=8))
def test_derived_fibers_equal_the_scan(seed, points):
    """Images a few tolerances apart, so that near images can form chains
    whose ends lie beyond the gap: the fibers, values, order and basis equal
    the scan's to the bit, or both raise the same error."""
    g = np.random.default_rng(seed)
    sizes = g.integers(1, 3, size=len(points))
    v = variables.AccessibleVariable.from_basis(
        "v", np.arange(len(points), dtype=float), random_unitary(g, int(sizes.sum())), sizes)
    images = [base + sign * gaps * variables.VALUE_GAP_TOL for base, gaps, sign in points]
    t = lambda u: images[int(u)]
    try:
        want = derived_by_scan(v, t)
    except DomainError as exc:
        with pytest.raises(type(exc)):
            variables.derived_variable(v, t)
        return
    got = variables.derived_variable(v, t)
    for field in ("values", "basis", "sizes"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.strides == b.strides and a.tobytes() == b.tobytes()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 6))
def test_derived_composition_property(seed, d):
    g = np.random.default_rng(seed)
    v = random_maximal_variable(g, d)
    t1 = lambda u: abs(u)
    t2 = lambda u: round(u)
    lhs = variables.derived_variable(variables.derived_variable(v, t1), t2)
    rhs = variables.derived_variable(v, lambda u: t2(t1(u)))
    order_l, order_r = np.argsort(lhs.values), np.argsort(rhs.values)
    assert np.allclose(lhs.values[order_l], rhs.values[order_r])
    for i, j in zip(order_l, order_r):
        assert np.max(np.abs(lhs.projectors[i] - rhs.projectors[j])) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.lists(st.integers(-20, 20), min_size=4, max_size=4, unique=True))
def test_planted_degeneracy_property(seed, mults, levels):
    """A Hermitian matrix with planted multiplicities (d <= 8) round-trips
    through the grouped eigenbasis and through the projector constructor."""
    g = np.random.default_rng(seed)
    d = sum(mults)
    levels = np.sort(np.array(levels[:len(mults)], dtype=float))
    u = random_unitary(g, d)
    h = (u * np.repeat(levels, mults)) @ hilbert.dagger(u)
    v = variables.AccessibleVariable.from_operator("h", h)
    assert np.max(np.abs(v.values - levels)) < 1e-8
    assert v.sizes.tolist() == mults
    assert np.max(np.abs(variables.operator_of(v) - h)) < 1e-8
    projs = v.projectors
    assert np.max(np.abs(sum(projs) - np.eye(d))) < 1e-10
    for i, p in enumerate(projs):
        for j, q in enumerate(projs):
            assert np.max(np.abs(p @ q - (p if i == j else 0.0))) < 1e-10
    # the projector constructor round-trips, whatever the value order
    order = g.permutation(len(mults))
    w = variables.AccessibleVariable("w", v.values[order],
                                     tuple(projs[k] for k in order))
    assert w.sizes.tolist() == [mults[k] for k in order]
    assert "projectors" not in vars(w)  # the constructor's check caches nothing
    for k, p in zip(order, w.projectors):
        assert np.max(np.abs(p - projs[k])) < 1e-10
    if len(mults) > 1:
        # swap one eigenvector of the first group for one that leans half
        # into the last group: still a projector, no longer orthogonal
        b0 = v.basis[:, 0]
        c = (b0 + v.basis[:, -1]) / np.sqrt(2.0)
        bad = projs[0] - np.outer(b0, np.conj(b0)) + np.outer(c, np.conj(c))
        with pytest.raises(ValueError, match=r"max \|P_j - V_j V_j\^dag\| = "):
            variables.AccessibleVariable("bad", v.values, (bad,) + projs[1:])


class TestIsMaximal:
    def test_spin_half_component(self):
        assert variables.is_maximal(spin_half_z())

    def test_squared_spin_one(self):
        v = variables.AccessibleVariable.from_operator(
            "z", spin.spin_operators(2).az)
        assert not variables.is_maximal(variables.derived_variable(v, abs))

    def test_constant_not_maximal(self):
        v = variables.AccessibleVariable("c", [1.0], (np.eye(2, dtype=complex),))
        assert not variables.is_maximal(v)

    def test_nonbijective_derivation_breaks_maximality(self, rng):
        v = random_maximal_variable(rng, 4)
        w = variables.derived_variable(v, lambda u: 0.0)
        assert not variables.is_maximal(w)


class TestStateToQuestion:
    def test_plus_z_hit(self):
        hits = variables.state_to_question([1.0, 0.0], [spin_half_z()])
        assert hits == [variables.QuestionAnswer("z", 0.5)]

    def test_x_catalog_miss(self):
        vx = variables.AccessibleVariable.from_operator(
            "x", spin.spin_operators(1).ax)
        assert variables.state_to_question([1.0, 0.0], [vx]) == []

    def test_coherent_state_single_hit(self):
        a = spin.unit([1.0, 1.0, 0.0])
        b = spin.unit([1.0, -1.0, 0.0])  # orthogonal direction
        va = variables.AccessibleVariable.from_operator(
            "a", spin.component_operator(1, a))
        vb = variables.AccessibleVariable.from_operator(
            "b", spin.component_operator(1, b))
        s = spin.coherent_state(1, a)
        hits = variables.state_to_question(s, [va, vb])
        assert len(hits) == 1 and hits[0].question == "a"
        assert hits[0].answer == pytest.approx(-0.5)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            variables.state_to_question([1.0, 0.0, 0.0], [spin_half_z()])


class TestConjugatedVariable:
    def test_identity(self):
        v = spin_half_z()
        w = variables.conjugated_variable(v, np.eye(2), lambda u: u)
        assert np.allclose(w.values, v.values)
        for p, q in zip(w.projectors, v.projectors):
            assert np.allclose(p, q)

    def test_pi_rotation_about_x(self):
        v = spin_half_z()
        u = spin.rotation(1, [1.0, 0.0, 0.0], np.pi)
        w = variables.conjugated_variable(v, u, lambda m: -m)
        assert sorted(w.values.tolist()) == [-0.5, 0.5]
        expect = hilbert.conjugate(u, variables.operator_of(v))
        assert np.max(np.abs(variables.operator_of(w) - expect)) < 1e-10

    def test_rejects_non_permutation(self):
        with pytest.raises(NotPermutation):
            variables.conjugated_variable(spin_half_z(), np.eye(2),
                                          lambda m: m + 1.0)

    def test_spectrum_invariance(self, rng):
        for _ in range(20):
            v = random_maximal_variable(rng, 4)
            u = random_unitary(rng, 4)
            w = variables.conjugated_variable(v, u, lambda x: x)
            a = variables.operator_of(w)
            assert np.max(np.abs(np.sort(np.linalg.eigvalsh(a))
                                 - np.sort(v.values))) < 1e-8


def spin_squared():
    """S_a^2 for spin 2: values 4, 1, 0 on eigenspaces of ranks 2, 2, 1."""
    a = np.array([0.6, 0.0, 0.8])
    v = variables.AccessibleVariable.from_operator("s", spin.component_operator(4, a))
    return variables.derived_variable(v, lambda u: u * u)


def random_qutrit():
    return random_maximal_variable(np.random.default_rng(20260824), 3)


class TestProjectorView:
    """``projectors`` builds each V_k V_k^dag when read and stores none."""

    def test_reading_all_at_d96_holds_one_at_a_time(self):
        v = variables.AccessibleVariable.from_operator(
            "a", spin.component_operator(95, np.array([0.6, 0.0, 0.8])))
        assert variables.is_maximal(v) and v.dim == 96
        tracemalloc.start()
        try:
            traces = [np.trace(p).real for p in v.projectors]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.allclose(traces, 1.0)
        # 96 cached projectors would take 96 * 96^2 * 16 bytes = 13.5 MB
        assert peak < 2 * 2**20
        assert "projectors" not in vars(v)

    @pytest.mark.parametrize("make", [spin_squared, random_qutrit])
    def test_every_read_matches_the_basis_groups(self, make):
        v = make()
        want = [b @ hilbert.dagger(b) for b in v.blocks()]
        k = len(want)
        projs = v.projectors
        assert len(projs) == k
        for j in range(-k, k):
            assert np.array_equal(projs[j], want[j])
        for sl in (slice(None), slice(1, None), slice(None, None, -2), slice(k, k + 3)):
            got = projs[sl]
            assert isinstance(got, tuple)
            assert all(np.array_equal(p, q) for p, q in zip(got, want[sl], strict=True))
        assert all(np.array_equal(p, q) for p, q in zip(projs, want, strict=True))
        assert np.array_equal(np.asarray(projs), np.array(want))
        for j in (k, -k - 1):
            with pytest.raises(IndexError):
                projs[j]
        assert "projectors" not in vars(v)

    def test_writing_into_a_read_leaves_the_next_read(self):
        v = spin_squared()
        first = v.projectors[0]
        first[...] = 7.0
        assert np.abs(v.projectors[0] - first).min() > 1.0
        assert np.max(np.abs(sum(v.projectors) - np.eye(v.dim))) < 1e-10


class TestSerialization:
    @pytest.mark.parametrize("make", [spin_squared, random_qutrit])
    def test_roundtrip(self, make):
        v = make()
        back = variables.variable_from_dict(variables.variable_to_dict(v))
        assert back.name == v.name
        assert np.allclose(back.values, v.values)
        assert back.sizes.tolist() == v.sizes.tolist()
        for p, q in zip(back.projectors, v.projectors, strict=True):
            assert np.allclose(p, q)
