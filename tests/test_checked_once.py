"""Inputs are checked once, where they enter avq.

A value that avq builds from parts it has already checked is returned
without a second check (the rule is stated in ``avq.errors``).  Two kinds of
test pin that rule: parts at the edge of their checks still build a value,
whose residuals are at most the parts' added up, and every value built from
exact parts passes the public check that it skipped.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from avq import hilbert, measurement, variables

from conftest import (random_density, random_diagonal_instrument, random_hermitian,
                      random_instrument, random_unitary)

TOL = hilbert.RESIDUAL_TOL


def unitarity_residual(u):
    return np.abs(hilbert.dagger(u) @ u - np.eye(len(u))).max()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8),
       sign=st.sampled_from([-1.0, 1.0]), reach=st.tuples(*[st.floats(0.51, 0.99)] * 6))
def test_parts_at_the_edge_build_a_value(seed, d, sign, reach):
    """Each part's residual is 0.51 to 0.99 of the tolerance of the check it
    passed, all in one direction, so each built value's parts add up to more
    than the tolerance.  The four calls that combine them return, and the
    built value's residual is at most the sum of its parts' (for the
    posterior, sigma's least eigenvalue divided by the branch probability)."""
    basis, turn, colsum, wsum, trace = (sign * r * TOL for r in reach[:5])
    least = reach[5] * TOL
    rng = np.random.default_rng(seed)
    values = np.arange(d, dtype=float)
    u = random_unitary(rng, d)
    v = variables.AccessibleVariable.from_basis(
        "v", values, np.sqrt(1.0 + basis) * u, np.ones(d, int))

    w = variables.conjugated_variable(v, np.sqrt(1.0 + turn) * random_unitary(rng, d),
                                      lambda x: (x + 1.0) % d)
    assert unitarity_residual(w.basis) <= 2 * TOL

    lik = rng.random((3, d))
    lik /= lik.sum(axis=0)
    lik[lik.argmax(axis=0), np.arange(d)] += colsum
    model = measurement.StatisticalModel(values, (0, 1, 2), lik)
    povm = measurement.povm_of_model(model, v)
    assert np.abs(povm.effects.sum(0) - np.eye(d)).max() <= 2 * TOL

    weights = rng.dirichlet(np.ones(d))
    weights[weights.argmax()] += wsum
    sigma = measurement.density_of(weights, v)
    assert abs(np.trace(sigma).real - 1.0) <= 2 * TOL

    # sigma's least eigenvalue -least sits where branch 0 keeps all weight,
    # and branch 0 has probability about 10^-3 to 10^-1
    lam = rng.random(d)
    lam[-1] = 0.0
    lam = lam / lam.sum() * (1.0 + trace + least)
    lam[-1] = -least
    q = np.full(d, 10.0 ** -rng.uniform(1.0, 3.0))
    q[-1] = 1.0
    inst = measurement.KrausInstrument(np.stack([
        u @ np.diag(np.sqrt(q)) @ hilbert.dagger(u),
        u @ np.diag(np.sqrt(1.0 - q)) @ hilbert.dagger(u)]))
    p, post = measurement.kraus_update(inst, u @ np.diag(lam) @ hilbert.dagger(u), 0)
    assert -np.linalg.eigvalsh(post)[0] <= least / p + 1e-12
    assert abs(np.trace(post).real - 1.0) <= 1e-12


def degenerate_variable(rng, d):
    """A variable with up to d levels of random multiplicity, from an operator."""
    levels = np.sort(rng.choice(20, size=d, replace=False)).astype(float)
    spectrum = levels[np.sort(rng.integers(0, d, size=d))]
    u = random_unitary(rng, d)
    return variables.AccessibleVariable.from_operator(
        "h", u @ np.diag(spectrum) @ hilbert.dagger(u))


def assert_is_a_variable(v):
    """from_basis, the public check that avq's own constructions skip,
    accepts v's fields and keeps them."""
    again = variables.AccessibleVariable.from_basis(v.name, v.values, v.basis, v.sizes)
    for field in ("values", "basis", "sizes"):
        assert np.array_equal(getattr(again, field), getattr(v, field))
        assert getattr(again, field).dtype == getattr(v, field).dtype


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8))
def test_built_values_pass_the_checks_they_skip(seed, d):
    rng = np.random.default_rng(seed)
    v = degenerate_variable(rng, d)
    assert_is_a_variable(v)
    assert_is_a_variable(variables.AccessibleVariable.from_operator(
        "a", random_hermitian(rng, d)))
    assert_is_a_variable(variables.AccessibleVariable("p", v.values[::-1],
                                                      tuple(v.projectors)))
    assert_is_a_variable(variables.derived_variable(v, lambda x: x % 3))
    shift = dict(zip(v.values, np.roll(v.values, 1)))
    assert_is_a_variable(variables.conjugated_variable(v, random_unitary(rng, d),
                                                       shift.__getitem__))
    k = len(v.values)

    lik = rng.random((3, k)) + 0.05
    lik /= lik.sum(axis=0)
    povm = measurement.povm_of_model(measurement.StatisticalModel(v.values, (0, 1, 2),
                                                                  lik), v)
    assert np.array_equal(measurement.Povm(povm.effects).effects, povm.effects)

    sigma = measurement.density_of(rng.dirichlet(np.ones(k)), v)
    hilbert.require_density(sigma)
    inst = random_instrument(rng, d, 3)
    for j in range(3):
        hilbert.require_density(measurement.kraus_update(inst, random_density(rng, d), j)[1])


def test_a_built_diagonal_density_is_not_checked_again(monkeypatch):
    """diagonal_kraus_vs_bayes checks its prior and builds sigma = diag(w)
    from it, so it makes no eigvalsh call, which require_density would;
    kraus_update, handed the same sigma as input, makes one."""
    rng = np.random.default_rng(11)
    inst = random_diagonal_instrument(rng, 6, 3)
    prior = rng.dirichlet(np.ones(6))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *args: calls.append(args) or eigvalsh(*args))
    kraus_posterior, bayes_posterior = measurement.diagonal_kraus_vs_bayes(inst, prior, 1)
    assert calls == []
    assert np.abs(kraus_posterior - bayes_posterior).max() < 1e-12
    measurement.kraus_update(inst, np.diag(prior).astype(complex), 1)
    assert len(calls) == 1
