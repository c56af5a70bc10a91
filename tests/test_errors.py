"""Every contract check of the library raises a ``DomainError``, which is a
``ValueError``; ``tests/test_groups.py`` covers the table checks in ``groups``."""

import ast
import inspect
import math
import pathlib
import re
import sys
from types import FunctionType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avq
from avq import (born, errors, experiments, groups, hilbert, inference, measurement, spin,
                 variables)
from avq.errors import (BadDistribution, BadGroupData, BadShape, DimMismatch, DomainError,
                        NotFinite, NotHermitian, NotInteger, NotProjector, NotUnitary)

EYE2 = np.eye(2, dtype=complex)
# a projector family that is not orthogonal: diag(1, 0) and |+><+|
LEANING = (np.diag([1.0, 0.0]), np.full((2, 2), 0.5))


def which_path():
    """The two-branch instrument diag(1, 0), diag(0, 1)."""
    return measurement.KrausInstrument(np.stack([np.diag([1.0, 0.0]),
                                                 np.diag([0.0, 1.0])]).astype(complex))


def spin_z():
    """The maximal variable of the spin-1/2 z component."""
    return variables.AccessibleVariable.from_operator("z", spin.component_operator(1, [0, 0, 1]))


def prior3():
    return inference.DiscretePrior([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])


# the cyclic group of order 3 rotating three points
ROTATION = groups.GroupAction(groups.FiniteGroup.cyclic(3), ("x", "y", "z"),
                              [[0, 1, 2], [1, 2, 0], [2, 0, 1]])

# every public call that takes a direction, as a call on that direction
DIRECTION_TAKERS = (spin.as_direction, spin.unit,
                    lambda a: spin.component_operator(1, a),
                    lambda a: spin.rotation(1, a, 0.5),
                    lambda a: spin.rotation_matrix(a, 0.5),
                    lambda a: spin.coherent_state(1, a),
                    lambda a: spin.coherent_states(1, a),
                    lambda a: born.spin_half_transition([0, 0, 1], a),
                    lambda a: born.singlet_joint([0, 0, 1], a))
# an operator on C^0, and a stack of one
EMPTY = np.zeros((0, 0))
EMPTY_STACK = np.zeros((1, 0, 0))


@pytest.mark.parametrize("build, error, message", [
    (lambda: born.spin_half_transition([0, 0, 1], [0, 0, 1], 0), DomainError, "sign"),
    (lambda: experiments.ChshConfig(0.0, 0.0, 0.0, 0.0, 0, 1), DomainError, "one trial"),
    (lambda: experiments.chsh_quantum_max(0.0), DomainError, "resolution"),
    (lambda: experiments.medical_bayes(10, 1), DomainError, "10\\^4 samples"),
    (lambda: hilbert.as_state([1.0, 1.0]), DomainError, "state \\|norm - 1\\|"),
    (lambda: inference.DiscretePrior([0.0, 1.0], [1.0]), DimMismatch, "equal length"),
    (lambda: inference.DiscretePrior([0.0, 1.0], [1.5, -0.5]), BadDistribution,
     "nonnegative"),
    (lambda: inference.SimulationSpec(0, 1), DomainError, "one replicate"),
    (lambda: inference.IntervalEstimate(1.0, 0.0, 0.5), DomainError, "out of order"),
    (lambda: inference.IntervalEstimate(0.0, 1.0, 1.0), DomainError, "level"),
    (lambda: inference.credibility_interval([0.0, 1.0], 1.5), DomainError, "level"),
    (lambda: inference.prop2_experiment(1.0, 0.0, inference.SimulationSpec(10, 1)),
     DomainError, "c1 < c2"),
    (lambda: spin.as_direction([1.0, 1.0, 0.0]), DomainError, "direction"),
    (lambda: spin.unit([0.0, 0.0, 0.0]), DomainError, "zero vector"),
    (lambda: spin.spin_operators(-1), DomainError, "two_r"),
    (lambda: spin.coherent_states(1, [[1.0, 1.0, 0.0]]), DomainError, "direction"),
    (lambda: spin.resolution_deviation(2, 3), DomainError, "quadrature order"),
    (lambda: spin.parse_spin("1/3"), DomainError, "half-integer"),
    (lambda: variables.AccessibleVariable("v", [0.0], EYE2), DimMismatch, "square"),
    (lambda: variables.AccessibleVariable("v", [0.0, 1.0], (EYE2, np.nan * EYE2)),
     NotFinite, "finite"),
    (lambda: variables.AccessibleVariable("v", [0.0, 1.0], LEANING), NotProjector,
     "V_j V_j"),
    (lambda: variables.AccessibleVariable.from_basis("v", [0.0, 1.0], EYE2, [2]),
     DimMismatch, "do not split"),
    (lambda: variables.AccessibleVariable.from_basis("v", [0.0, 0.0], EYE2, [1, 1]),
     DomainError, "distinct"),
    # counts and seeds are ints, as the CLI's flags parse them; angles,
    # c1, c2 and theta are finite
    (lambda: inference.SimulationSpec(10000.0, 1), NotInteger, "10000.0"),
    (lambda: inference.SimulationSpec(True, 1), NotInteger, "bool"),
    (lambda: inference.SimulationSpec(10, 1.0), NotInteger, "float"),
    (lambda: inference.SimulationSpec(10, -1), DomainError, "seed"),
    (lambda: inference.SimulationSpec(10, 1, theta=np.nan), NotFinite, "theta"),
    (lambda: inference.prop2_experiment(np.nan, 1.0, inference.SimulationSpec(10, 1)),
     NotFinite, "c1 and c2"),
    (lambda: inference.prop2_experiment(-1.0, np.inf, inference.SimulationSpec(10, 1)),
     NotFinite, "c1 and c2"),
    (lambda: experiments.ChshConfig(np.nan, 0.0, 0.0, 0.0, 1000, 1), NotFinite, "angles"),
    (lambda: experiments.ChshConfig(0.0, 0.0, -np.inf, 0.0, 1000, 1), NotFinite,
     "angles"),
    (lambda: experiments.ChshConfig(0.0, 0.0, 0.0, 0.0, 1000.5, 1), NotInteger, "1000.5"),
    (lambda: experiments.ChshConfig(0.0, 0.0, 0.0, 0.0, 1000, 1.5), NotInteger, "1.5"),
    (lambda: experiments.ChshConfig(0.0, 0.0, 0.0, 0.0, 1000, -1), DomainError, "seed"),
    (lambda: experiments.medical_bayes(10000.5, 1), NotInteger, "10000.5"),
    (lambda: experiments.medical_bayes(False, 1), NotInteger, "bool"),
    (lambda: experiments.medical_bayes(10000, -3), DomainError, "seed"),
    (lambda: born.crossval(2.5, 1), NotInteger, "2.5"),
    (lambda: born.crossval(True, 1), NotInteger, "bool"),
    (lambda: born.crossval(2, 1.0), NotInteger, "got 1.0 of type"),
    (lambda: born.crossval(2, -1), DomainError, "seed"),
    (lambda: born.crossval(0, 1), DomainError, "one pair, got 0"),
    (lambda: measurement.random_check(2.0, 1), NotInteger, "2.0"),
    (lambda: measurement.random_check(False, 1), NotInteger, "bool"),
    (lambda: measurement.random_check(2, -1), DomainError, "seed"),
    (lambda: measurement.random_check(-2, 1), DomainError, "one case, got -2"),
    # spin's two_r and quadrature order are whole numbers; integral floats pass
    (lambda: spin.spin_operators(True), NotInteger, "two_r must be an integer, got True"),
    (lambda: spin.algebra_residuals(True), NotInteger, "got True"),
    (lambda: spin.resolution_deviation(2, 4.5), NotInteger, "order .* got 4.5"),
    (lambda: spin.coherent_states(1.5, [[0, 0, 1]]), NotInteger, "two_r .* got 1.5"),
    # indices are ints in 0..n-1: neither wrapped from the end nor a bool
    (lambda: measurement.kraus_update(which_path(), EYE2 / 2, -1), DomainError,
     "branch j must lie in 0..1, got -1"),
    (lambda: measurement.kraus_update(which_path(), EYE2 / 2, 2), DomainError, "got 2"),
    (lambda: measurement.kraus_update(which_path(), EYE2 / 2, True), NotInteger, "bool"),
    (lambda: measurement.kraus_update(which_path(), EYE2 / 2, 1.0), NotInteger, "float"),
    (lambda: measurement.diagonal_kraus_vs_bayes(which_path(), [0.5, 0.5], -1),
     DomainError, "branch j"),
    (lambda: measurement.diagonal_kraus_vs_bayes(which_path(), [0.5, 0.5], 2),
     DomainError, "branch j"),
    # a state or prior has the dimension of the effects or parties it meets
    (lambda: measurement.branch_probabilities(which_path(), np.eye(3) / 3), DimMismatch,
     "state of dim 3 for effects of dim 2"),
    (lambda: measurement.kraus_update(which_path(), np.eye(3) / 3, 0), DimMismatch,
     "state of dim 3 for effects of dim 2"),
    (lambda: measurement.diagonal_kraus_vs_bayes(which_path(), [0.2, 0.3, 0.5], 0),
     DimMismatch, "state of dim 3 for effects of dim 2"),
    (lambda: measurement.evidence(np.eye(3) / 3)(EYE2), DimMismatch,
     "state of dim 3 for effects of dim 2"),
    (lambda: born.joint(np.full(4, 0.5), EYE2[None], np.eye(3)[None]), DimMismatch,
     "state of dim 4 for parties of dims \\(2, 3\\)"),
    (lambda: born.transition_probability(spin_z(), -1, spin_z(), 0), DomainError,
     "index i must lie in 0..1, got -1"),
    (lambda: born.transition_probability(spin_z(), 0, spin_z(), 2), DomainError,
     "index j must lie in 0..1, got 2"),
    (lambda: born.transition_probability(spin_z(), True, spin_z(), 0), NotInteger, "bool"),
    (lambda: born.transition_probability(spin_z(), 0, spin_z(), 1.0), NotInteger, "float"),
    # NaN is caught where an ordering test alone would let it through
    (lambda: inference.IntervalEstimate(np.nan, 1.0, 0.5), NotFinite, "endpoints"),
    (lambda: inference.IntervalEstimate(0.0, np.nan, 0.5), NotFinite, "endpoints"),
    (lambda: inference.credibility_interval([0.0, np.nan, 1.0], 0.9), NotFinite,
     "posterior samples"),
    (lambda: inference.credibility_interval([], 0.9), DomainError, "one posterior sample"),
    (lambda: inference.p_value_one_sided(lambda rng, th: None, lambda d: 0.0, np.nan,
                                         inference.SimulationSpec(10, 1)),
     NotFinite, "observed"),
    # what the caller's estimator, rule or likelihood returns is input too
    (lambda: inference.mse_decompose(lambda d: np.nan, lambda rng, th: None,
                                     inference.SimulationSpec(5, 1)),
     NotFinite, "an estimate must be real and not NaN, got nan"),
    (lambda: inference.p_value_one_sided(lambda rng, th: None, lambda d: np.nan, 0.0,
                                         inference.SimulationSpec(5, 1)),
     NotFinite, "an estimate must be real and not NaN, got nan"),
    (lambda: inference.p_value_one_sided(lambda rng, th: None, lambda d: -np.inf, 0.0,
                                         inference.SimulationSpec(5, 1)),
     NotFinite, "estimator returned -inf"),
    (lambda: inference.confidence_coverage(lambda d: (np.nan, 1.0), lambda rng, th: None,
                                           inference.SimulationSpec(5, 1)),
     NotFinite, "interval endpoints must be real and not NaN, got nan"),
    (lambda: inference.confidence_coverage(lambda d: (2.0, 1.0), lambda rng, th: None,
                                           inference.SimulationSpec(5, 1)),
     DomainError, "endpoints \\(2.0, 1.0\\) are out of order"),
    (lambda: inference.bayes_posterior(inference.DiscretePrior([0.0, 1.0], [0.5, 0.5]),
                                       [np.inf, 1.0]),
     NotFinite, "likelihood .* is not finite"),
    (lambda: inference.bayes_posterior(inference.DiscretePrior([0.0, 1.0], [0.5, 0.5]),
                                       [-1.0, 2.0]),
     BadDistribution, "likelihood .* must be nonnegative"),
    # a scalar or a callback's value that is not a real number, or is NaN, is
    # NotFinite; an interval out of order, or a level or rho out of range,
    # is a DomainError
    (lambda: inference.bayes_posterior(prior3(), lambda v: "a"), NotFinite,
     "a likelihood must be real and not NaN, got 'a'"),
    (lambda: inference.mse_decompose(lambda d: "a", lambda rng, th: None,
                                     inference.SimulationSpec(5, 1)),
     NotFinite, "an estimate must be real and not NaN, got 'a'"),
    (lambda: inference.p_value_one_sided(lambda rng, th: None, lambda d: None, 0.0,
                                         inference.SimulationSpec(5, 1)),
     NotFinite, "an estimate must be real and not NaN, got None"),
    (lambda: inference.confidence_coverage(lambda d: None, lambda rng, th: None,
                                           inference.SimulationSpec(5, 1)),
     NotFinite, "a \\(lower, upper\\) pair, got None"),
    (lambda: inference.confidence_coverage(lambda d: ("a", "b"), lambda rng, th: None,
                                           inference.SimulationSpec(5, 1)),
     NotFinite, "interval endpoints must be real and not NaN, got 'a'"),
    (lambda: inference.confidence_coverage(lambda d: (0.0, 1.0, 2.0), lambda rng, th: None,
                                           inference.SimulationSpec(5, 1)),
     NotFinite, "a \\(lower, upper\\) pair, got \\(0.0, 1.0, 2.0\\)"),
    (lambda: inference.IntervalEstimate("a", 1.0, 0.9), NotFinite,
     "interval endpoints must be real and not NaN, got 'a'"),
    (lambda: inference.IntervalEstimate(0.0, 1.0, "x"), NotFinite,
     "level must be real and not NaN, got 'x'"),
    (lambda: inference.IntervalEstimate(0.0, 1.0, np.nan), NotFinite,
     "level must be real and not NaN, got nan"),
    (lambda: inference.credibility_interval([1.0, 2.0], "x"), NotFinite,
     "level must be real and not NaN, got 'x'"),
    (lambda: variables.derived_variable(spin_z(), lambda u: "a"), NotFinite,
     "an image under t must be real and not NaN, got 'a'"),
    (lambda: variables.conjugated_variable(spin_z(), EYE2, lambda x: None), NotFinite,
     "an image under the value action must be real and not NaN, got None"),
    (lambda: experiments.orthant_conditional("x"), NotFinite,
     "correlation rho must be real and not NaN, got 'x'"),
    (lambda: experiments.orthant_conditional(np.nan), NotFinite,
     "correlation rho must be real and not NaN, got nan"),
    (lambda: inference.SimulationSpec(10, 1, theta="a"), NotFinite,
     "theta must be finite real numbers, got \\('a',\\)"),
    # sizes are whole numbers, a model has a parameter value, and a group
    # one label per element
    (lambda: variables.AccessibleVariable.from_basis("v", [0.0, 1.0], np.eye(2), "ab"),
     NotFinite, "sizes must convert to int"),
    (lambda: measurement.StatisticalModel([], (), np.zeros((0, 0))), BadDistribution,
     "at least one parameter value"),
    (lambda: measurement.StatisticalModel([], (0,), np.zeros((1, 0))), BadDistribution,
     "at least one parameter value"),
    (lambda: groups.FiniteGroup(np.zeros((1, 1), int), labels=5), BadGroupData,
     "labels length must equal group order, got 5"),
    (lambda: spin.rotation(1, [0.0, 0.0, 1.0], np.nan), NotFinite, "omega"),
    (lambda: spin.rotation_matrix([0.0, 0.0, 1.0], np.nan), NotFinite, "omega"),
    # a likelihood per parameter value: one does not broadcast
    (lambda: inference.bayes_posterior(prior3(), [0.5]), DimMismatch,
     "1 likelihoods for 3 parameter values"),
    (lambda: inference.bayes_posterior(prior3(), [0.5, 0.5]), DimMismatch,
     "2 likelihoods for 3"),
    # a subgroup names its elements by their indices in the acting group
    (lambda: groups.restrict_action(ROTATION, groups.FiniteGroup.cyclic(2)), BadGroupData,
     "needs labels"),
    (lambda: groups.restrict_action(
        ROTATION, groups.FiniteGroup(groups.FiniteGroup.cyclic(2).cayley, labels=(0, 5))),
     BadGroupData, "subgroup labels must be indices in 0..2"),
    (lambda: groups.invariant_measure(ROTATION, ["a", "b"]), BadGroupData, "real numbers"),
    (lambda: groups.invariant_measure(ROTATION).mass([7]), BadGroupData,
     "points must be indices in 0..2"),
    # four finite treatment effects and a correlation in [-1, 1]
    (lambda: experiments.zeta_contrasts([1, 2, 3]), DimMismatch, "4 treatment effects"),
    (lambda: experiments.psi_transform([1, 2, 3]), DimMismatch, "4 treatment effects"),
    (lambda: experiments.zeta_contrasts([1, 2, 3, np.nan]), NotFinite, "treatment effects"),
    (lambda: experiments.orthant_conditional(2.0), DomainError, "rho must lie in"),
    (lambda: experiments.plane_direction(np.nan), NotFinite, "angle"),
    # an entry that is not a number, or a state that is not a vector
    (lambda: spin.unit("abc"), NotFinite, "direction components must convert to float"),
    (lambda: spin.as_direction([1j, 0, 0]), NotFinite, "components must convert to float"),
    (lambda: hilbert.as_operator([["a"]]), NotFinite, "operator entries must convert to"),
    (lambda: hilbert.as_operator([[1.0, 0.0], [1.0]]), DimMismatch, "no common shape"),
    (lambda: hilbert.as_state(["a"]), NotFinite, "state entries must convert to complex"),
    (lambda: hilbert.as_state(EYE2 / np.sqrt(2.0)), DimMismatch, "a state is a vector"),
    (lambda: inference.DiscretePrior(["a"], [1.0]), NotFinite, "values must convert to float"),
    (lambda: measurement.density_of(["x", "y"], spin_z()), NotFinite,
     "weights must convert to float"),
    (lambda: variables.AccessibleVariable.from_basis("v", ["a", "b"], EYE2, [1, 1]),
     NotFinite, "values must convert to float"),
    (lambda: measurement.StatisticalModel(["a"], (0,), [[1.0]]), NotFinite,
     "parameter values must convert to float"),
    (lambda: experiments.zeta_contrasts(["a", 1, 2, 3]), NotFinite,
     "treatment effects must convert to float"),
    (lambda: inference.bayes_posterior(prior3(), ["a", 1.0, 1.0]), NotFinite,
     "likelihoods must convert to float"),
    (lambda: inference.credibility_interval(["a"], 0.9), NotFinite,
     "posterior samples must convert to float"),
    # a direction has three components
    *[(lambda take=take, a=a: take(a), DimMismatch, f"3 components, got {len(a)} numbers")
      for take in DIRECTION_TAKERS for a in ([0.0, 1.0], [0.0, 0.0, 1.0, 0.0])],
    # an operator acts on C^d with d >= 1
    *[(build, DimMismatch, "dim >= 1") for build in (
        lambda: hilbert.eig_hermitian(EMPTY),
        lambda: hilbert.require_hermitian(EMPTY),
        lambda: hilbert.require_unitary(EMPTY),
        lambda: hilbert.require_effect(EMPTY),
        lambda: hilbert.require_density(EMPTY),
        lambda: hilbert.conjugate(EMPTY, EMPTY),
        lambda: measurement.evidence(EMPTY),
        lambda: variables.AccessibleVariable.from_operator("v", EMPTY),
        lambda: variables.AccessibleVariable.from_basis("v", [], EMPTY, []),
        lambda: variables.AccessibleVariable("v", [0.0], EMPTY_STACK),
        lambda: measurement.Povm(EMPTY_STACK),
        lambda: measurement.KrausInstrument(EMPTY_STACK))],
])
def test_every_library_check_raises_a_domain_error(build, error, message):
    with pytest.raises(DomainError, match=message) as info:
        build()
    assert type(info.value) is error and isinstance(info.value, ValueError)


@pytest.mark.parametrize("build, error, message, residual, tol", [
    (lambda: hilbert.require_hermitian([[0.0, 1.0], [0.0, 0.0]]), NotHermitian,
     "max |A - A^dag| = 1.0 > 1e-10", 1.0, hilbert.RESIDUAL_TOL),
    (lambda: hilbert.require_unitary(np.diag([1.0, 2.0])), NotUnitary,
     "max |U^dag U - I| = 3.0 > 1e-10", 3.0, hilbert.RESIDUAL_TOL),
    (lambda: spin.as_direction([np.nan, 0.0, 1.0]), DomainError,
     "direction |norm - 1| = nan > 1e-12", math.nan, spin.DIRECTION_TOL),
    (lambda: born.probabilities(np.diag([1.0, 0.0]), np.diag([2.0, 0.0])[None]),
     BadDistribution, "Born probability's distance outside [0, 1] = 1.0 > 1.6e-09", 1.0,
     16 * hilbert.RESIDUAL_TOL),
])
def test_a_failed_residual_check_carries_its_residual(build, error, message, residual, tol):
    """The error keeps the measured residual and its bound beside the
    message, which is unchanged."""
    with pytest.raises(error) as info:
        build()
    exc = info.value
    assert type(exc) is error and str(exc) == message
    assert type(exc.residual) is float and exc.tol == tol
    assert exc.residual == residual or (math.isnan(residual) and math.isnan(exc.residual))


def test_medical_report_cross_check_carries_its_residual(monkeypatch):
    monkeypatch.setattr(experiments, "medical_quantum", lambda: (0.25, 0.5))
    with pytest.raises(BadDistribution) as info:
        experiments.medical_report(10**4, 1)
    exc = info.value
    assert str(exc) == "|closed-form - abstract transition probability| = 0.25 > 1e-10"
    assert (exc.residual, exc.tol) == (0.25, hilbert.RESIDUAL_TOL)


def library_offenders(offends) -> list:
    """"file:line" of each node of avq's source for which ``offends(node,
    module)`` holds, ``module`` being the name of the node's file without
    ".py"."""
    return [f"{path.name}:{node.lineno}"
            for path in sorted(pathlib.Path(avq.__file__).parent.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if offends(node, path.stem)]


@pytest.mark.parametrize("value, want", [
    (2, 2.0), (-0.5, -0.5), (True, 1.0), (np.float32(0.25), 0.25), (np.int64(3), 3.0),
    (np.inf, np.inf), (-np.inf, -np.inf)])
def test_require_real_passes_a_real_number_as_a_float(value, want):
    got = errors.require_real(value, "x")
    assert type(got) is float and got == want


@pytest.mark.parametrize("value", [np.nan, np.float32("nan"), "1.5", None, 1j, 10**400,
                                   [1.0, 2.0]])
def test_require_real_rejects_nan_and_non_numbers(value):
    with pytest.raises(NotFinite, match=re.escape(f"x must be real and not NaN, got {value!r}")):
        errors.require_real(value, "x")


@pytest.mark.parametrize("values", [(np.inf,), (0.0, -np.inf), (np.nan,), ("a",), (0.0, None)])
def test_require_finite_rejects_what_require_real_does_and_infinities(values):
    message = f"x must be finite real numbers, got {values}"
    with pytest.raises(NotFinite, match=re.escape(message)):
        errors.require_finite("x", *values)


@pytest.mark.parametrize("text", ["must be real and not NaN", "seed must be non-negative",
                                  "level must lie in", "are out of order",
                                  "at least one parameter value"])
def test_each_rule_is_stated_once(text):
    """The real-number check and the seed, level, interval and model rules
    each have one definition, so their message appears once in avq."""
    assert len(library_offenders(lambda node, _: isinstance(node, ast.Constant)
                                 and isinstance(node.value, str) and text in node.value)) == 1


def test_the_library_neither_asserts_nor_raises_assertion_error():
    """A failed check is a DomainError: no ``assert`` (which ``python -O``
    also strips) and no ``raise AssertionError`` anywhere in avq."""
    assert library_offenders(lambda node, _: isinstance(node, ast.Assert) or (
        isinstance(node, ast.Raise) and node.exc is not None
        and "AssertionError" in ast.unparse(node.exc))) == []


def test_only_the_spin_bands_and_quadrature_are_cached():
    """A cache earns its place by repeat traffic on a bench workload: the
    monte-carlo pass asks ``_bands`` for about 1,800 components at 2r <= 4,
    and the exact-algebra pass uses two quadrature orders.  Every reference
    to ``functools.cache`` or ``lru_cache`` in avq, as a decorator or a
    call, is one of those two decorators."""
    caches = ("cache", "lru_cache")
    found = library_offenders(lambda node, _: getattr(node, "id", None) in caches
                              or getattr(node, "attr", None) in caches)
    assert found == [f"spin.py:{inspect.getsourcelines(cached)[1]}"
                     for cached in (spin._bands, spin._sphere_quadrature)]


def test_the_library_forms_no_kronecker_product():
    """A joint law of local questions contracts each party's effects with
    the reshaped state (``born.joint``): no ``kron`` call anywhere in avq."""
    assert library_offenders(lambda node, _: isinstance(node, ast.Call) and "kron" in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None))) == []


# avq's modules in the order the paper builds its formalism, the order of the
# README's module table, between the package, which loads none of them, and
# ``python -m avq``
IMPORT_ORDER = ("__init__", "errors", "hilbert", "groups", "spin", "variables", "born",
                "measurement", "inference", "experiments", "cli", "__main__")


def relative_imports(node) -> list:
    """The names of the avq modules that an import node takes from the package."""
    if not isinstance(node, ast.ImportFrom) or not node.level:
        return []
    return [alias.name for alias in node.names] if node.module is None else [node.module]


def test_every_import_points_down_the_stack():
    """Each avq module imports only modules before it in IMPORT_ORDER: the
    argument checks sit in ``errors`` and ``hilbert``, not in the statistics
    layer, and ``import avq`` loads no layer."""
    assert library_offenders(lambda node, module: any(
        name not in IMPORT_ORDER[:IMPORT_ORDER.index(module)]
        for name in relative_imports(node))) == []


def test_the_library_imports_only_the_standard_library_and_numpy():
    """numpy is avq's only runtime dependency: every absolute import names a
    module of the standard library or numpy."""
    allowed = sys.stdlib_module_names | {"numpy"}

    def outside(node, _):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            return False
        return any(name.split(".")[0] not in allowed for name in names)

    assert library_offenders(outside) == []


def public_callables():
    """(qualified name, object) for each public function and class defined in
    a module of ``avq.__all__``, and each public method defined on such a
    class."""
    for module in (getattr(avq, name) for name in avq.__all__):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                yield from ((f"{module.__name__}.{name}.{attr}", getattr(obj, attr))
                            for attr, member in vars(obj).items()
                            if not attr.startswith("_")
                            and isinstance(member, (FunctionType, classmethod, staticmethod)))


def parameter_names(obj):
    try:
        return inspect.signature(obj).parameters
    except ValueError:  # an error class that keeps the builtin constructor
        return ()


def test_no_check_takes_its_tolerance_from_the_caller():
    """Each check reads its tolerance from one module constant; only
    ``hilbert.require``, which every check calls with its constant, takes a
    bound.  Nor is there an option that nothing sets."""
    callables = dict(public_callables())
    assert {"avq.hilbert.require", "avq.hilbert.require_density",
            "avq.variables.AccessibleVariable.from_operator"} <= callables.keys()
    offenders = [name for name, obj in callables.items() if name != "avq.hilbert.require"
                 and any(p.endswith("tol") or p in ("discrete_ties", "side")
                         for p in parameter_names(obj))]
    assert offenders == []


# every JSON value: null, booleans, numbers, strings, arrays and objects
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)

LOADERS = [(measurement.StatisticalModel.from_dict, ("parameters", "samples", "likelihood")),
           (variables.variable_from_dict, ("name", "values", "projectors")),
           (hilbert.operator_from_dict, ("dim", "re", "im")),
           (groups.action_from_dict, ("order", "cayley", "space", "action"))]


@pytest.mark.parametrize("load, doc", [
    (measurement.StatisticalModel.from_dict, [1, 2]),
    (measurement.StatisticalModel.from_dict,
     {"parameters": [0.0], "samples": 5, "likelihood": [[1.0]]}),
    (variables.variable_from_dict, {"name": "v", "values": [0.0], "projectors": 5}),
    (variables.variable_from_dict, {"name": "v", "values": [0.0], "projectors": [5]}),
    (hilbert.operator_from_dict, {"dim": [1], "re": [1.0], "im": [0.0]}),
    (hilbert.operator_from_dict, {"dim": 1, "re": [10**400], "im": [0.0]}),
    (groups.action_from_dict, {"order": 1, "cayley": 5, "space": ["x"], "action": [[0]]}),
])
def test_wrong_shape_json_raises_bad_shape(load, doc):
    with pytest.raises(BadShape):
        load(doc)


@pytest.mark.parametrize("load, doc", [
    (hilbert.operator_from_dict, {"dim": 2, "re": [1.0, 0.0, 0.0], "im": [0.0] * 4}),
    (hilbert.operator_from_dict, {"dim": 0, "re": [], "im": []}),
])
def test_entry_counts_must_match_dim(load, doc):
    with pytest.raises(DimMismatch):
        load(doc)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_any_json_document_loads_or_raises_a_domain_error(data):
    for load, keys in LOADERS:
        doc = data.draw(JSON_VALUES | st.fixed_dictionaries(dict.fromkeys(keys, JSON_VALUES)))
        try:
            load(doc)
        except (DomainError, KeyError):  # a missing field is a KeyError
            pass


@settings(max_examples=100, deadline=None)
@given(JSON_VALUES, JSON_VALUES, JSON_VALUES)
def test_monte_carlo_specs_take_int_counts_and_finite_reals(count, seed, real):
    """Any value in any field builds the spec or raises a DomainError; one
    that builds has an int count >= 1, an int seed >= 0 and a finite real."""
    for build in (lambda: inference.SimulationSpec(count, seed, theta=real),
                  lambda: experiments.ChshConfig(0.0, real, 0.0, 0.0, count, seed)):
        try:
            build()
        except DomainError:
            continue
        assert type(count) is int and count >= 1 and type(seed) is int and seed >= 0
        assert np.isfinite(real)
