"""Every contract check of the library raises a ``DomainError``, which is a
``ValueError``; ``tests/test_groups.py`` covers the checks in ``groups``."""

import inspect
import math
from types import FunctionType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avq
from avq import born, experiments, groups, hilbert, inference, measurement, spin, variables
from avq.errors import (BadDistribution, BadShape, DimMismatch, DomainError, NotFinite,
                        NotHermitian, NotInteger, NotProjector, NotUnitary)

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
    (lambda: spin.rotation(1, [0.0, 0.0, 1.0], np.nan), NotFinite, "omega"),
    (lambda: spin.rotation_matrix([0.0, 0.0, 1.0], np.nan), NotFinite, "omega"),
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
           (hilbert.state_from_dict, ("dim", "re", "im")),
           (groups.action_from_dict, ("order", "cayley", "space", "action"))]


@pytest.mark.parametrize("load, doc", [
    (measurement.StatisticalModel.from_dict, [1, 2]),
    (measurement.StatisticalModel.from_dict,
     {"parameters": [0.0], "samples": 5, "likelihood": [[1.0]]}),
    (variables.variable_from_dict, {"name": "v", "values": [0.0], "projectors": 5}),
    (variables.variable_from_dict, {"name": "v", "values": [0.0], "projectors": [5]}),
    (hilbert.operator_from_dict, {"dim": [1], "re": [1.0], "im": [0.0]}),
    (hilbert.operator_from_dict, {"dim": 1, "re": [10**400], "im": [0.0]}),
    (hilbert.state_from_dict, {"dim": 1, "re": [{}], "im": [0.0]}),
    (groups.action_from_dict, {"order": 1, "cayley": 5, "space": ["x"], "action": [[0]]}),
])
def test_wrong_shape_json_raises_bad_shape(load, doc):
    with pytest.raises(BadShape):
        load(doc)


@pytest.mark.parametrize("load, doc", [
    (hilbert.operator_from_dict, {"dim": 2, "re": [1.0, 0.0, 0.0], "im": [0.0] * 4}),
    (hilbert.operator_from_dict, {"dim": 0, "re": [], "im": []}),
    (hilbert.state_from_dict, {"dim": 2, "re": [1.0, 0.0], "im": [0.0]}),
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
