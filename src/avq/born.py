"""Born probabilities: ``probabilities``, the one Born law, for local
questions that any number of parties ask of one pure state or density
(one party gives p = tr(sigma F) for a stack of effects), with the
two-qubit singlet law as a case; transition tables between maximal
variables; the spin-1/2 closed form and ``spin_half_routes``, the same law
through the abstract route.  All of them pass through ``_snap``, the one
policy for values outside [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hilbert, spin
from .errors import (BadDistribution, DimMismatch, DomainError, NotMaximal, require_count,
                     require_index, require_seed)
from .hilbert import RESIDUAL_TOL
from .variables import AccessibleVariable, is_maximal

OUTCOMES = (+1, -1)  # row/column order of 2x2 joint distributions


def _snap(p, d: int):
    """Born probabilities on C^d clipped into [0, 1], or BadDistribution
    (with residual and tol) for one further than (d + 2)^2 tol outside,
    tol = RESIDUAL_TOL.  Derivation: an entrywise residual of tol moves a
    d x d spectrum by at most d tol, so the Hermitian parts of an accepted
    sigma and effect F (likelihood effects and Kraus A^dag A included) reach
    at most delta = (d + 1) tol outside [0, 1], and |tr sigma - 1| <= tol.
    In sigma's eigenbasis tr(F sigma) = sum_i l_i <v_i|F|v_i>, whose
    negative l_i sum to at least -d delta, so it lies within
    (d + 1) delta + tol of [0, 1] to first order; the further (2d + 2) tol
    covers second-order and rounding terms.  Transitions between accepted
    bases overshoot by about 2 tol, the spin-1/2 form by DIRECTION_TOL."""
    hilbert.require(np.abs(p - 0.5).max() - 0.5, (d + 2) ** 2 * RESIDUAL_TOL,
                    BadDistribution, "Born probability's distance outside [0, 1]")
    return np.minimum(np.maximum(p, 0.0), 1.0)


def probabilities(state, *effects) -> np.ndarray:
    """The Born law of local questions that k parties ask of one state, with
    an (n_i, d_i, d_i) effect stack per party and D = d_1 ... d_k: entry
    [j_1, ..., j_k] is Re <psi| F_{j_1} x ... x F_{j_k} |psi> for a (D,) pure
    state psi and Re tr(rho F_{j_1} x ... x F_{j_k}) for a (D, D) density
    rho, through ``_snap``; one party gives p_j = Re tr(F_j rho).  It is one
    einsum over the state reshaped to the parties' dims, with no Kronecker
    product, whose plain loop over all 3k indices is cheap for a few qubits;
    larger parties need a pairwise contraction order.  The caller checks the
    state and the effects (``hilbert.require_density``, ``require_effect``,
    a ``Povm`` or a ``KrausInstrument``)."""
    dims = tuple(f.shape[-1] for f in effects)
    d = math.prod(dims)
    if len(state) != d:
        raise DimMismatch(f"a state of dim {len(state)} for effects of dim "
                          + " x ".join(map(str, dims)))
    k = len(effects)
    bra, ket, out = list(range(k)), list(range(k, 2 * k)), list(range(2 * k, 3 * k))
    operands = []
    for f, n, i, j in zip(effects, out, bra, ket):
        operands += [f, [n, i, j]]
    if state.ndim == 1:
        operands = [np.conj(state).reshape(dims), bra, *operands, state.reshape(dims), ket]
    else:
        operands += [state.reshape(dims + dims), ket + bra]
    return _snap(np.einsum(*operands, out).real, d)


def _require_maximal_pair(va: AccessibleVariable, vb: AccessibleVariable):
    if not is_maximal(va) or not is_maximal(vb):
        raise NotMaximal("transition probabilities need rank-1 eigenspaces")
    if va.dim != vb.dim:
        raise DimMismatch(f"dims {va.dim} and {vb.dim} differ")


def transition_probability(va: AccessibleVariable, i: int,
                           vb: AccessibleVariable, j: int) -> float:
    """|<a;i|b;j>|^2 for maximal variables."""
    _require_maximal_pair(va, vb)
    require_index(i, va.dim, "index i")
    require_index(j, vb.dim, "index j")
    return float(_snap(np.abs(np.vdot(va.basis[:, i], vb.basis[:, j])) ** 2, va.dim))


@dataclass(frozen=True)
class TransitionTable:
    matrix: np.ndarray  # [i, j] = P(col var = v_j | row var = u_i)


def transition_table(va: AccessibleVariable, vb: AccessibleVariable) -> TransitionTable:
    """[i, j] = |<a;i|b;j>|^2, all entries at once as |V_a^dag V_b|^2."""
    _require_maximal_pair(va, vb)
    m = np.abs(hilbert.dagger(va.basis) @ vb.basis) ** 2
    return TransitionTable(_snap(m, va.dim))


def spin_half_transition(a, b, sign: int = +1) -> float:
    """(1 +/- a.b)/2: spin-1/2 transition probability between directions."""
    av, bv = spin.as_direction(a), spin.as_direction(b)
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    return float(_snap(0.5 * (1.0 + sign * float(av @ bv)), 2))


def spin_half_routes(a, b) -> tuple:
    """(closed, abstract): the spin-1/2 transition probability between the
    + answers of the a and b components, as (1 + a.b)/2 and as
    |<a;+|b;+>|^2 through the eigenbases of the two component variables
    (index 1 holds the value +1/2).  Proposition 1 says they are equal."""
    closed = spin_half_transition(a, b, +1)
    va = AccessibleVariable.from_operator("a", spin.component_operator(1, a))
    vb = AccessibleVariable.from_operator("b", spin.component_operator(1, b))
    return closed, transition_probability(va, 1, vb, 1)


def crossval(pairs: int, seed: int) -> dict:
    """Proposition 1 on random direction pairs a, b (drawn in that order):
    the worst gap between the two ``spin_half_routes``."""
    require_count(pairs, 1, f"need at least one pair, got {pairs}")
    require_seed(seed)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        a = spin.unit(rng.normal(size=3))
        b = spin.unit(rng.normal(size=3))
        closed, abstract = spin_half_routes(a, b)
        worst = max(worst, abs(closed - abstract))
    return {"pairs": pairs, "max_deviation": worst}


# (|+-> - |-+>)/sqrt2 in the z-basis product ordering (+ first)
_SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


def _sign_projectors(a) -> np.ndarray:
    """The (2, 2, 2) stack of projectors of the spin-1/2 component along a,
    one per outcome sign in ``OUTCOMES`` order."""
    comp = spin.component_operator(1, a)
    eye = hilbert.identity(2)
    return np.stack([eye / 2 + sign * comp for sign in OUTCOMES])


def singlet_joint(a, b) -> np.ndarray:
    """2x2 joint law of outcome signs (alpha, beta) for singlet measurements
    along a and b: entry [i, j] is the probability of (OUTCOMES[i],
    OUTCOMES[j]), so the correlation E[alpha beta], the signed sum
    (joint * outer(OUTCOMES, OUTCOMES)).sum(), equals -a.b."""
    return probabilities(_SINGLET, _sign_projectors(a), _sign_projectors(b))
