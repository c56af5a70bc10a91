"""Born probabilities: ``probabilities``, the Born rule p = tr(sigma F) for
a stack of effects; ``joint``, the law of local questions that separate
parties ask of one pure state, with the two-qubit singlet law as a case;
transition tables between maximal variables; the spin-1/2 closed form
and ``spin_half_routes``, the same law through the abstract route.
All of them pass through ``_snap``, the one policy for values outside [0, 1].
"""

from __future__ import annotations

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


def probabilities(sigma, effects) -> np.ndarray:
    """The Born rule p_k = Re tr(F_k sigma) for each effect of an (n, d, d)
    stack, through ``_snap``.  The caller checks sigma and the effects
    (``hilbert.require_density``, ``require_effect``, a ``Povm`` or a
    ``KrausInstrument``); a pure state |s> enters as sigma = |s><s|."""
    if effects.shape[-1] != len(sigma):
        raise DimMismatch(f"a state of dim {len(sigma)} for effects of dim {effects.shape[-1]}")
    return _snap(np.einsum("nik,ki->n", effects, sigma).real, len(sigma))


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


def joint(psi, *effects) -> np.ndarray:
    """The joint Born law of local questions on a pure state psi on
    C^{d_1} x ... x C^{d_k}, with an (n_i, d_i, d_i) effect stack per party:
    entry [j_1, ..., j_k] is <psi| F_{j_1} x ... x F_{j_k} |psi>, through
    ``_snap`` at d = psi.size.  It is one einsum over psi reshaped to
    (d_1, ..., d_k), with no Kronecker product.  That einsum's plain loop
    runs over all 3k indices (d^{3k} terms), cheap for a few qubits; larger
    parties need a pairwise contraction order.  The caller checks psi and
    the effects, as for ``probabilities``."""
    dims = tuple(f.shape[-1] for f in effects)
    if psi.size != np.prod(dims):
        raise DimMismatch(f"a state of dim {psi.size} for parties of dims {dims}")
    k = len(effects)
    bra, ket, out = range(k), range(k, 2 * k), range(2 * k, 3 * k)
    operands = [np.conj(psi).reshape(dims), list(bra)]
    for f, n, i, j in zip(effects, out, bra, ket):
        operands += [f, [n, i, j]]
    p = np.einsum(*operands, psi.reshape(dims), list(ket), list(out)).real
    return _snap(p, psi.size)


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
    return joint(_SINGLET, _sign_projectors(a), _sign_projectors(b))
