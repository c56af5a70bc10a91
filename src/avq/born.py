"""Born probabilities: ``probabilities``, the Born rule p = tr(sigma F) for
a stack of effects; transition tables between maximal variables; the
spin-1/2 closed form; the two-qubit singlet joint law.  All of them pass
through ``_snap``, the one policy for values outside [0, 1].
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import hilbert, spin
from .errors import BadDistribution, DimMismatch, DomainError, NotMaximal
from .hilbert import RESIDUAL_TOL
from .inference import require_count, require_index
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
    row_name: str
    col_name: str
    row_values: np.ndarray
    col_values: np.ndarray
    matrix: np.ndarray  # [i, j] = P(col var = v_j | row var = u_i)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"{self.row_name}\\{self.col_name}"]
                       + [str(v) for v in self.col_values])
            for u, row in zip(self.row_values, self.matrix):
                w.writerow([str(u)] + [repr(p) for p in row])


def transition_table(va: AccessibleVariable, vb: AccessibleVariable) -> TransitionTable:
    """[i, j] = |<a;i|b;j>|^2, all entries at once as |V_a^dag V_b|^2."""
    _require_maximal_pair(va, vb)
    m = np.abs(hilbert.dagger(va.basis) @ vb.basis) ** 2
    return TransitionTable(va.name, vb.name, va.values, vb.values, _snap(m, va.dim))


def spin_half_transition(a, b, sign: int = +1) -> float:
    """(1 +/- a.b)/2: spin-1/2 transition probability between directions."""
    av, bv = spin.as_direction(a), spin.as_direction(b)
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    return float(_snap(0.5 * (1.0 + sign * float(av @ bv)), 2))


def crossval(pairs: int, seed: int) -> dict:
    """Proposition 1 on random direction pairs a, b (drawn in that order):
    the worst gap between (1 + a.b)/2 and |<a;+|b;+>|^2 through the
    eigenbases of the spin-1/2 component variables."""
    require_count(pairs, 1, f"need at least one pair, got {pairs}")
    require_count(seed, 0, "seed must be non-negative")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        a = spin.unit(rng.normal(size=3))
        b = spin.unit(rng.normal(size=3))
        closed = spin_half_transition(a, b, +1)
        va = AccessibleVariable.from_operator("a", spin.component_operator(1, a))
        vb = AccessibleVariable.from_operator("b", spin.component_operator(1, b))
        worst = max(worst, abs(closed - transition_probability(va, 1, vb, 1)))
    return {"pairs": pairs, "max_deviation": worst}


def _sign_projectors(a) -> dict:
    """Projectors of the spin-1/2 component along a, keyed by outcome sign."""
    comp = spin.component_operator(1, a)
    eye = hilbert.identity(2)
    return {+1: eye / 2 + comp, -1: eye / 2 - comp}


def singlet_state() -> np.ndarray:
    """(|+-> - |-+>)/sqrt2 in the z-basis product ordering (+ first)."""
    return np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


def singlet_joint(a, b) -> np.ndarray:
    """2x2 joint law of outcome signs (alpha, beta) for singlet measurements.

    Entry [i, j] is the probability of (OUTCOMES[i], OUTCOMES[j]); built
    explicitly from the singlet state and tensor products of component
    projectors.  The correlation E[alpha beta] equals -a.b.
    """
    psi = singlet_state()
    pa = _sign_projectors(a)
    pb = _sign_projectors(b)
    joint = np.empty((2, 2))
    for i, alpha in enumerate(OUTCOMES):
        for j, beta in enumerate(OUTCOMES):
            proj = hilbert.tensor(pa[alpha], pb[beta])
            joint[i, j] = np.real(np.conj(psi) @ proj @ psi)
    return _snap(joint, 4)


def singlet_correlation(a, b) -> float:
    joint = singlet_joint(a, b)
    signs = np.array(OUTCOMES)
    return float(np.sum(joint * np.outer(signs, signs)))
