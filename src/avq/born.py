"""Born probabilities: transition tables, projector and density forms,
the spin-1/2 closed form, and the two-qubit singlet joint law.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import hilbert, spin
from .errors import DimMismatch, DomainError, NotMaximal
from .variables import AccessibleVariable, is_maximal

CLAMP_WINDOW = 1e-12

OUTCOMES = (+1, -1)  # row/column order of 2x2 joint distributions


def _clamp(p: float) -> float:
    """Snap tiny numerical overshoots into [0, 1]; anything larger is a bug."""
    if p < -CLAMP_WINDOW or p > 1.0 + CLAMP_WINDOW:
        raise AssertionError(f"probability {p} outside [0,1] beyond the clamp window")
    return min(max(p, 0.0), 1.0)


def _require_maximal_pair(va: AccessibleVariable, vb: AccessibleVariable):
    if not is_maximal(va) or not is_maximal(vb):
        raise NotMaximal("transition probabilities need rank-1 eigenspaces")
    if va.dim != vb.dim:
        raise DimMismatch(f"dims {va.dim} and {vb.dim} differ")


def transition_probability(va: AccessibleVariable, i: int,
                           vb: AccessibleVariable, j: int) -> float:
    """|<a;i|b;j>|^2 for maximal variables."""
    _require_maximal_pair(va, vb)
    return _clamp(float(np.abs(np.vdot(va.basis[:, i], vb.basis[:, j])) ** 2))


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
    _clamp(float(m.max()))  # entries are >= 0, so only an overshoot above 1 can occur
    return TransitionTable(va.name, vb.name, va.values, vb.values,
                           np.minimum(m, 1.0))


def born_projector(s, p) -> float:
    """<s|P|s> for a projector P."""
    sv = hilbert.as_state(s)
    pp = hilbert.require_projector(p)
    return _clamp(np.real(np.conj(sv) @ pp @ sv))


def born_density(sigma, p) -> float:
    """trace(P sigma); reduces to the projector form for pure states."""
    sm = hilbert.require_density(sigma)
    pp = hilbert.require_projector(p)
    return _clamp(np.real(hilbert.trace_product(pp, sm)))


def likelihood_density(sigma, f) -> float:
    """trace(F sigma) for an effect F."""
    sm = hilbert.require_density(sigma)
    ff = hilbert.require_effect(f)
    return _clamp(np.real(hilbert.trace_product(ff, sm)))


def spin_half_transition(a, b, sign: int = +1) -> float:
    """(1 +/- a.b)/2: spin-1/2 transition probability between directions."""
    av, bv = spin.as_direction(a), spin.as_direction(b)
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    return _clamp(0.5 * (1.0 + sign * float(av @ bv)))


def crossval(pairs: int, seed: int) -> dict:
    """Proposition 1 on random direction pairs a, b (drawn in that order):
    the worst gap between (1 + a.b)/2 and |<a;+|b;+>|^2 through the
    eigenbases of the spin-1/2 component variables."""
    if pairs < 1:
        raise DomainError(f"need at least one pair, got {pairs}")
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
            joint[i, j] = _clamp(np.real(np.conj(psi) @ proj @ psi))
    return joint


def singlet_correlation(a, b) -> float:
    joint = singlet_joint(a, b)
    signs = np.array(OUTCOMES)
    return float(np.sum(joint * np.outer(signs, signs)))
