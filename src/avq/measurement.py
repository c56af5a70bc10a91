"""Measurement-side machinery: likelihood effects, POVMs, density
construction, evidence functionals, and Kraus updates.

A POVM's effects and an instrument's Kraus operators are each held as one
(n, d, d) complex stack, so building, checking and applying a family is a
few batched numpy calls rather than one call per operator.

A statistical model here is a finite likelihood table p(x | value); its
likelihood effect for an observed x combines the table with a variable's
eigenprojectors.  Evidence is deliberately a function of (state, effect)
only: two models with equal effects are indistinguishable downstream.
The POVM of a model, the density of weights and a Kraus posterior are built
from checked inputs and returned without a second check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import born, hilbert
from .errors import (BadDistribution, DimMismatch, NotDiagonal, NotEffect, NotFinite,
                     ValueMismatch, ZeroProbabilityBranch)
from .hilbert import RESIDUAL_TOL
from .inference import require_count, require_index, require_probabilities
from .variables import VALUE_GAP_TOL, AccessibleVariable

ZERO_BRANCH_TOL = 1e-12


@dataclass(frozen=True)
class StatisticalModel:
    """Likelihood table p(x | theta = u_j), rows indexed by sample point."""

    parameter_values: np.ndarray
    sample_points: tuple
    likelihood: np.ndarray  # shape (n_samples, n_parameters)

    def __post_init__(self):
        vals = np.asarray(self.parameter_values, dtype=float).reshape(-1)
        lik = np.asarray(self.likelihood, dtype=float)
        object.__setattr__(self, "parameter_values", vals)
        object.__setattr__(self, "sample_points", tuple(self.sample_points))
        object.__setattr__(self, "likelihood", lik)
        if any(self.sample_points.index(x) != i for i, x in enumerate(self.sample_points)):
            raise BadDistribution(f"sample points {self.sample_points} are not distinct")
        if lik.shape != (len(self.sample_points), len(vals)):
            raise DimMismatch(f"likelihood shape {lik.shape} does not match "
                              f"{len(self.sample_points)} samples x {len(vals)} values")
        if not (np.isfinite(vals).all() and np.isfinite(lik).all()):
            raise NotFinite("parameter values and likelihoods must be finite")
        if np.any(lik < -RESIDUAL_TOL) or np.any(lik > 1.0 + RESIDUAL_TOL):
            raise BadDistribution("likelihood entries must lie in [0, 1]")
        colsums = lik.sum(axis=0)
        if np.any(np.abs(colsums - 1.0) > RESIDUAL_TOL):
            raise BadDistribution("each p(.|u_j) column must sum to 1")

    def sample_index(self, x) -> int:
        try:
            return self.sample_points.index(x)
        except ValueError:
            raise ValueMismatch(f"unknown sample point {x!r}") from None

    @classmethod
    def from_dict(cls, d: dict) -> "StatisticalModel":
        parameters, samples, likelihood = hilbert.json_fields(
            d, "model", parameters=float, samples=list, likelihood=float)
        return cls(parameters, tuple(samples), likelihood)

    def to_dict(self) -> dict:
        return {"parameters": self.parameter_values.tolist(),
                "samples": list(self.sample_points),
                "likelihood": self.likelihood.tolist()}


def _require_matching(m: StatisticalModel, v: AccessibleVariable):
    if len(m.parameter_values) != len(v.values) or \
            np.any(np.abs(m.parameter_values - v.values) > VALUE_GAP_TOL):
        raise ValueMismatch("model parameter values differ from the variable's")


def likelihood_effect(m: StatisticalModel, v: AccessibleVariable, x) -> np.ndarray:
    """F(x) = sum_j p(x|u_j) Pi_j."""
    _require_matching(m, v)
    row = m.likelihood[m.sample_index(x)]
    return v.spectral_sum(row)


@dataclass(frozen=True)
class Povm:
    """Effects as one (n, d, d) stack: each is Hermitian with spectrum in
    [0, 1], and together they sum to the identity."""

    effects: np.ndarray

    def __post_init__(self):
        effs = hilbert.as_operator_stack(self.effects, "effect")
        object.__setattr__(self, "effects", effs)
        hilbert.require(hilbert.hermitian_residual(effs), RESIDUAL_TOL,
                        NotEffect, "max |F - F^dag| over the effects")
        hilbert.require(hilbert.effect_residual(effs), RESIDUAL_TOL, NotEffect,
                        "effects' spectral excess beyond [0, 1]")
        hilbert.require(np.abs(effs.sum(0) - hilbert.identity(effs.shape[1])).max(),
                        RESIDUAL_TOL, BadDistribution, "max |sum of effects - I|")


def povm_of_model(m: StatisticalModel, v: AccessibleVariable) -> Povm:
    """One effect per sample point, all from one batched product
    V diag(p(x|.)) V^dag; completeness holds since the model's columns
    each sum to one."""
    _require_matching(m, v)
    return hilbert._unchecked(Povm, effects=v.spectral_sum(m.likelihood))


def density_of(pi, v: AccessibleVariable) -> np.ndarray:
    """sigma = sum_j pi_j Pi_j / rank_j; uniform within each eigenspace so
    that the trace is one also for degenerate variables."""
    w = np.asarray(pi, dtype=float).reshape(-1)
    if len(w) != len(v.values):
        raise BadDistribution("need one weight per variable value")
    require_probabilities(w, "weights")
    return v.spectral_sum(w / v.sizes)


class Evidence:
    """The generalized probability q(F) = trace(sigma F).

    Takes only the effect as input, so any two experiments with equal
    likelihood effects receive identical evidence.  Additive over effect
    sums by linearity of the trace.
    """

    def __init__(self, sigma):
        self.sigma = hilbert.require_density(sigma)

    def __call__(self, f) -> float:
        return float(born.probabilities(self.sigma, hilbert.require_effect(f)[None])[0])


def evidence(sigma) -> Evidence:
    return Evidence(sigma)


@dataclass(frozen=True)
class KrausInstrument:
    """Kraus operators as one (n, d, d) stack with sum_j A_j^dag A_j = I."""

    kraus: np.ndarray

    def __post_init__(self):
        ops = hilbert.as_operator_stack(self.kraus, "Kraus operator")
        object.__setattr__(self, "kraus", ops)
        total = (hilbert.dagger(ops) @ ops).sum(0)
        hilbert.require(np.abs(total - hilbert.identity(ops.shape[1])).max(),
                        RESIDUAL_TOL, BadDistribution, "max |sum of A_j^dag A_j - I|")


def branch_probabilities(k: KrausInstrument, sigma) -> np.ndarray:
    """p_j = trace(A_j^dag A_j sigma) for every branch at once."""
    return born.probabilities(hilbert.require_density(sigma),
                              hilbert.dagger(k.kraus) @ k.kraus)


def kraus_update(k: KrausInstrument, sigma, j: int):
    """(p_j, sigma_j) with sigma_j = A_j sigma A_j^dag / p_j, unchecked.

    sigma_j's residuals are sigma's scaled by up to 1/p_j (a least
    eigenvalue of -1e-11 at p_j = 0.01 can become -1e-9), so a second
    update, which checks sigma_j as its input, may reject it."""
    require_index(j, len(k.kraus), "branch j")
    sm = hilbert.require_density(sigma)
    a = k.kraus[j]
    p = float(born.probabilities(sm, (hilbert.dagger(a) @ a)[None])[0])
    if p <= ZERO_BRANCH_TOL:
        raise ZeroProbabilityBranch(p)
    post = a @ sm @ hilbert.dagger(a) / p
    return p, (post + hilbert.dagger(post)) / 2.0  # strip roundoff asymmetry


def diagonal_kraus_vs_bayes(k: KrausInstrument, prior, j: int):
    """Posterior from a diagonal instrument vs the Bayes posterior with
    likelihood |A(j, n)|^2; returns both for comparison."""
    off_diagonal = k.kraus[:, ~np.eye(k.kraus.shape[1], dtype=bool)]
    if np.abs(off_diagonal).max(initial=0.0) > RESIDUAL_TOL:
        raise NotDiagonal("every Kraus operator must be diagonal")
    w = require_probabilities(prior, "prior weights")
    sigma = np.diag(w).astype(complex)
    p, post = kraus_update(k, sigma, j)
    kraus_posterior = np.real(np.diag(post))
    lik = np.abs(np.diagonal(k.kraus[j])) ** 2
    bayes_posterior = w * lik / np.sum(w * lik)
    return kraus_posterior, bayes_posterior


def data_probability(sigma, m: StatisticalModel, v: AccessibleVariable, x) -> float:
    """trace(M(x) sigma) through the model's likelihood effect."""
    return float(born.probabilities(hilbert.require_density(sigma),
                                    likelihood_effect(m, v, x)[None])[0])


def random_check(cases: int, seed: int) -> dict:
    """Worst POVM completeness, Kraus branch-sum and Kraus-versus-Bayes
    residuals over random models in dimension 2-5, each with the diagonal
    instrument diag(sqrt(p(x|.))) and a random prior."""
    require_count(cases, 1, f"need at least one case, got {cases}")
    require_count(seed, 0, "seed must be non-negative")
    rng = np.random.default_rng(seed)
    povm_worst = kraus_worst = bayes_worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(2, 6))
        nx = int(rng.integers(2, 5))
        lik = rng.random((nx, d))
        lik /= lik.sum(axis=0, keepdims=True)
        model = StatisticalModel(np.arange(d, dtype=float), tuple(range(nx)), lik)
        var = AccessibleVariable(
            "v", np.arange(d, dtype=float),
            tuple(np.outer(e, e).astype(complex) for e in np.eye(d)))
        povm = povm_of_model(model, var)
        povm_worst = max(povm_worst, float(np.max(np.abs(
            povm.effects.sum(0) - hilbert.identity(d)))))
        amp = np.sqrt(lik)
        inst = KrausInstrument(tuple(np.diag(amp[k]).astype(complex) for k in range(nx)))
        prior = rng.random(d)
        prior /= prior.sum()
        probs = branch_probabilities(inst, np.diag(prior).astype(complex))
        kraus_worst = max(kraus_worst, abs(float(probs.sum()) - 1.0))
        kp, bp = diagonal_kraus_vs_bayes(inst, prior, int(np.argmax(probs)))
        bayes_worst = max(bayes_worst, float(np.max(np.abs(kp - bp))))
    return {"cases": cases,
            "povm_completeness_residual": povm_worst,
            "kraus_probability_residual": kraus_worst,
            "kraus_vs_bayes_residual": bayes_worst}
