"""Measurement-side machinery: likelihood effects, POVMs, density
construction, evidence functionals, and Kraus updates.

A statistical model here is a finite likelihood table p(x | value); its
likelihood effect for an observed x combines the table with a variable's
eigenprojectors.  Evidence is deliberately a function of (state, effect)
only: two models with equal effects are indistinguishable downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import (BadDistribution, DimMismatch, NotDiagonal, NotFinite,
                     ValueMismatch, ZeroProbabilityBranch)
from .variables import AccessibleVariable

MODEL_TOL = 1e-10
ZERO_BRANCH_TOL = 1e-12
VALUE_TOL = 1e-8


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
        if lik.shape != (len(self.sample_points), len(vals)):
            raise DimMismatch(f"likelihood shape {lik.shape} does not match "
                              f"{len(self.sample_points)} samples x {len(vals)} values")
        if not (np.isfinite(vals).all() and np.isfinite(lik).all()):
            raise NotFinite("parameter values and likelihoods must be finite")
        if np.any(lik < -MODEL_TOL) or np.any(lik > 1.0 + MODEL_TOL):
            raise BadDistribution("likelihood entries must lie in [0, 1]")
        colsums = lik.sum(axis=0)
        if np.any(np.abs(colsums - 1.0) > MODEL_TOL):
            raise BadDistribution("each p(.|u_j) column must sum to 1")

    def sample_index(self, x) -> int:
        try:
            return self.sample_points.index(x)
        except ValueError:
            raise ValueMismatch(f"unknown sample point {x!r}") from None

    @classmethod
    def from_dict(cls, d: dict) -> "StatisticalModel":
        return cls(np.array(d["parameters"], dtype=float),
                   tuple(d["samples"]),
                   np.array(d["likelihood"], dtype=float))

    def to_dict(self) -> dict:
        return {"parameters": self.parameter_values.tolist(),
                "samples": list(self.sample_points),
                "likelihood": self.likelihood.tolist()}


def _require_matching(m: StatisticalModel, v: AccessibleVariable):
    if len(m.parameter_values) != len(v.values) or \
            np.any(np.abs(m.parameter_values - v.values) > VALUE_TOL):
        raise ValueMismatch("model parameter values differ from the variable's")


def likelihood_effect(m: StatisticalModel, v: AccessibleVariable, x) -> np.ndarray:
    """F(x) = sum_j p(x|u_j) Pi_j."""
    _require_matching(m, v)
    row = m.likelihood[m.sample_index(x)]
    return v.spectral_sum(row)


@dataclass(frozen=True)
class Povm:
    effects: tuple
    labels: tuple = None

    def __post_init__(self):
        effs = tuple(hilbert.require_effect(e) for e in self.effects)
        object.__setattr__(self, "effects", effs)
        if not effs:
            raise BadDistribution("a POVM needs at least one effect")
        d = effs[0].shape[0]
        hilbert.require(np.abs(sum(effs) - hilbert.identity(d)).max(), MODEL_TOL,
                        BadDistribution, "max |sum of effects - I|")


def povm_of_model(m: StatisticalModel, v: AccessibleVariable) -> Povm:
    """One effect per sample point; completeness holds since the model's
    columns each sum to one."""
    _require_matching(m, v)
    effects = tuple(likelihood_effect(m, v, x) for x in m.sample_points)
    return Povm(effects, labels=m.sample_points)


def density_of(pi, v: AccessibleVariable) -> np.ndarray:
    """sigma = sum_j pi_j Pi_j / rank_j; uniform within each eigenspace so
    that the trace is one also for degenerate variables."""
    w = np.asarray(pi, dtype=float).reshape(-1)
    if len(w) != len(v.values):
        raise BadDistribution("need one weight per variable value")
    if np.any(w < -ZERO_BRANCH_TOL):
        raise BadDistribution("weights must be nonnegative")
    if abs(w.sum() - 1.0) > MODEL_TOL:
        raise BadDistribution(f"weights sum to {w.sum()}, not 1")
    sigma = v.spectral_sum(w / v.ranks())
    return hilbert.require_density(sigma)


class Evidence:
    """The generalized probability q(F) = trace(sigma F).

    Takes only the effect as input, so any two experiments with equal
    likelihood effects receive identical evidence.  Additive over effect
    sums by linearity of the trace.
    """

    def __init__(self, sigma):
        self.sigma = hilbert.require_density(sigma)

    def __call__(self, f) -> float:
        ff = hilbert.require_effect(f)
        return float(np.real(hilbert.trace_product(self.sigma, ff)))


def evidence(sigma) -> Evidence:
    return Evidence(sigma)


@dataclass(frozen=True)
class KrausInstrument:
    kraus: tuple

    def __post_init__(self):
        ops = tuple(hilbert.as_operator(a) for a in self.kraus)
        object.__setattr__(self, "kraus", ops)
        if not ops:
            raise BadDistribution("an instrument needs at least one Kraus operator")
        d = ops[0].shape[0]
        total = sum(hilbert.dagger(a) @ a for a in ops)
        hilbert.require(np.abs(total - hilbert.identity(d)).max(), MODEL_TOL,
                        BadDistribution, "max |sum of A_j^dag A_j - I|")

    @property
    def n_branches(self) -> int:
        return len(self.kraus)


def branch_probabilities(k: KrausInstrument, sigma) -> np.ndarray:
    sm = hilbert.require_density(sigma)
    return np.array([max(np.real(hilbert.trace_product(
        hilbert.dagger(a) @ a, sm)), 0.0) for a in k.kraus])


def kraus_update(k: KrausInstrument, sigma, j: int):
    """(p_j, sigma_j) with sigma_j = A_j sigma A_j^dag / p_j."""
    sm = hilbert.require_density(sigma)
    a = k.kraus[j]
    p = float(np.real(hilbert.trace_product(hilbert.dagger(a) @ a, sm)))
    if p <= ZERO_BRANCH_TOL:
        raise ZeroProbabilityBranch(p)
    post = a @ sm @ hilbert.dagger(a) / p
    post = (post + hilbert.dagger(post)) / 2.0  # strip roundoff asymmetry
    return p, hilbert.require_density(post)


def diagonal_kraus_vs_bayes(k: KrausInstrument, prior, j: int):
    """Posterior from a diagonal instrument vs the Bayes posterior with
    likelihood |A(j, n)|^2; returns both for comparison."""
    diags = []
    for a in k.kraus:
        if np.max(np.abs(a - np.diag(np.diag(a)))) > MODEL_TOL:
            raise NotDiagonal("every Kraus operator must be diagonal")
        diags.append(np.diag(a))
    w = np.asarray(prior, dtype=float).reshape(-1)
    if np.any(w < 0) or abs(w.sum() - 1.0) > MODEL_TOL:
        raise BadDistribution("prior must be a probability vector")
    sigma = np.diag(w).astype(complex)
    p, post = kraus_update(k, sigma, j)
    kraus_posterior = np.real(np.diag(post))
    lik = np.abs(diags[j]) ** 2
    bayes_posterior = w * lik / np.sum(w * lik)
    return kraus_posterior, bayes_posterior


def data_probability(sigma, m: StatisticalModel, v: AccessibleVariable, x) -> float:
    """trace(M(x) sigma) through the model's likelihood effect."""
    sm = hilbert.require_density(sigma)
    f = likelihood_effect(m, v, x)
    return float(np.real(hilbert.trace_product(f, sm)))
