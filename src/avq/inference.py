"""Classical statistical companion: Bayes posteriors, MSE decomposition,
credibility/confidence intervals, p-values, and the translation-model
experiment where credibility and coverage coincide.

All Monte Carlo runs are driven by an explicit seed and generate their
draws in a fixed canonical order, so a repeated run is bit-identical.
A run's draw is a sequence of consecutive sub-streams of one seeded
generator, such as all n data draws and then all n posterior draws.
``sub_streams`` finds the start of each sub-stream by drawing and
discarding the earlier ones once, and the run then walks its sub-streams
in lock-step, at most 2^14 samples of each at a time.  The numbers are
those of one whole-array draw, and a run keeps a few blocks and its
counts, so its memory does not grow with n: a run is its seed plus its
counts.  ``p_value_one_sided`` keeps a count too; only ``mse_decompose``
keeps 8 B per replicate, as running sums would move the last bits of its
moments.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import (BadDistribution, DimMismatch, DomainError, NotFinite, NotInteger,
                     ZeroEvidence)

# Samples per block of a large Monte Carlo draw.  A block of float64 draws
# is 128 kB, so a draw's temporaries stay a few blocks long whatever its
# size, and the rows of one block of a CHSH trial log, joined into one
# string, take about 1.3 MB of Python strings.
_BLOCK = 2**14


def sample_blocks(n: int) -> list:
    """Slices cutting range(n) into consecutive blocks of at most 2^14."""
    return [slice(i, min(i + _BLOCK, n)) for i in range(0, n, _BLOCK)]


def sub_streams(seed: int, lengths, draw) -> list:
    """A generator at the start of each consecutive sub-stream of the draw
    seeded by ``seed``: one more than ``lengths``, which holds the length of
    every sub-stream but the last.

    ``draw(rng, m)`` draws m values of the earlier sub-streams.  Each is
    drawn and discarded once, one block at a time, and the generator copied
    at its end; the copy keeps the spare 32-bit half that ``integers``
    buffers, so drawing from the returned generators block by block gives
    the numbers of one whole-array draw.
    """
    rng = np.random.default_rng(seed)
    starts = []
    for length in lengths:
        starts.append(copy.deepcopy(rng))
        for part in sample_blocks(length):
            draw(rng, part.stop - part.start)
    return starts + [rng]


def require_count(value, low: int, message: str) -> None:
    """Raise NotInteger unless ``value`` is an int and not a bool, and
    DomainError(message) if it is below ``low``; a seed has low 0."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise NotInteger(f"expected an int, got {value!r} of type {type(value).__name__}")
    if value < low:
        raise DomainError(message)


def require_index(value, size: int, what: str) -> None:
    """Raise NotInteger unless ``value`` is an int and not a bool, and
    DomainError unless it indexes one of ``size`` items: 0 <= value < size."""
    message = f"{what} must lie in 0..{size - 1}, got {value!r}"
    require_count(value, 0, message)
    if value >= size:
        raise DomainError(message)


def require_finite(what: str, *values) -> None:
    """Raise NotFinite unless every value is a finite real number."""
    try:
        finite = all(map(math.isfinite, values))
    except TypeError:  # not a real number
        finite = False
    if not finite:
        raise NotFinite(f"{what} must be finite real numbers, got {values}")


def require_probabilities(w, what: str) -> np.ndarray:
    """``w`` as a 1-D float array, checked to be a probability vector: every
    weight finite (NotFinite), none negative and |sum - 1| <= RESIDUAL_TOL
    (BadDistribution, the sum's error carrying its residual)."""
    w = np.asarray(w, dtype=float).reshape(-1)
    if not np.isfinite(w).all():
        raise NotFinite(f"{what} {w} are not finite")
    if np.any(w < 0):
        raise BadDistribution(f"{what} must be nonnegative")
    hilbert.require(abs(w.sum() - 1.0), hilbert.RESIDUAL_TOL, BadDistribution,
                    f"|sum of {what} - 1|")
    return w


def _std_normal_cdf(x: float) -> float:
    """Phi(x) = erfc(-x / sqrt 2) / 2; erfc keeps the lower tail accurate."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class DiscretePrior:
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)
        if v.shape != w.shape:
            raise DimMismatch("values and weights must have equal length")
        if not np.isfinite(v).all():
            raise NotFinite(f"values {v} are not finite")
        require_probabilities(w, "weights")


@dataclass(frozen=True)
class SimulationSpec:
    n: int
    seed: int
    theta: float = 0.0

    def __post_init__(self):
        require_count(self.n, 1, "need at least one replicate")
        require_count(self.seed, 0, "seed must be non-negative")
        require_finite("theta", self.theta)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


@dataclass(frozen=True)
class IntervalEstimate:
    lower: float
    upper: float
    level: float

    def __post_init__(self):
        # an endpoint may be -inf or +inf, an unbounded side, but not NaN
        require_finite("interval endpoints",
                       *(x for x in (self.lower, self.upper) if not math.isinf(x)))
        if self.lower > self.upper:
            raise DomainError("interval endpoints are out of order")
        if not (0.0 < self.level < 1.0):
            raise DomainError("level must lie in (0, 1)")


def bayes_posterior(prior: DiscretePrior, likelihood) -> DiscretePrior:
    """Weights proportional to likelihood(theta) * prior(theta).

    ``likelihood`` is a callable value -> density (or an array of
    densities aligned with the prior's values).
    """
    if callable(likelihood):
        lik = np.array([float(likelihood(v)) for v in prior.values])
    else:
        lik = np.asarray(likelihood, dtype=float).reshape(-1)
    w = prior.weights * lik
    total = w.sum()
    if total <= 0.0:
        raise ZeroEvidence("no parameter value has positive likelihood mass")
    return DiscretePrior(prior.values, w / total)


def posterior_mean(posterior: DiscretePrior) -> float:
    return float(posterior.values @ posterior.weights)


def _replicate_estimates(estimator, sampler, spec: SimulationSpec):
    """Yield estimator(sampler(rng, theta)) as a float for each of the
    spec's n replicates, drawn in order from one generator seeded by the
    spec, keeping one replicate's data at a time."""
    rng = spec.rng()
    for _ in range(spec.n):
        yield float(estimator(sampler(rng, spec.theta)))


def mse_decompose(estimator, sampler, spec: SimulationSpec):
    """Empirical (mse, variance, bias^2) of an estimator.

    ``sampler(rng, theta)`` draws one replicate's data; ``estimator(data)``
    returns a point estimate.  The decomposition mse = var + bias^2 holds
    exactly on the same-sample moments.  Keeps the estimates, 8 B per
    replicate, and one replicate's data at a time.
    """
    err = np.fromiter(_replicate_estimates(estimator, sampler, spec), float,
                      spec.n) - spec.theta
    mse = float(np.mean(err ** 2))
    bias_sq = float(np.mean(err)) ** 2
    return mse, mse - bias_sq, bias_sq


def credibility_interval(posterior, level: float) -> IntervalEstimate:
    """Equal-tail interval from posterior samples or a DiscretePrior."""
    if not (0.0 < level < 1.0):
        raise DomainError("level must lie in (0, 1)")
    alpha = 1.0 - level
    if isinstance(posterior, DiscretePrior):
        order = np.argsort(posterior.values)
        vals = posterior.values[order]
        cum = np.cumsum(posterior.weights[order])
        lo = vals[np.searchsorted(cum, alpha / 2.0)]
        hi = vals[np.searchsorted(cum, 1.0 - alpha / 2.0)]
    else:
        samples = np.asarray(posterior, dtype=float).reshape(-1)
        if samples.size == 0:
            raise DomainError("need at least one posterior sample")
        require_finite("posterior samples' extremes",
                       float(samples.min()), float(samples.max()))
        lo, hi = np.quantile(samples, [alpha / 2.0, 1.0 - alpha / 2.0])
    return IntervalEstimate(float(lo), float(hi), level)


def confidence_coverage(rule, sampler, spec: SimulationSpec) -> float:
    """Fraction of replicates whose interval covers the true parameter.

    ``rule(data)`` returns an IntervalEstimate or a (lower, upper) pair.
    Keeps one replicate's data at a time and a count, nothing per replicate.
    """
    rng = spec.rng()
    hits = 0
    for _ in range(spec.n):
        iv = rule(sampler(rng, spec.theta))
        lo, hi = (iv.lower, iv.upper) if isinstance(iv, IntervalEstimate) else iv
        if lo <= spec.theta <= hi:
            hits += 1
    return hits / spec.n


def p_value_one_sided(sampler, estimator, observed: float, spec: SimulationSpec) -> float:
    """Monte Carlo P(estimate(X) > observed) under the null parameter.

    Strict inequality.  Keeps one replicate's data at a time and a count,
    nothing per replicate.
    """
    if observed == -np.inf:
        return 1.0
    if observed == np.inf:
        return 0.0
    require_finite("observed", observed)
    above = sum(est > observed for est in _replicate_estimates(estimator, sampler, spec))
    return above / spec.n


@dataclass(frozen=True)
class EquivalenceResult:
    credibility: float
    coverage: float
    analytic: float
    se_credibility: float
    se_coverage: float

    @property
    def combined_se(self) -> float:
        return float(np.hypot(self.se_credibility, self.se_coverage))


def prop2_experiment(c1: float, c2: float, spec: SimulationSpec) -> EquivalenceResult:
    """Translation model X ~ N(theta, 1) with the equivariant interval
    [X + c1, X + c2].

    Under the flat (invariant) prior the posterior is N(x, 1), so the
    interval's posterior mass and its frequentist coverage are both
    Phi(-c1) - Phi(-c2).  Both sides are estimated by Monte Carlo: one
    data draw and one posterior draw per replicate, in canonical order,
    all n data draws first.  The two sub-streams are walked in lock-step,
    one block at a time, keeping only the two hit counts.
    """
    require_finite("c1 and c2", c1, c2)
    if c1 >= c2:
        raise DomainError("need c1 < c2")
    theta, n = spec.theta, spec.n
    data, posterior = sub_streams(spec.seed, [n], np.random.Generator.standard_normal)
    cred_hits = cov_hits = 0
    for part in sample_blocks(n):
        xb = data.standard_normal(part.stop - part.start)
        xb += theta
        theta_post = posterior.standard_normal(len(xb))
        theta_post += xb
        cred_hits += np.count_nonzero((xb + c1 <= theta_post) & (theta_post <= xb + c2))
        cov_hits += np.count_nonzero((xb + c1 <= theta) & (theta <= xb + c2))
    cred = float(cred_hits / n)
    cov = float(cov_hits / n)
    analytic = _std_normal_cdf(-c1) - _std_normal_cdf(-c2)
    se_cred = float(np.sqrt(cred * (1.0 - cred) / n))
    se_cov = float(np.sqrt(cov * (1.0 - cov) / n))
    return EquivalenceResult(cred, cov, analytic, se_cred, se_cov)
