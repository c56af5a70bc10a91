"""Classical statistical companion: Bayes posteriors, MSE decomposition,
credibility/confidence intervals, p-values, and the translation-model
experiment where credibility and coverage coincide.

All Monte Carlo runs are driven by an explicit seed and generate their
draws in a fixed canonical order, so a repeated run is bit-identical.
A run that draws n values of several sub-streams walks them with
``lockstep``, so a run is its seed plus its counts.  A replicate loop
keeps one replicate's data at a time and a count; only ``mse_decompose``
keeps 8 B per replicate, as running sums would move the last bits of its
moments.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import (BadDistribution, DimMismatch, DomainError, NotFinite, ZeroEvidence,
                     require_count, require_finite, require_real, require_seed)

# Samples per block of a large Monte Carlo draw.  A block of float64 draws
# is 128 kB, so a draw's temporaries stay a few blocks long whatever its size.
_BLOCK = 2**14


def lockstep(seed: int, n: int, draws):
    """Yield (slice, values) for each consecutive block of at most 2^14 of
    range(n), ``values[i]`` holding the block's part of sub-stream i.

    The draw seeded by ``seed`` is one sub-stream of n values per function
    in ``draws``, in order, and ``draws[i](rng, m)`` draws m values of
    sub-stream i.  Each later sub-stream's start is found once, by drawing
    and discarding the ones before it a block at a time and copying the
    generator there; the copy keeps the spare 32-bit half that
    ``integers`` buffers.  So the values are those of one whole-array
    draw, and a walk holds one block of each sub-stream, whatever n.
    """
    parts = [slice(i, min(i + _BLOCK, n)) for i in range(0, n, _BLOCK)]
    rng = np.random.default_rng(seed)
    starts = []
    for draw in draws[:-1]:
        starts.append(copy.deepcopy(rng))
        for part in parts:
            draw(rng, part.stop - part.start)
    starts.append(rng)
    for part in parts:
        m = part.stop - part.start
        yield part, [draw(start, m) for draw, start in zip(draws, starts)]


def _std_normal_cdf(x: float) -> float:
    """Phi(x) = erfc(-x / sqrt 2) / 2; erfc keeps the lower tail accurate."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class DiscretePrior:
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = hilbert._as_numbers(self.values, float, "values").reshape(-1)
        w = hilbert.require_probabilities(self.weights, "weights")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)
        if v.shape != w.shape:
            raise DimMismatch("values and weights must have equal length")
        if not np.isfinite(v).all():
            raise NotFinite(f"values {v} are not finite")


@dataclass(frozen=True)
class SimulationSpec:
    n: int
    seed: int
    theta: float = 0.0

    def __post_init__(self):
        require_count(self.n, 1, "need at least one replicate")
        require_seed(self.seed)
        require_finite("theta", self.theta)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def _interval(ends) -> tuple:
    """The interval rule: ``ends`` as a (lower, upper) pair of floats, each
    real and not NaN (an infinite end is an unbounded side), lower <= upper."""
    try:
        lower, upper = ends
    except (TypeError, ValueError):  # not a pair
        raise NotFinite(f"an interval is a (lower, upper) pair, got {ends!r}") from None
    lower = require_real(lower, "interval endpoints")
    upper = require_real(upper, "interval endpoints")
    if lower > upper:
        raise DomainError(f"interval endpoints ({lower}, {upper}) are out of order")
    return lower, upper


def _level(level) -> float:
    """The level rule: ``level`` as a float in (0, 1)."""
    level = require_real(level, "level")
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must lie in (0, 1), got {level}")
    return level


@dataclass(frozen=True)
class IntervalEstimate:
    lower: float
    upper: float
    level: float

    def __post_init__(self):
        lower, upper = _interval((self.lower, self.upper))
        vars(self).update(lower=lower, upper=upper, level=_level(self.level))


def bayes_posterior(prior: DiscretePrior, likelihood) -> DiscretePrior:
    """Weights proportional to likelihood(theta) * prior(theta).

    ``likelihood`` is a callable value -> density (or an array of
    densities aligned with the prior's values).
    """
    if callable(likelihood):
        lik = np.array([require_real(likelihood(v), "a likelihood") for v in prior.values])
    else:
        lik = hilbert._as_numbers(likelihood, float, "likelihoods").reshape(-1)
    if lik.shape != prior.weights.shape:
        raise DimMismatch(f"{lik.size} likelihoods for {prior.weights.size} parameter values")
    if not np.isfinite(lik).all():
        raise NotFinite(f"likelihood {lik} is not finite")
    if np.any(lik < 0):
        raise BadDistribution(f"likelihood {lik} must be nonnegative")
    w = prior.weights * lik
    total = w.sum()
    if total <= 0.0:
        raise ZeroEvidence("no parameter value has positive likelihood mass")
    return DiscretePrior(prior.values, w / total)


def _replicate_estimates(estimator, sampler, spec: SimulationSpec):
    """Yield estimator(sampler(rng, theta)) as a finite float for each of
    the spec's n replicates, drawn in order from one generator seeded by
    the spec, keeping one replicate's data at a time.  An estimate that is
    not a finite real number raises NotFinite: it comes from the caller's
    functions."""
    rng = spec.rng()
    for _ in range(spec.n):
        estimate = require_real(estimator(sampler(rng, spec.theta)), "an estimate")
        if math.isinf(estimate):
            raise NotFinite(f"the estimator returned {estimate}, not a finite estimate")
        yield estimate


def mse_decompose(estimator, sampler, spec: SimulationSpec):
    """Empirical (mse, variance, bias^2) of an estimator.

    ``sampler(rng, theta)`` draws one replicate's data; ``estimator(data)``
    returns a point estimate.  The decomposition mse = var + bias^2 holds
    exactly on the same-sample moments.  Keeps the estimates, 8 B per
    replicate, and one replicate's data at a time.
    """
    est = np.fromiter(_replicate_estimates(estimator, sampler, spec), float, spec.n)
    err = est - spec.theta
    mse = float(np.mean(err ** 2))
    bias_sq = float(np.mean(err)) ** 2
    return mse, mse - bias_sq, bias_sq


def credibility_interval(posterior, level: float) -> IntervalEstimate:
    """Equal-tail interval from posterior samples or a DiscretePrior."""
    level = _level(level)
    alpha = 1.0 - level
    if isinstance(posterior, DiscretePrior):
        order = np.argsort(posterior.values)
        vals = posterior.values[order]
        cum = np.cumsum(posterior.weights[order])
        # a tail past the last cumulative weight ends at the last value
        lo, hi = vals[np.minimum(np.searchsorted(cum, [alpha / 2.0, 1.0 - alpha / 2.0]),
                                 len(vals) - 1)]
    else:
        samples = hilbert._as_numbers(posterior, float, "posterior samples").reshape(-1)
        if samples.size == 0:
            raise DomainError("need at least one posterior sample")
        require_finite("posterior samples' extremes",
                       float(samples.min()), float(samples.max()))
        lo, hi = np.quantile(samples, [alpha / 2.0, 1.0 - alpha / 2.0])
    return IntervalEstimate(float(lo), float(hi), level)


def confidence_coverage(rule, sampler, spec: SimulationSpec) -> float:
    """Fraction of replicates whose interval covers the true parameter.

    ``rule(data)`` returns an IntervalEstimate or a (lower, upper) pair
    that keeps the interval rule.  Keeps one replicate's data at a time and
    a count, nothing per replicate.
    """
    def covers(data) -> bool:
        iv = rule(data)
        lo, hi = (iv.lower, iv.upper) if isinstance(iv, IntervalEstimate) else _interval(iv)
        return lo <= spec.theta <= hi

    return sum(_replicate_estimates(covers, sampler, spec)) / spec.n


def p_value_one_sided(sampler, estimator, observed: float, spec: SimulationSpec) -> float:
    """Monte Carlo P(estimate(X) > observed) under the null parameter.

    Strict inequality; ``observed`` may be infinite.  Keeps one replicate's
    data at a time and a count, nothing per replicate.
    """
    observed = require_real(observed, "observed")
    estimates = _replicate_estimates(estimator, sampler, spec)
    return sum(est > observed for est in estimates) / spec.n


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
    data draw and one posterior draw per replicate, all n data draws
    first (see ``lockstep``), keeping only the two hit counts.
    """
    require_finite("c1 and c2", c1, c2)
    if c1 >= c2:
        raise DomainError("need c1 < c2")
    theta, n = spec.theta, spec.n
    cred_hits = cov_hits = 0
    for _, (xb, theta_post) in lockstep(spec.seed, n,
                                        [np.random.Generator.standard_normal] * 2):
        xb += theta
        theta_post += xb
        cred_hits += np.count_nonzero((xb + c1 <= theta_post) & (theta_post <= xb + c2))
        cov_hits += np.count_nonzero((xb + c1 <= theta) & (theta <= xb + c2))
    cred = float(cred_hits / n)
    cov = float(cov_hits / n)
    analytic = _std_normal_cdf(-c1) - _std_normal_cdf(-c2)
    se_cred = float(np.sqrt(cred * (1.0 - cred) / n))
    se_cov = float(np.sqrt(cov * (1.0 - cov) / n))
    return EquivalenceResult(cred, cov, analytic, se_cred, se_cov)
