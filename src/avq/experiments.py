"""End-to-end experiment harnesses.

Two narratives live here.  The first is a trial-by-trial singlet
experiment: both observers pick settings at random, outcomes are drawn
from the exact two-particle joint law, and each correlation is estimated
conditionally on the realized setting pair; the CHSH combination
E(a,b) - E(a,b') + E(a',b) + E(a',b') is classically bounded by 2 but
reaches 2*sqrt(2) in magnitude quantum mechanically.  The second is the
four-treatment comparison where a Bayesian orthant calculation and a
spin-1/2 transition probability answer the same question differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from . import born, spin, variables

PAPER_REPORTED_BAYES = 0.43  # figure quoted by the source example; the
                             # closed-form orthant value is ~0.3918


# ---------------------------------------------------------------------------
# Singlet trial harness

SETTING_LABELS_A = ("a", "a'")
SETTING_LABELS_B = ("b", "b'")

# The CHSH sign pattern (Clauser, Horne, Shimony and Holt, 1969):
# s = E(a,b) - E(a,b') + E(a',b) + E(a',b').
CHSH_SIGNS = {("a", "b"): +1, ("a", "b'"): -1, ("a'", "b"): +1, ("a'", "b'"): +1}


def chsh_statistic(correlations):
    """Combine the four correlations, keyed by setting pair, into s.

    Values may be floats or numpy arrays of a common shape.
    """
    return sum(sign * correlations[pair] for pair, sign in CHSH_SIGNS.items())


def plane_direction(angle: float) -> np.ndarray:
    """Measurement direction at the given angle (radians) in the x-z plane."""
    return np.array([np.sin(angle), 0.0, np.cos(angle)])


@dataclass(frozen=True)
class ChshConfig:
    a: float        # Alice's settings, radians
    a_prime: float
    b: float        # Bob's settings, radians
    b_prime: float
    n_trials: int
    seed: int

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("need at least one trial")

    def angles(self):
        return {("a", "b"): (self.a, self.b),
                ("a", "b'"): (self.a, self.b_prime),
                ("a'", "b"): (self.a_prime, self.b),
                ("a'", "b'"): (self.a_prime, self.b_prime)}


@dataclass(frozen=True)
class ChshRun:
    config: ChshConfig
    setting_a: np.ndarray   # 0 -> a, 1 -> a'
    setting_b: np.ndarray
    outcome_a: np.ndarray   # +/-1
    outcome_b: np.ndarray
    correlations: dict      # (label_a, label_b) -> (estimate, count); empty cells absent
    s_statistic: float      # None when any setting-pair cell is empty

    def write_csv(self, path):
        """The per-trial log, in the csv module's default (excel) format."""
        code = (8 * self.setting_a + 4 * self.setting_b
                + 2 * (self.outcome_a < 0) + (self.outcome_b < 0))
        body = "".join(f"{t},{_TRIAL_ROWS[c]}" for t, c in enumerate(code.tolist()))
        with open(path, "w", newline="") as fh:
            fh.write("trial,setting_a,setting_b,outcome_a,outcome_b\r\n" + body)


# The row of a trial after its number, indexed by
# 8 * setting_a + 4 * setting_b + 2 * (outcome_a < 0) + (outcome_b < 0).
_TRIAL_ROWS = [f"{la},{lb},{oa},{ob}\r\n" for la in SETTING_LABELS_A
               for lb in SETTING_LABELS_B for oa in born.OUTCOMES for ob in born.OUTCOMES]


# Outcome signs of a joint-law cell, OUTCOMES-major: cell 2i + j is
# (OUTCOMES[i], OUTCOMES[j]).
_CELL_A = np.repeat(np.array(born.OUTCOMES, dtype=int), 2)
_CELL_B = np.tile(np.array(born.OUTCOMES, dtype=int), 2)


def chsh_simulate(cfg: ChshConfig) -> ChshRun:
    """Run seeded trials and estimate each correlation conditionally.

    Settings are drawn independently and uniformly per trial (the ancillary
    randomization both observers condition on); outcomes come from the
    exact singlet joint law at the realized angle pair.

    Sampling is table-driven: row 2 ia + ib of one (4, 4) table holds the
    cumulative joint law of setting pair (ia, ib), and a trial with uniform
    draw u lands in cell k, the count of the first three entries of its row
    that are <= u (inverse-CDF sampling; the last entry is 1 up to rounding,
    so the count stops at 3).  Each correlation is (count - 2 neg) / count,
    where neg counts the pair's trials in the cells of opposite signs.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_trials
    ia = rng.integers(0, 2, size=n)
    ib = rng.integers(0, 2, size=n)
    u = rng.random(n)
    pairs = cfg.angles()
    cdf = np.array([np.cumsum(born.singlet_joint(plane_direction(ang_a),
                                                 plane_direction(ang_b)).ravel())
                    for ang_a, ang_b in pairs.values()])
    pair_code = (2 * ia + ib).astype(np.uint8)
    cell = np.zeros(n, dtype=np.uint8)
    for k in range(3):
        cell += u >= np.take(cdf[:, k], pair_code)
    del u
    counts = np.bincount(4 * pair_code + cell, minlength=16).reshape(4, 4).tolist()
    correlations = {}
    for pair, (plus_plus, plus_minus, minus_plus, minus_minus) in zip(pairs, counts):
        count = plus_plus + plus_minus + minus_plus + minus_minus
        if count > 0:
            correlations[pair] = ((count - 2 * (plus_minus + minus_plus)) / count, count)
    if len(correlations) == 4:
        s = chsh_statistic({pair: est for pair, (est, _) in correlations.items()})
    else:
        s = None
    return ChshRun(cfg, ia, ib, _CELL_A[cell], _CELL_B[cell], correlations, s)


def chsh_exact_s(cfg: ChshConfig) -> float:
    """The statistic with every correlation replaced by its exact value."""
    e = {pair: -np.cos(ang_a - ang_b)
         for pair, (ang_a, ang_b) in cfg.angles().items()}
    return float(chsh_statistic(e))


def classical_statistic_values():
    """AB - AB' + A'B + A'B' over all 16 deterministic +/-1 assignments."""
    values = []
    for signs in product((+1, -1), repeat=4):
        outcome = dict(zip(SETTING_LABELS_A + SETTING_LABELS_B, signs))
        values.append(chsh_statistic({(la, lb): outcome[la] * outcome[lb]
                                      for la, lb in CHSH_SIGNS}))
    return values


def chsh_classical_max() -> int:
    return max(classical_statistic_values())


def chsh_quantum_max(resolution_deg: float = 1.0):
    """Grid search of |s| over angle quadruples using the exact correlations.

    Alice's first angle is fixed at 0 (the statistic only depends on angle
    differences).  Returns ((a, a', b, b') in degrees, s at the maximum).

    For a fixed a', s(b, b') = f(b) + g(b') separates, where f and g are
    the terms of ``chsh_statistic`` that hold b and b'; so the largest |s|
    for that a' is max(max f + max g, -(min f + min g)), found in O(N)
    rather than O(N^2) work.  Since s as summed by ``chsh_statistic``
    rounds differently from f + g, s is re-evaluated on the rows and
    columns within ``_NEAR_EXTREME`` of the extremes of f and g, which
    hold every maximum of |s|.  Ties go to the first maximum in the scan
    order a', then b, then b' (a later one must be strictly larger), so
    the angles and s are those of the full O(N^3) scan, to the bit.
    """
    if not 0.0 < resolution_deg <= 5.0:
        raise ValueError("resolution must be above 0 and at most 5 degrees")
    grid = np.arange(0.0, 360.0, resolution_deg)
    rad = np.deg2rad(grid)
    best = (0.0, (0.0, 0.0, 0.0, 0.0))
    e_a = -np.cos(-rad)      # E(a, x) at every grid angle x, a = 0
    for i, ap in enumerate(rad):
        e = {"a": e_a, "a'": -np.cos(ap - rad)}
        f, g = (chsh_statistic({(la, lb): e[la] if lb == label else 0.0
                                for la, lb in CHSH_SIGNS})
                for label in SETTING_LABELS_B)
        rows, cols = _near_extremes(f), _near_extremes(g)
        pick = {"b": rows[:, None], "b'": cols[None, :]}
        s = chsh_statistic({(la, lb): e[la][pick[lb]] for la, lb in CHSH_SIGNS})
        jb, jbp = np.unravel_index(np.argmax(np.abs(s)), s.shape)
        val = float(s[jb, jbp])
        if abs(val) > abs(best[0]):
            best = (val, (0.0, float(grid[i]), float(grid[rows[jb]]),
                          float(grid[cols[jbp]])))
    return best[1], best[0]


_NEAR_EXTREME = 1e-9  # far above the rounding gap between s and f + g


def _near_extremes(h: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the entries within _NEAR_EXTREME of max or min."""
    return np.flatnonzero((h >= h.max() - _NEAR_EXTREME)
                          | (h <= h.min() + _NEAR_EXTREME))


# ---------------------------------------------------------------------------
# Four-treatment comparison

# Contrast coefficients: each treatment effect against the mean of the rest.
_CONTRAST_A = [Fraction(1), Fraction(-1, 3), Fraction(-1, 3), Fraction(-1, 3)]
_CONTRAST_B = [Fraction(-1, 3), Fraction(1), Fraction(-1, 3), Fraction(-1, 3)]

# Orthogonal half-coefficient transform to the contrast subspace.
PSI_MATRIX = [[Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)],
              [Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2)],
              [Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)],
              [Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)]]

QUANTUM_DIRECTION_A = spin.unit([-1.0, -1.0, -1.0])
QUANTUM_DIRECTION_B = spin.unit([-1.0, 1.0, 1.0])


def medical_contrasts():
    """Exact covariance of the two contrasts under iid standard normals.

    Returns (2x2 covariance of Fractions, correlation as a Fraction).
    Cov of two linear combinations of iid unit normals is the coefficient
    dot product.
    """
    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    cov = [[dot(_CONTRAST_A, _CONTRAST_A), dot(_CONTRAST_A, _CONTRAST_B)],
           [dot(_CONTRAST_B, _CONTRAST_A), dot(_CONTRAST_B, _CONTRAST_B)]]
    rho = cov[0][1] / cov[0][0]
    return cov, rho


def zeta_contrasts(mu) -> tuple:
    m = np.asarray(mu, dtype=float)
    ca = np.array([float(c) for c in _CONTRAST_A])
    cb = np.array([float(c) for c in _CONTRAST_B])
    return float(ca @ m), float(cb @ m)


def psi_transform(mu):
    """Apply the orthogonal half-coefficient transform; norm preserving."""
    m = np.asarray(mu, dtype=float).reshape(4)
    mat = np.array([[float(c) for c in row] for row in PSI_MATRIX])
    return tuple(float(x) for x in mat @ m)


def orthant_conditional(rho: float) -> float:
    """P(Y > 0 | X > 0) for a centered bivariate normal with correlation rho."""
    return 0.5 + np.arcsin(rho) / np.pi


@dataclass(frozen=True)
class MedicalBayes:
    closed_form: float
    mc_estimate: float
    mc_se: float


def medical_bayes(n_samples: int, seed: int) -> MedicalBayes:
    """Monte Carlo and closed-form conditional sign probability.

    Draws iid standard-normal treatment effects, forms the two contrasts,
    and estimates P(second > 0 | first > 0); the closed form is the
    bivariate-normal orthant value at the exact correlation -1/3.
    """
    if n_samples < 10_000:
        raise ValueError("need at least 10^4 samples")
    rng = np.random.default_rng(seed)
    mu = rng.standard_normal((4, n_samples))
    ca = np.array([float(c) for c in _CONTRAST_A])
    cb = np.array([float(c) for c in _CONTRAST_B])
    za = ca @ mu
    zb = cb @ mu
    cond = za > 0
    n_cond = int(cond.sum())
    p = float(np.mean(zb[cond] > 0))
    se = float(np.sqrt(p * (1.0 - p) / n_cond))
    _, rho = medical_contrasts()
    return MedicalBayes(float(orthant_conditional(float(rho))), p, se)


def medical_quantum():
    """The same question answered by the spin-1/2 transition law.

    Returns (closed-form value, value through the abstract transition
    probability between the +1 answers of the two direction components);
    both equal 1/3.
    """
    a, b = QUANTUM_DIRECTION_A, QUANTUM_DIRECTION_B
    closed = born.spin_half_transition(a, b, +1)
    va = variables.AccessibleVariable.from_operator("sign_a", spin.component_operator(1, a))
    vb = variables.AccessibleVariable.from_operator("sign_b", spin.component_operator(1, b))
    i = int(np.argmax(va.values))  # the +1/2 answer plays the +1 sign
    j = int(np.argmax(vb.values))
    abstract = born.transition_probability(va, i, vb, j)
    return closed, abstract


@dataclass(frozen=True)
class MedicalResult:
    rho: float
    bayes_closed: float
    bayes_mc: float
    mc_se: float
    quantum: float
    paper_reported: float

    def to_dict(self) -> dict:
        return {"rho": self.rho, "bayes_closed": self.bayes_closed,
                "bayes_mc": self.bayes_mc, "mc_se": self.mc_se,
                "quantum": self.quantum, "paper_reported": self.paper_reported}


def medical_report(n_samples: int, seed: int) -> MedicalResult:
    _, rho = medical_contrasts()
    bayes = medical_bayes(n_samples, seed)
    quantum_closed, quantum_abstract = medical_quantum()
    if abs(quantum_closed - quantum_abstract) > 1e-10:
        raise AssertionError("closed-form and abstract routes disagree")
    return MedicalResult(float(rho), bayes.closed_form, bayes.mc_estimate,
                         bayes.mc_se, quantum_closed, PAPER_REPORTED_BAYES)
