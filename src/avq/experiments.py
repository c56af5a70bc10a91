"""End-to-end experiment harnesses.

Two narratives live here.  The first is a trial-by-trial singlet
experiment: both observers pick settings at random, outcomes are drawn
from the exact two-particle joint law, and each correlation is estimated
conditionally on the realized setting pair; the CHSH combination
E(a,b) - E(a,b') + E(a',b) + E(a',b') is classically bounded by 2 but
reaches 2*sqrt(2) in magnitude quantum mechanically.  The second is the
four-treatment comparison where a Bayesian orthant calculation and a
spin-1/2 transition probability answer the same question differently.

Both draw their samples in blocks of at most 2^14 from one seeded
generator, in the order of one whole-array draw, so the numbers do not
depend on the block length.  Per sample, ``chsh_simulate`` keeps the 32 B
of the four int64 arrays it returns, ``ChshRun.write_csv`` nothing, and
``medical_bayes`` the 16 B of its two contrast sums; all else is one block
long.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from . import born, spin, variables
from .errors import DomainError
from .inference import require_count, require_finite, sample_blocks

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
        require_finite("angles", self.a, self.a_prime, self.b, self.b_prime)
        require_count(self.n_trials, 1, "need at least one trial")
        require_count(self.seed, 0, "seed must be non-negative")

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
        """The per-trial log, in the csv module's default (excel) format,
        written one block of trials at a time."""
        with open(path, "w", newline="") as fh:
            fh.write("trial,setting_a,setting_b,outcome_a,outcome_b\r\n")
            for part in sample_blocks(len(self.setting_a)):
                code = (8 * self.setting_a[part] + 4 * self.setting_b[part]
                        + 2 * (self.outcome_a[part] < 0) + (self.outcome_b[part] < 0))
                fh.write("".join([f"{t},{_TRIAL_ROWS[c]}"
                                  for t, c in enumerate(code.tolist(), part.start)]))


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

    All settings are drawn before the uniforms, so ``ia`` and ``ib`` are
    drawn whole; the uniforms, cells, outcomes and counts go one block at
    a time.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_trials
    ia = rng.integers(0, 2, size=n)
    ib = rng.integers(0, 2, size=n)
    pairs = cfg.angles()
    cdf = np.array([np.cumsum(born.singlet_joint(plane_direction(ang_a),
                                                 plane_direction(ang_b)).ravel())
                    for ang_a, ang_b in pairs.values()])
    outcome_a = np.empty(n, dtype=_CELL_A.dtype)
    outcome_b = np.empty(n, dtype=_CELL_B.dtype)
    counts = np.zeros(16, dtype=np.int64)
    for part in sample_blocks(n):
        u = rng.random(part.stop - part.start)
        pair_code = (2 * ia[part] + ib[part]).astype(np.uint8)
        cell = np.zeros(len(u), dtype=np.uint8)
        for k in range(3):
            cell += u >= np.take(cdf[:, k], pair_code)
        outcome_a[part] = _CELL_A[cell]
        outcome_b[part] = _CELL_B[cell]
        counts += np.bincount(4 * pair_code + cell, minlength=16)
    correlations = {}
    for pair, (plus_plus, plus_minus, minus_plus, minus_minus) in zip(
            pairs, counts.reshape(4, 4).tolist()):
        count = plus_plus + plus_minus + minus_plus + minus_minus
        if count > 0:
            correlations[pair] = ((count - 2 * (plus_minus + minus_plus)) / count, count)
    if len(correlations) == 4:
        s = chsh_statistic({pair: est for pair, (est, _) in correlations.items()})
    else:
        s = None
    return ChshRun(cfg, ia, ib, outcome_a, outcome_b, correlations, s)


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
    for that a' is max(max f + max g, -(min f + min g)).  Since s as summed
    by ``chsh_statistic`` rounds differently from f + g, s is re-evaluated
    on the (b, b') pairs within ``_NEAR_EXTREME`` of the extremes of f and
    g over the grid, which hold every maximum of |s|.

    Those entries are found without evaluating f or g on the whole grid.
    Each is a signed sum of E(t, x) = -cos(t - x), so f(x) = -|c| cos(x -
    arg c) with the phasor c = sum of sign * exp(i t) over its terms
    (``chsh_statistic`` on exp(i a) and exp(i a')): f is least at arg c and
    greatest at arg c + pi.  Every angle lies within h/2 of a grid angle (h
    the step; the gap where the grid wraps past 360 degrees is at most h),
    so the grid maximum of f as rounded is at least |c| cos(h/2) - eps,
    eps bounding the rounding of f.  An entry within ``_NEAR_EXTREME`` of
    it then has |c| cos(x - arg c - pi) >= |c| cos(h/2) - T, with T =
    ``_NEAR_EXTREME`` + ``_FLOAT_SLACK`` and ``_FLOAT_SLACK`` above 2 eps,
    so x lies within W = arccos(cos(h/2) - T / |c|) of arg c + pi; likewise
    for the minimum around arg c.  Each row takes the grid columns within W
    of both points, plus ``_WINDOW_MARGIN`` steps on each side for rounding
    an angle to its nearest column and for the wrap gap.  A window as wide
    as the row is the whole row; W reaches pi when |c| is below about T / 2,
    which at 1 degree happens for a' = 180 in f and a' = 0 in g, where f or
    g vanishes.  f and g are evaluated at those columns only, and
    filtered against each row's max and min over them, which are the grid
    row's max and min since the windows hold them.

    W is about h/2 unless |c| is tiny, so a row takes 2 (2 (1 +
    ``_WINDOW_MARGIN``) + 1) columns for each of f and g, and only O(1)
    rows take the whole row: O(N) work and memory for N grid angles,
    against N^2 for the full grid.

    Every s is summed elementwise in the order ``chsh_statistic`` gives,
    exactly as a per-entry scan sums it, and ties go to the first maximum
    in the scan order a', then b, then b', so the angles and s are those
    of the full O(N^3) scan, to the bit.
    """
    if not 0.0 < resolution_deg <= 5.0:
        raise DomainError("resolution must be above 0 and at most 5 degrees")
    grid = np.arange(0.0, 360.0, resolution_deg)
    rad = np.deg2rad(grid)
    e_a = -np.cos(-rad)      # E(a, x) at every grid angle x, a = 0
    phasor = {"a": 1.0, "a'": np.exp(1j * rad)}
    near = {}
    for label in SETTING_LABELS_B:
        row, col = _extreme_windows(_terms(phasor, label), np.deg2rad(resolution_deg))
        e = {"a": e_a[col], "a'": -np.cos(rad[row] - rad[col])}
        keep = _near_extremes(row, _terms(e, label))
        near[label] = row[keep], col[keep], {la: v[keep] for la, v in e.items()}
    (row_b, jb, _), (row_bp, jbp, _) = near.values()
    # pair each b candidate with every b' candidate of its row, in order
    per_row = np.bincount(row_bp, minlength=len(rad))
    n_bp = per_row[row_b]
    offset = (np.cumsum(per_row) - per_row)[row_b] - (np.cumsum(n_bp) - n_bp)
    pair = np.repeat(np.arange(len(jb)), n_bp)
    pick = {"b": pair, "b'": offset[pair] + np.arange(len(pair))}
    s = chsh_statistic({(la, lb): near[lb][2][la][pick[lb]] for la, lb in CHSH_SIGNS})
    k = np.argmax(np.abs(s))
    ib, ibp = pick["b"][k], pick["b'"][k]
    return ((0.0, float(grid[row_b[ib]]), float(grid[jb[ib]]), float(grid[jbp[ibp]])),
            float(s[k]))


_NEAR_EXTREME = 1e-9  # far above the rounding gap between s and f + g
_FLOAT_SLACK = 1e-12  # bounds the rounding of f, g and |c|, a few 1e-16
_WINDOW_MARGIN = 2    # grid steps added to each side of a window


def _terms(e: dict, label: str):
    """The terms of ``chsh_statistic`` that hold Bob's setting ``label``,
    summed as s sums them, with ``e`` giving E per Alice setting."""
    return chsh_statistic({(la, lb): e[la] if lb == label else 0.0
                           for la, lb in CHSH_SIGNS})


def _extreme_windows(c: np.ndarray, step: float) -> tuple:
    """(row, column) indices, row-major, of the grid columns within the
    window of each row's extremes, for f(x) = -|c| cos(x - arg c) on the
    grid of len(c) angles spaced ``step`` radians apart."""
    n = len(c)
    r = np.abs(c)
    with np.errstate(divide="ignore"):
        cos_w = np.cos(step / 2) - (_NEAR_EXTREME + _FLOAT_SLACK) / r
    half = np.ceil(np.arccos(np.clip(cos_w, -1.0, 1.0)) / step).astype(int) + _WINDOW_MARGIN
    width = 2 * half + 1
    whole = width >= n
    # two windows per row, at the minimum arg c and the maximum arg c + pi,
    # or the whole row as one window and an empty one
    centre = np.rint((np.angle(c)[:, None] + [0.0, np.pi]) / step)
    first = np.where(whole[:, None], 0, centre.astype(int) - half[:, None])
    length = np.where(whole[:, None], [n, 0], width[:, None]).ravel()
    start = np.repeat(np.cumsum(length) - length, length)
    # window columns run from -n to 2n; wrap them onto the grid by lookup
    col = np.tile(np.arange(n), 3)[n + np.repeat(first.ravel(), length)
                                   + np.arange(len(start)) - start]
    # sort each row's columns, dropping repeats where its windows overlap
    row = np.repeat(np.arange(n), length.reshape(n, 2).sum(1))
    key = row * n + col
    key.sort()
    keep = np.r_[True, key[1:] != key[:-1]]
    return row[keep], key[keep] - row[keep] * n


def _near_extremes(row: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``h`` within _NEAR_EXTREME of the max or min
    of their row, where ``row`` labels the entries and is sorted."""
    first = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
    size = np.diff(np.r_[first, len(row)])
    top = np.repeat(np.maximum.reduceat(h, first), size)
    bottom = np.repeat(np.minimum.reduceat(h, first), size)
    return (h >= top - _NEAR_EXTREME) | (h <= bottom + _NEAR_EXTREME)


# ---------------------------------------------------------------------------
# Four-treatment comparison

# Contrast coefficients: each treatment effect against the mean of the rest.
_CONTRAST_A = [Fraction(1), Fraction(-1, 3), Fraction(-1, 3), Fraction(-1, 3)]
_CONTRAST_B = [Fraction(-1, 3), Fraction(1), Fraction(-1, 3), Fraction(-1, 3)]
_FLOAT_A = np.array([float(c) for c in _CONTRAST_A])
_FLOAT_B = np.array([float(c) for c in _CONTRAST_B])

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
    return float(_FLOAT_A @ m), float(_FLOAT_B @ m)


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

    The draws come treatment by treatment, as the rows of one (4, n) draw
    would, so the two contrast sums are kept whole (16 B per sample) while
    each treatment's draws are made and added one block at a time.
    """
    require_count(n_samples, 10_000, "need at least 10^4 samples")
    require_count(seed, 0, "seed must be non-negative")
    rng = np.random.default_rng(seed)
    za = np.zeros(n_samples)
    zb = np.zeros(n_samples)
    for coef_a, coef_b in zip(_FLOAT_A, _FLOAT_B):
        for part in sample_blocks(n_samples):
            mu = rng.standard_normal(part.stop - part.start)
            za[part] += coef_a * mu
            zb[part] += coef_b * mu
    n_cond = hits = 0
    for part in sample_blocks(n_samples):
        cond = za[part] > 0
        n_cond += np.count_nonzero(cond)
        hits += np.count_nonzero(cond & (zb[part] > 0))
    p = float(hits / n_cond)
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
