"""End-to-end experiment harnesses.

Two narratives live here.  The first is a trial-by-trial singlet
experiment: both observers pick settings at random, outcomes are drawn
from the exact two-particle joint law, and each correlation is estimated
conditionally on the realized setting pair; the CHSH combination
E(a,b) - E(a,b') + E(a',b) + E(a',b') is classically bounded by 2 but
reaches 2*sqrt(2) in magnitude quantum mechanically.  The second is the
four-treatment comparison where a Bayesian orthant calculation and a
spin-1/2 transition probability answer the same question differently.

Both walk the sub-streams of one seeded draw in lock-step, in blocks of
at most 2^14 samples (see ``inference``), so the numbers are those of one
whole-array draw and memory does not grow with the number of samples: a
run keeps its counts, and a CHSH run's trials are drawn again from its
seed whenever they are read.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from . import born, spin, variables
from .errors import DomainError
from .hilbert import RESIDUAL_TOL
from .inference import require_count, require_finite, sample_blocks, sub_streams

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
    """A simulation's config and its estimates; no per-trial array is kept.

    ``trials()`` draws the trials again from the config's seed, one block
    at a time, and each per-trial property builds its whole array from
    them each time it is read.
    """

    config: ChshConfig
    correlations: dict      # (label_a, label_b) -> (estimate, count); empty cells absent
    s_statistic: float      # None when any setting-pair cell is empty

    def trials(self):
        """(slice, ia, ib, cell) for each block of trials, in order."""
        return _trial_blocks(self.config)

    @property
    def setting_a(self) -> np.ndarray:
        """uint8 per trial: 0 -> a, 1 -> a'."""
        return np.concatenate([ia for _, ia, _, _ in self.trials()])

    @property
    def setting_b(self) -> np.ndarray:
        """uint8 per trial: 0 -> b, 1 -> b'."""
        return np.concatenate([ib for _, _, ib, _ in self.trials()])

    @property
    def outcome_a(self) -> np.ndarray:
        """int8 per trial: +/-1."""
        return np.concatenate([_CELL_A[cell] for _, _, _, cell in self.trials()])

    @property
    def outcome_b(self) -> np.ndarray:
        """int8 per trial: +/-1."""
        return np.concatenate([_CELL_B[cell] for _, _, _, cell in self.trials()])

    def write_csv(self, path):
        """The per-trial log, in the csv module's default (excel) format,
        written one block of trials at a time."""
        with open(path, "w", newline="") as fh:
            fh.write("trial,setting_a,setting_b,outcome_a,outcome_b\r\n")
            for part, ia, ib, cell in self.trials():
                code = 8 * ia + 4 * ib + cell
                fh.write("".join([f"{t},{_TRIAL_ROWS[c]}"
                                  for t, c in enumerate(code.tolist(), part.start)]))


# The row of a trial after its number, indexed by
# 8 * setting_a + 4 * setting_b + cell.
_TRIAL_ROWS = [f"{la},{lb},{oa},{ob}\r\n" for la in SETTING_LABELS_A
               for lb in SETTING_LABELS_B for oa in born.OUTCOMES for ob in born.OUTCOMES]


# Outcome signs of a joint-law cell, OUTCOMES-major: cell 2i + j is
# (OUTCOMES[i], OUTCOMES[j]).
_CELL_A = np.repeat(np.array(born.OUTCOMES, dtype=np.int8), 2)
_CELL_B = np.tile(np.array(born.OUTCOMES, dtype=np.int8), 2)


def _draw_settings(rng, m: int) -> np.ndarray:
    """m settings, each 0 or 1, as uint8.  They are drawn as int64, which
    takes one 32-bit half of a 64-bit draw per setting."""
    return rng.integers(0, 2, size=m).astype(np.uint8)


def _trial_blocks(cfg: ChshConfig):
    """(slice, ia, ib, cell) for each block of the run's trials, in order:
    the uint8 settings and the joint-law cell of each trial (see
    ``chsh_simulate``)."""
    n = cfg.n_trials
    draw_a, draw_b, draw_u = sub_streams(cfg.seed, [n, n], _draw_settings)
    cdf = np.array([np.cumsum(born.singlet_joint(plane_direction(ang_a),
                                                 plane_direction(ang_b)).ravel())
                    for ang_a, ang_b in cfg.angles().values()])
    for part in sample_blocks(n):
        ia = _draw_settings(draw_a, part.stop - part.start)
        ib = _draw_settings(draw_b, len(ia))
        u = draw_u.random(len(ia))
        pair_code = 2 * ia + ib
        cell = np.zeros(len(u), dtype=np.uint8)
        for k in range(3):
            cell += u >= np.take(cdf[:, k], pair_code)
        yield part, ia, ib, cell


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

    The draw is every ``ia``, then every ``ib``, then every uniform.  These
    three sub-streams are walked in lock-step, one block at a time, and
    only the 16 counts of setting pair and cell are kept.  Settings are
    uint8, and every code below (at most 15) is uint8 arithmetic.
    """
    counts = np.zeros(16, dtype=np.int64)
    for _, ia, ib, cell in _trial_blocks(cfg):
        counts += np.bincount(8 * ia + 4 * ib + cell, minlength=16)
    correlations = {}
    for pair, (plus_plus, plus_minus, minus_plus, minus_minus) in zip(
            cfg.angles(), counts.reshape(4, 4).tolist()):
        count = plus_plus + plus_minus + minus_plus + minus_minus
        if count > 0:
            correlations[pair] = ((count - 2 * (plus_minus + minus_plus)) / count, count)
    if len(correlations) == 4:
        s = chsh_statistic({pair: est for pair, (est, _) in correlations.items()})
    else:
        s = None
    return ChshRun(cfg, correlations, s)


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


MAX_RESOLUTION = 5.0  # degrees: the coarsest grid the search accepts


def chsh_quantum_max(resolution_deg: float = 1.0):
    """Grid search of |s| over angle quadruples using the exact correlations.

    Alice's first angle is fixed at 0 (the statistic only depends on angle
    differences).  Returns ((a, a', b, b') in degrees, s at the maximum).

    For a fixed a', s(b, b') = f(b) + g(b'), where f and g are the terms
    of ``chsh_statistic`` that hold b and b'.  A row is searched by summing
    s again on the (b, b') pairs within ``_NEAR_EXTREME`` of the extremes
    of f and g, which hold every maximum of |s| on the row, since s as
    summed rounds differently from f + g.

    Each of f and g is a signed sum of E(t, x) = -cos(t - x), so f(x) =
    -|c_f| cos(x - arg c_f) for the phasor c_f, ``chsh_statistic``'s terms
    on exp(i a) and exp(i a'), and no |s| on the row exceeds its bound
    |c_f| + |c_g| + ``_FLOAT_SLACK``, the slack covering rounding.  The
    |s| found on the row of largest bound is a floor for the maximum; a
    row whose bound is below it cannot hold the first maximum.  The other
    rows are searched in ascending a', a later row must be strictly larger,
    and within a row the first maximum in the order b, then b' is kept, so
    the angles and s are those of the full O(N^3) scan, to the bit.

    The bound, 2 |cos(a'/2)| + 2 |sin(a'/2)|, nears 2 sqrt(2) only close to
    a' = 90 and 270 degrees, so O(1) rows are searched (one to six on the
    grids in the tests): O(N) work and memory for N grid angles.
    """
    if not 0.0 < resolution_deg <= MAX_RESOLUTION:
        raise DomainError(
            f"resolution must be above 0 and at most {MAX_RESOLUTION:g} degrees")
    grid = np.arange(0.0, 360.0, resolution_deg)
    rad = np.deg2rad(grid)
    e_a = -np.cos(-rad)      # E(a, x) at every grid angle x, a = 0
    phasor = {"a": 1.0, "a'": np.exp(1j * rad)}
    bound = sum(np.abs(_terms(phasor, label)) for label in SETTING_LABELS_B) + _FLOAT_SLACK

    def search(i):
        """(s, index of b, index of b') at the first largest |s| of row i."""
        e = {"a": e_a, "a'": -np.cos(rad[i] - rad)}
        near = {label: np.flatnonzero(_near_extremes(_terms(e, label)))
                for label in SETTING_LABELS_B}
        pick = {"b": near["b"][:, None], "b'": near["b'"][None, :]}
        s = chsh_statistic({(la, lb): e[la][pick[lb]] for la, lb in CHSH_SIGNS})
        jb, jbp = np.unravel_index(np.argmax(np.abs(s)), s.shape)
        return float(s[jb, jbp]), near["b"][jb], near["b'"][jbp]

    floor = abs(search(np.argmax(bound))[0])
    # max keeps the first of equal maxima, the scan's tie rule
    i, s, jb, jbp = max(((i, *search(i)) for i in np.flatnonzero(bound >= floor)),
                        key=lambda found: abs(found[1]))
    return (0.0, float(grid[i]), float(grid[jb]), float(grid[jbp])), s


_NEAR_EXTREME = 1e-9  # far above the rounding gap between s and f + g
_FLOAT_SLACK = 1e-12  # bounds the rounding of s and of |c_f| + |c_g|, a few 1e-16


def _terms(e: dict, label: str):
    """The terms of ``chsh_statistic`` that hold Bob's setting ``label``,
    summed as s sums them, with ``e`` giving E per Alice setting."""
    return chsh_statistic({(la, lb): e[la] if lb == label else 0.0
                           for la, lb in CHSH_SIGNS})


def _near_extremes(h: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``h`` within _NEAR_EXTREME of its max or min."""
    return (h >= h.max() - _NEAR_EXTREME) | (h <= h.min() + _NEAR_EXTREME)


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
    would.  The four rows are walked in lock-step, and each block's two
    contrast sums are added row by row in that order, so the sums are
    those of the whole draw; only the two counts outlive a block.
    """
    require_count(n_samples, 10_000, "need at least 10^4 samples")
    require_count(seed, 0, "seed must be non-negative")
    rows = sub_streams(seed, [n_samples] * (len(_FLOAT_A) - 1),
                       np.random.Generator.standard_normal)
    n_cond = hits = 0
    for part in sample_blocks(n_samples):
        za = np.zeros(part.stop - part.start)
        zb = np.zeros(len(za))
        for rng, coef_a, coef_b in zip(rows, _FLOAT_A, _FLOAT_B):
            mu = rng.standard_normal(len(za))
            za += coef_a * mu
            zb += coef_b * mu
        cond = za > 0
        n_cond += np.count_nonzero(cond)
        hits += np.count_nonzero(cond & (zb > 0))
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
        return asdict(self)


def medical_report(n_samples: int, seed: int) -> MedicalResult:
    _, rho = medical_contrasts()
    bayes = medical_bayes(n_samples, seed)
    quantum_closed, quantum_abstract = medical_quantum()
    if abs(quantum_closed - quantum_abstract) > RESIDUAL_TOL:
        raise AssertionError("closed-form and abstract routes disagree")
    return MedicalResult(float(rho), bayes.closed_form, bayes.mc_estimate,
                         bayes.mc_se, quantum_closed, PAPER_REPORTED_BAYES)
