"""Reference values and correctness checks for the benchmark.

Every expected value here is computed from its definition with the
standard library and numpy, never through avq and never from a saved copy
of avq's output.  Each ``check_*`` function raises ``CheckFailed`` with a
message naming the quantity, the value seen and the value expected.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

# The CHSH combination s = E(a,b) - E(a,b') + E(a',b) + E(a',b')
# (Clauser, Horne, Shimony and Holt, 1969), keyed by setting pair.
CHSH_SIGNS = {("a", "b"): 1, ("a", "b'"): -1, ("a'", "b"): 1, ("a'", "b'"): 1}

# Monte Carlo estimates must lie within this many standard errors of the
# exact value.  At 6 a correct estimator fails about twice in 10^9 checks.
MC_SIGMAS = 6.0


class CheckFailed(AssertionError):
    """A program output disagrees with its independent reference."""


def check_close(what, got, want, tol):
    if not abs(got - want) <= tol:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r} within {tol}")


def check_equal(what, got, want):
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def check_residuals(what, residuals: dict, tol=1e-10):
    """Every named residual a program reports is below tol."""
    bad = {k: v for k, v in residuals.items() if not v < tol}
    if bad:
        raise CheckFailed(f"{what}: residuals {bad} not below {tol}")


# Reference values ---------------------------------------------------------

def phi(x: float) -> float:
    """Standard normal distribution function."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def spin_half_transition(a, b) -> float:
    """(1 + a.b)/2 for unit directions a, b."""
    return 0.5 * (1.0 + float(np.dot(a, b)))


def singlet_correlation(angle_a: float, angle_b: float) -> float:
    """E = -cos(angle_a - angle_b) for the singlet in one plane."""
    return -math.cos(angle_a - angle_b)


def chsh_pairs(angles_rad):
    """Angle pair of each setting pair, for (a, a', b, b') in radians."""
    a, ap, b, bp = angles_rad
    return {("a", "b"): (a, b), ("a", "b'"): (a, bp),
            ("a'", "b"): (ap, b), ("a'", "b'"): (ap, bp)}


def chsh_exact(angles_rad) -> float:
    return sum(sign * singlet_correlation(*chsh_pairs(angles_rad)[pair])
               for pair, sign in CHSH_SIGNS.items())


ORTHANT = 0.5 + math.asin(-1.0 / 3.0) / math.pi


def partition_stabiliser_order(n_points: int, blocks, act=None) -> int:
    """Count the permutations of n_points that map blocks onto blocks.

    ``act`` turns a permutation of range(n_points) into the permutation it
    induces on the points the blocks partition (default: the permutation
    itself).
    """
    block_of = {x: k for k, block in enumerate(blocks) for x in block}
    count = 0
    for perm in itertools.permutations(range(n_points)):
        image = act(perm) if act else perm
        if all(len({block_of[image[x]] for x in block}) == 1
               for block in blocks):
            count += 1
    return count


def closure_order(gens, n_points: int) -> int:
    """Order of the permutation group generated by gens, by enumeration."""
    ident = tuple(range(n_points))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = tuple(g[x] for x in e)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(seen)


# Checks -------------------------------------------------------------------

def check_spin_half(a, b, got, what="spin-1/2 transition"):
    check_close(what, got, spin_half_transition(a, b), 1e-10)


def check_chsh_exact(angles_rad, got):
    check_close("exact CHSH s", got, chsh_exact(angles_rad), 1e-12)


def check_orthant(got):
    check_close("orthant probability", got, ORTHANT, 1e-12)


def check_phi_interval(c1, c2, got):
    check_close("Phi(-c1) - Phi(-c2)", got, phi(-c1) - phi(-c2), 1e-12)


def check_spin_spectrum(two_r, values, ranks):
    want = np.arange(two_r + 1) - two_r / 2.0
    if len(values) != two_r + 1:
        raise CheckFailed(f"spin {two_r}/2 spectrum has {len(values)} levels, "
                          f"expected {two_r + 1}")
    dev = float(np.max(np.abs(np.sort(values) - want)))
    if dev > 1e-9:
        raise CheckFailed(f"spin {two_r}/2 spectrum deviates by {dev}")
    if any(int(r) != 1 for r in ranks):
        raise CheckFailed(f"spin {two_r}/2 eigenspace ranks {list(ranks)} "
                          "are not all 1")


def check_doubly_stochastic(matrix, tol=1e-9):
    m = np.asarray(matrix)
    if np.any(m < -tol):
        raise CheckFailed("transition table has a negative entry")
    for axis, what in ((1, "row"), (0, "column")):
        dev = float(np.max(np.abs(m.sum(axis=axis) - 1.0)))
        if dev > tol:
            raise CheckFailed(f"transition table {what} sums deviate from 1 "
                              f"by {dev}")


def check_coherent_overlap(a, b, two_r, got):
    """|<a;+r|b;+r>|^2 = ((1 + a.b)/2)^(2r) for spin coherent states."""
    check_close(f"spin {two_r}/2 top-state overlap", got,
           spin_half_transition(a, b) ** two_r, 1e-9)


def check_quadrature(two_r, order, deviation):
    if order < two_r + 2:
        raise ValueError("the quadrature is exact only for order >= 2r + 2")
    if not deviation < 1e-10:
        raise CheckFailed(f"resolution of the identity at 2r = {two_r}, "
                          f"order {order} deviates by {deviation}")


def check_grid_max(s):
    check_close("grid |s|", abs(s), 2.0 * math.sqrt(2.0), 1e-9)


def check_estimate(what, estimate, exact, se):
    """A Monte Carlo estimate within MC_SIGMAS standard errors of exact."""
    check_close(f"{what} (se {se:.3g})", estimate, exact, MC_SIGMAS * se + 1e-12)


def binomial_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def check_matrix(what, got, want, tol=1e-9):
    dev = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not dev <= tol:
        raise CheckFailed(f"{what}: max deviation {dev} > {tol}")


def check_identical(what, outputs):
    """Every output of a repeated seeded run is byte-identical."""
    if len(set(outputs)) != 1:
        raise CheckFailed(f"{what}: {len(set(outputs))} distinct outputs "
                          f"from {len(outputs)} identical runs")


def check_chsh_sample(correlations, s, angles_rad, n):
    """Cell estimates {pair: (estimate, count)} and s of n singlet trials."""
    pairs = chsh_pairs(angles_rad)
    var_s = 0.0
    for pair, (est, count) in correlations.items():
        exact = singlet_correlation(*pairs[pair])
        var_cell = (1.0 - exact ** 2) / count
        check_estimate(f"E{pair}", est, exact, math.sqrt(var_cell))
        var_s += var_cell
    total = sum(count for _, count in correlations.values())
    if total != n:
        raise CheckFailed(f"cell counts sum to {total}, not {n}")
    check_estimate("simulated s", s, chsh_exact(angles_rad), math.sqrt(var_s))


def check_trial_log(path, correlations):
    """The CSV trial log reproduces every cell's count and estimate."""
    counts, sums = {}, {}
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        for _, la, lb, oa, ob in rows:
            counts[la, lb] = counts.get((la, lb), 0) + 1
            sums[la, lb] = sums.get((la, lb), 0) + int(oa) * int(ob)
    if header != ["trial", "setting_a", "setting_b", "outcome_a", "outcome_b"]:
        raise CheckFailed(f"trial log header {header}")
    for pair, (est, count) in correlations.items():
        if counts.get(pair) != count or sums[pair] / count != est:
            raise CheckFailed(f"trial log cell {pair} disagrees with the "
                              "reported correlation")


def seeded_argv(seed: int) -> list:
    """A seeded avq command whose stdout must repeat byte for byte."""
    rng = np.random.default_rng([seed, 2**32 - 1])
    angles = ",".join(str(int(x)) for x in rng.integers(0, 360, size=4))
    return ["chsh", "--angles", angles, "--n", "100000", "--seed", str(seed)]
