"""Each correctness check of the benchmark rejects a planted wrong value.

    python -m pytest avqbench

Every test feeds a check the value it expects, which must pass, and the
same value with a planted error, which must raise CheckFailed.
"""

import math

import numpy as np
import pytest

import checks

A = np.array([0.0, 0.6, 0.8])
B = np.array([1.0, 0.0, 0.0])
ANGLES = np.deg2rad([0.0, 90.0, 45.0, 135.0])


def rejects(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


def test_spin_half_transition():
    checks.check_spin_half(A, B, 0.5)
    checks.check_spin_half(A, A, 1.0)
    rejects(checks.check_spin_half, A, B, 0.5 + 1e-8)


def test_chsh_exact_uses_the_chsh_signs():
    s = -2.0 * math.sqrt(2.0)
    checks.check_chsh_exact(ANGLES, s)
    rejects(checks.check_chsh_exact, ANGLES, -s)
    # the same correlations with the minus sign on E(a',b') give 0
    rejects(checks.check_chsh_exact, ANGLES, 0.0)


def test_orthant():
    checks.check_orthant(0.39182655203060974)
    rejects(checks.check_orthant, 0.43)


def test_phi_interval():
    checks.check_phi_interval(-1.96, 1.96, 0.9500042097035591)
    rejects(checks.check_phi_interval, -1.96, 1.96, 0.95)


def test_spin_spectrum():
    checks.check_spin_spectrum(2, [-1.0, 0.0, 1.0], [1, 1, 1])
    rejects(checks.check_spin_spectrum, 2, [-1.0, 0.0, 1.0 + 1e-6], [1, 1, 1])
    rejects(checks.check_spin_spectrum, 2, [-1.0, 1.0], [1, 2])
    rejects(checks.check_spin_spectrum, 2, [-1.0, 0.0, 1.0], [1, 2, 1])


def test_doubly_stochastic():
    good = np.array([[0.25, 0.75], [0.75, 0.25]])
    checks.check_doubly_stochastic(good)
    rejects(checks.check_doubly_stochastic, good + [[0.0, 1e-6], [0.0, 0.0]])
    rejects(checks.check_doubly_stochastic, np.array([[0.5, 0.5], [0.6, 0.4]]))


def test_coherent_overlap():
    checks.check_coherent_overlap(A, B, 3, 0.125)
    rejects(checks.check_coherent_overlap, A, B, 3, 0.5)


def test_group_orders():
    assert checks.closure_order([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], 5) == 120
    assert checks.partition_stabiliser_order(5, [(0, 1), (2, 3), (4,)]) == 8
    assert checks.partition_stabiliser_order(5, [(0, 1, 2), (3, 4)]) == 12
    checks.check_equal("S5", 120, math.factorial(5))
    rejects(checks.check_equal, "S5", 119, math.factorial(5))


def test_quadrature():
    checks.check_quadrature(20, 24, 3e-15)
    rejects(checks.check_quadrature, 20, 24, 1e-6)
    rejects(checks.check_quadrature, 20, 24, float("nan"))


def test_grid_max():
    checks.check_grid_max(-2.0 * math.sqrt(2.0))
    rejects(checks.check_grid_max, 2.82)


def test_monte_carlo_estimate():
    se = checks.binomial_se(0.5, 10**6)
    checks.check_estimate("p", 0.5 + 5 * se, 0.5, se)
    rejects(checks.check_estimate, "p", 0.5 + 7 * se, 0.5, se)


def test_chsh_sample():
    exact = {pair: (checks.singlet_correlation(*angles), 250_000)
             for pair, angles in checks.chsh_pairs(ANGLES).items()}
    s = checks.chsh_exact(ANGLES)
    checks.check_chsh_sample(exact, s, ANGLES, 10**6)
    rejects(checks.check_chsh_sample, exact, s + 0.05, ANGLES, 10**6)
    rejects(checks.check_chsh_sample, exact, s, ANGLES, 10**6 + 1)
    off = dict(exact)
    off["a", "b"] = (off["a", "b"][0] + 0.05, 250_000)
    rejects(checks.check_chsh_sample, off, s, ANGLES, 10**6)


def test_trial_log(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("trial,setting_a,setting_b,outcome_a,outcome_b\n"
                    "0,a,b,1,-1\n1,a,b,1,1\n2,a',b',-1,1\n")
    checks.check_trial_log(path, {("a", "b"): (0.0, 2), ("a'", "b'"): (-1.0, 1)})
    rejects(checks.check_trial_log, path,
            {("a", "b"): (0.5, 2), ("a'", "b'"): (-1.0, 1)})
    rejects(checks.check_trial_log, path,
            {("a", "b"): (0.0, 3), ("a'", "b'"): (-1.0, 1)})


def test_matrix():
    checks.check_matrix("I", np.eye(3), np.eye(3))
    rejects(checks.check_matrix, "I", np.eye(3) * (1 + 1e-6), np.eye(3))


def test_identical():
    checks.check_identical("run", [b"{}\n", b"{}\n", b"{}\n"])
    rejects(checks.check_identical, "run", [b"{}\n", b"{} \n"])


def test_close_and_equal():
    checks.check_close("rho", -1.0 / 3.0, -1.0 / 3.0, 1e-15)
    rejects(checks.check_close, "rho", -0.33, -1.0 / 3.0, 1e-15)
    rejects(checks.check_close, "rho", float("nan"), -1.0 / 3.0, 1e-15)
    checks.check_equal("classical max", 2, 2)
    rejects(checks.check_equal, "classical max", None, 2)


def test_residuals():
    checks.check_residuals("spin --check", {"casimir": 1e-15, "turn": 0.0})
    rejects(checks.check_residuals, "spin --check", {"casimir": 1e-15, "turn": 1e-9})
    rejects(checks.check_residuals, "spin --check", {"casimir": float("nan")})
