"""Acceptance suite: eleven numbered criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced.  Criterion 4 pins the standard CHSH settings (0, 90, 45, 135
degrees), at which s = E(a,b) - E(a,b') + E(a',b) + E(a',b') equals
-2*sqrt(2).
"""

import dataclasses
import json
import subprocess
import sys
import time

import numpy as np
from scipy.stats import norm

from avq import (born, experiments, groups, hilbert, inference, measurement,
                 spin, variables)

from conftest import (random_density, random_diagonal_instrument,
                      random_model, random_state)


def report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_proposition1_crossval():
    t0 = time.perf_counter()
    worst = born.crossval(500, 1)["max_deviation"]
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-10 and elapsed < 1.0,
           f"max |abstract - closed| = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_medical_quantum():
    closed, abstract = experiments.medical_quantum()
    dev = max(abs(closed - 1.0 / 3.0), abs(abstract - 1.0 / 3.0))
    report(2, dev < 1e-12, f"max |value - 1/3| = {dev:.2e}")


def test_criterion_03_medical_bayes():
    t0 = time.perf_counter()
    res = experiments.medical_report(10 ** 6, 3)
    elapsed = time.perf_counter() - t0
    gap = abs(res.bayes_mc - res.bayes_closed)
    ok = (gap < 3 * res.mc_se and res.paper_reported == 0.43
          and elapsed < 30.0)
    report(3, ok, f"|mc - closed| = {gap:.4f} vs 3 se = {3 * res.mc_se:.4f}, "
           f"flagged paper value {res.paper_reported}, {elapsed:.1f} s")


def test_criterion_04_chsh():
    t0 = time.perf_counter()
    classical = experiments.chsh_classical_max()
    _, s_max = experiments.chsh_quantum_max(1.0)
    cfg = experiments.ChshConfig(np.deg2rad(0.0), np.deg2rad(90.0),
                                 np.deg2rad(45.0), np.deg2rad(135.0),
                                 10 ** 5, 4)
    run = experiments.chsh_simulate(cfg)
    elapsed = time.perf_counter() - t0
    ok = (classical == 2 and 2.8274 <= abs(s_max) <= 2.8295
          and abs(run.s_statistic) > 2.7 and elapsed < 20.0)
    report(4, ok, f"classical max = {classical}, grid |s| = {abs(s_max):.5f}, "
           f"simulated |s| = {abs(run.s_statistic):.4f} "
           f"(exact s at these settings = {experiments.chsh_exact_s(cfg):.4f}), "
           f"{elapsed:.1f} s")


def test_criterion_05_spin_algebra():
    checks = [spin.algebra_residuals(two_r) for two_r in range(21)]
    worst_comm = max(c["commutation_residual"] for c in checks)
    worst_cas = max(c["casimir_residual"] for c in checks)
    n = spin.unit([1.0, 2.0, 2.0])
    half_sign = np.max(np.abs(spin.rotation(1, n, 2 * np.pi) + np.eye(2)))
    int_sign = np.max(np.abs(spin.rotation(2, n, 2 * np.pi) - np.eye(3)))
    ok = (worst_comm < 1e-12 and worst_cas < 1e-10
          and half_sign < 1e-10 and int_sign < 1e-10)
    report(5, ok, f"commutation {worst_comm:.2e}, casimir {worst_cas:.2e}, "
           f"2pi signs {half_sign:.2e}/{int_sign:.2e}")


def test_criterion_06_resolution_of_identity():
    worst = max(spin.resolution_deviation(two_r, 24)
                for two_r in (1, 2, 3, 4))
    report(6, worst < 1e-8, f"max quadrature deviation = {worst:.2e}")


def test_criterion_07_measurement():
    rng = np.random.default_rng(7)
    povm_worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        m = random_model(rng, d, int(rng.integers(2, 6)))
        v = variables.AccessibleVariable(
            "v", np.arange(d, dtype=float),
            tuple(np.outer(e, e).astype(complex) for e in np.eye(d)))
        total = sum(measurement.povm_of_model(m, v).effects)
        povm_worst = max(povm_worst, float(np.max(np.abs(total - np.eye(d)))))
    prob_worst = bayes_worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 6))
        k = random_diagonal_instrument(rng, d, int(rng.integers(2, 5)))
        prior = rng.random(d) + 0.05
        prior /= prior.sum()
        probs = measurement.branch_probabilities(
            k, np.diag(prior).astype(complex))
        prob_worst = max(prob_worst, abs(float(probs.sum()) - 1.0))
        j = int(np.argmax(probs))
        kp, bp = measurement.diagonal_kraus_vs_bayes(k, prior, j)
        bayes_worst = max(bayes_worst, float(np.max(np.abs(kp - bp))))
    ok = povm_worst < 1e-10 and prob_worst < 1e-10 and bayes_worst < 1e-12
    report(7, ok, f"povm {povm_worst:.2e}, branch-sum {prob_worst:.2e}, "
           f"kraus-vs-bayes {bayes_worst:.2e}")


def test_criterion_08_evidence_additivity():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        q = measurement.Evidence(random_density(rng, d))
        v1, v2 = random_state(rng, d), random_state(rng, d)
        f1 = 0.5 * np.outer(v1, np.conj(v1))
        f2 = 0.5 * np.outer(v2, np.conj(v2))
        hilbert.require_effect(f1 + f2)
        worst = max(worst, abs(q(f1 + f2) - q(f1) - q(f2)))
    report(8, worst < 1e-13, f"max additivity defect = {worst:.2e}")


def test_criterion_09_prop2():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    pairs = [(-1.96, 1.96)]
    for _ in range(2):
        c1 = float(rng.uniform(-2.5, 0.0))
        pairs.append((c1, c1 + float(rng.uniform(0.5, 3.0))))
    worst_sigma = 0.0
    for k, (c1, c2) in enumerate(pairs):
        res = inference.prop2_experiment(
            c1, c2, inference.SimulationSpec(10 ** 5, 900 + k))
        analytic = float(norm.cdf(-c1) - norm.cdf(-c2))
        combined = res.combined_se + 1e-12
        worst_sigma = max(worst_sigma,
                          abs(res.credibility - analytic) / combined,
                          abs(res.coverage - analytic) / combined)
    elapsed = time.perf_counter() - t0
    report(9, worst_sigma < 3.0 and elapsed < 30.0,
           f"worst deviation = {worst_sigma:.2f} combined se, {elapsed:.1f} s")


def test_criterion_10_group_layer():
    # 4-point fixture: coordinate swap on {(1,1),(1,-1),(-1,1),(-1,-1)}
    space4 = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    perm = [space4.index((b, a)) for a, b in space4]
    act4 = groups.group_from_permutations([perm], space4)
    theta4 = groups.VariableMap.from_function(space4, lambda p: p[0])
    def2_ok = not groups.check_permissible(theta4, act4)
    sub = groups.maximal_permissible_subgroup(theta4, act4)
    thm2_ok = (sub.order == 1
               and groups.check_permissible(
                   theta4, groups.restrict_action(act4, sub)))
    # 6-point fixture: parity under the shift-by-2 cyclic action on {1..6}
    space6 = (1, 2, 3, 4, 5, 6)
    shift2 = [space6.index((x + 1) % 6 + 1) for x in space6]
    act6 = groups.group_from_permutations([shift2], space6)
    theta6 = groups.VariableMap.from_function(space6, lambda x: x % 2)
    ind = groups.induce_action(theta6, act6)
    lemma1_ok = all(
        np.array_equal(ind.table[g][ind.table[h]],
                       ind.table[ind.group.mul(g, h)])
        for g in range(ind.group.order) for h in range(ind.group.order))
    lemma1_ok &= all(np.array_equal(ind.table[g], np.arange(2))
                     for g in range(ind.group.order))
    # sign-flip fixture: the two-orbit +/-c structure
    pts = [-2, -1, 1, 2]
    flip = groups.group_from_permutations([[pts.index(-x) for x in pts]], pts)
    part = groups.orbits(flip)
    orbit_vals = {tuple(sorted(flip.space[i] for i in b)) for b in part.blocks}
    orbits_ok = orbit_vals == {(-1, 1), (-2, 2)} and not part.transitive
    ok = def2_ok and thm2_ok and lemma1_ok and orbits_ok
    report(10, ok, f"definition-2 {def2_ok}, theorem-2 {thm2_ok}, "
           f"lemma-1 {lemma1_ok}, orbits {orbits_ok}")


def test_criterion_11_determinism():
    cfg = experiments.ChshConfig(0.1, 1.3, 0.7, 2.2, 20000, 11)
    r1, r2 = experiments.chsh_simulate(cfg), experiments.chsh_simulate(cfg)
    chsh_ok = (np.array_equal(r1.outcome_a, r2.outcome_a)
               and np.array_equal(r1.outcome_b, r2.outcome_b)
               and r1.s_statistic == r2.s_statistic)
    m1 = dataclasses.asdict(experiments.medical_report(10 ** 5, 11))
    m2 = dataclasses.asdict(experiments.medical_report(10 ** 5, 11))
    med_ok = json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)
    spec = inference.SimulationSpec(10 ** 5, 11)
    p_ok = inference.prop2_experiment(-1.0, 1.0, spec) == \
        inference.prop2_experiment(-1.0, 1.0, spec)
    args = [sys.executable, "-m", "avq.cli", "medical",
            "--n", "20000", "--seed", "11"]
    o1 = subprocess.run(args, capture_output=True).stdout
    o2 = subprocess.run(args, capture_output=True).stdout
    cli_ok = o1 == o2 and len(o1) > 0
    ok = chsh_ok and med_ok and p_ok and cli_ok
    report(11, ok, f"chsh {chsh_ok}, medical {med_ok}, prop2 {p_ok}, "
           f"cli bytes {cli_ok}")
