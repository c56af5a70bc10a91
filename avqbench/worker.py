"""In-process workloads of the avq benchmark: one process, one call at a time.

Started by run.py, never by hand:

    PYTHONPATH=src python avqbench/worker.py --workload exact-algebra \
        --seed 1 --seconds 20 --role run --out avqbench/out

It prints ``READY <digest>`` once set-up (import, first inputs, warm-up and
a repeated seeded ``avq`` command) is done, then, except in the ``setup``
role, one ``RESULT <json>`` line.  Roles: ``setup`` stops after READY,
``run`` measures passes untraced, ``trace`` measures passes under the
tracer, ``probe`` times single calls at fixed sizes.

A pass is a fixed list of operations whose inputs are drawn from
(seed, pass index).  Only the calls into avq are timed; drawing inputs and
checking outputs against checks.py are not.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import sys
import time
import traceback

import numpy as np

from avq import (born, cli, experiments, groups, inference, measurement, spin,
                 variables)

import checks
import tracer as tracing

# Sizes of the exact-algebra pass.
DIMS = (32, 64, 96)
TABLE_DIM = 32
CONJ_DIM = 64
RESOLUTIONS = ((20, 24), (16, 18))
GRID_DEG = 1.0

# Sizes of the monte-carlo pass.
SIM_TRIALS = 10**6
CSV_TRIALS = 10**5
MEDICAL_SAMPLES = 10**6
PROP2_DRAWS = 10**6
REPLICATES = 10**4
SAMPLE_SIZE = 10          # draws per replicate of the inference loops
SMALL_CASES = {"born": 600, "measure": 600, "spectrum": 600, "group": 200}


class Timer:
    """Accumulates the wall time of the calls made through it."""

    def __init__(self):
        self.seconds = 0.0

    def __call__(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - t0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def run(self, steps, timer, tracer=None):
        """Run each (name, step) once; a step raising from avq has failed."""
        for name, step in steps:
            self.attempted += 1
            span = tracer.span("op." + name) if tracer else contextlib.nullcontext()
            try:
                with span:
                    step(timer)
            except checks.CheckFailed as exc:
                self.wrong.append(f"{name}: {exc}")
            except Exception:
                self.failed += 1
                sys.stderr.write(f"operation {name} failed:\n{traceback.format_exc()}")


def random_direction(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def pass_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


# ---------------------------------------------------------------------------
# exact-algebra: deterministic constructions at large size

def _ranks(v) -> list:
    return [round(float(np.trace(p).real)) for p in v.projectors]


def exact_algebra_steps(rng, out_dir):
    a, b, axis = (random_direction(rng) for _ in range(3))
    omega = float(rng.uniform(0.1, 3.0))
    perm5 = tuple(int(x) for x in rng.permutation(5))
    # a transposition and a 5-cycle generate S5
    transposition = list(range(5))
    transposition[perm5[0]], transposition[perm5[1]] = perm5[1], perm5[0]
    cycle = [0] * 5
    for k in range(5):
        cycle[perm5[k]] = perm5[(k + 1) % 5]
    gens = [tuple(transposition), tuple(cycle)]
    shape = [(2, 2, 1), (3, 2), (3, 1, 1), (2, 1, 1, 1)][int(rng.integers(4))]
    points = [int(x) for x in rng.permutation(5)]
    blocks, k = [], 0
    for size in shape:
        blocks.append(tuple(points[k:k + size]))
        k += size
    pairs = list(itertools.permutations(range(5), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}

    def on_pairs(perm):
        """The permutation of ordered pairs that a permutation of 5 induces."""
        return tuple(pair_index[perm[x], perm[y]] for x, y in pairs)

    # ordered pairs grouped by their first point
    first_blocks = [tuple(i for i, p in enumerate(pairs) if p[0] == x)
                    for x in range(5)]
    lik = rng.random((4, CONJ_DIM)) + 0.05
    lik /= lik.sum(axis=0, keepdims=True)
    prior64 = rng.dirichlet(np.ones(CONJ_DIM))
    amp = rng.random((3, DIMS[-1])) + 0.05
    amp /= amp.sum(axis=0, keepdims=True)
    prior96 = rng.dirichlet(np.ones(DIMS[-1]))
    branch = int(rng.integers(3))
    st = {}

    def from_operator(d):
        def step(t):
            h = t(spin.component_operator, d - 1, a)
            v = t(variables.AccessibleVariable.from_operator, f"a{d}", h)
            checks.check_spin_spectrum(d - 1, v.values, _ranks(v))
            st[d] = v
        return step

    def transition(t):
        vb = t(variables.AccessibleVariable.from_operator, "b",
               t(spin.component_operator, TABLE_DIM - 1, b))
        table = t(born.transition_table, st[TABLE_DIM], vb)
        checks.check_doubly_stochastic(table.matrix)
        checks.check_coherent_overlap(a, b, TABLE_DIM - 1, table.matrix[-1, -1])

    def derived(t):
        v = st[DIMS[-1]]
        w = t(variables.derived_variable, v, abs)
        want = np.arange(DIMS[-1] // 2) + 0.5
        checks.check_matrix("|m| values", np.sort(w.values), want)
        if _ranks(w) != [2] * (DIMS[-1] // 2):
            raise checks.CheckFailed(f"|m| ranks {_ranks(w)} are not all 2")

    def conjugated(t):
        v = st[CONJ_DIM]
        u = t(spin.rotation, CONJ_DIM - 1, axis, omega)
        w = t(variables.conjugated_variable, v, u, float)
        op_v = sum(x * p for x, p in zip(v.values, v.projectors))
        op_w = sum(x * p for x, p in zip(w.values, w.projectors))
        checks.check_matrix("U^dag A U", op_w, u.conj().T @ op_v @ u)

    def povm_density(t):
        v = st[CONJ_DIM]
        model = t(measurement.StatisticalModel, v.values, tuple(range(4)), lik)
        povm = t(measurement.povm_of_model, model, v)
        sigma = t(measurement.density_of, prior64, v)
        checks.check_matrix("sum of effects", sum(povm.effects),
                            np.eye(CONJ_DIM))
        checks.check_matrix("density", sigma,
                            sum(p * q for p, q in zip(prior64, v.projectors)))

    def kraus_bayes(t):
        inst = t(measurement.KrausInstrument,
                 tuple(np.diag(np.sqrt(row)).astype(complex) for row in amp))
        kraus_post, _ = t(measurement.diagonal_kraus_vs_bayes, inst, prior96,
                          branch)
        prior = t(inference.DiscretePrior, st[DIMS[-1]].values, prior96)
        post = t(inference.bayes_posterior, prior, amp[branch])
        want = prior96 * amp[branch] / np.sum(prior96 * amp[branch])
        checks.check_matrix("Kraus posterior", kraus_post, want, 1e-12)
        checks.check_matrix("Bayes posterior", post.weights, want, 1e-12)

    def closure(t):
        act = t(groups.group_from_permutations, gens, range(5))
        checks.check_equal("S5", act.group.order, math.factorial(5))
        st["s5"] = act

    def stabiliser(t):
        act = st["s5"]
        index = [0] * 5
        for k, block in enumerate(blocks):
            for x in block:
                index[x] = k
        theta = t(groups.VariableMap, tuple(range(5)), tuple(range(len(blocks))),
                  np.array(index))
        sub = t(groups.maximal_permissible_subgroup, theta, act)
        induced = t(groups.induce_action, theta,
                    t(groups.restrict_action, act, sub))
        checks.check_equal(f"stabiliser of {blocks}", sub.order,
                           checks.partition_stabiliser_order(5, blocks))
        sizes = [len(block) for block in blocks]
        for row in induced.table:
            if sorted(row) != list(range(len(blocks))) or \
                    [sizes[k] for k in row] != sizes:
                raise checks.CheckFailed(f"induced action row {row} does not "
                                         "permute blocks of equal size")

    def pair_action(t):
        act = t(groups.group_from_permutations, [on_pairs(g) for g in gens],
                range(len(pairs)))
        theta = t(groups.VariableMap, tuple(range(len(pairs))), tuple(range(5)),
                  np.array([p[0] for p in pairs]))
        sub = t(groups.maximal_permissible_subgroup, theta, act)
        induced = t(groups.induce_action, theta,
                    t(groups.restrict_action, act, sub))
        checks.check_equal("S5 on ordered pairs", act.group.order,
                           math.factorial(5))
        checks.check_equal("stabiliser of the first-point partition", sub.order,
                           checks.partition_stabiliser_order(
                               5, first_blocks, on_pairs))
        checks.check_equal("induced action on points",
                           len({tuple(row) for row in induced.table}),
                           math.factorial(5))

    def resolution(two_r, order):
        def step(t):
            dev = t(spin.resolution_deviation, two_r, order)
            checks.check_quadrature(two_r, order, dev)
        return step

    def grid(t):
        angles, s = t(experiments.chsh_quantum_max, GRID_DEG)
        checks.check_grid_max(s)
        checks.check_chsh_exact(np.deg2rad(angles), s)

    steps = [(f"from_operator_d{d}", from_operator(d)) for d in DIMS]
    steps += [("transition_table", transition), ("derived", derived),
              ("conjugated", conjugated), ("povm_density", povm_density),
              ("kraus_bayes", kraus_bayes), ("s5_closure", closure),
              ("s5_stabiliser", stabiliser), ("s5_ordered_pairs", pair_action)]
    steps += [(f"resolution_{r}_{o}", resolution(r, o)) for r, o in RESOLUTIONS]
    steps += [("chsh_grid", grid)]
    return steps


# ---------------------------------------------------------------------------
# monte-carlo: seeded estimators and many small random cases

def _sample_mean(rng, theta):
    return theta + rng.standard_normal(SAMPLE_SIZE)


def _mean_interval(x):
    half = 1.96 / math.sqrt(SAMPLE_SIZE)
    m = float(np.mean(x))
    return m - half, m + half


def _random_perms(rng, n, count):
    return [tuple(int(x) for x in rng.permutation(n)) for _ in range(count)]


def monte_carlo_steps(rng, out_dir):
    seeds = [int(x) for x in rng.integers(0, 2**31, size=6)]
    sim_angles = np.deg2rad(rng.integers(0, 360, size=4).astype(float))
    csv_angles = np.deg2rad(rng.integers(0, 360, size=4).astype(float))
    c1, c2 = float(rng.uniform(-2.5, -0.5)), float(rng.uniform(0.5, 2.5))
    observed = float(rng.uniform(0.5, 1.5)) / math.sqrt(SAMPLE_SIZE)
    csv_path = os.path.join(out_dir, f"trials-{os.getpid()}.csv")

    def simulate(t):
        cfg = t(experiments.ChshConfig, *sim_angles, SIM_TRIALS, seeds[0])
        run = t(experiments.chsh_simulate, cfg)
        checks.check_chsh_exact(sim_angles, t(experiments.chsh_exact_s, cfg))
        checks.check_chsh_sample(run.correlations, run.s_statistic, sim_angles,
                                 SIM_TRIALS)

    def trial_log(t):
        cfg = t(experiments.ChshConfig, *csv_angles, CSV_TRIALS, seeds[1])
        run = t(experiments.chsh_simulate, cfg)
        t(run.write_csv, csv_path)
        checks.check_chsh_sample(run.correlations, run.s_statistic, csv_angles,
                                 CSV_TRIALS)
        checks.check_trial_log(csv_path, run.correlations)
        os.remove(csv_path)

    def medical(t):
        res = t(experiments.medical_report, MEDICAL_SAMPLES, seeds[2])
        checks.check_orthant(res.bayes_closed)
        checks.check_estimate("Bayes Monte Carlo", res.bayes_mc, checks.ORTHANT,
                              checks.binomial_se(checks.ORTHANT,
                                                 MEDICAL_SAMPLES // 2))
        checks.check_spin_half(experiments.QUANTUM_DIRECTION_A,
                               experiments.QUANTUM_DIRECTION_B, res.quantum)

    def prop2(t):
        spec = t(inference.SimulationSpec, PROP2_DRAWS, seeds[3])
        res = t(inference.prop2_experiment, c1, c2, spec)
        checks.check_phi_interval(c1, c2, res.analytic)
        exact = checks.phi(-c1) - checks.phi(-c2)
        se = checks.binomial_se(exact, PROP2_DRAWS)
        checks.check_estimate("credibility", res.credibility, exact, se)
        checks.check_estimate("coverage", res.coverage, exact, se)

    def mse(t):
        spec = t(inference.SimulationSpec, REPLICATES, seeds[4], theta=1.0)
        total, var, bias_sq = t(inference.mse_decompose, np.mean, _sample_mean,
                                spec)
        # the error of one replicate is N(0, 1/m), so its square has mean
        # 1/m and standard deviation sqrt(2)/m
        se = math.sqrt(2.0) / SAMPLE_SIZE / math.sqrt(REPLICATES)
        checks.check_estimate("mse", total, 1.0 / SAMPLE_SIZE, se)
        checks.check_estimate("bias", math.sqrt(bias_sq), 0.0,
                              1.0 / math.sqrt(SAMPLE_SIZE * REPLICATES))
        checks.check_matrix("mse - var - bias^2", total - var - bias_sq, 0.0,
                            1e-15)

    def coverage(t):
        spec = t(inference.SimulationSpec, REPLICATES, seeds[5], theta=-0.5)
        cov = t(inference.confidence_coverage, _mean_interval, _sample_mean,
                spec)
        exact = checks.phi(1.96) - checks.phi(-1.96)
        checks.check_estimate("coverage", cov, exact,
                              checks.binomial_se(exact, REPLICATES))

    def p_value(t):
        spec = t(inference.SimulationSpec, REPLICATES, seeds[5] + 1)
        p = t(inference.p_value_one_sided, _sample_mean, np.mean, observed,
              spec)
        exact = 1.0 - checks.phi(observed * math.sqrt(SAMPLE_SIZE))
        checks.check_estimate("p-value", p, exact,
                              checks.binomial_se(exact, REPLICATES))

    def born_case(a, b):
        def step(t):
            closed = t(born.spin_half_transition, a, b, +1)
            va = t(variables.AccessibleVariable.from_operator, "a",
                   t(spin.component_operator, 1, a))
            vb = t(variables.AccessibleVariable.from_operator, "b",
                   t(spin.component_operator, 1, b))
            abstract = t(born.transition_probability, va, 1, vb, 1)
            checks.check_spin_half(a, b, closed)
            checks.check_spin_half(a, b, abstract, "abstract transition")
        return step

    def measure_case(d, lik, prior, j):
        def step(t):
            nx = lik.shape[0]
            model = t(measurement.StatisticalModel, np.arange(d, dtype=float),
                      tuple(range(nx)), lik)
            var = t(variables.AccessibleVariable, "v", np.arange(d, dtype=float),
                    tuple(np.outer(e, e).astype(complex) for e in np.eye(d)))
            povm = t(measurement.povm_of_model, model, var)
            inst = t(measurement.KrausInstrument,
                     tuple(np.diag(np.sqrt(row)).astype(complex) for row in lik))
            probs = t(measurement.branch_probabilities, inst,
                      np.diag(prior).astype(complex))
            kraus_post, _ = t(measurement.diagonal_kraus_vs_bayes, inst, prior, j)
            checks.check_matrix("sum of effects", sum(povm.effects), np.eye(d))
            checks.check_matrix("branch probabilities", probs, lik @ prior, 1e-12)
            checks.check_matrix("Kraus posterior", kraus_post,
                                prior * lik[j] / (lik[j] @ prior), 1e-12)
        return step

    def spectrum_case(two_r, a):
        def step(t):
            v = t(variables.AccessibleVariable.from_operator, "s",
                  t(spin.component_operator, two_r, a))
            checks.check_spin_spectrum(two_r, v.values, _ranks(v))
        return step

    def group_case(n, gens):
        def step(t):
            act = t(groups.group_from_permutations, gens, range(n))
            part = t(groups.orbits, act)
            checks.check_equal(f"group generated by {gens}", act.group.order,
                               checks.closure_order(gens, n))
            checks.check_equal("orbit points",
                               sum(len(block) for block in part.blocks), n)
        return step

    steps = [("chsh_simulate", simulate), ("chsh_trial_log", trial_log),
             ("medical", medical), ("prop2", prop2), ("mse_decompose", mse),
             ("confidence_coverage", coverage), ("p_value", p_value)]
    for _ in range(SMALL_CASES["born"]):
        steps.append(("born_case", born_case(random_direction(rng),
                                             random_direction(rng))))
    for _ in range(SMALL_CASES["measure"]):
        d, nx = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        lik = rng.random((nx, d)) + 0.05
        lik /= lik.sum(axis=0, keepdims=True)
        steps.append(("measure_case", measure_case(
            d, lik, rng.dirichlet(np.ones(d)), int(rng.integers(nx)))))
    for _ in range(SMALL_CASES["spectrum"]):
        steps.append(("spectrum_case", spectrum_case(int(rng.integers(1, 5)),
                                                     random_direction(rng))))
    for _ in range(SMALL_CASES["group"]):
        n = int(rng.integers(2, 5))
        steps.append(("group_case", group_case(
            n, _random_perms(rng, n, int(rng.integers(1, 3))))))
    return steps


WORKLOADS = {"exact-algebra": exact_algebra_steps,
             "monte-carlo": monte_carlo_steps}


# ---------------------------------------------------------------------------
# set-up and probes

def run_cli_in_process(argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"avq {' '.join(argv)} exited {code}")
    return buf.getvalue().encode()


def warm_up():
    """The first large complex product in a process can take ~1 s."""
    rng = np.random.default_rng(0)
    for d in (32, 64, 96, 128):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        for _ in range(3):
            np.linalg.eigh(m + m.conj().T)
            m @ m


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def probes(seed: int, out_dir) -> dict:
    """{metric: (value, unit)}: median times of single calls at fixed sizes,
    untraced, and the bytes one large variable holds."""
    rng = np.random.default_rng([seed, 2**32 - 2])
    a, b = random_direction(rng), random_direction(rng)
    res = {}
    for d in DIMS:
        h = spin.component_operator(d - 1, a)
        res[f"variables.from_operator_s.d{d}"] = _median_time(
            lambda: variables.AccessibleVariable.from_operator("a", h), 3)
    v96 = variables.AccessibleVariable.from_operator(
        "a", spin.component_operator(DIMS[-1] - 1, a))
    res["variables.stored_mb.d96"] = (
        v96.values.nbytes + sum(p.nbytes for p in v96.projectors)) / 2**20
    va = variables.AccessibleVariable.from_operator(
        "a", spin.component_operator(TABLE_DIM - 1, a))
    vb = variables.AccessibleVariable.from_operator(
        "b", spin.component_operator(TABLE_DIM - 1, b))
    res["born.transition_table_s.d32"] = _median_time(
        lambda: born.transition_table(va, vb), 3)
    gens = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]
    res["groups.closure_s.s5"] = _median_time(
        lambda: groups.group_from_permutations(gens, range(5)), 3)
    act = groups.group_from_permutations(gens, range(5))
    theta = groups.VariableMap(tuple(range(5)), (0, 1, 2), np.array([0, 0, 1, 1, 2]))
    res["groups.subgroup_s.s5"] = _median_time(
        lambda: groups.maximal_permissible_subgroup(theta, act), 3)
    res["spin.resolution_s.r10"] = _median_time(
        lambda: spin.resolution_deviation(20, 24), 3)
    res["experiments.quantum_max_s.1deg"] = _median_time(
        lambda: experiments.chsh_quantum_max(1.0), 3)
    angles = np.deg2rad([0.0, 90.0, 45.0, 135.0])
    cfg = experiments.ChshConfig(*angles, SIM_TRIALS, seed)
    res["experiments.simulate_s.1e6"] = _median_time(
        lambda: experiments.chsh_simulate(cfg), 3)
    run = experiments.chsh_simulate(
        experiments.ChshConfig(*angles, CSV_TRIALS, seed))
    path = os.path.join(out_dir, f"probe-{os.getpid()}.csv")
    res["experiments.write_csv_s.1e5"] = _median_time(
        lambda: run.write_csv(path), 3)
    os.remove(path)
    spec = inference.SimulationSpec(REPLICATES, seed)
    res["inference.mse_decompose_s.1e4"] = _median_time(
        lambda: inference.mse_decompose(np.mean, _sample_mean, spec), 3)
    h2 = spin.component_operator(1, a)
    res["variables.from_operator_us.d2"] = 1e6 * _median_time(
        lambda: [variables.AccessibleVariable.from_operator("a", h2)
                 for _ in range(100)], 5) / 100
    cases = [step for name, step in monte_carlo_steps(rng, out_dir)
             if name == "measure_case"]
    res["measurement.random_case_us"] = 1e6 * _median_time(
        lambda: [step(lambda fn, *x, **k: fn(*x, **k)) for step in cases],
        3) / len(cases)
    units = {"variables.stored_mb.d96": "MB",
             "variables.from_operator_us.d2": "us",
             "measurement.random_case_us": "us"}
    return {name: (value, units.get(name, "s")) for name, value in res.items()}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--role", required=True,
                   choices=["setup", "run", "trace", "probe"])
    p.add_argument("--out", required=True)
    args = p.parse_args()
    make_steps = WORKLOADS[args.workload]

    steps = make_steps(pass_rng(args.seed, 0), args.out)
    warm_up()
    argv = checks.seeded_argv(args.seed)
    outputs = [run_cli_in_process(argv) for _ in range(2)]
    print("READY", hashlib.sha256(outputs[0]).hexdigest(), flush=True)
    if args.role == "setup":
        return 0
    if args.role == "probe":
        print("RESULT", json.dumps({"metrics": probes(args.seed, args.out)}))
        return 0

    tracer = tracing.Tracer() if args.role == "trace" else None
    if tracer:
        tracing.install(tracer)
    tally = Tally()
    try:
        checks.check_identical(f"avq {' '.join(argv)}", outputs)
    except checks.CheckFailed as exc:
        tally.wrong.append(str(exc))
    pass_times = []
    start = time.perf_counter()
    index = 0
    while not pass_times or time.perf_counter() - start < args.seconds:
        if index:
            steps = make_steps(pass_rng(args.seed, index), args.out)
        timer = Timer()
        tally.run(steps, timer, tracer)
        pass_times.append(timer.seconds)
        index += 1
    result = {"pass_s": pass_times, "attempted": tally.attempted,
              "failed": tally.failed, "wrong": tally.wrong}
    if tracer:
        result["layers"] = tracer.layer_totals()
        tracer.save(os.path.join(
            args.out, f"trace-{args.workload}-{args.seed}.npz"))
    print("RESULT", json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
