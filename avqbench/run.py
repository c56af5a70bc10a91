"""The avq benchmark: run one workload at one seed and print its metrics.

    python3 avqbench/run.py --workload cli-batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; avq is imported from ./src, not from an
installed copy.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (setup_s, pass_s, peak_rss_mb); with
``--trace 1`` they are the per-layer ones, from a traced run plus
untraced probes.  See README.md for what each metric means.

Workloads:
  cli-batch      one client running the README's seeded commands, each as a
                 fresh ``python -m avq.cli`` process
  exact-algebra  deterministic constructions at large size, in one process
  monte-carlo    seeded estimators and many small random cases, in one process
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
PROBE_TIMEOUT = 170


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def log(msg: str):
    sys.stderr.write(msg + "\n")


# ---------------------------------------------------------------------------
# cli-batch

def _vec(v) -> str:
    return ",".join(repr(float(x)) for x in v)


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _operator_dict(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": m.shape[0], "re": m.real.ravel().tolist(),
            "im": m.imag.ravel().tolist()}


def cli_commands(seed: int, index: int, workdir: Path):
    """The fixed command list of one pass: (name, argv, check(report))."""
    rng = np.random.default_rng([seed, index])
    seeds = [int(x) for x in rng.integers(0, 2**31, size=5)]
    two_r = int(rng.integers(1, 5))
    order = 16
    a, b = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 3)))
    angles_deg = [int(x) for x in rng.integers(0, 360, size=4)]
    c1, c2 = float(rng.uniform(-2.5, -0.5)), float(rng.uniform(0.5, 2.5))
    # measure on files: a random real orthonormal eigenbasis, a likelihood
    # table and a diagonal density
    d, nx = 3, 3
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
    lik = rng.random((nx, d)) + 0.05
    lik /= lik.sum(axis=0, keepdims=True)
    weights = rng.dirichlet(np.ones(d))
    sigma = basis @ np.diag(weights) @ basis.T
    projectors = [np.outer(basis[:, j], basis[:, j]) for j in range(d)]
    model = _write_json(workdir / "model.json", {
        "parameters": [0.0, 1.0, 2.0], "samples": list(range(nx)),
        "likelihood": lik.tolist()})
    variable = _write_json(workdir / "variable.json", {
        "name": "v", "values": [0.0, 1.0, 2.0],
        "projectors": [_operator_dict(p) for p in projectors]})
    state = _write_json(workdir / "state.json", _operator_dict(sigma))
    config = _write_json(workdir / "config.json", {"classical_max": True})
    trials = workdir / "trials.csv"
    sim_n, med_n, prop_n = 100_000, 1_000_000, 100_000

    def spin_check(rep):
        c = dict(rep["check"])
        checks.check_equal("two_r", rep["two_r"], two_r)
        checks.check_equal("full-turn sign", c.pop("full_turn_sign"),
                           (-1.0) ** two_r)
        checks.check_residuals("spin --check", c)

    def spin_resolution(rep):
        checks.check_quadrature(two_r, order, rep["resolution_deviation"])

    def born_closed(rep):
        checks.check_spin_half(a, b, rep["transition"]["closed_form"])

    def born_crossval(rep):
        c = dict(rep["crossval"])
        checks.check_equal("crossval pairs", c.pop("pairs"), 200)
        checks.check_residuals("born --crossval", c)

    def chsh_bounds(rep):
        checks.check_equal("classical max", rep["classical_max"], 2)
        q = rep["quantum_max"]
        checks.check_grid_max(q["s"])
        checks.check_chsh_exact(np.deg2rad(q["angles_deg"]), q["s"])

    def chsh_simulate(rep):
        sim = rep["simulation"]
        rad = np.deg2rad(angles_deg)
        corr = {tuple(k.split(",")): (v["estimate"], v["count"])
                for k, v in sim["correlations"].items()}
        checks.check_chsh_exact(rad, sim["exact_s"])
        checks.check_chsh_sample(corr, sim["s"], rad, sim_n)
        checks.check_trial_log(trials, corr)

    def medical(rep):
        checks.check_orthant(rep["bayes_closed"])
        checks.check_estimate("Bayes Monte Carlo", rep["bayes_mc"], checks.ORTHANT,
                              checks.binomial_se(checks.ORTHANT, med_n // 2))
        checks.check_close("contrast correlation", rep["rho"], -1.0 / 3.0, 1e-15)
        checks.check_close("quantum answer", rep["quantum"], 1.0 / 3.0, 1e-12)

    def measure_random(rep):
        c = dict(rep["random_check"])
        checks.check_equal("random-check cases", c.pop("cases"), 100)
        checks.check_residuals("measure --random-check", c)

    def measure_files(rep):
        povm = rep["povm"]
        effects = [np.reshape(np.array(e["re"]) + 1j * np.array(e["im"]), (d, d))
                   for e in povm["effects"]]
        checks.check_matrix("sum of effects", sum(effects), np.eye(d))
        for x in range(nx):
            want = sum(lik[x, j] * weights[j] for j in range(d))
            checks.check_matrix(f"p(x={x})", povm["data_probabilities"][str(x)],
                                want, 1e-12)

    def prop2(rep):
        r = rep["prop2"]
        checks.check_phi_interval(c1, c2, r["analytic"])
        exact = checks.phi(-c1) - checks.phi(-c2)
        se = checks.binomial_se(exact, prop_n)
        checks.check_estimate("credibility", r["credibility"], exact, se)
        checks.check_estimate("coverage", r["coverage"], exact, se)

    def chsh_config(rep):
        checks.check_equal("classical max from a config file",
                           rep.get("classical_max"), 2)

    r_text = f"{two_r}/2"
    return [
        ("spin_check", ["spin", "--r", r_text, "--check"], spin_check),
        ("spin_resolution", ["spin", "--r", r_text, "--resolution-order",
                             str(order)], spin_resolution),
        ("born_closed", ["born", f"--a={_vec(a)}", f"--b={_vec(b)}"], born_closed),
        ("born_crossval", ["born", "--crossval", "200", "--seed", str(seeds[0])],
         born_crossval),
        ("chsh_bounds", ["chsh", "--classical-max", "--quantum-max",
                         "--resolution", "1"], chsh_bounds),
        ("chsh_simulate", ["chsh", "--angles", ",".join(map(str, angles_deg)),
                           "--n", str(sim_n), "--seed", str(seeds[1]),
                           "--format", "csv", "--out", str(trials)], chsh_simulate),
        ("medical", ["medical", "--n", str(med_n), "--seed", str(seeds[2])], medical),
        ("measure_random", ["measure", "--random-check", "100", "--seed",
                            str(seeds[3])], measure_random),
        ("measure_files", ["measure", "--model", model, "--variable", variable,
                           "--state", state], measure_files),
        ("inference_prop2", ["inference", "--op", "prop2", f"--c1={c1!r}",
                             f"--c2={c2!r}", "--n", str(prop_n), "--seed",
                             str(seeds[4])], prop2),
        # fails while a config file cannot set store_true flags
        ("chsh_config", ["chsh", "--config", config], chsh_config),
    ]


def avq_cmd(argv, trace_prefix=None) -> list:
    if trace_prefix:
        return [sys.executable, str(HERE / "tracer.py"), trace_prefix, *argv]
    return [sys.executable, "-m", "avq.cli", *argv]


def cli_pass(seed, index, workdir, tally, trace_dir=None):
    """Run one pass; returns {command: seconds} and, traced, layer totals."""
    times, layers = {}, {}
    for name, argv, check in cli_commands(seed, index, workdir):
        prefix = str(trace_dir / f"{index}-{name}") if trace_dir else None
        tally["attempted"] += 1
        t0 = time.perf_counter()
        proc = subprocess.run(avq_cmd(argv, prefix), capture_output=True,
                              env=child_env(), cwd=ROOT, timeout=PROBE_TIMEOUT)
        times[name] = time.perf_counter() - t0
        if trace_dir:
            with open(prefix + ".json") as fh:
                for layer, (s, c) in json.load(fh).items():
                    s0, c0 = layers.get(layer, (0.0, 0))
                    layers[layer] = (s0 + s, c0 + c)
        if proc.returncode != 0:
            tally["failed"] += 1
            err = proc.stderr.decode(errors="replace").strip().splitlines()
            log(f"{name} exited {proc.returncode}: {err[-1] if err else ''}")
            continue
        try:
            check(json.loads(proc.stdout))
        except (checks.CheckFailed, KeyError, ValueError) as exc:
            tally["wrong"].append(f"{name}: {exc!r}")
    return times, layers


def cli_setup(seed: int, workdir: Path):
    """Input generation plus one warm-up avq process running a seeded argv."""
    t0 = time.perf_counter()
    workdir.mkdir(parents=True, exist_ok=True)
    cli_commands(seed, 0, workdir)
    proc = subprocess.run(avq_cmd(checks.seeded_argv(seed)), capture_output=True,
                          env=child_env(), cwd=ROOT, timeout=PROBE_TIMEOUT,
                          check=True)
    return time.perf_counter() - t0, proc.stdout


def check_identical(outputs, tally):
    """Set-up repeats one seeded avq command; its stdout must not change."""
    try:
        checks.check_identical("repeated seeded avq run", outputs)
    except checks.CheckFailed as exc:
        tally["wrong"].append(str(exc))


def run_cli_batch(args, tally) -> dict:
    workdir = OUT / f"cli-{args.seed}-{os.getpid()}"
    setups, outputs = [], []
    for _ in range(1 if args.trace else SETUP_SAMPLES):
        seconds, stdout = cli_setup(args.seed, workdir)
        setups.append(seconds)
        outputs.append(stdout)
    check_identical(outputs, tally)
    trace_dir = OUT / f"trace-cli-batch-{args.seed}" if args.trace else None
    if trace_dir:
        trace_dir.mkdir(exist_ok=True)
    passes, layers = [], {}
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        times, pass_layers = cli_pass(args.seed, len(passes), workdir, tally,
                                      trace_dir)
        passes.append(sum(times.values()))
        for layer, (s, c) in pass_layers.items():
            s0, c0 = layers.get(layer, (0.0, 0))
            layers[layer] = (s0 + s, c0 + c)
    shutil.rmtree(workdir)
    return {"setup": setups, "pass_s": passes, "layers": layers}


# ---------------------------------------------------------------------------
# in-process workloads

def start_worker(workload: str, seed: int, seconds: float, role: str):
    """Start worker.py; returns (process, seconds until READY, digest)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--role", role,
           "--out", str(OUT)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if not line.startswith("READY "):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker ({role}) did not start: {line!r}")
    return proc, ready, line.split()[1]


def finish_worker(proc) -> dict:
    """Read the worker's RESULT line, if any, and wait for it to exit."""
    result = {}
    try:
        for line in proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return result


def run_in_process(args, tally) -> dict:
    setups, digests = [], []
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        proc, ready, digest = start_worker(args.workload, args.seed,
                                           args.seconds, "setup")
        finish_worker(proc)
        setups.append(ready)
        digests.append(digest)
    proc, ready, digest = start_worker(args.workload, args.seed, args.seconds,
                                       "trace" if args.trace else "run")
    setups.append(ready)
    digests.append(digest)
    result = finish_worker(proc)
    check_identical(digests, tally)
    tally["attempted"] += result["attempted"]
    tally["failed"] += result["failed"]
    tally["wrong"] += result["wrong"]
    return {"setup": setups, "pass_s": result["pass_s"],
            "layers": result.get("layers", {})}


# ---------------------------------------------------------------------------
# probes for the per-layer report

def import_probe() -> tuple:
    code = ("import sys, time; t = time.perf_counter(); import avq; "
            "print(time.perf_counter() - t, len(sys.modules))")
    times, modules = [], 0
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=child_env(), cwd=ROOT, check=True,
                             timeout=PROBE_TIMEOUT).stdout.split()
        times.append(float(out[0]))
        modules = int(out[1])
    return statistics.median(times), modules


def per_layer_metrics(args, run, tally) -> dict:
    n = len(run["pass_s"])
    m = {"trace.pass_s": (statistics.median(run["pass_s"]), "s")}
    for layer in LAYERS:
        s, c = run["layers"].get(layer, (0.0, 0))
        m[f"{layer}.self_s"] = (s / n, "s")
        m[f"{layer}.calls"] = (c / n, "count")
    avq_s, modules = import_probe()
    m["import.avq_s"] = (avq_s, "s")
    m["import.modules"] = (modules, "count")
    workdir = OUT / f"cli-probe-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    probe_tally = {"attempted": 0, "failed": 0, "wrong": []}
    times, _ = cli_pass(args.seed, 0, workdir, probe_tally)
    shutil.rmtree(workdir)
    tally["wrong"] += probe_tally["wrong"]
    for name, seconds in times.items():
        m[f"cli.{name}_s"] = (seconds, "s")
    proc, _, _ = start_worker("exact-algebra", args.seed, 0, "probe")
    m.update((name, tuple(v)) for name, v in finish_worker(proc)["metrics"].items())
    return m


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["cli-batch", "exact-algebra", "monte-carlo"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "avq" / "__init__.py").is_file():
        log(f"no avq sources under {ROOT / 'src'}; run from a checkout of the repo")
        return 2
    OUT.mkdir(exist_ok=True)

    tally = {"attempted": 0, "failed": 0, "wrong": []}
    if args.workload == "cli-batch":
        run = run_cli_batch(args, tally)
    else:
        run = run_in_process(args, tally)
    if args.trace:
        metrics = per_layer_metrics(args, run, tally)
        with open(OUT / f"layers-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump(run["layers"], fh)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        metrics = {"setup_s": (statistics.median(run["setup"]), "s"),
                   "pass_s": (statistics.median(run["pass_s"]), "s"),
                   "peak_rss_mb": (rss_mb, "MB")}
    for msg in tally["wrong"]:
        log(f"WRONG {msg}")
    result = {"correct": not tally["wrong"], "attempted": tally["attempted"],
              "failed": tally["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    line = json.dumps(result)
    tag = f"{args.workload}-{args.seed}-{'trace' if args.trace else 'e2e'}"
    (OUT / f"result-{tag}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
