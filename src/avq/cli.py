"""Command-line front end: seeded batch runs with structured output.

Subcommands: spin | born | chsh | medical | measure | inference.  Each
handler returns its report and ``main`` writes it once, as JSON (canonical)
or ``plain``; CSV is only ``chsh``'s trial log, written to ``--out``.
A ``--config`` file's entries are flags typed before the command line's own.
Identical (argv, seed) pairs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import born, experiments, hilbert, inference, measurement, spin, variables
from .errors import DomainError, ValueMismatch


def _parse_triple(text):
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers")
    try:
        return spin.unit(parts)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# Size caps, so that an allocation too large to succeed is a usage error:
# `spin --check` holds about ten (2r + 1)^2 complex matrices, and the sphere
# quadrature holds order^2 coherent states of dimension at most order - 1
# (128^2 x 127 complex numbers, 33 MB).  The Monte Carlo commands keep a
# few blocks of 2^14 samples and their counts (--crossval and
# --random-check one case at a time), so their memory does not grow with
# n, and MAX_SAMPLES bounds their run time only.  `chsh --quantum-max`
# holds a few arrays of 360 / resolution grid angles, 360,000 at the
# smallest resolution.
MAX_TWO_R = 200
MAX_RESOLUTION_ORDER = 128
MAX_SAMPLES = 10**8
MIN_RESOLUTION = 0.001


def _parse_spin(text):
    try:
        two_r = spin.parse_spin(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if two_r > MAX_TWO_R:
        raise argparse.ArgumentTypeError(
            f"spin {text!r} exceeds the cap r <= {MAX_TWO_R // 2}")
    return two_r


def _int_in(low, high=None):
    """An argparse type for integers in [low, high] (no upper cap if None)."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"expected an integer {bound}, got {text!r}")
        return value
    return parse


_count = _int_in(1, MAX_SAMPLES)
_seed = _int_in(0)


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _resolution(text):
    value = _finite_float(text)
    if not MIN_RESOLUTION <= value <= experiments.MAX_RESOLUTION:
        raise argparse.ArgumentTypeError(
            f"expected a resolution in [{MIN_RESOLUTION}, {experiments.MAX_RESOLUTION}] "
            f"degrees, got {text!r}")
    return value


def _parse_angles(text):
    parts = [_finite_float(x) for x in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected a,a',b,b' in degrees")
    return parts


def _emit(report: dict, fmt: str, out=None):
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    else:  # plain
        lines = []

        def walk(prefix, obj):
            if isinstance(obj, dict):
                for k in sorted(obj):
                    walk(f"{prefix}{k}.", obj[k])
            elif isinstance(obj, (list, tuple)):
                lines.append(f"{prefix[:-1]}: {' '.join(repr(x) for x in obj)}")
            else:
                lines.append(f"{prefix[:-1]}: {obj!r}")

        walk("", report)
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _require_seed(args, parser):
    if args.seed is None:
        parser.error("--seed is mandatory for stochastic runs")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="avq")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, formats=("json", "plain")):
        sp.add_argument("--format", choices=formats, default="json")
        sp.add_argument("--out", default=None)
        sp.add_argument("--seed", type=_seed, default=None)
        sp.add_argument("--config", default=None,
                        help="JSON object of flag defaults; explicit flags win")

    sp = sub.add_parser("spin", help="spin algebra checks and spectra")
    sp.add_argument("--r", required=True, type=_parse_spin,
                    help="spin, e.g. 1, 1/2, 3/2")
    sp.add_argument("--check", action="store_true",
                    help="commutation/Casimir/rotation-sign residuals")
    sp.add_argument("--resolution-order", default=None,
                    type=_int_in(1, MAX_RESOLUTION_ORDER),
                    help="sphere quadrature order for the identity resolution")
    sp.add_argument("--component", type=_parse_triple, default=None,
                    help="direction x,y,z for a component spectrum")
    common(sp)

    sp = sub.add_parser("born", help="transition probabilities")
    sp.add_argument("--a", type=_parse_triple, default=None)
    sp.add_argument("--b", type=_parse_triple, default=None)
    sp.add_argument("--sign", type=int, choices=[1, -1], default=1)
    sp.add_argument("--crossval", type=_count, default=None,
                    help="closed form vs abstract route on N random direction pairs")
    common(sp)

    sp = sub.add_parser("chsh", help="singlet trial simulation and bounds")
    sp.add_argument("--angles", type=_parse_angles, default=None,
                    help="a,a',b,b' in degrees")
    sp.add_argument("--n", type=_count, default=None, help="number of trials")
    sp.add_argument("--classical-max", action="store_true")
    sp.add_argument("--quantum-max", action="store_true")
    sp.add_argument("--resolution", type=_resolution, default=1.0,
                    help="grid resolution in degrees for --quantum-max")
    common(sp, ("json", "csv", "plain"))

    sp = sub.add_parser("medical", help="four-treatment comparison")
    sp.add_argument("--n", type=_count, default=None, help="Monte Carlo samples")
    common(sp)

    sp = sub.add_parser("measure", help="POVM / Kraus checks")
    sp.add_argument("--model", default=None, help="statistical model JSON file")
    sp.add_argument("--variable", default=None, help="accessible variable JSON file")
    sp.add_argument("--x", default=None, help="observed sample point label")
    sp.add_argument("--state", default=None, help="density operator JSON file")
    sp.add_argument("--random-check", type=_count, default=None,
                    help="POVM/Kraus/Bayes consistency on N random cases")
    common(sp)

    sp = sub.add_parser("inference", help="classical inference experiments")
    sp.add_argument("--op", choices=["prop2"], required=True)
    sp.add_argument("--c1", type=_finite_float, default=None)
    sp.add_argument("--c2", type=_finite_float, default=None)
    sp.add_argument("--n", type=_count, default=None)
    common(sp)

    return p


def _cmd_spin(args, parser):
    two_r = args.r
    report = {"two_r": two_r, "dim": two_r + 1}
    if args.check:
        report["check"] = spin.algebra_residuals(two_r)
    if args.resolution_order is not None:
        report["resolution_deviation"] = spin.resolution_deviation(
            two_r, args.resolution_order)
    if args.component is not None:
        comp = spin.component_operator(two_r, args.component)
        report["component_eigenvalues"] = np.linalg.eigvalsh(comp).tolist()
    return report


def _cmd_born(args, parser):
    report = {}
    if args.crossval is not None:
        _require_seed(args, parser)
        report["crossval"] = born.crossval(args.crossval, args.seed)
    if args.a is not None and args.b is not None:
        closed = born.spin_half_transition(args.a, args.b, args.sign)
        report["transition"] = {"sign": args.sign, "closed_form": closed,
                                "dot": float(np.dot(args.a, args.b))}
    if not report:
        parser.error("born needs --a/--b or --crossval")
    return report


def _cmd_chsh(args, parser):
    report = {}
    if args.classical_max:
        report["classical_max"] = experiments.chsh_classical_max()
    if args.quantum_max:
        angles, s = experiments.chsh_quantum_max(args.resolution)
        report["quantum_max"] = {"angles_deg": list(angles), "s": s,
                                 "abs_s": abs(s)}
    if args.angles is not None:
        if args.n is None:
            parser.error("--n is required for a simulation run")
        _require_seed(args, parser)
        a, ap, b, bp = (np.deg2rad(x) for x in args.angles)
        cfg = experiments.ChshConfig(a, ap, b, bp, args.n, args.seed)
        run = experiments.chsh_simulate(cfg)
        if args.out and args.format == "csv":
            run.write_csv(args.out)
        corr = {f"{la},{lb}": {"estimate": est, "count": cnt}
                for (la, lb), (est, cnt) in run.correlations.items()}
        report["simulation"] = {
            "angles_deg": args.angles, "n_trials": args.n, "seed": args.seed,
            "correlations": corr, "s": run.s_statistic,
            "exact_s": experiments.chsh_exact_s(cfg),
        }
    if not report:
        parser.error("chsh needs --angles, --classical-max or --quantum-max")
    return report


def _cmd_medical(args, parser):
    if args.n is None:
        parser.error("--n is required")
    _require_seed(args, parser)
    return experiments.medical_report(args.n, args.seed).to_dict()


def _cmd_measure(args, parser):
    report = {}
    if args.random_check is not None:
        _require_seed(args, parser)
        report["random_check"] = measurement.random_check(args.random_check, args.seed)
    if args.model and args.variable:
        model = measurement.StatisticalModel.from_dict(
            _read_json(parser, "model", args.model))
        var = variables.variable_from_dict(_read_json(parser, "variable", args.variable))
        povm = measurement.povm_of_model(model, var)
        entry = {"effects": [hilbert.operator_to_dict(e) for e in povm.effects]}
        if args.state:
            sigma = hilbert.operator_from_dict(_read_json(parser, "state", args.state))
            probs = born.probabilities(hilbert.require_density(sigma), povm.effects)
            entry["data_probabilities"] = dict(zip(map(str, model.sample_points),
                                                   probs.tolist()))
        if args.x is not None:
            label = _sample_point(model.sample_points, args.x)
            entry["likelihood_effect"] = hilbert.operator_to_dict(
                measurement.likelihood_effect(model, var, label))
        report["povm"] = entry
    if not report:
        parser.error("measure needs --random-check or --model/--variable")
    return report


def _sample_point(points, text: str):
    """The first sample point that ``text`` parses to under the point's own
    type: int, float or str, and JSON text (``null``, ``true``, an array)
    for any other point."""
    for x in points:
        try:
            parsed = type(x)(text) if type(x) in (int, float, str) else json.loads(text)
        except (ValueError, RecursionError):  # RecursionError: deeply nested JSON
            continue
        if type(parsed) is type(x) and parsed == x:
            return x
    raise ValueMismatch(f"no sample point is {text!r}")


def _cmd_inference(args, parser):  # --op has the one choice prop2
    if args.c1 is None or args.c2 is None or args.n is None:
        parser.error("prop2 needs --c1, --c2 and --n")
    _require_seed(args, parser)
    spec = inference.SimulationSpec(args.n, args.seed, theta=0.0)
    res = inference.prop2_experiment(args.c1, args.c2, spec)
    return {"prop2": {"c1": args.c1, "c2": args.c2, "n": args.n,
                      **dataclasses.asdict(res)}}


_COMMANDS = {"spin": _cmd_spin, "born": _cmd_born, "chsh": _cmd_chsh,
             "medical": _cmd_medical, "measure": _cmd_measure,
             "inference": _cmd_inference}


def _read_json(parser, what: str, path):
    """The JSON document in the file at ``path``; a file that cannot be read
    or parsed is a usage error naming ``what`` it should have held."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read {what} {path}: {exc}")


def _config_args(sub, path) -> list:
    """The config file's entries as command-line flags of the subcommand:
    ``--flag=value`` (a list as comma-separated text), or ``--flag`` for an
    on/off flag set true.  ``false`` and ``null`` add nothing, so the flag
    keeps its default."""
    cfg = _read_json(sub, "config", path)
    if not isinstance(cfg, dict):
        sub.error(f"config {path} must hold a JSON object")
    actions = {a.dest: a for a in sub._actions}
    flags = []
    for key, value in cfg.items():
        action = actions.get(key.replace("-", "_"))
        if action is None or action.dest in ("help", "config"):
            sub.error(f"config {path}: unknown option {key!r}")
        flag = action.option_strings[0]
        if action.nargs == 0:  # an on/off flag
            if not isinstance(value, bool):
                sub.error(f"config {path}: {key} must be true or false")
            flags += [flag] * value
        elif value is not None:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            flags.append(f"{flag}={text}")
    return flags


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # --config is read in a pre-parse and its flags go just after the subcommand,
    # so the one real parse checks them like typed flags and the typed ones win
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")  # a missing path is the real parse's error
    config = pre.parse_known_args(argv[1:])[0].config
    commands = parser._subparsers._group_actions[0].choices
    if config is not None and argv[0] in commands:
        argv[1:1] = _config_args(commands[argv[0]], config)
    args = parser.parse_args(argv)
    try:
        report = _COMMANDS[args.command](args, parser)
        log = args.format == "csv"  # chsh wrote its trial log to --out
        _emit(report, "json" if log else args.format, None if log else args.out)
    except (ValueError, KeyError, OSError) as exc:
        # bad input (DomainError is a ValueError), a key missing from an
        # input file, or an output path that cannot be written
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
