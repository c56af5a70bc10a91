import contextlib
import io
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from avq import cli, experiments, hilbert, measurement, variables
from avq.errors import ValueMismatch


def run_cli(*args, check=False):
    """``cli.main`` run in-process, with its stdout, stderr and exit code
    caught as ``python -m avq.cli`` would report them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in args])
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    proc = subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def two_cli_process_stdouts(*args):
    """The stdouts of two fresh ``python -m avq.cli`` processes, run side by
    side in the caller's environment; each must exit 0."""
    procs = [subprocess.Popen([sys.executable, "-m", "avq.cli", *args], text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for _ in range(2)]
    outputs = [proc.communicate() for proc in procs]
    for proc, (_, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
    return [out for out, _ in outputs]


class TestSpinCommand:
    def test_check_report(self):
        proc = run_cli("spin", "--r", "1", "--check", check=True)
        report = json.loads(proc.stdout)
        assert report["two_r"] == 2 and report["dim"] == 3
        assert report["check"]["commutation_residual"] < 1e-12
        assert report["check"]["casimir_residual"] < 1e-10
        assert report["check"]["full_turn_sign"] == 1.0

    def test_half_integer_sign(self):
        proc = run_cli("spin", "--r", "1/2", "--check", check=True)
        report = json.loads(proc.stdout)
        assert report["check"]["full_turn_sign"] == -1.0
        assert report["check"]["full_turn_residual"] < 1e-10

    def test_component_spectrum(self):
        proc = run_cli("spin", "--r", "1", "--component", "1,0,0", check=True)
        report = json.loads(proc.stdout)
        assert np.allclose(report["component_eigenvalues"], [-1.0, 0.0, 1.0],
                           atol=1e-9)

    def test_plain_format(self):
        proc = run_cli("spin", "--r", "1/2", "--format", "plain", check=True)
        assert "two_r: 1" in proc.stdout

    @pytest.mark.parametrize("r", ["1/0", "inf", "nan"])
    def test_bad_spin_is_usage_error(self, r):
        proc = run_cli("spin", "--r", r)
        assert proc.returncode == 2
        assert "argument --r" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestBornCommand:
    def test_transition(self):
        proc = run_cli("born", "--a", "0,0,1", "--b", "0,0,1", check=True)
        report = json.loads(proc.stdout)
        assert report["transition"]["closed_form"] == 1.0

    def test_crossval_requires_seed(self):
        proc = run_cli("born", "--crossval", "10")
        assert proc.returncode == 2

    def test_crossval(self):
        proc = run_cli("born", "--crossval", "20", "--seed", "3", check=True)
        report = json.loads(proc.stdout)
        assert report["crossval"]["max_deviation"] < 1e-10


class TestChshCommand:
    def test_bounds(self):
        proc = run_cli("chsh", "--classical-max", "--quantum-max",
                       "--resolution", "5", check=True)
        report = json.loads(proc.stdout)
        assert report["classical_max"] == 2
        assert abs(report["quantum_max"]["abs_s"] - 2 * np.sqrt(2)) < 0.01

    def test_simulation_and_csv(self, tmp_path):
        out = tmp_path / "log.csv"
        proc = run_cli("chsh", "--angles", "0,90,45,135", "--n", "500",
                       "--seed", "11", "--format", "csv", "--out", str(out),
                       check=True)
        report = json.loads(proc.stdout)
        assert report["simulation"]["n_trials"] == 500
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 501

    def test_missing_n(self):
        proc = run_cli("chsh", "--angles", "0,90,45,135", "--seed", "1")
        assert proc.returncode == 2


class TestMedicalCommand:
    def test_report(self):
        proc = run_cli("medical", "--n", "50000", "--seed", "2", check=True)
        report = json.loads(proc.stdout)
        assert report["quantum"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert report["paper_reported"] == 0.43
        assert abs(report["bayes_mc"] - report["bayes_closed"]) < \
            3 * report["mc_se"]

    def test_too_few_samples_is_domain_error(self):
        proc = run_cli("medical", "--n", "10", "--seed", "2")
        assert proc.returncode == 1
        assert "DomainError" in proc.stderr


class TestMeasureCommand:
    def test_random_check(self):
        proc = run_cli("measure", "--random-check", "10", "--seed", "4",
                       check=True)
        report = json.loads(proc.stdout)["random_check"]
        assert report["povm_completeness_residual"] < 1e-10
        assert report["kraus_probability_residual"] < 1e-10
        assert report["kraus_vs_bayes_residual"] < 1e-12

    def test_model_files(self, tmp_path):
        model = {"parameters": [0.0, 1.0], "samples": [0, 1],
                 "likelihood": [[0.8, 0.2], [0.2, 0.8]]}
        eye = np.eye(2)
        variable = {"name": "v", "values": [0.0, 1.0],
                    "projectors": [
                        {"dim": 2, "re": np.outer(e, e).ravel().tolist(),
                         "im": [0.0] * 4} for e in eye]}
        state = {"dim": 2, "re": [0.5, 0.0, 0.0, 0.5], "im": [0.0] * 4}
        mp, vp, sp = (tmp_path / n for n in ("m.json", "v.json", "s.json"))
        mp.write_text(json.dumps(model))
        vp.write_text(json.dumps(variable))
        sp.write_text(json.dumps(state))
        proc = run_cli("measure", "--model", str(mp), "--variable", str(vp),
                       "--state", str(sp), check=True)
        report = json.loads(proc.stdout)["povm"]
        assert len(report["effects"]) == 2
        assert report["data_probabilities"]["0"] == pytest.approx(0.5)

    def test_value_mismatch_is_domain_error(self, tmp_path):
        model = {"parameters": [5.0, 6.0], "samples": [0, 1],
                 "likelihood": [[0.8, 0.2], [0.2, 0.8]]}
        eye = np.eye(2)
        variable = {"name": "v", "values": [0.0, 1.0],
                    "projectors": [
                        {"dim": 2, "re": np.outer(e, e).ravel().tolist(),
                         "im": [0.0] * 4} for e in eye]}
        mp, vp = tmp_path / "m.json", tmp_path / "v.json"
        mp.write_text(json.dumps(model))
        vp.write_text(json.dumps(variable))
        proc = run_cli("measure", "--model", str(mp), "--variable", str(vp))
        assert proc.returncode == 1
        assert "ValueMismatch" in proc.stderr


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


class TestFileErrors:
    @pytest.mark.parametrize("flag", ["model", "variable", "state"])
    @pytest.mark.parametrize("content", [None, "{not json"])
    def test_unreadable_input_is_usage_error(self, tmp_path, flag, content):
        files = {name: GOLDEN / f"{name}.json" for name in ("model", "variable", "state")}
        files[flag] = tmp_path / "bad.json"
        if content is not None:
            files[flag].write_text(content)
        proc = run_cli("measure", *(x for name, path in files.items()
                                    for x in (f"--{name}", str(path))))
        assert proc.returncode == 2
        assert f"cannot read {flag}" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize("flag, content", [
        ("model", [1, 2]),
        ("model", {"parameters": [0.0, 1.0, 2.0], "samples": 5,
                   "likelihood": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}),
        ("variable", {"name": "v", "values": [0.0, 1.0, 2.0], "projectors": 5}),
        ("state", {"dim": 3, "re": 5, "im": [0.0] * 9}),
    ])
    def test_wrong_shape_input_is_one_line(self, tmp_path, flag, content):
        files = {name: GOLDEN / f"{name}.json" for name in ("model", "variable", "state")}
        files[flag] = tmp_path / "bad.json"
        files[flag].write_text(json.dumps(content))
        proc = run_cli("measure", *(x for name, path in files.items()
                                    for x in (f"--{name}", str(path))))
        assert proc.returncode == 1
        assert proc.stderr.startswith("BadShape: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("samples, x, label", [
        ([None, 1, 2], "1", 1),
        ([None, 1, 2], "null", None),
        (["a", "b", "c"], "b", "b"),
        ([0.5, 1.0, 2], "1", 1.0),
        ([0, 1, 2], "b", ValueMismatch),
        (["a", "b", "c"], "1", ValueMismatch),
        ([None, 1, 2], "1.0", ValueMismatch),
    ])
    def test_x_resolves_against_every_sample(self, tmp_path, samples, x, label):
        model = json.loads((GOLDEN / "model.json").read_text())
        model["samples"] = samples
        mp = tmp_path / "m.json"
        mp.write_text(json.dumps(model))
        proc = run_cli("measure", "--model", str(mp),
                       "--variable", str(GOLDEN / "variable.json"), "--x", x)
        assert "Traceback" not in proc.stderr
        if label is ValueMismatch:
            assert proc.returncode == 1
            assert proc.stderr == f"ValueMismatch: no sample point is {x!r}\n"
            return
        assert proc.returncode == 0, proc.stderr
        var = variables.variable_from_dict(
            json.loads((GOLDEN / "variable.json").read_text()))
        want = measurement.likelihood_effect(
            measurement.StatisticalModel.from_dict(model), var, label)
        got = hilbert.operator_from_dict(json.loads(proc.stdout)["povm"]["likelihood_effect"])
        assert np.allclose(got, want)

    def test_missing_model_key_is_one_line(self, tmp_path):
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"parameters": [0.0, 1.0],
                                     "likelihood": [[0.8, 0.2], [0.2, 0.8]]}))
        proc = run_cli("measure", "--model", str(model),
                       "--variable", str(GOLDEN / "variable.json"))
        assert proc.returncode == 1
        assert proc.stderr == "KeyError: 'samples'\n"

    @pytest.mark.parametrize("args", [
        ("born", "--a", "0,0,1", "--b", "1,0,0", "--out"),
        ("chsh", "--angles", "0,90,45,135", "--n", "10", "--seed", "1",
         "--format", "csv", "--out"),
    ])
    def test_unwritable_output_is_one_line(self, tmp_path, args):
        proc = run_cli(*args, str(tmp_path / "missing" / "out"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("FileNotFoundError: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestInferenceCommand:
    def test_prop2(self):
        proc = run_cli("inference", "--op", "prop2", "--c1", "-1.96",
                       "--c2", "1.96", "--n", "50000", "--seed", "6",
                       check=True)
        report = json.loads(proc.stdout)["prop2"]
        assert report["analytic"] == pytest.approx(0.95, abs=1e-3)
        assert abs(report["credibility"] - report["analytic"]) < \
            3 * report["se_credibility"]

    def test_requires_seed(self):
        proc = run_cli("inference", "--op", "prop2", "--c1", "-1",
                       "--c2", "1", "--n", "100")
        assert proc.returncode == 2


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 20000, "seed": 2}))
        proc = run_cli("medical", "--config", str(cfg), check=True)
        direct = run_cli("medical", "--n", "20000", "--seed", "2", check=True)
        assert proc.stdout == direct.stdout

    def test_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 20000, "seed": 2}))
        proc = run_cli("medical", "--config", str(cfg), "--seed", "3",
                       check=True)
        other = run_cli("medical", "--n", "20000", "--seed", "3", check=True)
        assert proc.stdout == other.stdout

    def test_config_sets_on_off_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classical_max": True}))
        proc = run_cli("chsh", "--config", str(cfg), check=True)
        assert json.loads(proc.stdout) == {"classical_max": 2}

    def test_config_values_go_through_argparse_types(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"angles": "0,90,45,135", "n": 2000,
                                   "seed": 13}))
        proc = run_cli("chsh", "--config", str(cfg), check=True)
        direct = run_cli("chsh", "--angles", "0,90,45,135", "--n", "2000",
                         "--seed", "13", check=True)
        assert proc.stdout == direct.stdout

    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]",
                                         '{"bogus": 1}',
                                         '{"classical_max": "yes"}',
                                         '{"n": "many", "seed": 2}',
                                         '{"format": "xml"}'])
    def test_bad_config_is_usage_error(self, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        proc = run_cli("chsh", "--config", str(cfg))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


class TestPackageEntryPoint:
    def test_python_m_avq_matches_cli_module(self):
        args = ("spin", "--r", "1/2", "--check")
        proc = subprocess.run([sys.executable, "-m", "avq", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_cli(*args, check=True).stdout


def test_import_loads_no_scipy():
    code = ("import sys, avq.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


class TestFlagTypes:
    @pytest.mark.parametrize("args", [
        ("born", "--crossval", "-1", "--seed", "1"),
        ("measure", "--random-check", "-2", "--seed", "1"),
        ("medical", "--n", "0", "--seed", "1"),
        ("chsh", "--angles", "0,90,45,135", "--n", "-5", "--seed", "1"),
        ("inference", "--op", "prop2", "--c1", "-1", "--c2", "1", "--n", "0",
         "--seed", "1"),
        ("spin", "--r", "1", "--resolution-order", "0"),
        ("spin", "--r", "1", "--resolution-order", "2.5"),
    ])
    def test_count_must_be_positive_int(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(args)
        assert exc.value.code == 2
        assert "expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_seed_must_be_non_negative_int(self, seed, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["medical", "--n", "10000", "--seed", seed])
        assert exc.value.code == 2
        assert "argument --seed: expected an integer >= 0" in capsys.readouterr().err
        assert cli.build_parser().parse_args(["medical", "--seed", "0"]).seed == 0

    @pytest.mark.parametrize("args", [
        ("spin", "--r", "100000", "--check"),
        ("spin", "--r", str(cli.MAX_TWO_R // 2 + 1)),
        ("spin", "--r", "1", "--resolution-order", str(cli.MAX_RESOLUTION_ORDER + 1)),
        ("chsh", "--quantum-max", "--resolution", str(cli.MIN_RESOLUTION / 2)),
        ("chsh", "--quantum-max", "--resolution", "10"),
    ])
    def test_size_caps_are_usage_errors(self, args, capsys):
        # parsing only: the cap stops the run before anything is allocated
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(args)
        assert exc.value.code == 2
        assert cli.build_parser().parse_args(
            ["spin", "--r", str(cli.MAX_TWO_R // 2), "--resolution-order",
             str(cli.MAX_RESOLUTION_ORDER)]).r == cli.MAX_TWO_R
        for edge in (cli.MIN_RESOLUTION, experiments.MAX_RESOLUTION):
            assert cli.build_parser().parse_args(
                ["chsh", "--quantum-max", "--resolution", str(edge)]).resolution == edge

    @pytest.mark.parametrize("flag, args", [
        ("--crossval", ("born", "--seed", "1")),
        ("--n", ("chsh", "--angles", "0,90,45,135", "--seed", "1")),
        ("--n", ("medical", "--seed", "1")),
        ("--random-check", ("measure", "--seed", "1")),
        ("--n", ("inference", "--op", "prop2", "--c1", "-1", "--c2", "1", "--seed", "1")),
    ])
    def test_sample_counts_are_capped(self, flag, args, capsys):
        # parsing only: a count above the cap is refused before any draw
        parser = cli.build_parser()
        assert getattr(parser.parse_args(args + (flag, str(cli.MAX_SAMPLES))),
                       flag[2:].replace("-", "_")) == cli.MAX_SAMPLES
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(args + (flag, str(cli.MAX_SAMPLES + 1)))
        assert exc.value.code == 2
        assert f"expected an integer in [1, {cli.MAX_SAMPLES}]" in capsys.readouterr().err

    def test_large_spin_exits_2_without_traceback(self):
        proc = run_cli("spin", "--r", "100000", "--check")
        assert proc.returncode == 2
        assert "argument --r" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("c1,c2", [("nan", "1"), ("1", "inf"), ("-inf", "1")])
    def test_prop2_bounds_must_be_finite(self, c1, c2):
        proc = run_cli("inference", "--op", "prop2", f"--c1={c1}", f"--c2={c2}",
                       "--n", "100", "--seed", "1")
        assert proc.returncode == 2
        assert "finite" in proc.stderr and proc.stdout == ""

    def test_json_output_rejects_non_finite(self, capsys):
        with pytest.raises(ValueError):
            cli._emit({"x": float("nan")}, "json")
        assert capsys.readouterr().out == ""


class TestExitCodes:
    def test_unknown_flag(self):
        proc = run_cli("spin", "--r", "1", "--bogus")
        assert proc.returncode == 2

    def test_unknown_subcommand(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("chsh", "--angles", "0,90,45,135", "--n", "2000", "--seed", "13"),
        ("medical", "--n", "20000", "--seed", "13"),
        ("inference", "--op", "prop2", "--c1", "-1", "--c2", "1",
         "--n", "20000", "--seed", "13"),
        ("measure", "--random-check", "10", "--seed", "13"),
        ("born", "--crossval", "20", "--seed", "13"),
    ])
    def test_byte_identical_reruns(self, args):
        first, second = two_cli_process_stdouts(*args)
        assert first == second
