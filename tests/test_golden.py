"""Seeded output pinned byte for byte across changes.

``golden/stdout.json`` holds the stdout of each README command and of a
``spin --config`` and a ``chsh --config`` run, in-process through
``cli.main``, the sha256 of the ``chsh --format csv`` trial log, and the
stdout of the four demos.  A change that keeps the
contract "same argv and seed, same bytes" leaves all of it unchanged.
Regenerate the file only for a change that means to move seeded output,
and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import pathlib
import runpy
import sys
import tempfile

import pytest

from avq import cli

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
DEMOS = HERE.parent / "demos"
FILES = ("--model", "{golden}/model.json", "--variable", "{golden}/variable.json",
         "--state", "{golden}/state.json")

COMMANDS = {
    "spin": ("spin", "--r", "1/2", "--check", "--resolution-order", "16"),
    "spin_config": ("spin", "--config", "{golden}/spin_config.json"),
    "born_closed": ("born", "--a", "0,0,1", "--b", "1,0,0"),
    "born_crossval": ("born", "--crossval", "500", "--seed", "1"),
    "chsh_bounds": ("chsh", "--classical-max", "--quantum-max", "--resolution", "1"),
    "chsh_config": ("chsh", "--config", "{golden}/chsh_config.json"),
    "chsh_trials": ("chsh", "--angles", "0,90,45,135", "--n", "100000",
                    "--seed", "42", "--format", "csv", "--out", "{tmp}/trials.csv"),
    "medical": ("medical", "--n", "1000000", "--seed", "7"),
    "measure_random": ("measure", "--random-check", "100", "--seed", "4"),
    "measure_files": ("measure",) + FILES,
    "measure_files_x": ("measure",) + FILES + ("--x", "1"),
    "prop2": ("inference", "--op", "prop2", "--c1", "-1.96", "--c2", "1.96",
              "--n", "100000", "--seed", "6"),
}
DEMO_SCRIPTS = ("chsh.py", "measurement_update.py", "medical.py", "spin_algebra.py")


def _stdout(fn) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        fn()
    return buf.getvalue()


def run_command(name: str, tmp: str) -> str:
    argv = [a.format(golden=GOLDEN, tmp=tmp) for a in COMMANDS[name]]

    def call():
        assert cli.main(argv) == 0
    return _stdout(call)


def run_demo(script: str) -> str:
    return _stdout(lambda: runpy.run_path(str(DEMOS / script), run_name="__main__"))


def trial_log_sha256(tmp: str) -> str:
    return hashlib.sha256(pathlib.Path(tmp, "trials.csv").read_bytes()).hexdigest()


def capture() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        commands = {name: run_command(name, tmp) for name in COMMANDS}
        sha = trial_log_sha256(tmp)
    return {"commands": commands, "trial_log_sha256": sha,
            "demos": {s: run_demo(s) for s in DEMO_SCRIPTS}}


@pytest.fixture(scope="module")
def golden():
    return json.loads((GOLDEN / "stdout.json").read_text())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_stdout(name, golden, tmp_path):
    assert run_command(name, str(tmp_path)) == golden["commands"][name]
    if name == "chsh_trials":
        assert trial_log_sha256(str(tmp_path)) == golden["trial_log_sha256"]


@pytest.mark.parametrize("script", DEMO_SCRIPTS)
def test_demo_stdout(script, golden):
    assert run_demo(script) == golden["demos"][script]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    (GOLDEN / "stdout.json").write_text(json.dumps(capture(), indent=1) + "\n")
