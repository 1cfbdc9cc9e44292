"""The experiment scripts run from any working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("delay_vs_m.py", ["kdnf", "--n", "8", "--sizes", "4", "8", "--limit", "50"], "k=3 n=8"),
        ("delay_vs_m.py", ["avg", "--n", "8", "--width", "3", "--sizes", "4", "8", "--reps", "1"],
         "n=8 width=3"),
        ("monotone_experiments.py", ["rs", "--n", "6", "--width", "3", "--sizes", "3", "5"],
         "n=6 width=3"),
        ("monotone_experiments.py", ["log", "--n-values", "4", "6"], "avg_log"),
        ("setunion_scaling.py", ["--m", "4", "--n-values", "8", "16"], "m=4 set width"),
    ],
    ids=["delay-kdnf", "delay-avg", "monotone-rs", "monotone-log", "setunion"],
)
def test_script_runs_from_another_directory(tmp_path, script, args, header):
    # no PYTHONPATH: the script must find the package next to itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert header in r.stdout.splitlines()[0]
