"""The package's public name list and what importing it loads."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import modescatter
import modescatter.applications


def test_all_lists_each_public_name_once() -> None:
    names = modescatter.__all__
    assert len(names) == len(set(names))
    assert "__version__" in names
    for name in names:
        assert not isinstance(getattr(modescatter, name), ModuleType), name
    assert set(modescatter.applications.__all__) <= set(names)


def test_version_matches_pyproject() -> None:
    # A regex, not tomllib, which Python 3.10 lacks.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.M)
    assert declared is not None
    assert modescatter.__version__ == declared.group(1)


def test_star_import_resolves_every_name() -> None:
    namespace: dict[str, object] = {}
    exec("from modescatter import *", namespace)
    for name in modescatter.__all__:
        assert namespace[name] is getattr(modescatter, name)


# Imports the package and the CLI, runs every subcommand (the README qubit
# figure of merit, the builtin validation, a short sweep and Monte Carlo, the
# README optimize request and one max-F1c search) and locate_peak, and prints
# the exit codes and every SciPy module loaded on the way as the last line of
# stdout.
_STARTUP_SCRIPT = """
import json, sys
import modescatter, modescatter.cli
from modescatter.electromech import ElectromechParams, locate_peak
em = ["--builtin", "electromech"]
codes = [
    modescatter.cli.main(["fom", *em, "--app", "qubit", "--omega-sig", "5e6"]),
    modescatter.cli.main(["validate", *em]),
    modescatter.cli.main(
        ["spectra", *em, "--omega-min", "4e6", "--omega-max", "6e6", "--points", "5"]
    ),
    modescatter.cli.main(
        ["protocol-sim", "--scheme", "two-click", "--p-e", "0.5", "--p-d", "0.001",
         "--eta", "0.8", "--trials", "1000", "--seed", "1"]
    ),
    modescatter.cli.main(
        ["optimize", *em, "--set", "gamma_wg=3e5", "--objective", "max-eta",
         "--var", "ports.wg.rate:1e3:1e6", "--omega-sig", "5e6", "--budget", "150",
         "--seed", "0"]
    ),
    modescatter.cli.main(
        ["optimize", *em, "--set", "t_wg=0", "--set", "t_m=0", "--objective", "max-F1c",
         "--var", "ports.wg.rate:1e3:1e5", "--omega-sig", "5e6", "--omega-min", "4e6",
         "--omega-max", "6e6", "--points", "201", "--window", "1e-5", "--budget", "4"]
    ),
]
locate_peak(ElectromechParams())
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_no_command_or_search_loads_scipy() -> None:
    # SciPy is a test-only reference: no command, search or peak finder
    # imports it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _STARTUP_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
        check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 6, "scipy": []}
