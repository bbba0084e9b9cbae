"""The package's public name list and what importing it loads."""

from __future__ import annotations

import json
import os
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


def test_star_import_resolves_every_name() -> None:
    namespace: dict[str, object] = {}
    exec("from modescatter import *", namespace)
    for name in modescatter.__all__:
        assert namespace[name] is getattr(modescatter, name)


# Imports the package and the CLI, runs the README qubit figure of merit and
# the builtin validation, and prints the exit codes and every SciPy module
# loaded on the way as the last line of stdout.
_STARTUP_SCRIPT = """
import json, sys
import modescatter, modescatter.cli
codes = [
    modescatter.cli.main(
        ["fom", "--builtin", "electromech", "--app", "qubit", "--omega-sig", "5e6"]
    ),
    modescatter.cli.main(["validate", "--builtin", "electromech"]),
]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_fom_and_validate_do_not_load_scipy() -> None:
    # SciPy is only for the optimizers, which import it on first call.
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
    assert result == {"codes": [0, 0], "scipy": []}
