"""The README's library quick start, run as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from modescatter import ValidityWarning


def test_library_quick_start_prints_its_stated_values(
    capsys: pytest.CaptureFixture[str],
) -> None:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None
    code = block.group(1)
    # The text says the qubit fidelity at eta = 0.64 warns.
    with pytest.warns(ValidityWarning):
        exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # The comment on the eta/N line states both values at their rounding.
    stated = re.search(r"print\(eta\(up\), added_noise\(up, env\)\)\s+# (.*)", code)
    assert stated is not None
    want = stated.group(1).split(", ")
    got = [float(value) for value in out[0].split()]
    assert len(got) == len(want) == 2
    for value, text in zip(got, want):
        assert f"{value:.{len(text.split('.')[1])}f}" == text
    assert len(out) == 3
