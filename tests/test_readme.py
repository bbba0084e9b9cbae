"""The README's examples, run as written, print what the README shows."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest
from conftest import README, readme_examples, readme_model_json, shows

from modescatter import ValidityWarning
from modescatter.cli import main


def test_library_quick_start_prints_its_stated_values(
    capsys: pytest.CaptureFixture[str],
) -> None:
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None
    code = block.group(1)
    # The text says the qubit fidelity at eta = 0.50 warns.
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


def test_every_command_prints_the_lines_shown_under_it(
    tmp_path: Path,
    monkeypatch: pytest.MonkeyPatch,
    capsys: pytest.CaptureFixture[str],
) -> None:
    # The commands run where the model file of "Model files" is saved as
    # converter.json, the name they use.
    (tmp_path / "converter.json").write_text(readme_model_json())
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert len(examples) == README.read_text().count("$ modescatter ")
    wrong = []
    for example in examples:
        code = main(example.argv)
        out = capsys.readouterr().out.splitlines()
        if code != 0 or not shows(example.shown, out):
            wrong.append(
                f"README.md:{example.line}: $ modescatter {shlex.join(example.argv)}\n"
                + "\n".join(["shows:", *example.shown, f"exited {code} and printed:", *out])
            )
    assert not wrong, "\n\n".join(wrong)
