"""Command-line interface: every subcommand end to end."""

from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
from io import StringIO
from pathlib import Path

import pytest
from conftest import TAU, near_singular_model, readme_examples, shows, two_mode_converter

from modescatter import ElectromechParams, qubit_fidelity
from modescatter.cli import main
from modescatter.modelfile import save_model


@pytest.fixture()
def converter_path(tmp_path: Path) -> str:
    path = tmp_path / "converter.json"
    save_model(two_mode_converter(), path)
    return str(path)


@pytest.fixture()
def squeezer_path(tmp_path: Path) -> str:
    path = tmp_path / "squeezer.json"
    save_model(near_singular_model(), path)
    return str(path)


def _fom_lines(stdout: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in stdout.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.strip()
    return out


def test_spectra_csv_stdout(capsys: pytest.CaptureFixture[str]) -> None:
    code = main(
        [
            "spectra",
            "--builtin",
            "electromech",
            "--omega-min",
            "4.8e6",
            "--omega-max",
            "5.2e6",
            "--points",
            "21",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    rows = list(csv.reader(StringIO(captured.out)))
    assert rows[0] == [
        "omega_hz",
        "eta_up",
        "eta_dn",
        "N_up",
        "N_dn",
        "sumrule_resid",
        "symplectic_resid",
    ]
    assert len(rows) == 22
    first = rows[1]
    assert float(first[0]) == pytest.approx(4.8e6, rel=1e-12)
    assert 0.0 <= float(first[1]) <= 1.0
    # The mechanical exit band is centered at zero, so the lower-sideband
    # output is unphysical: NaN columns are written as empty cells.
    assert first[2] == ""
    assert first[4] == ""
    assert "peak eta_up" in captured.err
    assert "0 failed point(s)" in captured.err


def test_spectra_csv_file_with_failures(
    tmp_path: Path, squeezer_path: str, capsys: pytest.CaptureFixture[str]
) -> None:
    out = tmp_path / "grid.csv"
    code = main(
        [
            "spectra",
            "--model",
            squeezer_path,
            "--omega-min",
            "1e6",
            "--omega-max",
            "3e6",
            "--points",
            "3",
            "--out",
            str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert len(rows) == 4
    assert rows[2][1] == ""  # the singular middle point is all-NaN
    sibling = tmp_path / "grid.errors.json"
    assert sibling.exists()
    failures = json.loads(sibling.read_text())
    assert len(failures) == 1
    assert failures[0]["omega_hz"] == pytest.approx(2.0e6, rel=1e-12)
    assert "near-singular" in failures[0]["message"]
    assert "1 failure(s)" in captured.err


def test_spectra_json_format(capsys: pytest.CaptureFixture[str]) -> None:
    code = main(
        [
            "spectra",
            "--builtin",
            "electromech",
            "--omega-min",
            "4.9e6",
            "--omega-max",
            "5.1e6",
            "--points",
            "5",
            "--format",
            "json",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["failures"] == []
    assert len(payload["omega_hz"]) == 5
    assert payload["eta_dn"][0] is None  # NaN sanitized to null


@pytest.mark.parametrize(
    ("grid", "message"),
    [
        (["--omega-min", "2e6", "--omega-max", "2e6"],
         "need 0 < --omega-min < --omega-max (both in Hz)"),
        (["--omega-min", "0", "--omega-max", "2e6"],
         "need 0 < --omega-min < --omega-max (both in Hz)"),
        (["--omega-min", "2e5", "--omega-max", "2e6", "--points", "1"],
         "--points must be at least 2"),
    ],
    ids=["min-at-max", "zero-min", "one-point"],
)
def test_spectra_rejects_a_bad_grid(
    grid: list[str], message: str, capsys: pytest.CaptureFixture[str]
) -> None:
    code = main(["spectra", "--builtin", "electromech", *grid])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_fom_qubit_matches_library(capsys: pytest.CaptureFixture[str]) -> None:
    code = main(
        [
            "fom",
            "--builtin",
            "electromech",
            "--app",
            "qubit",
            "--omega-sig",
            "5e6",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    values = _fom_lines(captured.out)
    eta_plus = float(values["eta_plus"])
    n_plus = float(values["n_plus"])
    assert float(values["fidelity"]) == pytest.approx(
        qubit_fidelity(eta_plus, n_plus), rel=1e-12
    )
    assert eta_plus > 0.99


def test_fom_qubit_json_output(capsys: pytest.CaptureFixture[str]) -> None:
    code = main(
        [
            "fom",
            "--builtin",
            "electromech",
            "--app",
            "qubit",
            "--omega-sig",
            "5e6",
            "--json",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["app"] == "qubit"
    assert payload["omega_sig_hz"] == 5e6
    assert 0.0 <= payload["fidelity"] <= 1.0


def test_fom_heterodyne_on_model_file(
    converter_path: str, capsys: pytest.CaptureFixture[str]
) -> None:
    code = main(
        [
            "fom",
            "--model",
            converter_path,
            "--app",
            "heterodyne",
            "--omega-sig",
            "1e6",
            "--json",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["eta_up"] == pytest.approx(0.64, rel=1e-9)
    assert payload["eta_dn"] == 0.0
    assert payload["p_s"] <= payload["bound"] + 1e-9
    assert payload["t_lo_abs"] > 0.0


# The cold phononic line and 4-6 MHz grid of the README's counting and
# entanglement examples.
_README_COLD_GRID = [
    "--builtin", "electromech", "--set", "t_wg=0", "--set", "t_m=0",
    "--omega-min", "4e6", "--omega-max", "6e6",
]


@pytest.mark.parametrize(
    "argv, lines",
    [
        (
            ["--builtin", "electromech", "--app", "qubit", "--omega-sig", "5e6"],
            [
                "eta_plus = 0.999618859854",
                "n_plus = 0.0506157515852",
                "fidelity = 0.91554551408",
            ],
        ),
        (
            ["--model", "README.json", "--app", "heterodyne", "--omega-sig", "1e6"],
            ["p_s = 1.60076575977", "bound = 2.57438685092"],
        ),
        (
            [
                *_README_COLD_GRID,
                "--app", "counting", "--omega-sig", "5e6", "--points", "8001",
                "--h-in", "delta:center_hz=5e6",
                "--h-out", "exponential:rate_per_s=2e4", "--window", "2e-4",
            ],
            [
                "bandwidth_hz = 14824.7060017",
                "dark_rate_per_s = 0.370593615678",
                "n_out_mean = 0.981384320514",
            ],
        ),
        (
            [
                *_README_COLD_GRID,
                "--app", "entangle", "--omega-sig", "5e6", "--points", "8001",
                "--window", "1e-5",
            ],
            [
                "one-click.fidelity = 0.997283872666",
                "two-click.fidelity = 0.999992579705",
            ],
        ),
    ],
    ids=["qubit", "heterodyne", "counting", "entangle"],
)
def test_fom_prints_readme_lines(
    argv: list[str],
    lines: list[str],
    tmp_path: Path,
    capsys: pytest.CaptureFixture[str],
) -> None:
    # The README's fom examples, line for line; "README.json" stands for the
    # model file shown in its "Model files" section.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    model = tmp_path / "converter.json"
    model.write_text(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    code = main(["fom"] + [str(model) if a == "README.json" else a for a in argv])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    for line in lines:
        assert line in readme
        assert line in out


def test_main_twice_in_one_process_forgets_overrides(
    capsys: pytest.CaptureFixture[str],
) -> None:
    # The parser is built once per process; the --set list of one call must
    # not reach the next. The request and its lines are the README's qubit
    # example.
    qubit = next(e for e in readme_examples() if "qubit" in e.argv)
    n_plus = next(line for line in qubit.shown if line.startswith("n_plus = "))
    assert main([*qubit.argv, "--set", "t_wg=0"]) == 0
    assert n_plus not in capsys.readouterr().out.splitlines()
    assert main(qubit.argv) == 0
    assert shows(qubit.shown, capsys.readouterr().out.splitlines())


def test_fom_counting_cold_lines(capsys: pytest.CaptureFixture[str]) -> None:
    code = main(
        [
            "fom",
            "--builtin",
            "electromech",
            "--set",
            "t_wg=0",
            "--set",
            "t_m=0",
            "--app",
            "counting",
            "--omega-sig",
            "5e6",
            "--omega-min",
            "4e6",
            "--omega-max",
            "6e6",
            "--points",
            "8001",
            "--h-in",
            "delta:center_hz=5e6",
            "--h-out",
            "boxcar:duration_s=1e-4",
            "--window",
            "1e-4",
            "--json",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["capture"] == 1.0
    assert payload["eta_h"] == pytest.approx(payload["eta_plus"], rel=1e-12)
    assert 0.0 < payload["bandwidth_hz"] < 1.0e6
    assert payload["n_out_mean"] == pytest.approx(
        payload["eta_h"] + payload["dark_rate_per_s"] * 1e-4, rel=1e-9
    )


def test_fom_counting_requires_shapes(capsys: pytest.CaptureFixture[str]) -> None:
    code = main(
        [
            "fom",
            "--builtin",
            "electromech",
            "--app",
            "counting",
            "--omega-sig",
            "5e6",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_fom_entangle_reports_both_schemes(
    capsys: pytest.CaptureFixture[str],
) -> None:
    code = main(
        [
            "fom",
            "--builtin",
            "electromech",
            "--set",
            "t_wg=0",
            "--set",
            "t_m=0",
            "--app",
            "entangle",
            "--omega-sig",
            "5e6",
            "--omega-min",
            "4e6",
            "--omega-max",
            "6e6",
            "--points",
            "8001",
            "--window",
            "1e-5",
            "--json",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert 0.0 <= payload["p_d"] < 1.0
    for scheme in ("one-click", "two-click"):
        entry = payload[scheme]
        assert 0.0 <= entry["fidelity"] <= 1.0
        assert 0.0 < entry["p_e"] <= 0.5
    assert payload["two-click"]["fidelity"] >= payload["one-click"]["fidelity"]


def test_fom_entangle_oversized_window_is_numerical_error(
    capsys: pytest.CaptureFixture[str],
) -> None:
    # A window so long that the dark-click probability reaches 1 puts the
    # protocol outside its domain: numerical-failure exit, as in optimize.
    code = main(
        [
            "fom",
            "--builtin",
            "electromech",
            "--app",
            "entangle",
            "--omega-sig",
            "5e6",
            "--omega-min",
            "4e6",
            "--omega-max",
            "6e6",
            "--points",
            "2001",
            "--window",
            "10",
        ]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "dark-click probability" in captured.err


def test_counting_numerical_failure_exit_code(
    squeezer_path: str, capsys: pytest.CaptureFixture[str]
) -> None:
    # The grid contains the exactly singular frequency, so the sweep holds
    # NaN there and the counting quadrature refuses to integrate.
    code = main(
        [
            "fom",
            "--model",
            squeezer_path,
            "--app",
            "counting",
            "--omega-sig",
            "2.5e6",
            "--omega-min",
            "1e6",
            "--omega-max",
            "3e6",
            "--points",
            "3",
            "--h-in",
            "delta:center_hz=2.5e6",
            "--h-out",
            "boxcar:duration_s=1e-4",
            "--window",
            "1e-4",
        ]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "error:" in captured.err


def test_protocol_sim_table(capsys: pytest.CaptureFixture[str]) -> None:
    code = main(
        [
            "protocol-sim",
            "--scheme",
            "one-click",
            "--p-e",
            "0.1",
            "--p-d",
            "0.0",
            "--eta",
            "1.0",
            "--trials",
            "20000",
            "--seed",
            "7",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "fidelity" in captured.out
    assert "max |exact - enumerate| = " in captured.out
    gap_line = [
        line for line in captured.out.splitlines() if "max |exact" in line
    ][0]
    gap = float(gap_line.split("=")[1].split(";")[0])
    assert gap < 1e-12


def test_protocol_sim_no_heralds_is_numerical_error(
    capsys: pytest.CaptureFixture[str],
) -> None:
    # Zero efficiency and zero dark counts produce no heralds at all, so
    # the conditional quantities are undefined: numerical-failure exit.
    code = main(
        [
            "protocol-sim",
            "--scheme",
            "one-click",
            "--p-e",
            "0.5",
            "--p-d",
            "0.0",
            "--eta",
            "0.0",
            "--trials",
            "100",
        ]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "error:" in captured.err


def test_validate_builtin_ok(capsys: pytest.CaptureFixture[str]) -> None:
    code = main(["validate", "--builtin", "electromech"])
    captured = capsys.readouterr()
    assert code == 0
    assert "validate: OK" in captured.out
    assert "oracle: closed-form row max relative deviation" in captured.out
    assert "particle-hole" in captured.out


def test_validate_model_file_with_ensemble(
    converter_path: str, capsys: pytest.CaptureFixture[str]
) -> None:
    code = main(
        ["validate", "--model", converter_path, "--ensemble", "3", "--seed", "1"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "ensemble(3):" in captured.out
    assert "validate: OK" in captured.out


def test_validate_rejects_invalid_model(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    bad = tmp_path / "bad.json"
    text = Path(tmp_path / "ok.json")
    save_model(two_mode_converter(), text)
    data = json.loads(text.read_text())
    data["ports"][0]["rate_hz"] = -1.0
    bad.write_text(json.dumps(data))
    code = main(["validate", "--model", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert "rate must be positive" in captured.err


def test_malformed_json_is_config_error(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    broken = tmp_path / "broken.json"
    broken.write_text('{"bands": [,]}')
    code = main(["validate", "--model", str(broken)])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid JSON" in captured.err


def test_model_source_must_be_unique(capsys: pytest.CaptureFixture[str]) -> None:
    code = main(
        [
            "validate",
            "--builtin",
            "electromech",
            "--model",
            "whatever.json",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "exactly one model source" in captured.err


def test_set_overrides_on_model_file(
    converter_path: str, capsys: pytest.CaptureFixture[str]
) -> None:
    code = main(
        [
            "validate",
            "--model",
            converter_path,
            "--set",
            "ports.sig.rate=8e6",
            "--set",
            "ports.sig.temperature=0.1",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "validate: OK" in captured.out


def test_set_rejects_malformed_pair(capsys: pytest.CaptureFixture[str]) -> None:
    code = main(
        ["validate", "--builtin", "electromech", "--set", "gamma_wg"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_optimize_cli_recovers_matching(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    trace_path = tmp_path / "trace.json"
    code = main(
        [
            "optimize",
            "--builtin",
            "electromech",
            "--set",
            "gamma_wg=3e5",
            "--objective",
            "max-eta",
            "--var",
            "ports.wg.rate:1e3:1e6",
            "--omega-sig",
            "5e6",
            "--budget",
            "150",
            "--seed",
            "0",
            "--out",
            str(trace_path),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    values = _fom_lines(captured.out)
    best = float(values["best ports.wg.rate"].split()[0])
    assert abs(best - 2.5e4) / 2.5e4 < 0.01
    # A repeated candidate is solved once but still counted: the trace holds
    # one entry per printed evaluation.
    printed = re.search(r"^evaluations +(\d+)$", captured.out, re.M)
    assert printed is not None
    trace = json.loads(trace_path.read_text())
    assert trace["objective"] == "max-eta"
    assert len(trace["trace"]) == trace["n_evals"] == int(printed.group(1)) <= 150
    assert trace["best_value"] > 0.99


def test_optimize_var_parse_error(capsys: pytest.CaptureFixture[str]) -> None:
    code = main(
        [
            "optimize",
            "--builtin",
            "electromech",
            "--objective",
            "max-eta",
            "--var",
            "ports.wg.rate:1e3",
            "--omega-sig",
            "5e6",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "PATH:LOW:HIGH" in captured.err


# The cold counting request of the README on a coarse grid; the shape flags
# are appended per case.
_COUNTING_ARGV = [
    "fom", *_README_COLD_GRID, "--app", "counting", "--omega-sig", "5e6",
    "--points", "201", "--window", "2e-4",
]


# Malformed --h-in/--h-out specs and the exact error each prints.
_SHAPE_ERRORS = [
    (
        "bogus:center_hz=5e6",
        "exponential:rate_per_s=2e4",
        "--h-in: unknown kind 'bogus' (delta, gaussian, lorentzian)",
    ),
    (
        "gaussian:center_hz=5e6",
        "exponential:rate_per_s=2e4",
        "--h-in gaussian: missing parameter 'sigma_hz'",
    ),
    (
        "delta:center_hz=5e6,foo=1,bar=2",
        "exponential:rate_per_s=2e4",
        "--h-in delta: unexpected parameters ['bar', 'foo']",
    ),
    (
        "delta:center_hz",
        "exponential:rate_per_s=2e4",
        "--h-in: expected key=value, got 'center_hz'",
    ),
    (
        "delta:center_hz=abc",
        "exponential:rate_per_s=2e4",
        "--h-in center_hz: 'abc' is not a number",
    ),
    (
        "delta:center_hz=5e6",
        "bogus",
        "--h-out: unknown kind 'bogus' (exponential, boxcar)",
    ),
    (
        "delta:center_hz=5e6",
        "boxcar",
        "--h-out boxcar: missing parameter 'duration_s'",
    ),
    (
        "delta:center_hz=5e6",
        "boxcar:duration_s=1e-4,x=2",
        "--h-out boxcar: unexpected parameters ['x']",
    ),
    (
        "delta:center_hz=5e6",
        "boxcar:duration_s",
        "--h-out: expected key=value, got 'duration_s'",
    ),
    (
        "delta:center_hz=5e6",
        "boxcar:duration_s=zz",
        "--h-out duration_s: 'zz' is not a number",
    ),
]
_SHAPE_ERROR_IDS = [
    "in-kind", "in-missing", "in-unexpected", "in-key-value", "in-number",
    "out-kind", "out-missing", "out-unexpected", "out-key-value", "out-number",
]


@pytest.mark.parametrize("h_in, h_out, message", _SHAPE_ERRORS, ids=_SHAPE_ERROR_IDS)
def test_shape_spec_errors_exact_text(
    h_in: str, h_out: str, message: str, capsys: pytest.CaptureFixture[str]
) -> None:
    code = main([*_COUNTING_ARGV, "--h-in", h_in, "--h-out", h_out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("h_in, h_out, message", _SHAPE_ERRORS, ids=_SHAPE_ERROR_IDS)
def test_shape_spec_errors_come_before_the_sweep(
    h_in: str,
    h_out: str,
    message: str,
    monkeypatch: pytest.MonkeyPatch,
    capsys: pytest.CaptureFixture[str],
) -> None:
    def no_sweep(*args: object, **kwargs: object) -> None:
        raise AssertionError("spectrum_sweep called before the shapes were parsed")

    monkeypatch.setattr("modescatter.cli.spectrum_sweep", no_sweep)
    code = main([*_COUNTING_ARGV, "--h-in", h_in, "--h-out", h_out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_protocol_sim_prints_readme_table(
    capsys: pytest.CaptureFixture[str],
) -> None:
    # The README's protocol-sim request; the README shows some rows, this
    # pins every row of the table.
    code = main(
        [
            "protocol-sim", "--scheme", "two-click", "--p-e", "0.5",
            "--p-d", "0.001", "--eta", "0.8", "--trials", "200000", "--seed", "1",
        ]
    )
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out == [
        "scheme=two-click p_e=0.5 p_d=0.001 eta=0.8 trials=200000 seed=1",
        "quantity                      exact    enumerate   monte-carlo",
        "fidelity                 0.99651357   0.99651357   0.996468 +/- 0.000227",
        "success_probability      0.32063792   0.32063792   0.319965 +/- 0.001043",
        "photon_herald_prob       0.31936032   0.31936032   0.318700",
        "pop[00]                  0.00149415   0.00149415   0.001422",
        "pop[psi_plus]            0.99601544   0.99601544   0.996046",
        "pop[01]                  0.00049813   0.00049813   0.000297",
        "pop[10]                  0.00049813   0.00049813   0.000547",
        "pop[11]                  0.00149415   0.00149415   0.001688",
        "max |exact - enumerate| = 1.110e-16; heralds = 63993",
    ]


_FAILING_CHECKS = {
    "unitarity": 2e-8,
    "particle_hole": 3e-8,
    "sum_rule": 4e-8,
    "skipped": 1.0,
}


def test_validate_failure_list_without_quadrature_port(
    converter_path: str,
    monkeypatch: pytest.MonkeyPatch,
    capsys: pytest.CaptureFixture[str],
) -> None:
    monkeypatch.setattr(
        "modescatter.cli.consistency_checks", lambda dyn, omegas: _FAILING_CHECKS
    )
    code = main(["validate", "--model", converter_path, "--ensemble", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines()[-2:] == [
        "checks: unitarity=2.000e-08 particle-hole=3.000e-08 sum-rule=4.000e-08"
        " (skipped 1 near-singular point(s))",
        "ensemble(2): unitarity=2.000e-08 particle-hole=3.000e-08 sum-rule=4.000e-08",
    ]
    assert captured.err.splitlines() == [
        "error: consistency checks failed",
        "  - particle-hole symmetry residual 3.000e-08 exceeds 1e-08",
        "  - quasi-unitarity residual 2.000e-08 exceeds 1e-08",
        "  - sum-rule residual 4.000e-08 exceeds 1e-08",
        "  - ensemble unitarity residual 2.000e-08 exceeds 1e-08",
        "  - ensemble particle_hole residual 3.000e-08 exceeds 1e-08",
        "  - ensemble sum_rule residual 4.000e-08 exceeds 1e-08",
    ]


def test_validate_failure_list_with_quadrature_port(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    # The electromech builtin couples lab-quadrature ports: only the
    # particle-hole residual is a verdict there.
    monkeypatch.setattr(
        "modescatter.cli.consistency_checks", lambda dyn, omegas: _FAILING_CHECKS
    )
    code = main(["validate", "--builtin", "electromech"])
    captured = capsys.readouterr()
    assert code == 1
    *_, checks, note, oracle = captured.out.splitlines()
    assert checks == (
        "checks: unitarity=2.000e-08 particle-hole=3.000e-08 sum-rule=4.000e-08"
        " (skipped 1 near-singular point(s))"
    )
    assert note == (
        "note: model couples quadrature ports; restricted unitarity and sum-rule"
        " residuals are informational (exact only at the quadrature mode's"
        " resonance)"
    )
    assert oracle.startswith("oracle: closed-form row max relative deviation = ")
    assert captured.err.splitlines() == [
        "error: consistency checks failed",
        "  - particle-hole symmetry residual 3.000e-08 exceeds 1e-08",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["fom", "--app", "qubit", "--omega-sig", "5e6"],
        ["spectra", "--omega-min", "4e6", "--omega-max", "6e6", "--points", "5"],
        [
            "optimize", "--objective", "max-eta", "--var", "ports.wg.rate:1e3:1e6",
            "--omega-sig", "5e6", "--budget", "8",
        ],
    ],
    ids=["fom", "spectra", "optimize"],
)
def test_unknown_exit_port_is_config_error(
    argv: list[str], capsys: pytest.CaptureFixture[str]
) -> None:
    code = main([*argv, "--builtin", "electromech", "--exit", "bogus"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: unknown exit port 'bogus' (have mech_loss, tx, wg)\n"
    )


@pytest.mark.parametrize(
    "extra, message",
    [
        (
            ["--var", "ports.nope.rate:1e3:1e6", "--omega-sig", "5e6"],
            "ports.nope.rate: no port named 'nope'",
        ),
        (
            [
                "--var", "ports.wg.rate:1e4:1e5", "--omega-sig", "7e6",
                "--objective", "max-F1c", "--omega-min", "4e6", "--omega-max", "6e6",
                "--points", "201", "--window", "1e-5",
            ],
            "signal frequency 4.398230e+07 rad/s lies outside the grid"
            " [2.513274e+07, 3.769911e+07]",
        ),
    ],
    ids=["variable-path", "signal-off-grid"],
)
def test_optimize_configuration_error_exits_2(
    extra: list[str], message: str, capsys: pytest.CaptureFixture[str]
) -> None:
    # Not "all candidates infeasible" (exit 3): the first evaluation reports it.
    code = main(
        ["optimize", "--builtin", "electromech", "--objective", "max-eta",
         "--budget", "4", *extra]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "variables, message",
    [
        (
            ["ports.wg.rate:1e3:1e6", "ports.wg.rate:1e4:2e4"],
            "variable 'ports.wg.rate' is given more than once",
        ),
        (
            ["couplings.0.rate:1e3:1e6", "couplings.00.rate:1e4:2e4"],
            "variables 'couplings.0.rate' and 'couplings.00.rate' name the same field",
        ),
    ],
    ids=["same-path", "same-field"],
)
def test_optimize_rejects_a_field_varied_twice(
    variables: list[str], message: str, capsys: pytest.CaptureFixture[str]
) -> None:
    # The model would see only the last value of the field, while the
    # search ran over both.
    argv = [
        "optimize", "--builtin", "electromech", "--set", "gamma_wg=3e5",
        "--objective", "max-eta", "--omega-sig", "5e6", "--budget", "30",
    ]
    for var in variables:
        argv += ["--var", var]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("app", ["qubit", "heterodyne"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_fom_non_finite_signal_is_numerical_error(
    app: str, value: str, capsys: pytest.CaptureFixture[str]
) -> None:
    code = main(
        ["fom", "--builtin", "electromech", "--app", app, "--omega-sig", value]
    )
    assert code == 3
    assert capsys.readouterr().err == (
        f"error: transfer_pair expects a positive finite frequency, got {value}\n"
    )


# The README's cold counting and entanglement requests on a coarse grid,
# with the signal frequency appended per case.
_GRID_APP_ARGV = {
    "counting": [
        *_README_COLD_GRID, "--points", "201", "--app", "counting",
        "--h-in", "delta:center_hz=5e6", "--h-out", "exponential:rate_per_s=2e4",
        "--window", "2e-4",
    ],
    "entangle": [
        *_README_COLD_GRID, "--points", "201", "--app", "entangle", "--window", "1e-5",
    ],
}


@pytest.mark.parametrize("app", ["qubit", "heterodyne", "counting", "entangle"])
def test_fom_nan_signal_exits_3_on_every_app(
    app: str, capsys: pytest.CaptureFixture[str]
) -> None:
    argv = _GRID_APP_ARGV.get(app, ["--builtin", "electromech", "--app", app])
    code = main(["fom", *argv, "--omega-sig", "nan"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    if app in _GRID_APP_ARGV:
        assert captured.err == "error: signal frequency must be finite, got nan\n"


@pytest.mark.parametrize("points", ["201", "3"])
@pytest.mark.parametrize("app", ["counting", "entangle"])
def test_fom_negative_window_is_config_error(
    app: str, points: str, capsys: pytest.CaptureFixture[str]
) -> None:
    # Bad input (exit 2), not a dark-click probability outside [0, 1), nor,
    # on a 3-point grid, an unconverged quadrature (both exit 3).
    code = main(
        ["fom", *_GRID_APP_ARGV[app], "--omega-sig", "5e6", "--window", "-1",
         "--points", points]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: detection window must be non-negative and finite, got -1.0 s\n"
    )


def test_optimize_zero_omega_min_reaches_grid_check(
    capsys: pytest.CaptureFixture[str],
) -> None:
    # A zero bound is set, not absent: the grid check, not "set omega_min".
    code = main(
        [
            "optimize", "--builtin", "electromech", "--objective", "max-F1c",
            "--var", "ports.wg.rate:1e3:1e6", "--omega-sig", "5e6",
            "--omega-min", "0", "--omega-max", "6e6", "--window", "1e-5",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: need 0 < omega_min < omega_max for the spectrum grid\n"
    )


# A counting or entanglement request through either command, on the README
# cold grid: fom for both apps, and optimize for an entanglement objective.
_COUNTING_REQUESTS = {
    "fom-counting": ["fom", *_GRID_APP_ARGV["counting"], "--omega-sig", "5e6"],
    "fom-entangle": ["fom", *_GRID_APP_ARGV["entangle"], "--omega-sig", "5e6"],
    "optimize": [
        "optimize", *_README_COLD_GRID, "--points", "201", "--objective", "max-F1c",
        "--var", "ports.wg.rate:1e3:1e6", "--omega-sig", "5e6", "--window", "1e-5",
        "--budget", "4",
    ],
}


@pytest.mark.parametrize("request_name", list(_COUNTING_REQUESTS))
def test_counting_requests_reject_a_two_point_grid_before_solving(
    request_name: str,
    capsys: pytest.CaptureFixture[str],
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # Bad input (exit 2) before any solve, not an unconverged quadrature
    # after the sweep (exit 3).
    def no_solve(*args: object) -> None:
        raise AssertionError("solved a request with a bad grid")

    monkeypatch.setattr("modescatter.scattering._solve_block", no_solve)
    code = main([*_COUNTING_REQUESTS[request_name], "--points", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: spectrum grid needs at least 3 points, got 2\n"


@pytest.mark.parametrize("request_name", list(_COUNTING_REQUESTS))
@pytest.mark.parametrize(
    ("bounds", "message"),
    [
        (["--omega-max", "6e6"], "{name} needs a spectrum grid: set omega_min and omega_max"),
        (["--omega-min", "6e6", "--omega-max", "4e6"],
         "need 0 < omega_min < omega_max for the spectrum grid"),
    ],
    ids=["missing", "reversed"],
)
def test_counting_requests_take_one_grid_rule(
    request_name: str,
    bounds: list[str],
    message: str,
    capsys: pytest.CaptureFixture[str],
) -> None:
    argv = _COUNTING_REQUESTS[request_name]
    cut = argv.index("--omega-min")
    code = main(argv[:cut] + argv[cut + 4 :] + bounds)
    captured = capsys.readouterr()
    assert code == 2
    name = {"fom-counting": "fom --app counting", "fom-entangle": "fom --app entangle"}
    want = message.format(name=name.get(request_name, "max-F1c"))
    assert captured.err == f"error: {want}\n"


@pytest.mark.parametrize("request_name", list(_COUNTING_REQUESTS))
def test_counting_requests_accept_a_zero_window(
    request_name: str, capsys: pytest.CaptureFixture[str]
) -> None:
    # A zero window is a valid detection window for both commands: no dark
    # click can fall in it.
    code = main([*_COUNTING_REQUESTS[request_name], "--window", "0"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    if request_name == "fom-entangle":
        assert "p_d = 0\n" in captured.out


@pytest.mark.parametrize("request_name", ["fom-entangle", "optimize"])
def test_counting_requests_need_a_window(
    request_name: str, capsys: pytest.CaptureFixture[str]
) -> None:
    argv = _COUNTING_REQUESTS[request_name]
    cut = argv.index("--window")
    code = main(argv[:cut] + argv[cut + 2 :])
    captured = capsys.readouterr()
    assert code == 2
    name = "fom --app entangle" if request_name == "fom-entangle" else "max-F1c"
    assert captured.err == f"error: {name} needs a detection window\n"


def test_validate_rejects_negative_ensemble(
    capsys: pytest.CaptureFixture[str],
) -> None:
    code = main(["validate", "--builtin", "electromech", "--ensemble", "-2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --ensemble must be non-negative, got -2\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            [
                "optimize", "--builtin", "electromech", "--objective", "max-eta",
                "--var", "ports.wg.rate:1e3:1e6", "--omega-sig", "5e6",
            ],
            "seed must be non-negative, got -1",
        ),
        (
            [
                "protocol-sim", "--scheme", "two-click", "--p-e", "0.5",
                "--p-d", "0.001", "--eta", "0.8", "--trials", "1000",
            ],
            "seed must be non-negative, got -1",
        ),
        (
            ["validate", "--builtin", "electromech", "--ensemble", "2"],
            "--seed must be non-negative, got -1",
        ),
    ],
    ids=["optimize", "protocol-sim", "validate"],
)
def test_negative_seed_is_a_configuration_error(
    argv: list[str], message: str, capsys: pytest.CaptureFixture[str]
) -> None:
    # NumPy's seeding refuses a negative seed with a ValueError; the command
    # reports it as bad input (exit 2) before printing anything.
    code = main([*argv, "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_optimize_rejects_negative_or_nan_tolerance(
    tol: str, capsys: pytest.CaptureFixture[str]
) -> None:
    # Either would turn the convergence test off and spend the whole budget.
    code = main(
        [
            "optimize", "--builtin", "electromech", "--set", "gamma_wg=3e5",
            "--objective", "max-eta", "--var", "ports.wg.rate:1e3:1e6",
            "--omega-sig", "5e6", "--budget", "400", "--seed", "0", "--tol", tol,
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: tolerance must be finite and non-negative")


def test_optimize_all_infeasible_prints_only_the_error() -> None:
    # Every candidate is infeasible, so whole simplices carry the inf
    # sentinel and the convergence test of optimize._nelder_mead subtracts
    # inf from inf under its np.errstate(invalid="ignore"). The console
    # must show the error line and nothing else.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    done = subprocess.run(
        [
            sys.executable, "-m", "modescatter.cli", "optimize",
            "--builtin", "electromech", "--set", "gamma_wg=3e5",
            "--objective", "min-Ps", "--var", "ports.wg.rate:1e3:1e6",
            "--omega-sig", "5e6", "--budget", "150",
        ],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": path},
        timeout=120,
    )
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == (
        "error: all 150 evaluated candidates were infeasible for objective"
        " 'min-Ps'\n"
    )
