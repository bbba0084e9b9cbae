"""Benchmark workloads: seeded inputs, requests and their correctness checks.

Every request goes through the package's public entry points, reached as
module attributes at call time so that tracing wrappers see them: the CLI
(``modescatter.cli.main`` in process, output captured) or the library.
Each check compares the output with a reference that does not share the
code path being timed, at the tolerance the package's tests or README
state, and returns the units of work the request did.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import modescatter.cli
import modescatter.modelfile
import modescatter.network
import modescatter.scattering
from modescatter import (
    ElectromechParams,
    NoiseEnvironment,
    ProtocolSpec,
    added_noise,
    assemble_dynamics,
    closed_form_row,
    entangle_fidelity_exact,
    protocol_enumerate,
    random_stable_model,
)
from modescatter.modelfile import save_model

TAU = 2.0 * math.pi
SWEEP_NETWORKS = 2  # random networks per dense-sweep run, swept in turn
# Validation time depends on the drawn network and ensemble (23-32 ms over
# ten seeds), so scalar-eval validates several, to keep the seed's share
# of the run-to-run spread small.
VALIDATE_NETWORKS = 8
SPECTRA_POINTS = 100_000
SWEEP_POINTS = 10_000
ENTANGLE_GRID = ("--omega-min", "4e6", "--omega-max", "6e6")
COLD_WAVEGUIDE = ("--builtin", "electromech", "--set", "t_wg=0", "--set", "t_m=0")

#: The two-mode converter of the README's "Model files" section.
CONVERTER = {
    "bands": [
        {"name": "uwave", "center_hz": 6.0e9},
        {"name": "acoustic", "center_hz": 4.0e9},
    ],
    "drives": [{"name": "pump", "frequency_hz": 2.0e9}],
    "modes": [
        {"name": "ma", "band": "uwave", "frame": "rotating", "resonance_hz": 6.001e9},
        {"name": "mb", "band": "acoustic", "frame": "rotating", "resonance_hz": 4.001e9},
    ],
    "couplings": [
        {"mode_a": "ma", "mode_b": "mb", "rate_hz": 1.0e6, "form": "beam-splitter", "drive": "pump"}
    ],
    "ports": [
        {"name": "sig", "mode": "ma", "rate_hz": 4.0e6, "temperature_k": 0.0, "role": "signal", "flavor": "rotating"},
        {"name": "out", "mode": "mb", "rate_hz": 4.0e6, "temperature_k": 0.05, "role": "exit", "flavor": "rotating"},
    ],
}

#: Values the README prints for its ``fom`` examples (12 significant digits).
README_FOM = {
    "qubit": {"eta_plus": 0.999618859854, "n_plus": 0.0506157515852, "fidelity": 0.91554551408},
    "heterodyne": {"p_s": 1.60076575977, "bound": 2.57438685092},
    "counting": {
        "bandwidth_hz": 14824.7060017,
        "dark_rate_per_s": 0.370593615678,
        "n_out_mean": 0.981384320514,
    },
    "entangle": {"one-click.fidelity": 0.997283872666, "two-click.fidelity": 0.999992579705},
}
README_DIGITS_REL = 1e-11  # agreement of a 12-significant-digit printout
ORACLE_REL = 1e-6  # the validate command's closed-form oracle tolerance
RESIDUAL_TOL = 1e-8
MC_SIGMAS = 5.0
EXACT_ENUM_TOL = 1e-12


class CheckError(Exception):
    """A request's output disagrees with its reference."""


@dataclass
class Request:
    """One request of a workload cycle.

    ``kind`` names the metric family; ``key`` also names the input, so
    requests of one kind on different inputs get separate medians.
    ``check`` raises :class:`CheckError` or returns the work units done.
    """

    kind: str
    key: str
    call: Callable[[], Any]
    check: Callable[[Any], float]


@dataclass
class Workload:
    """A cycle of requests and the metrics computed from it.

    Each named metric is ``(name, statistic, kinds, unit)``: statistic
    ``p50`` (median latency, the mean over inputs of each input's
    median), ``tail`` (latency at the highest percentile with at least ten
    samples beyond it) or ``rate`` (work units per second of request
    time). The first named metric is the workload's throughput.

    ``gated`` maps each gated end-to-end latency to ``(kind, per_work)``:
    the request kind whose fastest latency it reports, and whether that is
    divided by the work of one request. The gated workloads share these
    names, so every kind is gated on its own: ``eval_min_ms`` (optimize,
    per objective evaluation), ``fom1_min_ms`` and ``fom2_min_ms`` (the
    workload's two ``fom`` applications) and ``verify_min_ms`` (its
    cross-checking command, ``validate`` or ``protocol-sim``).
    """

    name: str
    cycle: list[Request]
    named: list[tuple[str, str, tuple[str, ...], str]]
    gated: dict[str, tuple[str, bool]]
    notes: dict[str, Any] = field(default_factory=dict)


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str
    bytes_out: int


def cli(argv: list[str], out_file: Path | None = None) -> CliOutput:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = modescatter.cli.main(argv)
    text, err = stdout.getvalue(), stderr.getvalue()
    size = len(text) + len(err) + (out_file.stat().st_size if out_file and out_file.exists() else 0)
    return CliOutput(code, text, err, size)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _ok(out: CliOutput) -> None:
    _require(out.code == 0, f"exit code {out.code}: {out.stderr.strip()[-300:]}")


def _fields(text: str) -> dict[str, str]:
    pairs = (line.partition(" = ") for line in text.splitlines())
    return {key.strip(): value.strip() for key, sep, value in pairs if sep}


def _close(value: float, want: float, rel: float, what: str) -> None:
    _require(
        math.isfinite(value) and abs(value - want) <= rel * abs(want),
        f"{what} = {value!r}, expected {want!r} (rel {rel:g})",
    )


def _readme_values(out: CliOutput, app: str) -> dict[str, str]:
    _ok(out)
    fields = _fields(out.stdout)
    for name, want in README_FOM[app].items():
        _require(name in fields, f"fom --app {app}: missing {name}")
        _close(float(fields[name]), want, README_DIGITS_REL, name)
    return fields


def _check_readme(app: str) -> Callable[[CliOutput], float]:
    def check(out: CliOutput) -> float:
        _readme_values(out, app)
        return 1.0

    return check


def _optimize_result(out: CliOutput, budget: int) -> tuple[float, dict[str, float], int]:
    _ok(out)
    best = re.search(r"^best value\s+(\S+)$", out.stdout, re.M)
    evals = re.search(r"^evaluations\s+(\d+)$", out.stdout, re.M)
    _require(best is not None and evals is not None, "optimize: unreadable output")
    params = {
        m.group(1): float(m.group(2))
        for m in re.finditer(r"^best (\S+) = (\S+) (?:Hz|K)$", out.stdout, re.M)
    }
    n_evals = int(evals.group(1))
    _require(0 < n_evals <= budget, f"optimize: {n_evals} evaluations, budget {budget}")
    return float(best.group(1)), params, n_evals


# ---------------------------------------------------------------------------
# dense-sweep


def _dense_sweep(seed: int, scratch: Path) -> Workload:
    params = ElectromechParams()
    em_env = NoiseEnvironment.from_temperatures(
        {"wg": params.t_wg, "mech_loss": params.t_m, "tx": params.t_tx}
    )
    csv_path = scratch / "spectra.csv"
    spectra_argv = [
        "spectra", "--builtin", "electromech", "--omega-min", "4e6", "--omega-max", "6e6",
        "--points", str(SPECTRA_POINTS), "--out", str(csv_path),
    ]
    samples = np.linspace(0, SPECTRA_POINTS - 1, 64).astype(int)

    def check_spectra(out: CliOutput) -> float:
        _ok(out)
        _require(not csv_path.with_name("spectra.errors.json").exists(), "spectra: failed points")
        lines = csv_path.read_text().splitlines()
        _require(lines[0].startswith("omega_hz,eta_up,eta_dn,N_up,N_dn,"), "spectra: bad header")
        rows = lines[1:]
        _require(len(rows) == SPECTRA_POINTS, f"spectra: {len(rows)} rows")
        _require(all(row.split(",", 2)[1] for row in rows), "spectra: undefined eta_up")
        for i in samples:
            cells = rows[i].split(",")
            omega = TAU * float(cells[0])
            ref = closed_form_row(params, omega)
            scale = max(abs(c) ** 2 for c in (*ref.u_coeffs.values(), *ref.v_coeffs.values()))
            eta_ref = abs(ref.u_coeffs["tx"]) ** 2
            _require(
                abs(float(cells[1]) - eta_ref) <= ORACLE_REL * scale,
                f"spectra: eta_up {cells[1]} vs closed form {eta_ref!r} at {cells[0]} Hz",
            )
            _close(float(cells[3]), added_noise(ref, em_env), ORACLE_REL, f"N_up at {cells[0]} Hz")
        return float(SPECTRA_POINTS)

    requests = [
        Request("spectra_1e5", "spectra_1e5", lambda: cli(spectra_argv, csv_path), check_spectra)
    ]
    rng = np.random.default_rng(seed)
    nets = []
    for k in range(SWEEP_NETWORKS):
        path = scratch / f"net{k}.json"
        model = random_stable_model(rng, n_modes=5)
        save_model(model, path)
        dyn = assemble_dynamics(model)
        scale = float(np.max(np.abs(np.linalg.eigvals(dyn.dyn_matrix))))
        grid = np.geomspace(0.01 * scale, 10.0 * scale, SWEEP_POINTS)
        nets.append({"file": path.name, "ports": dyn.n_ports, "dimension": dyn.dimension})

        def sweep(path: Path = path, grid: np.ndarray = grid) -> Any:
            model = modescatter.modelfile.load_model(path)
            dyn = modescatter.network.assemble_dynamics(model)
            env = NoiseEnvironment.from_dynamics(dyn)
            return modescatter.scattering.spectrum_sweep(dyn, env, grid)

        requests.append(Request("sweep_1e4", f"sweep_1e4[net{k}]", sweep, _check_sweep))
    named = [
        ("points_per_s", "rate", ("spectra_1e5", "sweep_1e4"), "points/s"),
        ("spectra_1e5_s", "p50", ("spectra_1e5",), "s"),
        ("sweep_1e4_s", "p50", ("sweep_1e4",), "s"),
    ]
    gated = {"spectra_min_ms": ("spectra_1e5", False), "sweep_min_ms": ("sweep_1e4", False)}
    return Workload("dense-sweep", requests, named, gated, {"networks": nets})


def _check_sweep(grid: Any) -> float:
    _require(not grid.failures, f"sweep: {len(grid.failures)} near-singular points")
    _require(bool(np.all(np.isfinite(grid.eta_up))), "sweep: undefined eta_up")
    _require(len(grid.rows_up) == grid.omegas.size, "sweep: missing transfer rows")
    for name in ("symplectic_resid", "sumrule_resid"):
        resid = getattr(grid, name)
        _require(bool(np.all(np.isfinite(resid))), f"sweep: non-finite {name}")
        worst = float(np.max(resid))
        _require(worst <= RESIDUAL_TOL, f"sweep: {name} {worst:.3e} > {RESIDUAL_TOL:g}")
    return float(grid.omegas.size)


# ---------------------------------------------------------------------------
# scalar-eval


def _scalar_eval(seed: int, scratch: Path) -> Workload:
    converter = scratch / "converter.json"
    converter.write_text(json.dumps(CONVERTER, indent=2) + "\n")
    rng = np.random.default_rng(seed)
    validates = []
    for k in range(VALIDATE_NETWORKS):
        net = scratch / f"net{k}.json"
        save_model(random_stable_model(rng, n_modes=5), net)
        ensemble_seed = str(int(rng.integers(2**31)))
        validates.append((f"validate[net{k}]", [
            "validate", "--model", str(net), "--ensemble", "5", "--seed", ensemble_seed,
        ]))
    em = ElectromechParams()
    matched_wg_hz = em.g**2 / em.gamma_tx / TAU
    # At resonance the converter has cooperativity 4 g^2 / (k_sig k_out);
    # unit cooperativity (k_out = 1 MHz) gives eta = 1 and no added noise.
    matched_out_hz = 4.0 * 1.0e6**2 / 4.0e6
    budget = 150

    def optimize(objective: str, source: list[str], var: str, omega_sig: str) -> Callable[[], CliOutput]:
        argv = [
            "optimize", *source, "--objective", objective, "--var", var,
            "--omega-sig", omega_sig, "--budget", str(budget), "--seed", str(seed),
        ]
        return lambda: cli(argv)

    def check_max_eta(out: CliOutput) -> float:
        _, params, n_evals = _optimize_result(out, budget)
        _close(params.get("ports.wg.rate", math.nan), matched_wg_hz, 0.01, "max-eta waveguide rate")
        return float(n_evals)

    def check_min_ps(out: CliOutput) -> float:
        best, _, n_evals = _optimize_result(out, budget)
        # A passive converter cannot beat P_s = 1; the README's
        # configuration lies inside the box, so the minimum is at most its value.
        ceiling = README_FOM["heterodyne"]["p_s"]
        _require(1.0 <= best <= ceiling, f"min-Ps best {best!r} outside [1, {ceiling}]")
        return float(n_evals)

    def check_max_fq(out: CliOutput) -> float:
        best, params, n_evals = _optimize_result(out, budget)
        _close(best, 1.0, 1e-6, "max-Fq best fidelity")
        _close(params.get("ports.out.rate", math.nan), matched_out_hz, 0.01, "max-Fq out rate")
        return float(n_evals)

    fom_qubit = ["fom", "--builtin", "electromech", "--app", "qubit", "--omega-sig", "5e6"]
    fom_het = ["fom", "--model", str(converter), "--app", "heterodyne", "--omega-sig", "1e6"]

    def check_validate(out: CliOutput) -> float:
        _ok(out)
        _require(out.stdout.rstrip().endswith("validate: OK"), "validate: not OK")
        return 1.0

    em_source = ["--builtin", "electromech", "--set", "gamma_wg=3e5"]
    conv_source = ["--model", str(converter)]
    requests = [
        Request("optimize", "optimize[max-eta]",
                optimize("max-eta", em_source, "ports.wg.rate:1e3:1e6", "5e6"), check_max_eta),
        Request("optimize", "optimize[min-Ps]",
                optimize("min-Ps", conv_source, "ports.out.rate:1e5:1e7", "1e6"), check_min_ps),
        Request("optimize", "optimize[max-Fq]",
                optimize("max-Fq", conv_source, "ports.out.rate:1e5:1e7", "1e6"), check_max_fq),
        Request("fom_qubit", "fom_qubit", lambda: cli(fom_qubit),
                _check_readme("qubit")),
        Request("fom_heterodyne", "fom_heterodyne", lambda: cli(fom_het),
                _check_readme("heterodyne")),
    ]
    requests += [
        Request("validate", key, lambda argv=argv: cli(argv), check_validate)
        for key, argv in validates
    ]
    named = [
        ("evals_per_s", "rate", ("optimize",), "evaluations/s"),
        ("fom_qubit_ms", "p50", ("fom_qubit",), "ms"),
        ("fom_heterodyne_ms", "p50", ("fom_heterodyne",), "ms"),
        ("fom_tail_ms", "tail", ("fom_qubit", "fom_heterodyne"), "ms"),
        ("validate_ms", "p50", ("validate",), "ms"),
    ]
    gated = {
        "eval_min_ms": ("optimize", True),
        "fom1_min_ms": ("fom_qubit", False),
        "fom2_min_ms": ("fom_heterodyne", False),
        "verify_min_ms": ("validate", False),
    }
    return Workload("scalar-eval", requests, named, gated)


# ---------------------------------------------------------------------------
# entangle-pipeline


def _entangle_pipeline(seed: int, scratch: Path) -> Workload:
    # The smallest budget the optimizer takes for one variable: its search
    # from the box midpoint alone, so the path does not depend on the seed,
    # and a short request, so a run holds many samples of every kind and
    # its fastest requests are less likely all to fall in a slow spell of
    # a shared host.
    budget = 4
    counting = [
        "fom", *COLD_WAVEGUIDE, "--app", "counting", "--omega-sig", "5e6", *ENTANGLE_GRID,
        "--points", "8001", "--h-in", "delta:center_hz=5e6",
        "--h-out", "exponential:rate_per_s=2e4", "--window", "2e-4",
    ]
    entangle = [
        "fom", *COLD_WAVEGUIDE, "--app", "entangle", "--omega-sig", "5e6", *ENTANGLE_GRID,
        "--points", "8001", "--window", "1e-5",
    ]

    def check_entangle(out: CliOutput) -> float:
        fields = _readme_values(out, "entangle")
        p_d, eff = float(fields["p_d"]), min(float(fields["eta_plus"]), 1.0)
        for scheme in ("one-click", "two-click"):
            spec = ProtocolSpec(scheme, float(fields[f"{scheme}.p_e"]), p_d, eff)
            gap = abs(entangle_fidelity_exact(spec).fidelity - protocol_enumerate(spec).fidelity)
            _require(gap <= EXACT_ENUM_TOL, f"{scheme}: |exact - enumerate| = {gap:.3e}")
        return 1.0

    def optimize(objective: str) -> Callable[[], CliOutput]:
        argv = [
            "optimize", *COLD_WAVEGUIDE, "--objective", objective,
            "--var", "ports.wg.rate:1e3:1e5", "--omega-sig", "5e6", *ENTANGLE_GRID,
            "--points", "2001", "--window", "1e-5", "--budget", str(budget), "--seed", str(seed),
        ]
        return lambda: cli(argv)

    def check_fidelity_opt(out: CliOutput) -> float:
        best, _, n_evals = _optimize_result(out, budget)
        _require(0.5 < best <= 1.0, f"entanglement fidelity {best!r} outside (1/2, 1]")
        return float(n_evals)

    trials = 200_000
    protocols = {
        "two-click": ("0.5", "0.001", "0.8"),  # the README example
        "one-click": ("0.2", "0.01", "0.5"),  # the acceptance gate's Monte Carlo case
    }

    def simulate(scheme: str) -> Callable[[], CliOutput]:
        p_e, p_d, eff = protocols[scheme]
        argv = [
            "protocol-sim", "--scheme", scheme, "--p-e", p_e, "--p-d", p_d, "--eta", eff,
            "--trials", str(trials), "--seed", str(seed),
        ]
        return lambda: cli(argv)

    def check_simulation(out: CliOutput) -> float:
        _ok(out)
        gap = re.search(r"max \|exact - enumerate\| = (\S+);", out.stdout)
        _require(gap is not None and float(gap.group(1)) <= EXACT_ENUM_TOL, "protocol-sim: exact != enumerate")
        for quantity in ("fidelity", "success_probability"):
            row = re.search(rf"^{quantity}\s+(\S+)\s+(\S+)\s+(\S+) \+/- (\S+)$", out.stdout, re.M)
            _require(row is not None, f"protocol-sim: no {quantity} row")
            exact, _, mc, stderr = map(float, row.groups())
            _require(
                abs(mc - exact) <= MC_SIGMAS * stderr,
                f"protocol-sim {quantity}: Monte Carlo {mc} vs exact {exact} (+/- {stderr})",
            )
        return float(trials)

    requests = [
        Request("fom_counting", "fom_counting", lambda: cli(counting),
                _check_readme("counting")),
        Request("fom_entangle", "fom_entangle", lambda: cli(entangle), check_entangle),
        Request("optimize", "optimize[max-F1c]", optimize("max-F1c"), check_fidelity_opt),
        Request("optimize", "optimize[max-F2c]", optimize("max-F2c"), check_fidelity_opt),
        Request("protocol_sim", "protocol_sim[two-click]", simulate("two-click"), check_simulation),
        Request("protocol_sim", "protocol_sim[one-click]", simulate("one-click"), check_simulation),
    ]
    named = [
        ("evals_per_s", "rate", ("optimize",), "evaluations/s"),
        ("fom_counting_ms", "p50", ("fom_counting",), "ms"),
        ("fom_entangle_ms", "p50", ("fom_entangle",), "ms"),
        ("protocol_sim_ms", "p50", ("protocol_sim",), "ms"),
        ("mc_trials_per_s", "rate", ("protocol_sim",), "trials/s"),
    ]
    gated = {
        "eval_min_ms": ("optimize", True),
        "fom1_min_ms": ("fom_counting", False),
        "fom2_min_ms": ("fom_entangle", False),
        "verify_min_ms": ("protocol_sim", False),
    }
    return Workload("entangle-pipeline", requests, named, gated)


CATALOG: dict[str, Callable[[int, Path], Workload]] = {
    "dense-sweep": _dense_sweep,
    "scalar-eval": _scalar_eval,
    "entangle-pipeline": _entangle_pipeline,
}
