"""Command-line interface.

Subcommands::

    spectra       sweep efficiency / added noise over a frequency grid
    fom           application figures of merit at a signal frequency
    optimize      bounded search over port/coupling parameters
    protocol-sim  heralded-entanglement Monte Carlo vs exact enumeration
    validate      model validation plus scattering self-consistency checks

All command-line frequencies and rates are in Hz (converted internally to
angular units); temperatures are in kelvin. Exit codes: 0 success, 1 model
validation or application failure, 2 configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from . import __version__
from .applications.counting import SpectralShape, TemporalShape, check_counting_request
from .applications.entangle import (
    ProtocolSpec,
    entangle_fidelity_exact,
    protocol_enumerate,
    protocol_montecarlo,
)
from .electromech import oracle_deviation
from .errors import (
    ConfigurationError,
    ModelValidationError,
    ModeScatterError,
    ValidityWarning,
)
from .modelfile import (
    BUILTIN_MODELS,
    angular_to_hz,
    electromech_params,
    get_builtin,
    hz_to_angular,
    load_model,
    model_with,
)
from .network import (
    DoubledDynamics,
    TransducerModel,
    _draw_stable_model,
    assemble_dynamics,
    rwa_report,
    validate_model,
)
from .optimize import OBJECTIVES, OptimizeSpec, figures_of_merit, run_optimization
from .scattering import NoiseEnvironment, consistency_checks, spectrum_sweep

_CSV_HEADER = (
    "omega_hz",
    "eta_up",
    "eta_dn",
    "N_up",
    "N_dn",
    "sumrule_resid",
    "symplectic_resid",
)

_CHECK_TOL = 1e-8

# Residuals of ``consistency_checks``, in print order, and their names in
# validate's failure list.
_RESIDUALS = {
    "unitarity": "quasi-unitarity",
    "particle_hole": "particle-hole symmetry",
    "sum_rule": "sum-rule",
}


# ---------------------------------------------------------------------------
# shared argument handling


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(f"{what}: {text!r} is not a number") from None


def _model_units(path: str, value: float) -> float:
    """A ``--set`` or ``--var`` value in model units: ``.rate`` paths are in Hz."""
    return hz_to_angular(value) if path.endswith(".rate") else value


def _parse_set_pairs(pairs: Sequence[str]) -> dict[str, float]:
    """``--set KEY=VALUE`` pairs as numbers, every pair checked for ``=`` first."""
    texts: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(
                f"--set expects KEY=VALUE, got {pair!r}"
            )
        texts[key.strip()] = value.strip()
    return {
        key: _model_units(key, _parse_float(value, f"--set {key}"))
        for key, value in texts.items()
    }


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("model source")
    group.add_argument("--model", metavar="PATH", help="JSON model file")
    group.add_argument(
        "--builtin",
        metavar="NAME",
        help=f"builtin model ({', '.join(BUILTIN_MODELS)})",
    )
    group.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help=(
            "override a parameter; for --builtin, KEY is a builtin parameter"
            " name (Hz / kelvin); for --model, KEY is a dotted path such as"
            " ports.NAME.rate (Hz), ports.NAME.temperature (K), or"
            " couplings.INDEX.rate (Hz)"
        ),
    )


def _resolve_model(
    args: argparse.Namespace,
) -> tuple[TransducerModel, dict[str, float]]:
    """The model named by the model source, and its ``--set`` overrides."""
    if bool(args.model) == bool(args.builtin):
        raise ConfigurationError(
            "provide exactly one model source: --model PATH or --builtin NAME"
        )
    sets = _parse_set_pairs(args.set or [])
    if args.builtin:
        return get_builtin(args.builtin, sets), sets
    model = load_model(args.model)
    if sets:
        model = model_with(model, sets)
        report = validate_model(model)
        if report.errors:
            raise ModelValidationError(
                "model failed validation after --set overrides",
                errors=tuple(report.errors),
            )
    return model, sets


def _add_grid_args(parser: argparse.ArgumentParser, required: bool) -> None:
    grid = parser.add_argument_group("frequency grid (Hz)")
    grid.add_argument(
        "--omega-min", type=float, required=required, help="grid start, Hz"
    )
    grid.add_argument(
        "--omega-max", type=float, required=required, help="grid end, Hz"
    )
    grid.add_argument(
        "--points", type=int, default=2001, help="grid size (default 2001)"
    )


def _grid_omegas(args: argparse.Namespace, log: bool = False) -> np.ndarray:
    if not 0.0 < args.omega_min < args.omega_max:
        raise ConfigurationError(
            "need 0 < --omega-min < --omega-max (both in Hz)"
        )
    if args.points < 2:
        raise ConfigurationError("--points must be at least 2")
    lo = hz_to_angular(args.omega_min)
    hi = hz_to_angular(args.omega_max)
    if log:
        return np.geomspace(lo, hi, args.points)
    return np.linspace(lo, hi, args.points)


def _spectrum_request(args: argparse.Namespace) -> dict[str, Any]:
    """The grid and window of a ``fom`` or ``optimize`` request, in rad/s and s."""
    bounds = (args.omega_min, args.omega_max)
    low, high = (None if hz is None else hz_to_angular(hz) for hz in bounds)
    return dict(omega_min=low, omega_max=high, points=args.points, window=args.window)


# Per shape flag: kind -> (constructor, parameter names). Values of
# ``*_hz`` parameters are converted to rad/s.
_SHAPES = {
    "--h-in": {
        "delta": (SpectralShape.delta, ("center_hz",)),
        "gaussian": (SpectralShape.gaussian, ("center_hz", "sigma_hz")),
        "lorentzian": (SpectralShape.lorentzian, ("center_hz", "fwhm_hz")),
    },
    "--h-out": {
        "exponential": (TemporalShape.exponential, ("rate_per_s",)),
        "boxcar": (TemporalShape.boxcar, ("duration_s",)),
    },
}


def _parse_shape(flag: str, text: str) -> SpectralShape | TemporalShape:
    """A ``KIND:key=value,...`` spec of ``--h-in`` or ``--h-out``."""
    kind, _, rest = text.partition(":")
    params: dict[str, float] = {}
    for chunk in rest.split(",") if rest else ():
        key, sep, value = chunk.partition("=")
        if not sep:
            raise ConfigurationError(f"{flag}: expected key=value, got {chunk!r}")
        key = key.strip()
        number = _parse_float(value, f"{flag} {key}")
        params[key] = hz_to_angular(number) if key.endswith("_hz") else number
    kind = kind.strip()
    kinds = _SHAPES[flag]
    if kind not in kinds:
        raise ConfigurationError(
            f"{flag}: unknown kind {kind!r} ({', '.join(kinds)})"
        )
    make, names = kinds[kind]
    try:
        shape = make(*[params.pop(name) for name in names])
    except KeyError as exc:
        raise ConfigurationError(f"{flag} {kind}: missing parameter {exc}") from None
    if params:
        raise ConfigurationError(
            f"{flag} {kind}: unexpected parameters {sorted(params)}"
        )
    return shape


def _sanitize(value: Any) -> Any:
    """JSON-safe copy: non-finite floats become None, complex become [re, im]."""
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, complex):
        return [_sanitize(value.real), _sanitize(value.imag)]
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _emit(payload: dict[str, Any], as_json: bool) -> None:
    if as_json:
        print(json.dumps(_sanitize(payload), indent=2))
        return

    def walk(prefix: str, obj: Any) -> None:
        if isinstance(obj, dict):
            for key, value in obj.items():
                walk(f"{prefix}{key}." if prefix else f"{key}.", value)
            return
        name = prefix[:-1]
        if isinstance(obj, complex):
            print(f"{name} = {obj.real:.12g}{obj.imag:+.12g}j")
        elif isinstance(obj, float):
            print(f"{name} = {obj:.12g}")
        else:
            print(f"{name} = {obj}")

    walk("", payload)


# ---------------------------------------------------------------------------
# spectra


def _cmd_spectra(args: argparse.Namespace) -> int:
    model, _ = _resolve_model(args)
    dyn = assemble_dynamics(model)
    env = NoiseEnvironment.from_dynamics(dyn)
    omegas = _grid_omegas(args, log=args.log)
    grid = spectrum_sweep(dyn, env, omegas, exit_port=args.exit)
    failures = [
        {"index": f.index, "omega_hz": angular_to_hz(f.omega), "message": f.message}
        for f in grid.failures
    ]

    columns = (
        [angular_to_hz(float(w)) for w in grid.omegas],
        grid.eta_up,
        grid.eta_dn,
        grid.noise_up,
        grid.noise_dn,
        grid.sumrule_resid,
        grid.symplectic_resid,
    )

    if args.format == "csv":
        stream = open(args.out, "w", newline="") if args.out else sys.stdout
        try:
            writer = csv.writer(stream)
            writer.writerow(_CSV_HEADER)
            for row in zip(*columns):
                writer.writerow(
                    "" if not math.isfinite(float(x)) else repr(float(x))
                    for x in row
                )
        finally:
            if args.out:
                stream.close()
    else:
        payload = dict(zip(_CSV_HEADER, ([float(x) for x in col] for col in columns)))
        payload["failures"] = failures
        text = json.dumps(_sanitize(payload), indent=2)
        if args.out:
            Path(args.out).write_text(text + "\n")
        else:
            print(text)

    if grid.failures and args.format == "csv":
        if args.out:
            sibling = Path(args.out).with_name(Path(args.out).stem + ".errors.json")
            sibling.write_text(json.dumps(failures, indent=2) + "\n")
            print(f"wrote {len(grid.failures)} failure(s) to {sibling}", file=sys.stderr)
        else:
            for f in grid.failures:
                print(
                    f"failure at omega={angular_to_hz(f.omega):.6e} Hz: {f.message}",
                    file=sys.stderr,
                )

    eta_up = np.asarray(grid.eta_up, dtype=float)
    if np.any(np.isfinite(eta_up)):
        peak = int(np.nanargmax(eta_up))
        noise_at_peak = float(np.asarray(grid.noise_up)[peak])
        resid = np.asarray(grid.sumrule_resid, dtype=float)
        max_resid = (
            float(np.nanmax(np.abs(resid))) if np.any(np.isfinite(resid)) else math.nan
        )
        print(
            f"peak eta_up = {eta_up[peak]:.6g} at"
            f" {angular_to_hz(float(grid.omegas[peak])):.6e} Hz;"
            f" N_up there = {noise_at_peak:.6g};"
            f" max |sum-rule residual| = {max_resid:.3g};"
            f" {len(grid.failures)} failed point(s)",
            file=sys.stderr,
        )
    else:
        print("no finite efficiency points in sweep", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# fom


def _cmd_fom(args: argparse.Namespace) -> int:
    model, _ = _resolve_model(args)
    dyn = assemble_dynamics(model)
    env = NoiseEnvironment.from_dynamics(dyn)
    request = {"theta_lo": args.theta_lo, "p_e": args.p_e, **_spectrum_request(args)}
    if args.app in ("counting", "entangle"):
        if args.app == "counting" and None in (args.h_in, args.h_out, args.window):
            raise ConfigurationError(
                "fom --app counting needs --h-in, --h-out, and --window"
            )
        # Bad input, whatever the sweep would give: check it before the sweep.
        grid = (args.omega_min, args.omega_max, args.points, args.window)
        check_counting_request(f"fom --app {args.app}", *grid)
        if args.app == "counting":
            request["h_in"] = _parse_shape("--h-in", args.h_in)
            request["h_out"] = _parse_shape("--h-out", args.h_out)
    omega_sig = hz_to_angular(args.omega_sig)
    fields = figures_of_merit(args.app, dyn, env, omega_sig, args.exit, **request)
    _emit({"app": args.app, "omega_sig_hz": args.omega_sig, **fields}, args.json)
    return 0


# ---------------------------------------------------------------------------
# optimize


def _parse_var(text: str) -> tuple[str, float, float]:
    parts = text.rsplit(":", 2)
    if len(parts) != 3:
        raise ConfigurationError(
            f"--var expects PATH:LOW:HIGH, got {text!r}"
        )
    path = parts[0]
    low = _parse_float(parts[1], f"--var {path} low")
    high = _parse_float(parts[2], f"--var {path} high")
    return path, _model_units(path, low), _model_units(path, high)


def _cmd_optimize(args: argparse.Namespace) -> int:
    model, _ = _resolve_model(args)
    variables = tuple(_parse_var(text) for text in args.var)
    spec = OptimizeSpec(
        variables=variables,
        objective=args.objective,
        omega_sig=hz_to_angular(args.omega_sig),
        exit_port=args.exit,
        budget=args.budget,
        tolerance=args.tol,
        seed=args.seed,
        **_spectrum_request(args),
    )
    result = run_optimization(model, spec)

    best_display = {
        path: (
            f"{angular_to_hz(value):.9g} Hz"
            if path.endswith(".rate")
            else f"{value:.9g} K"
        )
        for path, value in result.best_params.items()
    }
    print(f"objective      {result.objective}")
    print(f"best value     {result.best_value:.9g}")
    for path, text in best_display.items():
        print(f"best {path} = {text}")
    print(f"evaluations    {result.n_evals}")
    print(f"converged      {result.converged}")
    if args.out:
        trace = [
            {
                "params_rad_s": list(entry.params),
                "value": entry.value,
                "feasible": entry.feasible,
            }
            for entry in result.trace
        ]
        Path(args.out).write_text(
            json.dumps(
                _sanitize(
                    {
                        "objective": result.objective,
                        "variable_paths": list(result.variable_paths),
                        "best_params_rad_s": dict(result.best_params),
                        "best_value": result.best_value,
                        "n_evals": result.n_evals,
                        "converged": result.converged,
                        "trace": trace,
                    }
                ),
                indent=2,
            )
            + "\n"
        )
        print(f"trace written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# protocol-sim


def _cmd_protocol_sim(args: argparse.Namespace) -> int:
    spec = ProtocolSpec(args.scheme, args.p_e, args.p_d, args.eta)
    exact = entangle_fidelity_exact(spec)
    enum = protocol_enumerate(spec)
    mc = protocol_montecarlo(spec, args.trials, args.seed)

    # One row per quantity: its exact, enumerated and Monte Carlo values,
    # and the Monte Carlo standard error where there is one.
    results = (exact, enum, mc)
    table = [
        (label, [getattr(r, name) for r in results], se)
        for label, name, se in (
            ("fidelity", "fidelity", mc.fidelity_stderr),
            ("success_probability", "success_probability", mc.success_stderr),
            ("photon_herald_prob", "photon_herald_probability", None),
        )
    ] + [
        (f"pop[{key}]", [r.populations[key] for r in results], None)
        for key in ("00", "psi_plus", "01", "10", "11")
    ]
    print(
        f"scheme={spec.scheme} p_e={spec.p_e} p_d={spec.p_d} eta={spec.eta}"
        f" trials={args.trials} seed={args.seed}"
    )
    print(f"{'quantity':<22} {'exact':>12} {'enumerate':>12}   monte-carlo")
    for label, (a, b, c), se in table:
        mc_text = f"{c:.6f}" + (f" +/- {se:.6f}" if se is not None else "")
        print(f"{label:<22} {a:>12.8f} {b:>12.8f}   {mc_text}")
    gap = max(
        abs(exact.fidelity - enum.fidelity),
        abs(exact.success_probability - enum.success_probability),
        max(
            abs(exact.populations[k] - enum.populations[k])
            for k in exact.populations
        ),
    )
    print(f"max |exact - enumerate| = {gap:.3e}; heralds = {mc.herald_count}")
    return 0


# ---------------------------------------------------------------------------
# validate


def _probe_frequencies(dyn: DoubledDynamics, count: int = 7) -> np.ndarray:
    eigs = dyn.eigenvalues
    scale = float(np.max(np.abs(eigs))) if eigs.size else 1.0
    if not math.isfinite(scale) or scale <= 0.0:
        scale = 1.0
    base = np.geomspace(0.01 * scale, 10.0 * scale, count)
    centers = sorted(
        {abs(val.imag) for val in eigs if abs(val.imag) > 1e-9 * scale}
    )
    return np.unique(np.concatenate([base, np.asarray(centers, dtype=float)]))


def _residual_text(worst: Mapping[str, float]) -> str:
    return " ".join(f"{key.replace('_', '-')}={worst[key]:.3e}" for key in _RESIDUALS)


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.ensemble < 0:
        raise ConfigurationError(
            f"--ensemble must be non-negative, got {args.ensemble}"
        )
    if args.seed < 0:
        raise ConfigurationError(f"--seed must be non-negative, got {args.seed}")
    model, sets = _resolve_model(args)
    report = validate_model(model)
    for line in report.errors:
        print(f"error:   {line}")
    for line in report.warnings:
        print(f"warning: {line}")
    for line in report.notes:
        print(f"note:    {line}")
    if report.errors:
        raise ModelValidationError(
            "model failed validation", errors=tuple(report.errors)
        )

    dyn = assemble_dynamics(model)
    rwa = rwa_report(model)
    if rwa.entries and rwa.min_ratio is not None:
        print(f"rwa: minimum separation ratio = {rwa.min_ratio:.3g}")

    has_quadrature = any(info.flavor == "lab-quadrature" for info in dyn.ports)
    worst = consistency_checks(dyn, _probe_frequencies(dyn))
    print(
        f"checks: {_residual_text(worst)}"
        f" (skipped {int(worst['skipped'])} near-singular point(s))"
    )
    keys = ["particle_hole"]
    if has_quadrature:
        # Both residuals leave the masked slots out, so both vanish at that resonance.
        print(
            "note: model couples quadrature ports; restricted unitarity and"
            " sum-rule residuals are informational (exact only at the"
            " quadrature mode's resonance)"
        )
    else:
        keys += ["unitarity", "sum_rule"]
    # (what, value, limit) of each verdict, in the order failures are listed.
    verdicts = [(f"{_RESIDUALS[key]} residual", worst[key], _CHECK_TOL) for key in keys]

    if args.builtin == "electromech":
        rel_worst = oracle_deviation(electromech_params(sets), dyn)
        print(f"oracle: closed-form row max relative deviation = {rel_worst:.3e}")
        verdicts.append(("closed-form oracle deviation", rel_worst, 1e-6))

    if args.ensemble:
        rng = np.random.default_rng(args.seed)
        ens_worst = dict.fromkeys(_RESIDUALS, 0.0)
        for _ in range(args.ensemble):
            _, sample_dyn = _draw_stable_model(rng, None)
            res = consistency_checks(sample_dyn, _probe_frequencies(sample_dyn, count=5))
            for key in ens_worst:
                ens_worst[key] = max(ens_worst[key], res[key])
        print(f"ensemble({args.ensemble}): {_residual_text(ens_worst)}")
        verdicts += [
            (f"ensemble {key} residual", value, _CHECK_TOL)
            for key, value in ens_worst.items()
        ]

    failures = [
        f"{what} {value:.3e} exceeds {limit:g}"
        for what, value, limit in verdicts
        if value > limit
    ]
    if failures:
        raise ModelValidationError(
            "consistency checks failed", errors=tuple(failures)
        )
    print("validate: OK")
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modescatter",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spectra = sub.add_parser(
        "spectra", help="sweep efficiency and added noise over frequency"
    )
    _add_model_args(spectra)
    _add_grid_args(spectra, required=True)
    spectra.add_argument("--log", action="store_true", help="log-spaced grid")
    spectra.add_argument("--exit", metavar="PORT", help="override the exit port")
    spectra.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    spectra.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    spectra.set_defaults(func=_cmd_spectra)

    fom = sub.add_parser("fom", help="application figures of merit")
    _add_model_args(fom)
    fom.add_argument(
        "--app",
        required=True,
        choices=("heterodyne", "qubit", "counting", "entangle"),
    )
    fom.add_argument(
        "--omega-sig", type=float, required=True, help="signal frequency, Hz"
    )
    fom.add_argument("--exit", metavar="PORT", help="override the exit port")
    fom.add_argument(
        "--theta-lo",
        type=float,
        default=None,
        help="heterodyne: local-oscillator phase in radians (default optimal)",
    )
    _add_grid_args(fom, required=False)
    fom.add_argument(
        "--window", type=float, default=None, help="detection window, seconds"
    )
    fom.add_argument(
        "--h-in",
        metavar="SPEC",
        help=(
            "counting: input photon spectrum, e.g. delta:center_hz=5e6,"
            " gaussian:center_hz=5e6,sigma_hz=1e3, or"
            " lorentzian:center_hz=5e6,fwhm_hz=1e3"
        ),
    )
    fom.add_argument(
        "--h-out",
        metavar="SPEC",
        help=(
            "counting: output temporal mode, e.g. exponential:rate_per_s=1e4"
            " or boxcar:duration_s=1e-3"
        ),
    )
    fom.add_argument(
        "--p-e",
        type=float,
        default=None,
        help="entangle: force the excitation probability",
    )
    fom.add_argument("--json", action="store_true", help="emit JSON")
    fom.set_defaults(func=_cmd_fom)

    optimize = sub.add_parser("optimize", help="tune model parameters")
    _add_model_args(optimize)
    optimize.add_argument("--objective", required=True, choices=OBJECTIVES)
    optimize.add_argument(
        "--var",
        action="append",
        required=True,
        metavar="PATH:LOW:HIGH",
        help=(
            "search variable with bounds; rate paths in Hz, e.g."
            " ports.wg.rate:1e3:1e7"
        ),
    )
    optimize.add_argument(
        "--omega-sig", type=float, required=True, help="signal frequency, Hz"
    )
    _add_grid_args(optimize, required=False)
    optimize.add_argument(
        "--window",
        type=float,
        default=None,
        help="entangle objectives: detection window, seconds",
    )
    optimize.add_argument("--exit", metavar="PORT", help="override the exit port")
    optimize.add_argument("--budget", type=int, default=200)
    optimize.add_argument("--tol", type=float, default=1e-6)
    optimize.add_argument("--seed", type=int, default=0)
    optimize.add_argument("--out", metavar="PATH", help="write trace JSON here")
    optimize.set_defaults(func=_cmd_optimize)

    sim = sub.add_parser(
        "protocol-sim",
        help="compare Monte Carlo and exact heralded-entanglement results",
    )
    sim.add_argument("--scheme", required=True, choices=("one-click", "two-click"))
    sim.add_argument("--p-e", type=float, required=True)
    sim.add_argument("--p-d", type=float, required=True)
    sim.add_argument("--eta", type=float, required=True)
    sim.add_argument("--trials", type=int, default=100_000)
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(func=_cmd_protocol_sim)

    validate = sub.add_parser(
        "validate", help="validate a model and run consistency checks"
    )
    _add_model_args(validate)
    validate.add_argument(
        "--ensemble",
        type=int,
        default=0,
        metavar="N",
        help="also check N random stable models",
    )
    validate.add_argument("--seed", type=int, default=0)
    validate.set_defaults(func=_cmd_validate)

    return parser


def _print_warning(message: Warning | str, *args: object, **kwargs: object) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Each warning goes to stderr as one ``warning:`` line, as errors do. A
    # ValidityWarning shows once per command and place, whatever the
    # interpreter's filters say.
    with warnings.catch_warnings():
        warnings.simplefilter("default", ValidityWarning)
        warnings.showwarning = _print_warning
        try:
            return int(args.func(args))
        except ModelValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            for line in exc.errors:
                print(f"  - {line}", file=sys.stderr)
            return exc.exit_code
        except ModeScatterError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
