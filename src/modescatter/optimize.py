"""Bounded derivative-free optimization of model parameters.

Variables are dotted override paths understood by
:func:`modescatter.modelfile.model_with` (port rates and temperatures,
coupling rates), searched within user-supplied bounds by Nelder-Mead with
random restarts. Every candidate is evaluated by rebuilding the model,
assembling its dynamics, and computing the requested figure of merit;
candidates whose models fail validation, are unstable, or hit a numerical
failure are recorded as infeasible and repelled with an infinite objective
value rather than aborting the search.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.optimize import Bounds, minimize

from .applications.entangle import entangle_fidelity_exact, heralding_spec
from .applications.counting import dark_count_rate
from .applications.heterodyne import heterodyne_sensitivity
from .applications.qubit import qubit_fidelity
from .errors import (
    ConfigurationError,
    ModeScatterError,
    NumericalError,
    ValidityWarning,
)
from .modelfile import model_with
from .network import TransducerModel, assemble_dynamics
from .scattering import (
    NoiseEnvironment,
    added_noise,
    eta,
    spectrum_sweep,
    transfer_pair,
)

OBJECTIVES = ("max-eta", "min-N", "max-Fq", "min-Ps", "max-F1c", "max-F2c")

_MAXIMIZED = frozenset({"max-eta", "max-Fq", "max-F1c", "max-F2c"})
_ENTANGLE = frozenset({"max-F1c", "max-F2c"})

_N_RESTARTS = 3


@dataclass(frozen=True)
class OptimizeSpec:
    """What to optimize and how hard to try.

    ``variables`` is a tuple of ``(path, low, high)`` bounds in the model's
    own units (rad/s for rates, kelvin for temperatures). ``omega_sig`` is
    the signal frequency (rad/s) at which single-frequency figures are
    evaluated. The entanglement objectives additionally integrate the
    spectrum over ``[omega_min, omega_max]`` with ``points`` samples to get
    the noise bandwidth, and convert it to a per-window false-click
    probability with detection ``window`` (seconds); the protocol is then
    scored with the parameters of
    :func:`~modescatter.applications.entangle.heralding_spec`.
    """

    variables: tuple[tuple[str, float, float], ...]
    objective: str
    omega_sig: float
    omega_min: float | None = None
    omega_max: float | None = None
    points: int = 2001
    window: float = 0.0
    exit_port: str | None = None
    budget: int = 200
    tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ConfigurationError(
                f"unknown objective {self.objective!r}; expected one of"
                f" {', '.join(OBJECTIVES)}"
            )
        if not self.variables:
            raise ConfigurationError("at least one optimization variable required")
        for path, low, high in self.variables:
            if not (math.isfinite(low) and math.isfinite(high) and low < high):
                raise ConfigurationError(
                    f"variable {path!r} needs finite bounds with low < high,"
                    f" got [{low!r}, {high!r}]"
                )
        if self.budget < 2 * (len(self.variables) + 1):
            raise ConfigurationError(
                f"budget {self.budget} too small for {len(self.variables)}"
                " variable(s)"
            )
        if not (self.omega_sig > 0.0 and math.isfinite(self.omega_sig)):
            raise ConfigurationError("omega_sig must be a positive frequency")
        if self.objective in _ENTANGLE:
            if self.omega_min is None or self.omega_max is None:
                raise ConfigurationError(
                    f"{self.objective} needs a spectrum grid: set omega_min"
                    " and omega_max"
                )
            if not 0.0 < self.omega_min < self.omega_max:
                raise ConfigurationError(
                    "need 0 < omega_min < omega_max for the spectrum grid"
                )
            if self.points < 3:
                raise ConfigurationError("spectrum grid needs at least 3 points")
            if not (self.window > 0.0 and math.isfinite(self.window)):
                raise ConfigurationError(
                    f"{self.objective} needs a positive detection window"
                )


@dataclass(frozen=True)
class TraceEntry:
    """One objective evaluation: parameter vector, figure value, feasibility."""

    params: tuple[float, ...]
    value: float
    feasible: bool


@dataclass(frozen=True)
class OptimizeResult:
    objective: str
    variable_paths: tuple[str, ...]
    best_params: Mapping[str, float]
    best_value: float
    n_evals: int
    converged: bool
    trace: tuple[TraceEntry, ...] = field(repr=False)


class _BudgetExhausted(Exception):
    """Internal: raised by the evaluation wrapper to stop a scipy run."""


def _evaluate_figure(
    model: TransducerModel, spec: OptimizeSpec, values: Mapping[str, float]
) -> float:
    trial = model_with(model, values)
    dyn = assemble_dynamics(trial)
    env = NoiseEnvironment.from_dynamics(dyn)
    objective = spec.objective
    if objective not in _ENTANGLE:
        up, dn = transfer_pair(dyn, spec.omega_sig, exit_port=spec.exit_port)
        if objective == "max-eta":
            return eta(up)
        if objective == "min-N":
            return added_noise(up, env)
        if objective == "max-Fq":
            return qubit_fidelity(eta(up), added_noise(up, env))
        return heterodyne_sensitivity(up, dn, env).p_s

    assert spec.omega_min is not None and spec.omega_max is not None
    omegas = np.linspace(spec.omega_min, spec.omega_max, spec.points)
    grid = spectrum_sweep(
        dyn, env, omegas, exit_port=spec.exit_port, symplectic=False
    )
    scheme = "two-click" if objective == "max-F2c" else "one-click"
    dark = dark_count_rate(grid, spec.omega_sig)
    protocol = heralding_spec(dark, spec.window, scheme)
    return entangle_fidelity_exact(protocol).fidelity


def run_optimization(model: TransducerModel, spec: OptimizeSpec) -> OptimizeResult:
    """Search the bounded variable box for the best figure of merit.

    Runs Nelder-Mead from the box midpoint and two seeded-random restarts
    (or until the evaluation budget is exhausted). ``best_value`` is in the
    figure's natural units regardless of optimization direction.

    Raises
    ------
    NumericalError
        If every evaluated candidate was infeasible.
    """
    paths = tuple(v[0] for v in spec.variables)
    lows = np.array([v[1] for v in spec.variables], dtype=float)
    highs = np.array([v[2] for v in spec.variables], dtype=float)
    maximize = spec.objective in _MAXIMIZED
    trace: list[TraceEntry] = []
    n_evals = 0

    def wrapped(x: np.ndarray) -> float:
        nonlocal n_evals
        if n_evals >= spec.budget:
            raise _BudgetExhausted
        n_evals += 1
        point = np.clip(x, lows, highs)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ValidityWarning)
                figure = _evaluate_figure(model, spec, dict(zip(paths, point)))
            if not math.isfinite(figure):
                raise NumericalError("figure of merit is not finite")
        except ModeScatterError:
            trace.append(TraceEntry(tuple(point), math.nan, False))
            return math.inf
        trace.append(TraceEntry(tuple(point), figure, True))
        return -figure if maximize else figure

    rng = np.random.default_rng(spec.seed)
    starts = [0.5 * (lows + highs)]
    for _ in range(_N_RESTARTS - 1):
        starts.append(rng.uniform(lows, highs))

    converged = False
    exhausted = False
    for x0 in starts:
        if exhausted:
            break
        try:
            result = minimize(
                wrapped,
                x0,
                method="Nelder-Mead",
                bounds=Bounds(lows, highs),
                options={
                    "maxfev": spec.budget,
                    "xatol": spec.tolerance * float(np.max(highs - lows)),
                    "fatol": spec.tolerance,
                },
            )
            converged = converged or bool(result.success)
        except _BudgetExhausted:
            exhausted = True

    feasible = [entry for entry in trace if entry.feasible]
    if not feasible:
        raise NumericalError(
            f"all {len(trace)} evaluated candidates were infeasible for"
            f" objective {spec.objective!r}"
        )
    best = (max if maximize else min)(feasible, key=lambda entry: entry.value)
    return OptimizeResult(
        objective=spec.objective,
        variable_paths=paths,
        best_params=dict(zip(paths, best.params)),
        best_value=best.value,
        n_evals=n_evals,
        converged=converged,
        trace=tuple(trace),
    )
