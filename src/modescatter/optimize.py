"""Bounded derivative-free optimization of model parameters.

Variables are dotted override paths understood by
:func:`modescatter.modelfile.model_with` (port rates and temperatures,
coupling rates), searched within user-supplied bounds by Nelder-Mead with
random restarts. The simplex search is the package's own, a NumPy transcript
of SciPy's bounded, non-adaptive Nelder-Mead (the same points in the same
order), so an optimization needs NumPy alone.

The model is compiled once per run, at the first evaluation: the variable
paths are resolved, the model is validated once with every varied field
at a placeholder value, and the part of its dynamics the structure fixes
is built (:func:`~modescatter.network.dynamics_layout`). Each candidate
then only has its varied values checked by the rules ``validate_model``
applies to them, fills the rate-dependent terms of ``M``, ``G`` and ``G'``
(:func:`~modescatter.network.fill_dynamics`, the routine
``assemble_dynamics`` uses), passes the eigenvalue stability check, and
computes the requested figure of merit: the same numbers, bit for bit, as
rebuilding and assembling the candidate's model. Candidates whose models
fail validation, are unstable, or hit a numerical failure are recorded as
infeasible and repelled with an infinite objective value rather than
aborting the search. A configuration error (an unknown exit port or
override path, a signal frequency off the spectrum grid) holds for every
candidate alike, so it aborts the search.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .applications.entangle import entangle_fidelity_exact, heralding_spec
from .applications.counting import check_counting_request, dark_count_rate
from .applications.heterodyne import heterodyne_sensitivity
from .applications.qubit import qubit_fidelity
from .errors import (
    ConfigurationError,
    ModelValidationError,
    ModeScatterError,
    NumericalError,
    ValidityWarning,
)
from .modelfile import model_with, override_target
from .network import (
    DoubledDynamics,
    DynamicsLayout,
    TransducerModel,
    coupling_label,
    coupling_rate_error,
    dynamics_layout,
    fill_dynamics,
    port_rate_error,
    port_temperature_error,
    validate_model,
)
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
    :func:`~modescatter.applications.entangle.heralding_spec`. Grid and
    window are checked as ``fom`` checks them, by ``check_counting_request``.
    """

    variables: tuple[tuple[str, float, float], ...]
    objective: str
    omega_sig: float
    omega_min: float | None = None
    omega_max: float | None = None
    points: int = 2001
    window: float | None = None
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
        paths = [path for path, _, _ in self.variables]
        for k, (path, low, high) in enumerate(self.variables):
            if path in paths[:k]:
                raise ConfigurationError(f"variable {path!r} is given more than once")
            if not (math.isfinite(low) and math.isfinite(high) and low < high):
                raise ConfigurationError(
                    f"variable {path!r} needs finite bounds with low < high,"
                    f" got [{low!r}, {high!r}]"
                )
        if not (self.tolerance >= 0.0 and math.isfinite(self.tolerance)):
            raise ConfigurationError(
                f"tolerance must be finite and non-negative, got {self.tolerance!r}"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if self.budget < 2 * (len(self.variables) + 1):
            raise ConfigurationError(
                f"budget {self.budget} too small for {len(self.variables)}"
                " variable(s)"
            )
        if not (self.omega_sig > 0.0 and math.isfinite(self.omega_sig)):
            raise ConfigurationError("omega_sig must be a positive frequency")
        if self.objective in _ENTANGLE:
            check_counting_request(
                self.objective, self.omega_min, self.omega_max, self.points, self.window
            )


@dataclass(frozen=True)
class TraceEntry:
    """One objective evaluation: parameter vector, figure value, feasibility."""

    params: tuple[float, ...]
    value: float
    feasible: bool


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of :func:`run_optimization`.

    ``n_evals`` counts every objective evaluation the search asked for,
    repeats of an already evaluated point included, and equals
    ``len(trace)``; a repeat was not solved again.
    """

    objective: str
    variable_paths: tuple[str, ...]
    best_params: Mapping[str, float]
    best_value: float
    n_evals: int
    converged: bool
    trace: tuple[TraceEntry, ...] = field(repr=False)


class _BudgetExhausted(Exception):
    """Internal: raised by the evaluation wrapper to stop the whole search."""


class _RestartCapReached(Exception):
    """Internal: one Nelder-Mead run has spent its own evaluation cap."""


def _nelder_mead(
    func: Callable[[np.ndarray], float],
    x0: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    xatol: float,
    fatol: float,
    max_evals: int,
) -> bool:
    """Minimize ``func`` over the box ``[lows, highs]`` from ``x0``.

    Step for step SciPy's ``minimize(method="Nelder-Mead", bounds=...)``
    with its default, non-adaptive coefficients (reflection 1, expansion 2,
    contraction 1/2, shrink 1/2) and the same NumPy expressions, so ``func``
    sees the same points in the same order: the initial simplex steps each
    coordinate by 5% (0.00025 at zero), reflects vertices above the upper
    bound back into the box and clips; every trial point is clipped to the
    box. ``x0`` must lie in the box. Returns True when the simplex met both
    ``xatol`` and ``fatol`` before ``func`` was called ``max_evals`` times;
    the minimum is wherever ``func`` recorded it. An exception raised by
    ``func`` propagates.
    """
    n = x0.size
    evals = 0

    def call(x: np.ndarray) -> float:
        nonlocal evals
        if evals >= max_evals:
            raise _RestartCapReached
        evals += 1
        return func(x)

    sim = np.tile(x0, (n + 1, 1))
    sim[1:][np.diag_indices(n)] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    sim = np.where(sim > highs, 2 * highs - sim, sim)
    sim = np.clip(sim, lows, highs)
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
        # Sorted twice, as SciPy does: argsort is not a stable sort, and the
        # order of tied values steers the search.
        for _ in range(2):
            order = np.argsort(fsim)
            sim = np.take(sim, order, 0)
            fsim = np.take(fsim, order, 0)

        while evals < max_evals:
            # An infeasible vertex is +inf, and inf - inf is NaN, which
            # fails the test as it should.
            with np.errstate(invalid="ignore"):
                if (
                    np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
                ):
                    return True
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = np.clip(2 * xbar - sim[-1], lows, highs)
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = np.clip(3 * xbar - 2 * sim[-1], lows, highs)
                fxe = call(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    # Outside contraction, kept if no worse than xr.
                    xc = np.clip(1.5 * xbar - 0.5 * sim[-1], lows, highs)
                    fxc = call(xc)
                    keep = fxc <= fxr
                else:
                    # Inside contraction, kept if better than the worst vertex.
                    xc = np.clip(0.5 * xbar + 0.5 * sim[-1], lows, highs)
                    fxc = call(xc)
                    keep = fxc < fsim[-1]
                if keep:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = np.clip(
                            sim[0] + 0.5 * (sim[j] - sim[0]), lows, highs
                        )
                        fsim[j] = call(sim[j])
            order = np.argsort(fsim)
            sim = np.take(sim, order, 0)
            fsim = np.take(fsim, order, 0)
    except _RestartCapReached:
        pass
    return False


def _clip(value: float, low: float, high: float) -> float:
    """``np.clip``'s rule on floats: ``low`` unless ``value`` exceeds it,
    then ``high`` unless that falls below it (the signs of zeros included)."""
    value = value if value > low else low
    return value if value < high else high


# Per field a variable can name: the argument of fill_dynamics it sets
# (port rates, port temperatures, coupling rates) and the rule
# validate_model applies to its value.
_FIELDS = {
    ("ports", "rate"): (0, port_rate_error),
    ("ports", "temperature"): (1, port_temperature_error),
    ("couplings", "rate"): (2, coupling_rate_error),
}


class _Candidates:
    """The candidates of one run: the model compiled once, refilled per candidate.

    The one-time work is done at the first :meth:`dynamics` call, so that
    a configuration error surfaces at the first evaluation. Each variable
    path is resolved as :func:`~modescatter.modelfile.model_with` resolves
    it, and the model is validated once with every varied field set to
    1.0, a value each field's rule accepts: the errors of that model are
    the ones no candidate can mend, so with any, every candidate is
    infeasible. Otherwise each candidate only has its values checked by
    those rules and fills the model's layout with them.
    """

    def __init__(self, model: TransducerModel, paths: tuple[str, ...]) -> None:
        self._model = model
        self._paths = paths
        self._layout: DynamicsLayout | None = None
        self._invalid: tuple[str, ...] = ()

    def _compile(self) -> None:
        model, paths = self._model, self._paths
        targets = [override_target(model, path) for path in paths]
        for k, target in enumerate(targets):
            if target in targets[:k]:
                raise ConfigurationError(
                    f"variables {paths[targets.index(target)]!r} and"
                    f" {paths[k]!r} name the same field"
                )
        report = validate_model(model_with(model, dict.fromkeys(paths, 1.0)))
        if not report.ok:
            self._invalid = tuple(report.errors)
            return
        # Per variable: the argument it sets, the rule its value must meet,
        # its position, and the name in the rule's message.
        self._slots = [
            (
                *_FIELDS[section, field_name],
                index,
                model.ports[index].name
                if section == "ports"
                else coupling_label(index, model.couplings[index]),
            )
            for section, index, field_name in targets
        ]
        self._varied = sorted({slot[0] for slot in self._slots})
        self._values = (
            [q.rate for q in model.ports],
            [q.temperature for q in model.ports],
            [c.rate for c in model.couplings],
        )
        # Occupancies move only with a varied temperature.
        self._env = (
            None
            if 1 in self._varied
            else NoiseEnvironment.from_temperatures(
                {q.name: q.temperature for q in model.ports}
            )
        )
        varied_ports = sorted({slot[2] for slot in self._slots if slot[0] < 2})
        self._layout = dynamics_layout(model, tuple(varied_ports))

    def dynamics(
        self, values: Mapping[str, float]
    ) -> tuple[DoubledDynamics, NoiseEnvironment]:
        """Dynamics and noise environment of the model with ``values`` set.

        ``values`` holds one value per variable path, in path order.
        Raises what :func:`~modescatter.network.assemble_dynamics` would
        raise on the model with those values.
        """
        if self._layout is None and not self._invalid:
            self._compile()
        layout = self._layout
        if layout is None:
            raise ModelValidationError(
                "model failed validation: " + "; ".join(self._invalid),
                errors=self._invalid,
            )
        lists = list(self._values)
        for which in self._varied:
            lists[which] = lists[which].copy()
        errors = []
        for (which, rule, index, name), value in zip(self._slots, values.values()):
            value = float(value)
            error = rule(name, value)
            if error is not None:
                errors.append(error)
            lists[which][index] = value
        if errors:
            raise ModelValidationError(
                "model failed validation: " + "; ".join(errors), errors=tuple(errors)
            )
        dyn = fill_dynamics(layout, *lists)
        env = NoiseEnvironment.from_dynamics(dyn) if self._env is None else self._env
        return dyn, env


def _evaluate_figure(
    candidates: _Candidates, spec: OptimizeSpec, values: Mapping[str, float]
) -> float:
    dyn, env = candidates.dynamics(values)
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
    assert spec.window is not None
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
    (or until the evaluation budget is exhausted). Each restart may also
    spend at most ``budget`` evaluations of its own, and ``converged`` is
    True when some restart met both tolerances within that cap.
    ``best_value`` is in the figure's natural units regardless of
    optimization direction.

    Each candidate is clipped to the box. A clipped point already evaluated
    in this call (typically a step outside the box clipped back to the
    bound) is not solved again: its figure, or its infeasibility, is
    reused. It still counts toward the budget and ``n_evals`` and still
    gets its :class:`TraceEntry`, so the search path and the trace are
    those of solving every candidate.

    Raises
    ------
    ConfigurationError
        As soon as one evaluation raises it: no candidate can mend it.
    NumericalError
        If every evaluated candidate was infeasible.
    """
    paths = tuple(v[0] for v in spec.variables)
    lows = np.array([v[1] for v in spec.variables], dtype=float)
    highs = np.array([v[2] for v in spec.variables], dtype=float)
    bounds = list(zip(lows.tolist(), highs.tolist()))
    candidates = _Candidates(model, paths)
    maximize = spec.objective in _MAXIMIZED
    trace: list[TraceEntry] = []
    # Figure of each clipped point evaluated so far, NaN where infeasible.
    figures: dict[tuple[float, ...], float] = {}
    n_evals = 0

    def wrapped(x: np.ndarray) -> float:
        nonlocal n_evals
        if n_evals >= spec.budget:
            raise _BudgetExhausted
        n_evals += 1
        point = tuple([_clip(v, low, high) for v, (low, high) in zip(x.tolist(), bounds)])
        figure = figures.get(point)
        if figure is None:
            try:
                figure = _evaluate_figure(candidates, spec, dict(zip(paths, point)))
                if not math.isfinite(figure):
                    raise NumericalError("figure of merit is not finite")
            except ConfigurationError:
                raise
            except ModeScatterError:
                figure = math.nan
            figures[point] = figure
        if math.isnan(figure):
            trace.append(TraceEntry(point, math.nan, False))
            return math.inf
        trace.append(TraceEntry(point, figure, True))
        return -figure if maximize else figure

    rng = np.random.default_rng(spec.seed)
    starts = [0.5 * (lows + highs)]
    for _ in range(_N_RESTARTS - 1):
        starts.append(rng.uniform(lows, highs))

    xatol = spec.tolerance * float(np.max(highs - lows))
    converged = False
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for x0 in starts:
            try:
                success = _nelder_mead(
                    wrapped, x0, lows, highs, xatol, spec.tolerance, spec.budget
                )
            except _BudgetExhausted:
                break
            converged = converged or success

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
