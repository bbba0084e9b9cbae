"""Bounded derivative-free optimization of figure-of-merit objectives."""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping

import numpy as np
import pytest
from conftest import TAU, near_singular_model, two_mode_converter
from scipy.optimize import Bounds, minimize

from modescatter import (
    ConfigurationError,
    ElectromechParams,
    NumericalError,
    TransducerModel,
    build_model,
)
from modescatter import optimize
from modescatter.optimize import OBJECTIVES, OptimizeSpec, run_optimization


def test_objective_catalogue() -> None:
    assert "max-eta" in OBJECTIVES
    assert "min-Ps" in OBJECTIVES


def test_spec_rejects_unknown_objective() -> None:
    with pytest.raises(ConfigurationError):
        OptimizeSpec(
            variables=(("ports.sig.rate", 1.0, 2.0),),
            objective="max-profit",
            omega_sig=1.0,
        )


def test_spec_rejects_empty_variables() -> None:
    with pytest.raises(ConfigurationError):
        OptimizeSpec(variables=(), objective="max-eta", omega_sig=1.0)


def test_spec_rejects_inverted_bounds() -> None:
    with pytest.raises(ConfigurationError):
        OptimizeSpec(
            variables=(("ports.sig.rate", 2.0, 1.0),),
            objective="max-eta",
            omega_sig=1.0,
        )


def test_spec_rejects_tiny_budget() -> None:
    with pytest.raises(ConfigurationError):
        OptimizeSpec(
            variables=(("ports.sig.rate", 1.0, 2.0),),
            objective="max-eta",
            omega_sig=1.0,
            budget=3,
        )


@pytest.mark.parametrize("tolerance", [-1.0, math.nan, math.inf])
def test_spec_rejects_negative_or_non_finite_tolerance(tolerance: float) -> None:
    # A NaN or negative tolerance would silently turn convergence off.
    with pytest.raises(ConfigurationError, match="tolerance"):
        OptimizeSpec(
            variables=(("ports.sig.rate", 1.0, 2.0),),
            objective="max-eta",
            omega_sig=1.0,
            tolerance=tolerance,
        )


def test_spec_rejects_negative_seed() -> None:
    with pytest.raises(ConfigurationError, match="seed"):
        OptimizeSpec(
            variables=(("ports.sig.rate", 1.0, 2.0),),
            objective="max-eta",
            omega_sig=1.0,
            seed=-1,
        )


def test_entangle_objective_needs_grid_and_window() -> None:
    with pytest.raises(ConfigurationError):
        OptimizeSpec(
            variables=(("ports.sig.rate", 1.0, 2.0),),
            objective="max-F1c",
            omega_sig=1.0,
        )


def test_entangle_objective_takes_the_fom_window_rule() -> None:
    # The window is checked as fom checks it: zero is a window, a missing
    # one is its own error.
    grid = {"omega_min": 1.0, "omega_max": 2.0, "points": 3}
    spec = OptimizeSpec(
        variables=(("ports.sig.rate", 1.0, 2.0),),
        objective="max-F2c",
        omega_sig=1.5,
        window=0.0,
        **grid,
    )
    assert spec.window == 0.0
    with pytest.raises(ConfigurationError, match="^max-F2c needs a detection window$"):
        dataclasses.replace(spec, window=None)
    with pytest.raises(ConfigurationError, match="at least 3 points, got 2"):
        dataclasses.replace(spec, points=2)


def test_recovers_matched_readout_rate() -> None:
    # The transfer peak of the electromechanical chain is maximized by the
    # matched readout rate gamma_wg = g**2 / gamma_tx.
    p = ElectromechParams(gamma_wg=TAU * 3.0e5)
    model = build_model(p)
    spec = OptimizeSpec(
        variables=(("ports.wg.rate", TAU * 1.0e3, TAU * 1.0e6),),
        objective="max-eta",
        omega_sig=p.omega_m,
        budget=200,
        seed=0,
    )
    result = run_optimization(model, spec)
    matched = p.g**2 / p.gamma_tx
    best = result.best_params["ports.wg.rate"]
    assert abs(best - matched) / matched < 0.01
    assert result.n_evals <= 200
    assert result.best_value > 0.99
    assert result.converged


def test_trace_is_recorded_and_bounded() -> None:
    p = ElectromechParams()
    model = build_model(p)
    lo, hi = TAU * 1.0e4, TAU * 1.0e5
    spec = OptimizeSpec(
        variables=(("ports.wg.rate", lo, hi),),
        objective="max-eta",
        omega_sig=p.omega_m,
        budget=40,
        seed=1,
    )
    result = run_optimization(model, spec)
    assert 0 < result.n_evals <= 40
    assert len(result.trace) == result.n_evals
    for entry in result.trace:
        assert lo - 1e-9 <= entry.params[0] <= hi + 1e-9
    best_feasible = max(
        entry.value for entry in result.trace if entry.feasible
    )
    assert result.best_value == pytest.approx(best_feasible, abs=0.0)


@pytest.mark.parametrize("case", ["optimum-on-bound", "infeasible-bound"])
def test_each_distinct_candidate_is_solved_once(
    case: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    # Points come back: Nelder-Mead steps out of the box and is clipped to
    # the bound, here with the matched waveguide rate above the box, and
    # the simplex revisits points, here around the squeezer's instability
    # threshold, which splits its box into feasible and infeasible halves.
    if case == "optimum-on-bound":
        p = ElectromechParams()
        model, hi = build_model(p), TAU * 1.0e4
        spec = OptimizeSpec(
            variables=(("ports.wg.rate", TAU * 1.0e3, hi),),
            objective="max-eta",
            omega_sig=p.omega_m,
            budget=60,
            seed=1,
        )
    else:
        model = near_singular_model()
        spec = OptimizeSpec(
            variables=(("couplings.0.rate", TAU * 1.0e4, TAU * 6.0e4),),
            objective="max-eta",
            omega_sig=TAU * 1.0e6,
            exit_port="pa",
            budget=60,
            seed=1,
        )
    calls: list[tuple[float, ...]] = []
    evaluate = optimize._evaluate_figure

    def counted(
        model: TransducerModel, spec: OptimizeSpec, values: Mapping[str, float]
    ) -> float:
        calls.append(tuple(values.values()))
        return evaluate(model, spec, values)

    monkeypatch.setattr(optimize, "_evaluate_figure", counted)
    result = run_optimization(model, spec)

    points = [entry.params for entry in result.trace]
    assert result.n_evals == len(result.trace)
    assert len(calls) == len(set(calls)) and set(calls) == set(points)
    assert len(calls) < len(points)
    first: dict[tuple[float, ...], tuple[bool, float]] = {}
    for entry in result.trace:
        feasible, value = first.setdefault(entry.params, (entry.feasible, entry.value))
        assert entry.feasible == feasible
        assert entry.value == value or (math.isnan(entry.value) and math.isnan(value))
    repeats = [params for params in set(points) if points.count(params) > 1]
    if case == "optimum-on-bound":
        assert (hi,) in repeats and first[(hi,)][0]
        assert result.best_params == {"ports.wg.rate": hi}
    else:
        assert any(not first[params][0] for params in repeats)


def test_min_noise_objective_runs() -> None:
    p = ElectromechParams()
    model = build_model(p)
    spec = OptimizeSpec(
        variables=(("ports.wg.rate", TAU * 5.0e3, TAU * 2.0e5),),
        objective="min-N",
        omega_sig=p.omega_m,
        budget=60,
        seed=2,
    )
    result = run_optimization(model, spec)
    assert math.isfinite(result.best_value)
    assert result.best_value >= 0.0


def test_qubit_objective_on_converter() -> None:
    model = two_mode_converter()
    spec = OptimizeSpec(
        variables=(("couplings.0.rate", TAU * 1.0e5, TAU * 4.0e6),),
        objective="max-Fq",
        omega_sig=TAU * 1.0e6,
        budget=80,
        seed=3,
    )
    result = run_optimization(model, spec)
    # Matching the cooperativity to 1 gives unit efficiency at resonance;
    # with cold ports the fidelity approaches 1.
    assert result.best_value > 0.99
    matched_g = TAU * 2.0e6  # C = 4g^2/kappa^2 = 1 at g = kappa/2
    best = result.best_params["couplings.0.rate"]
    assert abs(best - matched_g) / matched_g < 0.05


def test_all_infeasible_raises_numerical_error() -> None:
    # Driving the squeezer rate across the instability threshold makes
    # every evaluation fail model assembly.
    from conftest import near_singular_model

    model = near_singular_model()
    spec = OptimizeSpec(
        variables=(("couplings.0.rate", TAU * 1.0e7, TAU * 2.0e7),),
        objective="max-eta",
        omega_sig=TAU * 1.0e6,
        budget=20,
        seed=4,
    )
    with pytest.raises(NumericalError):
        run_optimization(model, spec)



def test_objective_keeps_its_own_warnings_and_errstate(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # Only the simplex's own arithmetic on the infeasibility sentinel is
    # silenced, by the np.errstate(invalid="ignore") that _nelder_mead sets
    # around its convergence test: the objective runs under the caller's
    # np.errstate, and a RuntimeWarning it raises still reaches the caller.
    seen: list[dict[str, str]] = []

    def figure(model, spec, values):  # type: ignore[no-untyped-def]
        seen.append(np.geterr())
        return float(np.subtract(np.inf, np.inf))

    monkeypatch.setattr(optimize, "_evaluate_figure", figure)
    spec = OptimizeSpec(
        variables=(("ports.wg.rate", TAU * 1.0e3, TAU * 1.0e6),),
        objective="max-eta",
        omega_sig=TAU * 5.0e6,
        budget=10,
    )
    with np.errstate(invalid="warn"), pytest.raises(RuntimeWarning):
        run_optimization(build_model(ElectromechParams()), spec)
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        run_optimization(build_model(ElectromechParams()), spec)
    assert [e["invalid"] for e in seen] == ["warn", "raise"]


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"exit_port": "bogus"}, "unknown exit port 'bogus'"),
        (
            {"variables": (("ports.nope.rate", TAU * 1.0e3, TAU * 1.0e6),)},
            "no port named 'nope'",
        ),
        (
            {
                "objective": "max-F1c",
                "omega_sig": TAU * 7.0e6,
                "omega_min": TAU * 4.0e6,
                "omega_max": TAU * 6.0e6,
                "points": 201,
                "window": 1.0e-5,
            },
            "lies outside the grid",
        ),
    ],
    ids=["exit-port", "variable-path", "signal-off-grid"],
)
def test_configuration_error_aborts_search(
    changes: dict[str, object], message: str
) -> None:
    # The same error at every candidate is not infeasibility: the first
    # evaluation raises it instead of the search ending as NumericalError.
    p = ElectromechParams(t_wg=0.0, t_m=0.0)
    fields: dict[str, object] = {
        "variables": (("ports.wg.rate", TAU * 1.0e4, TAU * 1.0e5),),
        "objective": "max-eta",
        "omega_sig": p.omega_m,
        "budget": 8,
    }
    spec = OptimizeSpec(**{**fields, **changes})
    with pytest.raises(ConfigurationError, match=message):
        run_optimization(build_model(p), spec)


def test_entangle_objective_smoke() -> None:
    p = ElectromechParams(t_wg=0.0, t_m=0.0)
    model = build_model(p)
    spec = OptimizeSpec(
        variables=(("ports.wg.rate", TAU * 1.0e4, TAU * 1.0e5),),
        objective="max-F1c",
        omega_sig=p.omega_m,
        omega_min=0.8 * p.omega_m,
        omega_max=1.2 * p.omega_m,
        points=2001,
        window=1.0e-6,
        budget=24,
        seed=5,
    )
    result = run_optimization(model, spec)
    assert 0.0 <= result.best_value <= 1.0


# ---------------------------------------------------------------------------
# The simplex search against SciPy's bounded Nelder-Mead, a test-only
# reference: the same points in the same order, the same stop.

def _scipy_nelder_mead(
    func: Callable[[np.ndarray], float],
    x0: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    xatol: float,
    fatol: float,
    max_evals: int,
) -> bool:
    # SciPy's convergence test subtracts inf from inf on infeasible vertices.
    with np.errstate(invalid="ignore"):
        result = minimize(
            func,
            x0,
            method="Nelder-Mead",
            bounds=Bounds(lows, highs),
            options={"maxfev": max_evals, "xatol": xatol, "fatol": fatol},
        )
    return bool(result.success)


def _bowl(
    kind: str, centre: np.ndarray, scale: np.ndarray
) -> Callable[[np.ndarray], float]:
    """A quadratic bowl; "plateau" rounds it to ties, "infeasible" is +inf
    beyond a plane through the bowl."""

    def f(x: np.ndarray) -> float:
        q = float(np.sum(((x - centre) / scale) ** 2))
        if kind == "plateau":
            return round(q, 1)
        if kind == "infeasible" and x[0] > centre[0] + 0.3 * scale[0]:
            return math.inf
        return q

    return f


def _search_trace(
    search: Callable[..., bool],
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    tolerance: float,
    max_evals: int,
) -> tuple[list[tuple[bytes, str]], bool]:
    trace: list[tuple[bytes, str]] = []

    def recorded(x: np.ndarray) -> float:
        value = f(x)
        trace.append((x.tobytes(), float.hex(value)))
        return value

    xatol = tolerance * float(np.max(highs - lows))
    success = search(recorded, x0.copy(), lows, highs, xatol, tolerance, max_evals)
    return trace, success


# (bowl, lows, highs, centre, start, tolerance); each bowl's scale is a
# tenth of the box. Every budget from one evaluation to 60 is tried, so a
# run's cap falls inside each kind of step it takes: the quadratics expand,
# the plateau's ties and the infeasible region make it shrink, and a start
# near the upper bound takes the initial simplex's reflection into the box.
_SEARCH_CASES = {
    "quadratic-1d": ("quadratic", [1e3], [1e6], [7.7e5], "mid", 1e-6),
    "quadratic-2d-near-upper": (
        "quadratic", [1e3, 1.0], [1e6, 1e2], [3e5, 40.0], "upper", 1e-3
    ),
    "optimum-on-bound-2d": (
        "quadratic", [1e3, 1.0], [1e6, 1e2], [2e6, -5.0], "mid", 1e-6
    ),
    "infeasible-2d": ("infeasible", [0.0, 0.0], [1.0, 1.0], [0.7, 0.2], "mid", 1e-6),
    "plateau-2d-tol0": ("plateau", [-1.0, -1.0], [1.0, 1.0], [0.31, -0.52], "zero", 0.0),
    "quadratic-3d-zero-start": (
        "quadratic", [-1.0, -1.0, 0.0], [1.0, 1.0, 2.0], [0.2, -0.3, 1.7], "zero", 1e-6
    ),
    # Every vertex +inf from the start: the simplex only shrinks.
    "all-infeasible-3d-near-upper": (
        "infeasible", [1.0, 1.0, 1.0], [9.0, 9.0, 9.0], [5.0, 8.0, 2.0], "upper", 0.0
    ),
}


@pytest.mark.parametrize("case", list(_SEARCH_CASES))
def test_nelder_mead_follows_scipy_step_for_step(case: str) -> None:
    kind, lo, hi, centre, start, tolerance = _SEARCH_CASES[case]
    lows, highs = np.array(lo), np.array(hi)
    f = _bowl(kind, np.array(centre), 0.1 * (highs - lows))
    x0 = {
        "mid": 0.5 * (lows + highs),
        "upper": highs - 1e-4 * (highs - lows),
        "zero": np.clip(np.zeros(lows.size), lows, highs),
    }[start]
    full = _search_trace(_scipy_nelder_mead, f, x0, lows, highs, tolerance, 200)
    assert _search_trace(optimize._nelder_mead, f, x0, lows, highs, tolerance, 200) == full
    assert len(full[0]) > 10
    for max_evals in range(1, min(len(full[0]), 60) + 2):
        want = _search_trace(_scipy_nelder_mead, f, x0, lows, highs, tolerance, max_evals)
        got = _search_trace(optimize._nelder_mead, f, x0, lows, highs, tolerance, max_evals)
        assert got == want, max_evals


def test_run_optimization_matches_scipy_search(monkeypatch: pytest.MonkeyPatch) -> None:
    # Whole searches on the bowls, three restarts sharing one budget: the
    # trace bits, n_evals, converged and the best value are SciPy's. A
    # maximized bowl has its optimum in a corner of the box. One budget is
    # the length of the first restart's converged run, where only the
    # restart's own cap tells that it did not converge within the budget.
    def bits(result: optimize.OptimizeResult) -> tuple[object, ...]:
        trace = [
            (tuple(map(float.hex, e.params)), float.hex(e.value), e.feasible)
            for e in result.trace
        ]
        return result.n_evals, result.converged, float.hex(result.best_value), trace

    model = build_model(ElectromechParams())
    tolerances = [1e-6, 1e-3, 0.0]
    count = 0
    for n in (1, 2, 3):
        lows, highs = np.arange(1.0, n + 1.0), np.arange(1.0, n + 1.0) * 10.0
        for kind in ("quadratic", "plateau", "infeasible"):
            f = _bowl(kind, lows + np.linspace(0.3, 0.8, n) * (highs - lows), highs - lows)

            def figure(model, spec, values, f=f):  # type: ignore[no-untyped-def]
                value = f(np.array(list(values.values())))
                if math.isinf(value):
                    raise NumericalError("outside the feasible region")
                return value

            for objective in ("min-N", "max-eta"):
                tolerance = tolerances[count % 3]
                sign = -1.0 if objective == "max-eta" else 1.0
                first, converged = _search_trace(
                    _scipy_nelder_mead,
                    lambda x, f=f, sign=sign: sign * f(x) if f(x) < math.inf else math.inf,
                    0.5 * (lows + highs), lows, highs, tolerance, 1000,
                )
                budgets = [2 * (n + 1) + 1, 40, 150]
                if converged and len(first) >= 2 * (n + 1):
                    budgets.append(len(first))
                for budget in budgets:
                    spec = OptimizeSpec(
                        variables=tuple(
                            (f"x{k}", lows[k], highs[k]) for k in range(n)
                        ),
                        objective=objective,
                        omega_sig=1.0,
                        budget=budget,
                        tolerance=tolerance,
                        seed=count,
                    )
                    count += 1
                    with monkeypatch.context() as patch:
                        patch.setattr(optimize, "_evaluate_figure", figure)
                        got = run_optimization(model, spec)
                        patch.setattr(optimize, "_nelder_mead", _scipy_nelder_mead)
                        want = run_optimization(model, spec)
                    assert bits(got) == bits(want), (n, kind, objective, budget)
                    if converged and budget == len(first):
                        assert got.n_evals == budget and not got.converged
