"""Span tracing of modescatter's public functions, installed from outside.

The package imports functions by name (``from .network import
assemble_dynamics`` and so on), so a wrapper placed only on the defining
module would miss most calls. :func:`install` therefore replaces every
``modescatter.*`` module attribute that is bound to the wrapped function.
The ``numpy.linalg`` entry points are looked up at call time by the
package and are wrapped once, on ``numpy.linalg``.

Spans are recorded only while a request is open, so input generation and
output checks never show up in the trace. Each span has a name, start,
end, parent span and request id; they stay in memory until
:meth:`Tracer.save`.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable

import numpy as np

# Wrapped public functions, by layer (the module path below modescatter).
SCALAR_PATH = (
    "scattering_matrix",
    "transfer_row",
    "transfer_pair",
    "eta",
    "added_noise",
    "noise_flux",
)
LAYERS: dict[str, tuple[str, ...]] = {
    "modelfile": ("load_model", "save_model", "get_builtin", "model_with"),
    "network": (
        "validate_model",
        "assemble_dynamics",
        "random_stable_model",
        "rwa_report",
    ),
    "scattering": SCALAR_PATH + ("spectrum_sweep",),
    "applications.heterodyne": (
        "heterodyne_sensitivity",
        "sideband_correlation",
        "heterodyne_bound",
    ),
    "applications.qubit": ("qubit_fidelity",),
    "applications.counting": (
        "dark_count_rate",
        "counting_yield",
        "mode_matched_efficiency",
    ),
    "applications.entangle": (
        "entangle_fidelity_exact",
        "entangle_fidelity_asymptotic",
        "protocol_enumerate",
        "protocol_montecarlo",
    ),
    "optimize": ("run_optimization",),
    "cli": ("main",),
}
LINALG = ("cond", "solve", "eigvals")
KERNEL_SPAN = "scattering.spectrum_sweep"
SCALAR_SPANS = frozenset(f"scattering.{name}" for name in SCALAR_PATH)


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _count_sweep(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    dyn = _arg(args, kwargs, 0, "dyn")
    m = len(_arg(args, kwargs, 2, "omegas"))
    dim, cols = dyn.dimension, 2 * dyn.n_ports
    tracer.count(f"{KERNEL_SPAN}.points", m)
    tracer.count(f"{KERNEL_SPAN}.failed_points", len(result.failures))
    # complex128 arrays of the batched kernel at both sidebands: the
    # resolvents, the solves, S and the symplectic residual.
    tracer.count(
        f"{KERNEL_SPAN}.bytes_computed",
        16 * 2 * m * (dim * dim + dim * cols + 2 * cols * cols),
    )


def _count_optimization(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("optimize.evaluations", result.n_evals)
    tracer.count("optimize.feasible", sum(entry.feasible for entry in result.trace))


def _count_trials(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    trials = _arg(args, kwargs, 1, "trials")
    tracer.count("applications.entangle.protocol_montecarlo.trials", trials)


def _count_matrices(name: str) -> Callable[["Tracer", tuple, dict, Any], None]:
    def hook(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
        shape = np.shape(args[0])
        tracer.count(f"{name}.matrices", math.prod(shape[:-2]))

    return hook


HOOKS = {
    KERNEL_SPAN: _count_sweep,
    "optimize.run_optimization": _count_optimization,
    "applications.entangle.protocol_montecarlo": _count_trials,
    **{f"linalg.{fn}": _count_matrices(f"linalg.{fn}") for fn in LINALG},
}


class Tracer:
    """In-memory spans and per-cycle counters of one benchmark run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.cycle = array("i")
        self.counts: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._request = -1
        self._cycle = 0
        self._n_requests = 0

    @property
    def recording(self) -> bool:
        return self._request >= 0

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request)
        self.cycle.append(self._cycle)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        if self.recording:
            self.counts.setdefault(self._cycle, Counter())[name] += amount

    def begin_request(self, kind: str, cycle: int) -> int:
        self._request = self._n_requests
        self._n_requests += 1
        self._cycle = cycle
        return self.open(f"request.{kind}")

    def end_request(self, index: int) -> None:
        self.close(index)
        self._request = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
            "cycle": np.frombuffer(self.cycle, dtype=np.int32),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.recording:
            return fn(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every listed function wherever modescatter binds it.

    Returns a function that restores the original bindings.
    """
    importlib.import_module("modescatter.cli")  # loads every package module
    package = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "modescatter" or name.startswith("modescatter."))
    ]
    patches: list[tuple[Any, str, Callable]] = []
    for layer, functions in LAYERS.items():
        home = importlib.import_module(f"modescatter.{layer}")
        for fn_name in functions:
            original = getattr(home, fn_name)
            wrapper = _wrap(tracer, f"{layer}.{fn_name}", original)
            for module in package:
                if getattr(module, fn_name, None) is original:
                    patches.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)
    for fn_name in LINALG:
        original = getattr(np.linalg, fn_name)
        patches.append((np.linalg, fn_name, original))
        setattr(np.linalg, fn_name, _wrap(tracer, f"linalg.{fn_name}", original))

    def uninstall() -> None:
        for module, fn_name, original in reversed(patches):
            setattr(module, fn_name, original)

    return uninstall


def layer_table(tracer: Tracer, cycles: list[int]) -> dict[str, Any]:
    """Per-function calls, self and total time, per cycle over ``cycles``.

    Self time is a span's duration minus the time its direct children
    cover. Shares are of the time spent inside requests.
    """
    a = tracer.arrays()
    n_cycles = max(len(cycles), 1)
    keep = np.isin(a["cycle"], cycles)
    duration = (a["end_ns"] - a["start_ns"]).astype(np.float64)
    has_parent = a["parent"] >= 0
    child_time = np.bincount(
        a["parent"][has_parent],
        weights=duration[has_parent],
        minlength=duration.size,
    )
    self_time = duration - child_time

    def by_name(test: Callable[[str], bool]) -> np.ndarray:
        return np.array([test(n) for n in tracer.names], dtype=bool)[a["name_id"]]

    request_ns = float(duration[keep & by_name(lambda n: n.startswith("request."))].sum())

    table: dict[str, dict[str, float]] = {}
    for nid, name in enumerate(tracer.names):
        if name.startswith("request."):
            continue
        mask = keep & (a["name_id"] == nid)
        table[name] = {
            "calls": int(mask.sum()) / n_cycles,
            "self_ms": float(self_time[mask].sum()) / 1e6 / n_cycles,
            "total_ms": float(duration[mask].sum()) / 1e6 / n_cycles,
        }

    kernel = keep & by_name(lambda n: n == KERNEL_SPAN)
    in_scalar = by_name(lambda n: n in SCALAR_SPANS)
    parent_scalar = np.zeros_like(in_scalar)
    parent_scalar[has_parent] = in_scalar[a["parent"][has_parent]]
    scalar_top = keep & in_scalar & ~parent_scalar
    share = {
        "kernel_pct": 100.0 * float(duration[kernel].sum()) / request_ns if request_ns else 0.0,
        "scalar_pct": 100.0 * float(duration[scalar_top].sum()) / request_ns if request_ns else 0.0,
    }
    return {
        "cycles": len(cycles),
        "request_ms": request_ns / 1e6 / n_cycles,
        "functions": table,
        "share": share,
        "spans": int(keep.sum()),
    }
