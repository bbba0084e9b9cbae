"""Benchmark of modescatter: closed-loop workloads, end-to-end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload dense-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client sends one request at a time, in this process, cycling through
the workload's requests (see ``workloads.py``) until ``--seconds`` have
passed; a first, untimed cycle warms caches and lazy imports. Every output
is checked; a request that raises or fails its check counts as failed.
The package is imported from ``src/`` of the checkout, never from an
installed copy. BLAS runs on one thread.

End-to-end metrics (``--trace 0``), the same on every workload:

- ``setup_s``: wall time of a fresh process that starts Python, imports
  modescatter and prepares the workload's inputs. Nine such processes run
  one after another at even steps through the run, between cycles (the
  measuring deadline moves by their time), and the fastest is reported.
- ``peak_rss_mb``: peak resident memory of the measuring process.
- ``eval_min_ms``, ``fom1_min_ms``, ``fom2_min_ms``, ``verify_min_ms``:
  the fastest latency of each request kind, one metric per kind (the
  kinds behind each name are in ``workloads.Workload``). ``eval_min_ms``
  is the fastest ``optimize`` request divided by its objective
  evaluations, whose number can depend on the seed. Where a kind has several
  inputs (two or three optimizer objectives, eight validated networks, two
  protocol schemes), the metric is the mean over inputs of each one's
  fastest, so a slowdown confined to one input moves it only by that
  input's share; the per-request figures are in the result file.

On a shared host other tenants slow the whole machine by a share that
changes from minute to minute; the fastest request and the fastest set-up
of a run are the least affected, so they are the ones that are gated. A
slowdown that lasts the whole run moves them too; ``host.probe_ms`` in
the result file shows such runs. A change that leaves the fastest request
alone but worsens medians or tails shows only in the named metrics.

Named metrics are printed with units before the final line and written to
``.perfbench_out/``: ``points_per_s``, ``spectra_1e5_s``, ``sweep_1e4_s``
(dense-sweep); ``evals_per_s``, ``fom_qubit_ms``, ``fom_heterodyne_ms``,
``fom_tail_ms``, ``validate_ms`` (scalar-eval); ``evals_per_s``,
``fom_counting_ms``, ``fom_entangle_ms``, ``protocol_sim_ms``,
``mc_trials_per_s`` (entangle-pipeline); the gated latencies of the
workload (``spectra_min_ms`` and ``sweep_min_ms`` on dense-sweep); and
``setup_s``, ``peak_rss_mb`` and ``fail_ratio`` on all three. Every
latency is given as a median and the highest percentile with at least
ten samples beyond it.

``--trace 1`` installs the wrappers of ``tracer.py``. The warm-up cycle and
every odd measured cycle are traced, even ones are not, and the difference
in median cycle time is the tracing overhead. Per-layer metrics are per
traced cycle; the exact work counters of the warm-up cycle go to the result
file, and the spans to ``.perfbench_out/spans-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``BENCHMARK.json`` gates scalar-eval and entangle-pipeline only. On a
shared 2-vCPU VM the fastest 10^5-point ``spectra`` request of a 30 s
dense-sweep run varied 1.9x between runs, as other tenants' load came and
went, so that workload is run by hand (``--workload dense-sweep`` or
``all``) and is not gated.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("dense-sweep", "scalar-eval", "entangle-pipeline")
SETUP_REPEATS = 9
PER_LAYER_UNITS = {
    "calls": "calls/cycle",
    "self_ms": "ms/cycle",
    "total_ms": "ms/cycle",
    "matrices": "matrices/cycle",
}
EXTRA_LAYER_METRICS = {
    "scattering.spectrum_sweep.points": ("points/cycle", "lower"),
    "scattering.spectrum_sweep.failed_ratio": ("ratio", "lower"),
    "scattering.spectrum_sweep.bytes_computed": ("B/cycle", "lower"),
    "optimize.evaluations": ("evals/cycle", "lower"),
    "optimize.feasible_ratio": ("ratio", "higher"),
    "applications.entangle.protocol_montecarlo.trials": ("trials/cycle", "lower"),
    "cli.main.bytes_out": ("B/cycle", "lower"),
    "share.kernel_pct": ("%", "lower"),
    "share.scalar_pct": ("%", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "host.probe_ms": ("ms", "lower"),
}


def per_layer_spec() -> dict[str, tuple[str, str]]:
    """Name -> (unit, better) of every per-layer metric, in print order.

    A function that a workload never calls reads 0 there.
    """
    import tracer

    spec: dict[str, tuple[str, str]] = {}
    for layer, functions in tracer.LAYERS.items():
        for fn in functions:
            for stat in ("calls", "self_ms", "total_ms"):
                spec[f"{layer}.{fn}.{stat}"] = (PER_LAYER_UNITS[stat], "lower")
    for fn in tracer.LINALG:
        for stat in ("calls", "matrices", "self_ms"):
            spec[f"linalg.{fn}.{stat}"] = (PER_LAYER_UNITS[stat], "lower")
    for name, (unit, better) in EXTRA_LAYER_METRICS.items():
        spec[name] = (unit, better)
    return spec


def _import_package() -> None:
    sys.path.insert(0, str(SRC))
    import modescatter

    origin = Path(modescatter.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: modescatter imported from {origin}, not {SRC}")


def _probe() -> float:
    """Fixed pure-Python and numpy work, timed between cycles (ms)."""
    import numpy as np

    matrix = np.linspace(0.0, 1.0, 10_000).reshape(100, 100)
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    for _ in range(10):
        matrix = matrix @ matrix / 50.0
    return (time.perf_counter() - start) * 1e3


def _tail(samples: list[float]) -> tuple[int | None, float | None]:
    """Highest whole percentile with at least ten samples beyond it."""
    import numpy as np

    if len(samples) < 20:
        return None, None
    q = math.floor(100.0 * (1.0 - 10.0 / len(samples)))
    return q, float(np.percentile(samples, q))


def _environment(probe_ms: list[float]) -> dict[str, Any]:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "host.probe_ms": {
            "n": len(probe_ms),
            "p50": statistics.median(probe_ms) if probe_ms else None,
            "quartiles": statistics.quantiles(probe_ms, n=4) if len(probe_ms) > 1 else None,
        },
    }


def _measure_setup(workload: str, seed: int) -> float:
    """Wall time (s) of one fresh process that sets the workload up.

    ``Popen.wait`` with a timeout polls in steps of up to 50 ms, which
    would round every time up by that much, so the wait blocks and a timer
    kills a child that hangs.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.DEVNULL)
    killer = threading.Timer(120.0, child.kill)
    killer.start()
    try:
        code = child.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, command)
    return elapsed


class Runner:
    """Sends requests, times and checks them, and keeps the samples."""

    def __init__(self, workload: Any, tracer: Any) -> None:
        self.workload = workload
        self.tracer = tracer
        self.latency: dict[str, list[float]] = {r.key: [] for r in workload.cycle}
        self.work: dict[str, float] = {r.key: 0.0 for r in workload.cycle}
        self.attempted = 0
        self.failures: list[str] = []
        self.cycles: list[tuple[int, float, bool]] = []  # (cycle, seconds, traced)
        self.probe_ms: list[float] = []

    def request(self, req: Any, cycle: int, record: bool) -> float | None:
        """Run, time and check one request; None if it raised or was wrong."""
        self.attempted += 1
        span = self.tracer.begin_request(req.kind, cycle) if self.tracer else None
        start = time.perf_counter()
        try:
            output = req.call()
            elapsed = time.perf_counter() - start
            if span is not None and hasattr(output, "bytes_out"):
                self.tracer.count("cli.main.bytes_out", output.bytes_out)
        except Exception as exc:  # a request that raises counts as failed
            self.failures.append(f"{req.key}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if span is not None:
                self.tracer.end_request(span)
        try:
            work = req.check(output)
        except Exception as exc:  # so does one whose output is wrong
            self.failures.append(f"{req.key}: {type(exc).__name__}: {exc}")
            return None
        if record:
            self.latency[req.key].append(elapsed)
            self.work[req.key] += work
        return elapsed

    def cycle(self, index: int, deadline: float | None, traced: bool) -> None:
        total, complete = 0.0, True
        for req in self.workload.cycle:
            if deadline is not None and time.perf_counter() >= deadline:
                complete = False
                break
            elapsed = self.request(req, index, record=deadline is not None)
            complete = complete and elapsed is not None
            total += elapsed or 0.0
        if complete:
            self.cycles.append((index, total, traced))
        self.probe_ms.append(_probe())


def _kind_keys(workload: Any, kinds: tuple[str, ...]) -> list[str]:
    return [r.key for r in workload.cycle if r.kind in kinds]


def _named_metrics(runner: Runner) -> dict[str, dict[str, Any]]:
    named = {}
    for name, stat, kinds, unit in runner.workload.named:
        keys = _kind_keys(runner.workload, kinds)
        scale = 1e3 if unit == "ms" else 1.0
        entry: dict[str, Any] = {"unit": unit}
        if stat == "rate":
            busy = sum(sum(runner.latency[k]) for k in keys)
            entry["value"] = sum(runner.work[k] for k in keys) / busy if busy else 0.0
        else:
            pooled = [t * scale for k in keys for t in runner.latency[k]]
            medians = [statistics.median(runner.latency[k]) * scale for k in keys if runner.latency[k]]
            q, tail = _tail(pooled)
            entry.update(
                value=(tail if stat == "tail" else statistics.fmean(medians)) if medians else None,
                n=len(pooled),
                p50=statistics.median(pooled) if pooled else None,
                tail_percentile=q,
                tail=tail,
            )
        named[name] = entry
    return named


def _gated_ms(runner: Runner) -> dict[str, float]:
    """Each gated latency (ms): a request kind's fastest, per work unit if asked.

    Where a kind has several inputs, the value is the mean over inputs of
    each input's fastest request. ``per_work`` divides each input's fastest
    by the work one of its requests does (the optimizer's evaluations, which
    depend on the seed), so that the seed does not move the metric.
    """
    gated = {}
    for name, (kind, per_work) in runner.workload.gated.items():
        values = []
        for req in runner.workload.cycle:
            samples = runner.latency[req.key]
            if req.kind == kind and samples:
                fastest = 1e3 * min(samples)
                values.append(fastest * len(samples) / runner.work[req.key] if per_work else fastest)
        gated[name] = statistics.fmean(values) if values else 0.0
    return gated


def _end_to_end(gated_ms: dict[str, float], setup: list[float], rss_mb: float) -> dict[str, Any]:
    metrics = {
        "setup_s": {"value": min(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    for name, value in gated_ms.items():
        metrics[name] = {"value": value, "unit": "ms"}
    return metrics


def _per_layer(runner: Runner, tracer_mod: Any) -> tuple[dict[str, Any], dict[str, Any], dict[str, float]]:
    tracer = runner.tracer
    traced = [c for c, _, t in runner.cycles if t and c > 0] or [0]
    table = tracer_mod.layer_table(tracer, traced)
    counts: dict[str, float] = {}
    for c in traced:
        for name, value in tracer.counts.get(c, {}).items():
            counts[name] = counts.get(name, 0.0) + value / len(traced)
    metrics: dict[str, float] = {}
    for name in per_layer_spec():
        base, _, stat = name.rpartition(".")
        if stat == "matrices":
            metrics[name] = counts.get(name, 0.0)
        elif stat in PER_LAYER_UNITS:
            metrics[name] = table["functions"].get(base, {}).get(stat, 0.0)
    points = counts.get("scattering.spectrum_sweep.points", 0.0)
    evaluations = counts.get("optimize.evaluations", 0.0)
    untraced = [s for c, s, t in runner.cycles if not t and c > 0]
    traced_s = [s for c, s, t in runner.cycles if t and c > 0]
    overhead = (
        100.0 * (statistics.median(traced_s) / statistics.median(untraced) - 1.0)
        if untraced and traced_s
        else 0.0
    )
    metrics.update({
        "scattering.spectrum_sweep.points": points,
        "scattering.spectrum_sweep.failed_ratio":
            counts.get("scattering.spectrum_sweep.failed_points", 0.0) / points if points else 0.0,
        "scattering.spectrum_sweep.bytes_computed": counts.get("scattering.spectrum_sweep.bytes_computed", 0.0),
        "optimize.evaluations": evaluations,
        "optimize.feasible_ratio": counts.get("optimize.feasible", 0.0) / evaluations if evaluations else 0.0,
        "applications.entangle.protocol_montecarlo.trials":
            counts.get("applications.entangle.protocol_montecarlo.trials", 0.0),
        "cli.main.bytes_out": counts.get("cli.main.bytes_out", 0.0),
        "share.kernel_pct": table["share"]["kernel_pct"],
        "share.scalar_pct": table["share"]["scalar_pct"],
        "trace.overhead_pct": overhead,
        "host.probe_ms": statistics.median(runner.probe_ms),
    })
    warmup = tracer_mod.layer_table(tracer, [0])["functions"]
    exact = {f"{name}.calls": int(row["calls"]) for name, row in sorted(warmup.items())}
    exact.update({k: v for k, v in sorted(tracer.counts.get(0, {}).items())})
    return metrics, table, exact


def run(args: argparse.Namespace, scratch: Path) -> int:
    setup = [_measure_setup(args.workload, args.seed)]
    _import_package()
    import tracer as tracer_mod
    import workloads

    workload = workloads.CATALOG[args.workload](args.seed, scratch)
    tracer = tracer_mod.Tracer() if args.trace else None
    runner = Runner(workload, tracer)
    uninstall = tracer_mod.install(tracer) if tracer else None
    runner.cycle(0, None, traced=tracer is not None)
    deadline = time.perf_counter() + args.seconds
    step = args.seconds / SETUP_REPEATS
    next_setup = deadline - args.seconds + step
    index = 0
    while time.perf_counter() < deadline:
        index += 1
        traced = tracer is not None and index % 2 == 1
        if tracer is not None:
            if traced and uninstall is None:
                uninstall = tracer_mod.install(tracer)
            elif not traced and uninstall is not None:
                uninstall()
                uninstall = None
        runner.cycle(index, deadline, traced)
        if len(setup) < SETUP_REPEATS and time.perf_counter() >= next_setup:
            spent = _measure_setup(args.workload, args.seed)
            setup.append(spent)
            deadline += spent
            next_setup += step + spent
    while len(setup) < SETUP_REPEATS:
        setup.append(_measure_setup(args.workload, args.seed))
    if uninstall is not None:
        uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    named = _named_metrics(runner)
    failed = len(runner.failures)
    gated_ms = _gated_ms(runner)
    for name, value in gated_ms.items():
        named[name] = {"value": value, "unit": "ms"}
    named["setup_s"] = {"value": min(setup), "unit": "s", "samples": setup}
    named["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    named["fail_ratio"] = {"value": failed / runner.attempted, "unit": "failed/attempted"}
    result: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(runner.probe_ms),
        "inputs": workload.notes,
        "requests": {
            key: {"n": len(v), "p50_ms": statistics.median(v) * 1e3 if v else None,
                  "tail": _tail([t * 1e3 for t in v]), "samples_ms": [t * 1e3 for t in v]}
            for key, v in runner.latency.items()
        },
        "cycles": runner.cycles,
        "named_metrics": named,
        "failures": runner.failures,
    }
    if tracer is not None:
        metrics, table, exact = _per_layer(runner, tracer_mod)
        result.update(per_layer=metrics, layer_table=table, counters=exact)
        tracer.save(str(OUT / f"spans-{args.workload}.npz"))
        spec = per_layer_spec()
        final_metrics = {name: {"value": metrics[name], "unit": spec[name][0]} for name in spec}
    else:
        final_metrics = _end_to_end(gated_ms, setup, rss_mb)
    result["metrics"] = final_metrics

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# environment {json.dumps(result['environment'])}")
    for key, row in result["requests"].items():
        q, tail = row["tail"]
        tail_text = f" p{q}={tail:.3f}ms" if q is not None else ""
        p50 = f"{row['p50_ms']:.3f}ms" if row["p50_ms"] is not None else "-"
        print(f"# request {key}: n={row['n']} p50={p50}{tail_text}")
    for name, entry in named.items():
        spread = ""
        if entry.get("n"):
            spread = f" (n={entry['n']}, p50={entry['p50']:.6g}"
            if entry["tail"] is not None:
                spread += f", p{entry['tail_percentile']}={entry['tail']:.6g}"
            spread += ")"
        print(f"# named {name} = {entry['value']} {entry['unit']}{spread}")
    for message in runner.failures[:5]:
        print(f"failed: {message}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": final_metrics,
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process, one after another."""
    finals = {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {child.returncode}", file=sys.stderr)
            return 1
        finals[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": finals}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "modescatter" / "__init__.py").is_file():
        print(f"error: no modescatter sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        if args.setup_only:
            _import_package()
            import workloads

            workloads.CATALOG[args.workload](args.seed, scratch)
            return 0
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
