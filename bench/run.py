"""bellmd benchmark: one workload, one seed, one closed-loop run.

Run from the root of a source checkout:

    python3 bench/run.py --workload score --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics, with times rescaled to a
nominal machine speed by ``speed.SpeedProbe``.  ``--trace 1`` runs the
same ops twice, untraced and then traced, for half of ``--seconds`` each,
and reports the per-layer metrics plus the tracing overhead.  Human-readable
lines go first; the last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 2 without a
result when ``src/bellmd`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
BELLMD_MODULES = ("cli", "hilbert", "infotheory", "inequalities", "lhv", "mdsearch",
                  "serialize", "teleport")
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)

# per-layer time metrics: span name -> unit of its self time per call
LAYER_UNITS = {
    "mdsearch.solve": "ms",
    "lhv.model_init": "us",
    "lhv.predict": "us",
    "infotheory.cmd": "us",
    "inequalities.chsh_value": "us",
    "inequalities.chsh_quantum": "us",
    "inequalities.kcbs_value": "us",
    "hilbert.expectation": "us",
    "hilbert.tensor_op": "us",
    "serialize.decode": "us",
    "serialize.encode": "ms",
    "teleport.run_teleportation": "us",
    "teleport.branch_decomposition": "us",
}
SCALE = {"ms": 1e3, "us": 1e6}


def import_bellmd() -> SimpleNamespace:
    """Import bellmd from this checkout's src/, dropping any earlier import first."""
    for name in [m for m in sys.modules if m == "bellmd" or m.startswith("bellmd.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"bellmd.{name}") for name in BELLMD_MODULES}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "bellmd":
        raise RuntimeError(f"imported bellmd from {mods['cli'].__file__}, not {SRC}")
    return SimpleNamespace(**mods)


@dataclass
class Pass:
    """Op durations (seconds) and problems of one closed-loop pass."""

    durations: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return len(self.durations) / sum(self.durations)


def set_up(workload, repeats: int) -> list[tuple[float, float]]:
    """Import bellmd afresh and make the inputs, ``repeats`` times; (start, duration) of each."""
    setups = []
    for _ in range(repeats):
        start = time.perf_counter()
        workload.setup(import_bellmd())
        setups.append((start, time.perf_counter() - start))
    return setups


def run_pass(workload, seconds: float, cycle: int, tracer=None) -> Pass:
    """Run ops 0, 1, ... until ``seconds`` of wall time have passed, in whole ``cycle``s.

    At least one cycle runs.  Only the op itself is timed; its check runs
    afterwards.  An op that raises or fails its check counts as failed.
    """
    workload.reset_records()
    result = Pass()
    deadline = time.perf_counter() + seconds
    i = 0
    while i % cycle or i == 0 or time.perf_counter() < deadline:
        if workload.collect_before_op:
            gc.collect()
        start = time.perf_counter()
        try:
            if tracer is None:
                out = workload.op(i)
            else:
                with tracer.op(i):
                    out = workload.op(i)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out = exc
        result.durations.append(time.perf_counter() - start)
        result.starts.append(start)
        try:
            problems = ([f"{type(out).__name__}: {out}"] if isinstance(out, Exception)
                        else workload.check(i, out))
        except Exception as exc:  # a check that cannot read the output fails the op
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            result.failed += 1
            result.problems.extend(f"op {i}: {p}" for p in problems)
        i += 1
    return result


def tail(durations: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 samples beyond it.

    With fewer than 11 samples no percentile qualifies and the maximum
    (percentile 100) is reported.
    """
    ordered = sorted(durations)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(int(-(-p * n // 100)), 1)  # nearest rank, ceil(p n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, setups: list[tuple[float, float]], p: Pass, probe) -> dict:
    """The end-to-end metrics; every time is divided by its machine slowdown factor.

    The tail is printed but is not one of them: its spread between runs
    on a shared VM was beyond any bound the benchmark can set.
    """
    ops = probe.rescale(list(zip(p.starts, p.durations)))
    factors = [d / o for d, o in zip(p.durations, ops)]
    metrics = {
        "setup_s": metric(statistics.median(probe.rescale(setups)), "s"),
        "ops_per_s": metric(len(ops) / sum(ops), "1/s"),
        "op_p50_ms": metric(statistics.median(ops) * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    pct, tail_s = tail(ops)
    print(f"op_tail_ms = {tail_s * 1e3!r} ms (rescaled), {tail(p.durations)[1] * 1e3!r} ms "
          f"(as measured): p{pct:g} of {len(ops)} ops")
    print(f"as measured: setup_s = {statistics.median(d for _, d in setups)!r}, "
          f"ops_per_s = {p.ops_per_s!r}, op_p50_ms = {statistics.median(p.durations) * 1e3!r}; "
          f"slowdown factors {min(factors):.3f}-{max(factors):.3f}")
    if workload.output_bytes:
        print(f"output_bytes_per_op {statistics.fmean(workload.output_bytes):.1f} bytes "
              "(data files plus manifest)")
    return metrics


def per_layer(workload, tracer, base: Pass, traced: Pass) -> dict:
    busy, calls = tracer.self_times()
    ops = len(traced.durations)
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        n = calls.get(name, 0)
        metrics[f"{name}_{unit}"] = metric(busy.get(name, 0.0) / n * SCALE[unit] if n else 0.0,
                                           unit)
        metrics[f"{name}_calls"] = metric(n / ops, "count")
    n_main = calls.get("cli.main", 0)
    metrics["cli.self_ms"] = metric(busy.get("cli.main", 0.0) / n_main * 1e3 if n_main else 0.0,
                                    "ms")
    metrics["cli.main_calls"] = metric(n_main / ops, "count")
    for name in ("serialize.decode", "serialize.encode"):
        metrics[f"{name}_bytes"] = metric(tracer.byte_counts.get(name, 0) / ops, "bytes")
    metrics["cli.output_bytes_per_op"] = metric(
        statistics.fmean(workload.output_bytes) if workload.output_bytes else 0.0, "bytes")
    for name, unit in (("excess_rel", "ratio"), ("chsh_shortfall", "chsh")):
        values = workload.quality[name]
        metrics[f"mdsearch.{name}"] = metric(statistics.fmean(values) if values else 0.0, unit)
    # overhead over the ops both passes ran, which are the same calls
    common = min(len(base.durations), ops)
    untraced = common / sum(base.durations[:common])
    traced_rate = common / sum(traced.durations[:common])
    metrics["trace.ops_per_s"] = metric(traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = metric(untraced, "1/s")
    metrics["trace.overhead_ops_per_s"] = metric(untraced - traced_rate, "1/s")
    metrics["trace.overhead_rel"] = metric(1.0 - traced_rate / untraced, "ratio")
    return metrics


def machine_facts() -> str:
    import numpy

    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} platform={platform.platform()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bellmd" / "__init__.py").is_file():
        print(f"error: no bellmd sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  imported once, outside the timed set-up

    from speed import SpeedProbe
    from tracing import Tracer
    from workloads import TRACED_CALLS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.environ.pop("BELLMD_CONFIG", None)  # the CLI would read a search config from it
    scratch = ROOT / ".bench"
    workdir = scratch / f"work-{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} {machine_facts()}")
    try:
        if args.trace == 0:
            with SpeedProbe() as probe:
                setups = set_up(workload, SETUP_REPEATS)
                passes = [run_pass(workload, args.seconds, 1)]
            metrics = end_to_end(workload, setups, passes[0], probe)
        else:
            set_up(workload, 1)
            base = run_pass(workload, args.seconds / 2, 1)
            tracer = Tracer()
            for module, attr, name, measure in TRACED_CALLS:
                tracer.wrap(getattr(workload.bm, module), attr, name, measure)
            try:
                traced = run_pass(workload, args.seconds / 2, workload.cycle, tracer)
            finally:
                tracer.unwrap_all()
            passes = [base, traced]
            metrics = per_layer(workload, tracer, base, traced)
            trace_path = scratch / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path)
            print(f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(p.durations) for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for problem in p.problems[:20]:
            print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
