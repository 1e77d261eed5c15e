"""The harness shared by every workload: set-up, timed rounds, checks, result line.

A workload is a class with five methods, called in this order:

* ``setup()`` builds every input and the system under test.  The harness
  calls it :data:`SETUP_REPEATS` times on fresh instances (closing all but
  the last) and reports the median, so set-up cost is measured, not guessed.
* ``round(index)`` runs one whole round of the workload's operations,
  appends the latency of each successful operation to ``op_ms`` and returns
  the work units it completed.  Every round attempts the same number
  of operations, so the share of failed operations is the same in every run.
  A run makes ``--seconds / round_s`` rounds: a fixed amount of work, so a
  faster program finishes sooner rather than doing more (on a host slower
  than 1.3x the budget the run stops early, after at least three rounds).
* ``check()`` runs after the timed region and returns a list of failures,
  found by comparing outputs with computations made apart from the program.
* ``per_layer()`` adds per-layer values the workload measures itself.
* ``close()`` stops whatever the workload started.

In traced mode the layer probes are installed for the whole run, before
the first set-up, and the odd rounds record a telemetry session; the even
rounds record none, which yields the tracing overhead from the same run.

``setup_s`` is the import of the program and the benchmark plus one set-up,
each the median of its samples: the run's own import and
:data:`IMPORT_REPEATS` fresh interpreters started between rounds, spread over
the run, and :data:`SETUP_REPEATS` set-ups.  The import is CPU-bound and the
shared host's speed drifts from second to second and over tens of seconds;
samples spread over the run average that drift as the rounds do, where
samples taken together at the start would all share one moment's speed.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import zlib
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import tracing

#: Fresh set-ups per run; ``setup_s`` counts their median.
SETUP_REPEATS = 5
#: Fresh interpreters that time the imports again for ``setup_s``, started
#: before evenly spaced rounds.
IMPORT_REPEATS = 4


@dataclass
class RunContext:
    """What every workload receives from the command line and the harness."""

    seed: int
    seconds: float
    trace: bool
    workdir: Path


@dataclass
class RoundLog:
    """Wall time and work of the rounds, split by traced / untraced."""

    wall_s: list[float] = field(default_factory=list)
    work: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)

    def rate(self, traced: bool) -> float:
        wall = sum(w for w, t in zip(self.wall_s, self.traced) if t == traced)
        work = sum(w for w, t in zip(self.work, self.traced) if t == traced)
        return work / wall if wall > 0 else float("nan")


class Workload:
    """Base class; see the module docstring for the protocol."""

    #: Operations (user-visible requests) attempted and failed so far.
    attempted = 0
    failed = 0
    #: Engine worker processes the workload runs with (1 = serial engine).
    engine_jobs = 1
    #: Wall time of one round on the reference machine (2-core VM, NumPy
    #: 2.4): ``--seconds`` divided by it gives the number of rounds.
    round_s = 1.0

    def __init__(self, ctx: RunContext) -> None:
        self.ctx = ctx
        #: Latency of every successful operation, in milliseconds.
        self.op_ms: list[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int) -> float:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def per_layer(self) -> dict[str, float]:
        """Per-layer values the workload measures itself (beyond telemetry)."""
        return {}

    def close(self) -> None:
        pass


def import_seconds(module: str, root: Path) -> float:
    """Import time of ``module`` (and the program under it) in a fresh interpreter."""
    code = (
        "import importlib, sys, time\n"
        "start = time.perf_counter()\n"
        f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]\n"
        f"importlib.import_module({module!r})\n"
        "print(time.perf_counter() - start)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=120,
    )
    return float(out.stdout)


def derive_seed(seed: int, *keys: str | int) -> int:
    """A seed derived from the run seed and ``keys``; equal inputs, equal seed."""
    words = [seed] + [zlib.crc32(k.encode()) if isinstance(k, str) else k for k in keys]
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0] >> 2)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (``q`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def steal_s() -> float:
    """CPU time the hypervisor took from this machine so far (0 where unknown).

    Reported per round on stderr only: on a shared virtual machine it tells a
    slow round caused by the host from one caused by the program.
    """
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def peak_rss_mib() -> float:
    """Peak resident memory of this process or of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def declared_metrics(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """``name -> unit`` of the end-to-end and per-layer metrics in BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def drive(workload_cls: type[Workload], ctx: RunContext, *, import_s: float,
          import_module: str, root: Path) -> dict[str, Any]:
    """Run one workload end to end and return the result object.

    ``import_s`` is this process's import of ``import_module``, the first
    sample of the import time.
    """
    end_to_end_units, per_layer_units = declared_metrics(root)
    setup_times = []
    import_times = [import_s]
    workload = None
    total = tracing.TelemetryRecorder()
    log = RoundLog()

    def close() -> None:
        if workload is not None:
            workload.close()

    with ExitStack() as stack:
        probes = stack.enter_context(tracing.Probes()) if ctx.trace else None
        stack.callback(close)
        for repeat in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            workload = workload_cls(ctx)
            start = time.perf_counter()
            if ctx.trace and repeat == SETUP_REPEATS - 1:
                setup_rec = tracing.TelemetryRecorder()
                with tracing.session(setup_rec):
                    workload.setup()
                tracing.fold_setup(total, setup_rec)
            else:
                workload.setup()
            setup_times.append(time.perf_counter() - start)

        # A fixed number of whole rounds, so both sides of a comparison do the
        # same work; traced mode needs a traced and an untraced round after round 0.
        # On a host far slower than the reference, stop after 1.3x the budget.
        rounds = max(3 if ctx.trace else 1, round(ctx.seconds / workload.round_s))
        import_before = set() if ctx.trace else {
            rounds * k // IMPORT_REPEATS for k in range(IMPORT_REPEATS)
        }
        for index in range(rounds):
            if index >= 3 and sum(log.wall_s) > 1.3 * ctx.seconds:
                break
            if index in import_before:
                import_times.append(import_seconds(import_module, root))
            traced = ctx.trace and index % 2 == 1
            stolen = steal_s()
            start = time.perf_counter()
            if traced:
                with tracing.session(total):
                    work = workload.round(index)
            else:
                work = workload.round(index)
            log.wall_s.append(time.perf_counter() - start)
            log.work.append(work)
            log.traced.append(traced)
            print(
                f"round {index}{' traced' if traced else ''}: {log.wall_s[-1]:.3f} s, "
                f"{work / log.wall_s[-1]:.6g} work/s, "
                f"{steal_s() - stolen:.2f} s stolen by the hypervisor",
                file=sys.stderr,
            )
        pools_started = probes.pools_started if probes is not None else 0
        failures = workload.check()
        if ctx.trace:
            values = tracing.layer_metrics(
                total, sum(log.traced), workload.engine_jobs, pools_started
            )
            values.update(workload.per_layer())
            # Round 0 pays one-off warm-up (cold caches, first pools), so the
            # overhead compares the traced and untraced rounds after it.
            warm = RoundLog(log.wall_s[1:], log.work[1:], log.traced[1:])
            values["trace.overhead_pct"] = 100.0 * (
                warm.rate(False) / warm.rate(True) - 1.0
            )
            units = per_layer_units
        else:
            values = {
                "work_per_s": log.rate(False),
                "op_p50_ms": statistics.median(workload.op_ms),
            }
            values["setup_s"] = statistics.median(import_times) + statistics.median(
                setup_times
            )
            values["peak_rss_mib"] = peak_rss_mib()
            units = end_to_end_units
        print(
            "setup: import " + " ".join(f"{t:.3f}" for t in import_times)
            + " s; set-up " + " ".join(f"{t:.3f}" for t in setup_times) + " s",
            file=sys.stderr,
        )

    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"workload reported no value for {missing}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": int(workload.attempted),
        "failed": int(workload.failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
