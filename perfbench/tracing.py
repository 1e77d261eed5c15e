"""Traced mode: layer probes around public functions, read through telemetry.

Two sources feed the per-layer metrics:

* the counters and timings the program's own telemetry already emits
  (``engine.*``, ``scenario.*``, ``analysis.*``, ``blocked.*``, ``kernel.*``),
  recorded by a :func:`repro.telemetry.session` around each traced round;
* probes installed by this module around public functions of layers that
  emit nothing themselves (CSR builders, label sampling, the handle
  constructor and summary reduction, the blocked accumulator, the artifact
  store, process-pool start-up).  A probe reports into the *active* telemetry
  recorders, so under ``jobs=2`` a probe that fires in a forked engine worker
  lands in that shard's recorder and reaches the session through the
  engine's own merge of worker telemetry.

The probes are installed once for the whole traced run, before the first
set-up, so state the program builds early (a process pool, forked workers
that inherit the probes) is probed too.  A probe records only while a
session is active, i.e. in the traced rounds; elsewhere it costs one check.
Process pools are counted over the whole run, sessions or not.  A probe
target that no longer exists raises, rather than letting its metric read 0.
"""

from __future__ import annotations

import functools
import importlib
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro import telemetry
from repro.telemetry import TelemetryRecorder

__all__ = [
    "SERVICE_CLIENT_METRICS",
    "Probes",
    "TelemetryRecorder",
    "fold_setup",
    "layer_metrics",
    "session",
]

#: Prefix of the names the probes record, kept apart from the program's own.
PREFIX = "perfbench."

#: Nested artifact computations that ``NetworkAnalysis.summary`` may trigger;
#: their time is subtracted to leave the reduction's self time.
_SUMMARY_CHILDREN = ("arrival_matrix", "eccentricities", "reachability")

#: Per-layer service metrics the service-mixed client measures itself.
SERVICE_CLIENT_METRICS = (
    "service.query_ms",
    "service.query_cold_ms",
    "service.query_p99_ms",
    "service.cache_hits",
    "service.cache_misses",
    "service.cache_evictions",
    "service.submit_ms",
    "service.job_turnaround_p50_ms",
    "service.job_queue_wait_ms",
    "service.job_run_ms",
    "service.store_hits",
    "service.query_5xx",
)


def _timed(fn: Callable[..., Any], name: str) -> Callable[..., Any]:
    @functools.wraps(fn)
    def probe(*args: Any, **kwargs: Any) -> Any:
        if not telemetry.active():
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            telemetry.observe_ms(PREFIX + name, (time.perf_counter() - start) * 1e3)

    return probe


def _children_total(rec: TelemetryRecorder) -> float:
    return sum(
        stats.total
        for child in _SUMMARY_CHILDREN
        if (stats := rec.timings.get(f"analysis.compute_ms.{child}")) is not None
    )


def _summary_probe(fget: Callable[[Any], Any]) -> property:
    """Self time of a computed (not cached) ``NetworkAnalysis.summary``."""

    def probe(handle: Any) -> Any:
        recs = telemetry.active()
        if not recs:
            return fget(handle)
        rec = recs[-1]
        computed = rec.counters.get("analysis.compute.summary", 0)
        nested = _children_total(rec)
        start = time.perf_counter()
        result = fget(handle)
        elapsed = (time.perf_counter() - start) * 1e3
        if rec.counters.get("analysis.compute.summary", 0) > computed:
            self_ms = elapsed - (_children_total(rec) - nested)
            telemetry.observe_ms(PREFIX + "analysis.summary_reduce_ms", self_ms)
        return result

    return property(probe)


def _targets() -> list[tuple[Any, str, Callable[[Any], Any]]]:
    """``(owner, attribute, make_probe)`` of every probe point."""
    targets: list[tuple[Any, str, Callable[[Any], Any]]] = []

    def add(module: str, owner: str | None, attr: str, make: Callable[[Any], Any]) -> None:
        obj: Any = importlib.import_module(module)
        if owner is not None:
            obj = getattr(obj, owner, None)
        if obj is None or attr not in vars(obj):
            raise LookupError(f"probe target {module}.{owner or ''}.{attr} not found")
        targets.append((obj, attr, make))

    def timed(name: str) -> Callable[[Any], Any]:
        return lambda fn: _timed(fn, name)

    add("repro.core.timearc_csr", None, "build_timearc_csr", timed("csr.build_ms"))
    add("repro.core.reverse_timearc_csr", None, "build_reverse_timearc_csr",
        timed("csr.reverse_build_ms"))
    # The scenario label models hold their own reference to the sampler.
    add("repro.core.labeling", None, "uniform_random_labels", timed("labels.sample_ms"))
    add("repro.scenarios.labelmodels", None, "uniform_random_labels",
        timed("labels.sample_ms"))
    add("repro.analysis_api.handle", "NetworkAnalysis", "__init__",
        timed("analysis.handle_build_ms"))
    add("repro.analysis_api.handle", "NetworkAnalysis", "summary",
        lambda prop: _summary_probe(prop.fget))
    add("repro.core.blocked_sweeps", "BlockedSummaryAccumulator", "add_tile",
        timed("blocked.accumulate_ms"))
    add("repro.service.store", "ArtifactStore", "begin_run", timed("service.store_write_ms"))
    add("repro.service.store", "ArtifactStore", "complete_run",
        timed("service.store_write_ms"))
    return targets


class Probes:
    """The layer probes, installed for the life of a ``with`` block.

    ``pools_started`` counts the process pools started meanwhile.
    """

    def __init__(self) -> None:
        self.pools_started = 0
        self._originals: list[tuple[Any, str, Any]] = []

    def _pool_probe(self, init: Callable[..., None]) -> Callable[..., None]:
        @functools.wraps(init)
        def probe(pool: Any, *args: Any, **kwargs: Any) -> None:
            self.pools_started += 1
            init(pool, *args, **kwargs)

        return probe

    def __enter__(self) -> "Probes":
        targets = _targets() + [(ProcessPoolExecutor, "__init__", self._pool_probe)]
        for owner, attr, make in targets:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, make(original))
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()


@contextmanager
def session(total: TelemetryRecorder) -> Iterator[None]:
    """Record one region in a telemetry session and fold it into ``total``."""
    with telemetry.session() as rec:
        yield
    total.merge(rec)


def _mean(rec: TelemetryRecorder, name: str) -> float:
    stats = rec.timings.get(name)
    return stats.mean if stats is not None and stats.count else 0.0


def _total(rec: TelemetryRecorder, name: str) -> float:
    stats = rec.timings.get(name)
    return stats.total if stats is not None else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def fold_setup(total: TelemetryRecorder, setup: TelemetryRecorder) -> None:
    """Add the set-up's CSR and label timings, which move ``setup_s``, to ``total``."""
    for name in ("csr.build_ms", "csr.reverse_build_ms", "labels.sample_ms"):
        stats = setup.timings.get(PREFIX + name)
        if stats is not None:
            total.merge_state({"timings": {PREFIX + name: stats.to_state()}})


def layer_metrics(
    rec: TelemetryRecorder, rounds: int, engine_jobs: int, pools_started: int
) -> dict[str, float]:
    """Every per-layer metric derivable from telemetry; 0 where a layer was idle.

    Counts are per traced round, except ``pools_started``, the process pools
    of the whole run; ``*_ms`` values are means per event.
    ``engine.overhead_ms`` is engine wall time per run minus shard time
    divided by ``engine_jobs``, the worker count the workload runs with.
    """
    count = rec.counters.get
    per_round = lambda name: count(name, 0) / max(rounds, 1)  # noqa: E731
    engine_runs = rec.timings.get("engine.run_ms")
    runs = engine_runs.count if engine_runs is not None else 0
    hits = sum(v for k, v in rec.counters.items() if k.startswith("analysis.cache_hit."))
    computes = sum(v for k, v in rec.counters.items() if k.startswith("analysis.compute."))
    sweeps = count("kernel.forward.sweeps", 0) + count("kernel.reverse.sweeps", 0)
    groups = count("kernel.forward.groups_scanned", 0) + count("kernel.reverse.groups_scanned", 0)
    sweep_ms = _total(rec, "kernel.forward.sweep_ms") + _total(rec, "kernel.reverse.sweep_ms")
    saturated = count("kernel.forward.saturation_exits", 0) + count(
        "kernel.reverse.saturation_exits", 0
    )
    return {
        "engine.run_ms": _mean(rec, "engine.run_ms"),
        "engine.shard_ms": _mean(rec, "engine.shard_ms"),
        "engine.overhead_ms": _ratio(
            _total(rec, "engine.run_ms") - _total(rec, "engine.shard_ms") / engine_jobs, runs
        ),
        "engine.pools_started": float(pools_started),
        "engine.shards": per_round("engine.shards"),
        "engine.trials_per_shard": _ratio(count("engine.trials", 0), count("engine.shards", 0)),
        "engine.checkpoint_save_ms": _mean(rec, "engine.checkpoint_save_ms"),
        "scenario.graph_build_ms": _mean(rec, "scenario.graph_build_ms"),
        "scenario.label_sampling_ms": _mean(rec, "scenario.label_sampling_ms"),
        "scenario.metric_ms.distance_summary": _mean(rec, "scenario.metric.distance_summary"),
        "scenario.metric_ms.temporal_centrality": _mean(
            rec, "scenario.metric.temporal_centrality"
        ),
        "scenario.trials": per_round("scenario.trials"),
        "analysis.compute.arrival_matrix": per_round("analysis.compute.arrival_matrix"),
        "analysis.cache_hit_ratio": _ratio(hits, hits + computes),
        "analysis.summary_reduce_ms": _mean(rec, PREFIX + "analysis.summary_reduce_ms"),
        "analysis.handle_build_ms": _mean(rec, PREFIX + "analysis.handle_build_ms"),
        "blocked.tiles": per_round("blocked.tiles"),
        "blocked.tile_ms": _mean(rec, "blocked.tile_ms"),
        "blocked.accumulate_ms": _mean(rec, PREFIX + "blocked.accumulate_ms"),
        "kernel.forward.sweep_ms": _mean(rec, "kernel.forward.sweep_ms"),
        "kernel.reverse.sweep_ms": _mean(rec, "kernel.reverse.sweep_ms"),
        "kernel.forward.groups_scanned": per_round("kernel.forward.groups_scanned"),
        "kernel.reverse.groups_scanned": per_round("kernel.reverse.groups_scanned"),
        "kernel.groups_per_ms": _ratio(groups, sweep_ms),
        "kernel.saturation_exit_ratio": _ratio(saturated, sweeps),
        "csr.build_ms": _mean(rec, PREFIX + "csr.build_ms"),
        "csr.reverse_build_ms": _mean(rec, PREFIX + "csr.reverse_build_ms"),
        "labels.sample_ms": _mean(rec, PREFIX + "labels.sample_ms"),
        "service.store_write_ms": _mean(rec, PREFIX + "service.store_write_ms"),
        # Timed by the service-mixed client around ServiceApp calls; the
        # service layer is idle in the other workloads.
        **{name: 0.0 for name in SERVICE_CLIENT_METRICS},
    }
