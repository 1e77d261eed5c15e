"""service-mixed: one closed-loop client against an in-process ServiceApp.

The client calls the same handler methods the HTTP daemon routes to, and
maps outcomes the way the daemon does: a ``ServiceError`` is its 4xx status,
anything else escaping a handler is a 500.  Sockets are left out: the stdlib
daemon is a thin router over these handlers and would only add noise.

One round is 400 requests in a seeded order:

* 388 queries on 48 directed-clique networks (n = 192, one uniform label per
  arc, network seeds from ``--seed``) with Zipf popularity (exponent 1.3),
  so the working set outgrows the 32-handle LRU: 97 each of
  ``distances_from``, ``distances_to``, ``latest_departure`` and
  ``centrality``.  No record of real traffic exists to take the shares
  from, so they are an assumption, and equal shares favour no op.  Every
  round has the same number of queries per network and per op; the seed
  sets their order, vertices and centrality measures;
* 8 queries naming vertex 195 of a fixed probe network (independent of
  ``--seed``).  ``ServiceApp.query`` maps only ``ConfigurationError`` to a
  400, so the bare ``ValueError`` that vertex validation raises escapes as a
  500: each counts as failed until the service answers it with a 4xx;
* 4 scenario submissions: 2 with new seeds, which run on the engine in the
  job thread and write SQLite rows and checkpoint files while the queries
  read, and 2 repeating the previous round's seeds, served from the store.
  The service runs as ``repro-experiments serve --tile-size 8`` would, so
  the jobs' distance summaries stream through the blocked sweep engine.

Operation: one request.  Work unit: one successful query.
"""

from __future__ import annotations

import math
import statistics
import tempfile
import time
from typing import Any, Callable, Mapping

import numpy as np

from repro.core import blocked_sweeps
from repro.scenarios import (
    GraphFamilySpec,
    LabelModelSpec,
    MetricSpec,
    MetricSuite,
    Scenario,
    ScenarioScale,
    SweepBlock,
    run_scenario,
)
from repro.scenarios.families import build_graph
from repro.scenarios.labelmodels import sample_labels
from repro.service import ServiceApp, ServiceError
from repro.utils.fingerprint import graph_fingerprint

import oracle
from harness import Workload, derive_seed, quantile

N = 192
NETWORKS = 48
ZIPF_EXPONENT = 1.3
#: Queries per round by op: equal shares, an assumption (see above).
QUERY_MIX = dict.fromkeys(
    ("distances_from", "distances_to", "latest_departure", "centrality"), 97
)
MEASURES = ("closeness", "harmonic", "influence", "reach")
#: The out-of-range queries: fixed network, fixed vertex, fixed ops.
PROBE_SEED = 7
BAD_VERTEX = N + 3
BAD_OPS = ("distances_from", "distances_to", "latest_departure") * 2 + (
    "distances_from",
    "distances_to",
)
NEW_JOBS = REPEAT_JOBS = 2
QUERIES = sum(QUERY_MIX.values())
ROUND_REQUESTS = QUERIES + len(BAD_OPS) + NEW_JOBS + REPEAT_JOBS
#: Responses kept for the reference check, and the small network checked
#: on every row.
SAMPLES, SAMPLE_EVERY = 24, 29
SMALL_N = 32
JOB_TIMEOUT_S = 60.0
#: Process-wide tile size, as the ``serve --tile-size`` flag installs it.
JOB_TILE = 8


def network_spec(n: int, seed: int) -> dict[str, Any]:
    return {
        "graph": {"family": "clique", "params": {"n": n, "directed": True}},
        "labels": {"model": "uniform", "labels_per_edge": 1, "lifetime": "graph_n"},
        "seed": seed,
    }


def rebuild(spec: Mapping[str, Any]):
    """The network a query spec describes, built through the scenario parts."""
    graph = build_graph(GraphFamilySpec.from_dict(spec["graph"]), {})
    network, _ = sample_labels(
        LabelModelSpec.from_dict(spec["labels"]), graph, {},
        np.random.default_rng(spec["seed"]),
    )
    return network


def job_scenario() -> Scenario:
    return Scenario(
        name="perfbench-service-job",
        title="Small clique sweep submitted to the service",
        description="Distance summary of small normalized U-RT cliques",
        graph=GraphFamilySpec("clique", {"n": "n", "directed": True}),
        labels=LabelModelSpec(model="uniform", labels_per_edge=1, lifetime="n"),
        metrics=MetricSuite.of(
            MetricSpec(
                "distance_summary",
                {"fields": ["mean_temporal_distance", "reachable_fraction"]},
            )
        ),
        scales={
            "default": ScenarioScale(
                repetitions=6, blocks=(SweepBlock(axes={"n": [12, 16]}),)
            )
        },
        default_seed=0,
    )


def respond(handler: Callable[[Any], Any], payload: Any) -> tuple[int, Any]:
    """``(status, body)`` as the HTTP daemon would answer."""
    try:
        return 200, handler(payload)
    except ServiceError as exc:
        return exc.status, None
    except Exception:  # noqa: BLE001 - the daemon answers anything else with a 500
        return 500, None


def same_records(a: list[Mapping[str, Any]], b: list[Mapping[str, Any]]) -> bool:
    def same(x: Any, y: Any) -> bool:
        if isinstance(x, float) and isinstance(y, float) and math.isnan(x) and math.isnan(y):
            return True
        return x == y

    return len(a) == len(b) and all(
        set(ra) == set(rb) and all(same(ra[k], rb[k]) for k in ra) for ra, rb in zip(a, b)
    )


class ServiceMixed(Workload):
    round_s = 1.0

    def setup(self) -> None:
        self.previous_tile = blocked_sweeps.set_default_tile_size(JOB_TILE)
        self.app = ServiceApp(
            data_dir=tempfile.mkdtemp(dir=self.ctx.workdir), tile_size=JOB_TILE
        )
        rng = np.random.default_rng(derive_seed(self.ctx.seed, "service-networks"))
        self.specs = [
            network_spec(N, int(seed)) for seed in rng.integers(1, 2**31, NETWORKS)
        ]
        # Every round queries network k exactly draws[k] times (Zipf shares,
        # largest remainders), so rounds differ only in order, not in load.
        weights = 1.0 / np.arange(1, NETWORKS + 1) ** ZIPF_EXPONENT
        shares = weights / weights.sum() * QUERIES
        draws = np.floor(shares).astype(int)
        draws[np.argsort(draws - shares)[: QUERIES - draws.sum()]] += 1
        self.network_draws = np.repeat(np.arange(NETWORKS), draws)
        self.probe = network_spec(N, PROBE_SEED)
        self.scenario = job_scenario()
        self.document = self.scenario.to_dict()
        self.cold_ms: list[float] = []
        self.submit_ms: list[float] = []
        self.jobs: list[dict[str, Any]] = []
        self.repeats: list[dict[str, Any]] = []
        self.samples: list[tuple[dict[str, Any], Any]] = []
        self.unexpected: list[str] = []
        self.errors_5xx = self.rounds = 0
        # Completed runs for the first round's repeat submissions to hit.
        self.previous_seeds = [derive_seed(self.ctx.seed, "job-prime", j) for j in range(NEW_JOBS)]
        for seed in self.previous_seeds:
            status, job = respond(self.app.submit_scenario,
                                  {"scenario": self.document, "seed": seed})
            if status != 200 or self.app.jobs.wait(job["id"], JOB_TIMEOUT_S)["state"] != "done":
                raise RuntimeError(f"priming job for seed {seed} did not complete")
        self.cache_base = (self.app.cache.hits, self.app.cache.misses, self.app.cache.evictions)

    def close(self) -> None:
        self.app.close()
        blocked_sweeps.set_default_tile_size(self.previous_tile)

    def _plan(self, index: int) -> list[tuple[str, dict[str, Any]]]:
        rng = np.random.default_rng(derive_seed(self.ctx.seed, "service-round", index))
        networks = rng.permutation(self.network_draws)
        ops = rng.permutation([op for op, count in QUERY_MIX.items() for _ in range(count)])
        ends = rng.integers(0, N, (len(ops), 2)).tolist()
        measures = rng.integers(0, len(MEASURES), len(ops)).tolist()
        plan: list[tuple[str, dict[str, Any]]] = []
        for k, op, (source, target), measure in zip(networks, ops, ends, measures):
            payload = dict(self.specs[k], op=str(op), source=source, target=target)
            if op == "centrality":
                payload["measure"] = MEASURES[measure]
            plan.append(("query", payload))
        plan += [
            ("bad", dict(self.probe, op=op, source=BAD_VERTEX, target=BAD_VERTEX))
            for op in BAD_OPS
        ]
        new_seeds = [derive_seed(self.ctx.seed, "job", index, j) for j in range(NEW_JOBS)]
        plan += [("new", {"scenario": self.document, "seed": s}) for s in new_seeds]
        plan += [("repeat", {"scenario": self.document, "seed": s})
                 for s in self.previous_seeds]
        self.previous_seeds = new_seeds
        order = rng.permutation(len(plan))
        return [plan[i] for i in order]

    def round(self, index: int) -> float:
        pending = []
        served = 0
        for kind, payload in self._plan(index):
            if kind in ("query", "bad"):
                start = time.perf_counter()
                status, body = respond(self.app.query, payload)
                elapsed = (time.perf_counter() - start) * 1e3
            else:
                start = time.perf_counter()
                status, body = respond(self.app.submit_scenario, payload)
                self.submit_ms.append((time.perf_counter() - start) * 1e3)
            if status >= 500:
                self.errors_5xx += 1
            if kind == "query":
                if status != 200:
                    self.failed += 1
                    self.unexpected.append(f"{payload['op']} answered {status}")
                    continue
                served += 1
                self.op_ms.append(elapsed)
                if not body["cache_hit"]:
                    self.cold_ms.append(elapsed)
                if len(self.samples) < SAMPLES and served % SAMPLE_EVERY == 0:
                    self.samples.append((payload, body))
            elif kind == "bad":
                if status >= 500:
                    self.failed += 1  # the known ValueError -> 500 fault
                elif status == 200:
                    self.unexpected.append(f"out-of-range {payload['op']} answered 200")
            elif status != 200:
                self.failed += 1
                self.unexpected.append(f"submission answered {status}")
            elif kind == "new":
                pending.append((payload["seed"], body["id"]))
            else:
                self.repeats.append(body)
        for seed, job_id in pending:
            snapshot = self.app.jobs.wait(job_id, JOB_TIMEOUT_S)
            snapshot["requested_seed"] = seed
            self.jobs.append(snapshot)
        self.attempted += ROUND_REQUESTS
        self.rounds += 1
        return float(served)

    def per_layer(self) -> dict[str, float]:
        """Client-side service figures, over every round of the run."""
        engine_jobs = [j for j in self.jobs if j["state"] == "done" and not j["from_store"]]
        hits, misses, evictions = (
            now - base
            for now, base in zip(
                (self.app.cache.hits, self.app.cache.misses, self.app.cache.evictions),
                self.cache_base,
            )
        )
        rounds = max(self.rounds, 1)
        return {
            "service.query_ms": statistics.fmean(self.op_ms),
            "service.query_cold_ms": statistics.fmean(self.cold_ms) if self.cold_ms else 0.0,
            "service.query_p99_ms": quantile(self.op_ms, 0.99),
            "service.cache_hits": hits / rounds,
            "service.cache_misses": misses / rounds,
            "service.cache_evictions": evictions / rounds,
            "service.submit_ms": statistics.fmean(self.submit_ms),
            "service.job_turnaround_p50_ms": statistics.median(
                (j["finished_at"] - j["submitted_at"]) * 1e3 for j in engine_jobs
            ),
            "service.job_queue_wait_ms": statistics.fmean(
                (j["started_at"] - j["submitted_at"]) * 1e3 for j in engine_jobs
            ),
            "service.job_run_ms": statistics.fmean(
                (j["finished_at"] - j["started_at"]) * 1e3 for j in engine_jobs
            ),
            "service.store_hits": sum(j["from_store"] for j in self.repeats) / rounds,
            "service.query_5xx": self.errors_5xx / rounds,
        }

    # ------------------------------------------------------------------ #
    # checks
    # ------------------------------------------------------------------ #
    def check(self) -> list[str]:
        failures = list(self.unexpected)
        failures += self._check_jobs()
        failures += self._check_samples()
        failures += self._check_small()
        return failures

    def _check_jobs(self) -> list[str]:
        failures = [
            f"job {j['id']} ended {j['state']}"
            for j in self.jobs if j["state"] != "done" or j["from_store"]
        ]
        failures += [
            f"repeat submission {j['id']} was not served from the store"
            for j in self.repeats if not (j["from_store"] and j["state"] == "done")
        ]
        for job in self.jobs[:2]:
            stored = self.app.result(job["fingerprint"])["records"]
            # Dense on purpose: the blocked job results must match it bit for bit.
            tile = blocked_sweeps.set_default_tile_size(None)
            try:
                direct = run_scenario(self.scenario, seed=job["requested_seed"])
            finally:
                blocked_sweeps.set_default_tile_size(tile)
            if not same_records(stored, direct.to_records()):
                failures.append(f"stored records of {job['id']} differ from a dense direct run")
        again = self.app.submit_scenario(
            {"scenario": self.document, "seed": self.jobs[0]["requested_seed"]}
        )
        if not again["from_store"]:
            failures.append("resubmission of a finished run was not served from the store")
        return failures

    def _check_samples(self) -> list[str]:
        failures = []
        for payload, body in self.samples:
            network = rebuild(payload)
            label = f"{payload['op']} on network seed {payload['seed']}"
            if body["graph_fingerprint"] != graph_fingerprint(network):
                failures.append(f"{label}: answered from another network")
                continue
            failures += self._compare(network, payload, body["result"], label)
        return failures

    def _compare(self, network, payload, result, label: str) -> list[str]:
        op, lifetime = payload["op"], network.lifetime
        if op == "distances_from":
            ok = oracle.distance_row(result, lifetime) == oracle.forward_row(
                network, payload["source"]
            )
        elif op == "distances_to":
            ok = oracle.distance_row(result, lifetime) == oracle.reverse_row(
                network, payload["target"]
            )
        elif op == "latest_departure":
            want = oracle.departure_column(network, payload["target"])[payload["source"]]
            ok = oracle.entry(result, 1, lifetime + 1) == want
        else:
            ok = len(result) == network.n and all(0.0 <= v <= network.n for v in result)
        return [] if ok else [f"{label}: answer differs from the reference"]

    def _check_small(self) -> list[str]:
        """Every row of one small network, and its centralities, via the handlers."""
        spec = network_spec(SMALL_N, derive_seed(self.ctx.seed, "service-small"))
        network = rebuild(spec)
        rows = [oracle.forward_row(network, s) for s in range(SMALL_N)]
        columns = [oracle.reverse_row(network, t) for t in range(SMALL_N)]
        failures = []
        for vertex in range(SMALL_N):
            for op, key, want in (("distances_from", "source", rows[vertex]),
                                  ("distances_to", "target", columns[vertex])):
                body = self.app.query(dict(spec, op=op, **{key: vertex}))
                if oracle.distance_row(body["result"], network.lifetime) != want:
                    failures.append(f"small network: {op} {vertex} differs from reference")
        # Both directions describe the same reachable pairs.
        if oracle.summary(rows)[0] != oracle.summary(columns)[0]:
            failures.append("small network: forward and reverse reachable pairs differ")
        reference = oracle.centrality(rows)
        for measure in MEASURES:
            got = self.app.query(dict(spec, op="centrality", measure=measure))["result"]
            if not all(oracle.close(float(a), b) for a, b in zip(got, reference[measure])):
                failures.append(f"small network: {measure} centrality differs from reference")
        return failures


WORKLOAD = ServiceMixed
