"""mc-clique-sweep: Monte-Carlo scenario sweeps through the engine at jobs=2.

One round is one ``run_scenario(..., jobs=2)`` call on a scenario composed
from registered parts: the directed clique, the normalized U-RTN label model
(one uniform label per arc from ``{1, ..., n}``) and the metric suite
``distance_summary`` + ``temporal_centrality``.  The sweep has 28 points,
n = 16, 20, ..., 124, with 32 trials each; the engine cuts every point into
16 shards of 2 trials and starts a process pool per point, so per-point
fixed costs weigh as much as the dense, quickly saturating sweeps.

Operation: one sweep point (its time comes from the public ``progress``
hook).  Work unit: one trial.  Round seeds derive from ``--seed``.
"""

from __future__ import annotations

import time

import numpy as np

from repro import NetworkAnalysis
from repro.scenarios import (
    GraphFamilySpec,
    LabelModelSpec,
    MetricSpec,
    MetricSuite,
    Scenario,
    ScenarioScale,
    ScenarioTrial,
    SweepBlock,
    run_scenario,
)
from repro.scenarios.families import build_graph
from repro.scenarios.labelmodels import sample_labels

import oracle
from harness import Workload, derive_seed

SIZES = tuple(range(16, 125, 4))
TRIALS = 32
JOBS = 2
#: Leading sweep points rerun serially in the checks (the engine promises
#: bit-identical results for any worker count).
RERUN_POINTS = 6
#: Sizes of the trial networks rebuilt for the row checks: one checked on
#: every row, one on sampled rows.
SMALL_N, LARGE_N = 16, SIZES[-1]
SAMPLED_ROWS = 3

DISTANCE_FIELDS = ("mean_temporal_distance", "reachable_fraction")
CENTRALITY_FIELDS = ("mean_closeness", "mean_harmonic_closeness")


def make_scenario(sizes: tuple[int, ...] = SIZES) -> Scenario:
    return Scenario(
        name="perfbench-mc-clique-sweep",
        title="Normalized U-RT clique: distances and centrality",
        description="Benchmark sweep over directed cliques under one uniform label per arc",
        graph=GraphFamilySpec("clique", {"n": "n", "directed": True}),
        labels=LabelModelSpec(model="uniform", labels_per_edge=1, lifetime="n"),
        metrics=MetricSuite.of(
            MetricSpec("distance_summary", {"fields": list(DISTANCE_FIELDS)}),
            MetricSpec("temporal_centrality", {"fields": list(CENTRALITY_FIELDS)}),
        ),
        scales={
            "default": ScenarioScale(
                repetitions=TRIALS, blocks=(SweepBlock(axes={"n": list(sizes)}),)
            )
        },
        default_seed=0,
    )


def trial_network(scenario: Scenario, n: int, seed: int):
    """The network a scenario trial at ``n`` samples from generator ``seed``."""
    params = {"n": n}
    graph = build_graph(scenario.graph, params)
    network, _ = sample_labels(scenario.labels, graph, params, np.random.default_rng(seed))
    return network


class McCliqueSweep(Workload):
    round_s = 4.6
    engine_jobs = JOBS

    def setup(self) -> None:
        self.scenario = make_scenario()
        self.runs: list[tuple[int, object]] = []
        self.hook_failures: list[str] = []

    def round(self, index: int) -> float:
        seed = derive_seed(self.ctx.seed, "mc", index)
        marks: list[float] = []

        def progress(done: int, total: int, _repetitions: int) -> None:
            if done >= total:
                marks.append(time.perf_counter())

        start = time.perf_counter()
        run = run_scenario(self.scenario, seed=seed, jobs=JOBS, progress=progress)
        if len(marks) != len(SIZES):
            self.hook_failures.append(
                f"round {index}: progress hook closed {len(marks)} of {len(SIZES)} points"
            )
        self.op_ms += [(b - a) * 1e3 for a, b in zip([start] + marks[:-1], marks)]
        self.runs.append((seed, run))
        self.attempted += len(SIZES)
        return float(TRIALS * len(SIZES))

    # ------------------------------------------------------------------ #
    # checks
    # ------------------------------------------------------------------ #
    def check(self) -> list[str]:
        failures = list(self.hook_failures)
        for seed, run in self.runs:
            failures += self._check_properties(seed, run)
        failures += self._check_serial_rerun()
        failures += self._check_small_trial()
        failures += self._check_sampled_rows()
        return failures

    def _check_properties(self, seed: int, run) -> list[str]:
        points = list(run.points())
        if [p.parameters["n"] for p in points] != list(SIZES):
            return [f"seed {seed}: sweep points {[p.parameters for p in points]}"]
        failures = []
        for point in points:
            n = point.parameters["n"]
            bounds = {
                "reachable_fraction": (0.0, 1.0),
                "mean_temporal_distance": (1.0, float(n)),
                "mean_closeness": (1.0 / n, 1.0),
                "mean_harmonic_closeness": (1.0 / n, 1.0),
            }
            for name, (lo, hi) in bounds.items():
                values = point.metrics.get(name, ())
                if len(values) != TRIALS or not all(lo <= v <= hi for v in values):
                    failures.append(f"seed {seed} n={n}: {name} outside [{lo}, {hi}]")
        return failures

    def _check_serial_rerun(self) -> list[str]:
        seed, run = self.runs[0]
        serial = run_scenario(make_scenario(SIZES[:RERUN_POINTS]), seed=seed, jobs=None)
        failures = []
        for ours, theirs in zip(serial.points(), list(run.points())[:RERUN_POINTS]):
            if dict(ours.metrics) != dict(theirs.metrics):
                failures.append(
                    f"n={ours.parameters['n']}: serial rerun differs from jobs={JOBS}"
                )
        return failures

    def _check_small_trial(self) -> list[str]:
        """Every row of one trial, reduced here, against the trial's metrics."""
        seed = derive_seed(self.ctx.seed, "mc-small")
        metrics = ScenarioTrial(self.scenario)({"n": SMALL_N}, np.random.default_rng(seed))
        network = trial_network(self.scenario, SMALL_N, seed)
        rows = [oracle.forward_row(network, s) for s in range(SMALL_N)]
        failures = oracle.compare_summary(
            f"trial n={SMALL_N}",
            oracle.summary(rows),
            metrics["reachable_fraction"],
            metrics["mean_temporal_distance"],
        )
        reference = oracle.centrality(rows)
        for name, key in (("mean_closeness", "closeness"),
                          ("mean_harmonic_closeness", "harmonic")):
            want = float(np.mean(reference[key]))
            if not oracle.close(metrics[name], want):
                failures.append(f"trial n={SMALL_N}: {name} {metrics[name]!r} != {want!r}")
        return failures

    def _check_sampled_rows(self) -> list[str]:
        seed = derive_seed(self.ctx.seed, "mc-large")
        network = trial_network(self.scenario, LARGE_N, seed)
        analysis = NetworkAnalysis(network)
        picks = np.random.default_rng(seed).choice(LARGE_N, SAMPLED_ROWS, replace=False)
        failures = []
        for vertex in picks.tolist():
            got = oracle.distance_row(analysis.distances_from([vertex])[0].tolist(),
                                      network.lifetime)
            if got != oracle.forward_row(network, vertex):
                failures.append(f"n={LARGE_N}: row of source {vertex} differs from reference")
            got = oracle.distance_row(analysis.distances_to([vertex])[0].tolist(),
                                      network.lifetime)
            if got != oracle.reverse_row(network, vertex):
                failures.append(f"n={LARGE_N}: column of target {vertex} differs from reference")
        return failures


WORKLOAD = McCliqueSweep
