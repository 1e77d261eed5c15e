"""blocked-sparse: tiled all-pairs summaries of single-label hypercubes.

Set-up samples four hypercube Q10 instances (n = 1024, one uniform label per
edge from ``{1, ..., n}``, seeds from ``--seed``) and builds their forward
and reverse CSR layouts.  One round asks a fresh ``NetworkAnalysis`` handle of
every instance for ``streamed_distance_summary`` at tile size 64, once
forward and once reverse, serially and without the engine.  A single label
per edge never saturates a hypercube, so every tile scans all n label
groups: the per-group cost of the kernels and of the blocked accumulator set
the time.

Operation: one summary.  Work unit: one ordered pair of distinct vertices.
"""

from __future__ import annotations

import time

import numpy as np

from repro import NetworkAnalysis, hypercube_graph
from repro.core import labeling

import oracle
from harness import Workload, derive_seed

DIMENSION = 10
INSTANCES = 4
TILE = 64
DIRECTIONS = ("forward", "reverse")
SAMPLED_ROWS = 2
#: The instance checked on every row against the reference journeys.
SMALL_DIMENSION, SMALL_TILE = 6, 16


def sample(dimension: int, seed: int):
    graph = hypercube_graph(dimension)
    return labeling.uniform_random_labels(
        graph, labels_per_edge=1, lifetime=graph.n, seed=seed
    )


class BlockedSparse(Workload):
    round_s = 5.1

    def setup(self) -> None:
        self.networks = [
            sample(DIMENSION, derive_seed(self.ctx.seed, "blocked", i))
            for i in range(INSTANCES)
        ]
        for network in self.networks:
            network.timearc_csr
            network.reverse_timearc_csr
        self.results: dict[tuple[int, str], list[tuple[float, float]]] = {}

    def round(self, index: int) -> float:
        for i, network in enumerate(self.networks):
            for direction in DIRECTIONS:
                start = time.perf_counter()
                summary = NetworkAnalysis(network).streamed_distance_summary(
                    tile_size=TILE, direction=direction
                )
                self.op_ms.append((time.perf_counter() - start) * 1e3)
                self.results.setdefault((i, direction), []).append(
                    (summary.reachable_fraction, summary.average_distance)
                )
        self.attempted += INSTANCES * len(DIRECTIONS)
        n = self.networks[0].n
        return float(INSTANCES * len(DIRECTIONS) * n * (n - 1))

    # ------------------------------------------------------------------ #
    # checks
    # ------------------------------------------------------------------ #
    def check(self) -> list[str]:
        failures = []
        for i, network in enumerate(self.networks):
            failures += self._check_instance(i, network)
        failures += self._check_small()
        return failures

    def _check_instance(self, i: int, network) -> list[str]:
        label = f"instance {i}"
        failures = []
        seen = {d: set(self.results[(i, d)]) for d in DIRECTIONS}
        for direction, values in seen.items():
            if len(values) != 1:
                failures.append(f"{label} {direction}: summaries differ between rounds")
        (fwd_fraction, fwd_mean), = seen["forward"]
        (rev_fraction, rev_mean), = seen["reverse"]
        if fwd_fraction != rev_fraction:
            failures.append(
                f"{label}: forward reachable fraction {fwd_fraction!r} != reverse "
                f"{rev_fraction!r}"
            )

        # Blocked against dense: the program promises bit-identical summaries.
        analysis = NetworkAnalysis(network)
        dense = analysis.summary
        if (dense.reachable_fraction, dense.average_distance) != (fwd_fraction, fwd_mean):
            failures.append(f"{label}: blocked forward summary differs from dense")
        lifetime = network.lifetime
        arrivals = analysis.arrival_matrix()
        distances_to = analysis.distances_to()
        failures += oracle.compare_summary(
            f"{label} forward", oracle.matrix_summary(arrivals, lifetime),
            fwd_fraction, fwd_mean,
        )
        failures += oracle.compare_summary(
            f"{label} reverse", oracle.matrix_summary(distances_to, lifetime),
            rev_fraction, rev_mean,
        )

        picks = np.random.default_rng(derive_seed(self.ctx.seed, "blocked-rows", i))
        for vertex in picks.choice(network.n, SAMPLED_ROWS, replace=False).tolist():
            if oracle.distance_row(arrivals[vertex].tolist(), lifetime) != oracle.forward_row(
                network, vertex
            ):
                failures.append(f"{label}: row of source {vertex} differs from reference")
            if oracle.distance_row(
                distances_to[vertex].tolist(), lifetime
            ) != oracle.reverse_row(network, vertex):
                failures.append(f"{label}: column of target {vertex} differs from reference")
        return failures

    def _check_small(self) -> list[str]:
        network = sample(SMALL_DIMENSION, derive_seed(self.ctx.seed, "blocked-small"))
        n = network.n
        failures = []
        for direction, row in (("forward", oracle.forward_row),
                               ("reverse", oracle.reverse_row)):
            expected = oracle.summary([row(network, v) for v in range(n)])
            got = NetworkAnalysis(network).streamed_distance_summary(
                tile_size=SMALL_TILE, direction=direction
            )
            failures += oracle.compare_summary(
                f"Q{SMALL_DIMENSION} {direction}", expected,
                got.reachable_fraction, got.average_distance,
            )
        return failures


WORKLOAD = BlockedSparse
