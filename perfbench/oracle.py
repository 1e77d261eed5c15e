"""Computations made apart from the program, for the output checks.

Rows come from the program's pure-Python reference journeys
(``earliest_arrival_times_reference`` / ``latest_departure_times_reference``),
which share no code with the vectorised kernels; every reduction of rows to
summary statistics and centralities below is this benchmark's own.

Unreachable entries are never read as numbers.  An entry counts as a
distance only when it is a whole number inside the range a journey can
produce; anything else (today's sentinels, ``None``, ``inf``) means "no
journey".  So the checks compare reachable pairs, the reachable fraction and
the mean distance over reachable pairs, and keep passing when the program
changes how it spells "unreachable" at its boundaries.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.core.journeys import earliest_arrival_times_reference
from repro.core.reverse_journeys import latest_departure_times_reference

#: Relative tolerance for float statistics whose summation order may differ.
REL_TOL = 1e-12


def entry(value: Any, lo: int, hi: int) -> int | None:
    """``value`` as an int when it is a whole number in ``[lo, hi]``, else None."""
    if value is None or isinstance(value, bool):
        return None
    try:
        number = float(value)
    except (TypeError, ValueError):
        return None
    if not math.isfinite(number) or number != int(number) or not lo <= number <= hi:
        return None
    return int(number)


def distance_row(values: Sequence[Any], lifetime: int) -> list[int | None]:
    """A distance row (forward arrivals or reverse distances), normalised."""
    return [entry(value, 0, lifetime) for value in values]


def forward_row(network: Any, source: int) -> list[int | None]:
    """Reference earliest-arrival row of ``source`` (journeys start at time 0)."""
    return distance_row(
        earliest_arrival_times_reference(network, source).tolist(), network.lifetime
    )


def departure_column(network: Any, target: int) -> list[int | None]:
    """Reference latest departures towards ``target`` (deadline = lifetime)."""
    horizon = network.lifetime + 1
    return [
        entry(value, 1, horizon)
        for value in latest_departure_times_reference(network, target).tolist()
    ]


def reverse_row(network: Any, target: int) -> list[int | None]:
    """Reference deadline-referenced distances to ``target``: ``lifetime + 1 - dep``."""
    horizon = network.lifetime + 1
    return [
        None if dep is None else horizon - dep for dep in departure_column(network, target)
    ]


def summary(rows: Sequence[Sequence[int | None]]) -> tuple[int, float, float]:
    """``(reachable pairs, reachable fraction, mean distance)`` over ``s != t``."""
    n = len(rows)
    pairs = 0
    total = 0
    for s, row in enumerate(rows):
        for t, value in enumerate(row):
            if s != t and value is not None:
                pairs += 1
                total += value
    fraction = pairs / float(n * (n - 1)) if n > 1 else 1.0
    mean = total / pairs if pairs else float("nan")
    return pairs, fraction, mean


def matrix_summary(matrix: np.ndarray, lifetime: int) -> tuple[int, float, float]:
    """:func:`summary` of a dense ``(n, n)`` distance matrix, vectorised."""
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    mask = (matrix >= 1) & (matrix <= lifetime)
    np.fill_diagonal(mask, False)
    pairs = int(mask.sum())
    total = int(matrix[mask].astype(np.int64).sum())
    fraction = pairs / float(n * (n - 1)) if n > 1 else 1.0
    return pairs, fraction, (total / pairs if pairs else float("nan"))


def centrality(rows: Sequence[Sequence[int | None]]) -> dict[str, list[float]]:
    """Closeness, harmonic closeness, influence and reach counts from rows."""
    n = len(rows)
    closeness, harmonic, influence = [], [], []
    reach = [0] * n
    for s, row in enumerate(rows):
        reached = [(t, d) for t, d in enumerate(row) if t != s and d is not None]
        total = sum(d for _, d in reached)
        closeness.append(len(reached) / total if total else 0.0)
        harmonic.append(math.fsum(1.0 / d for _, d in reached) / (n - 1))
        influence.append(float(len(reached)))
        for t, _ in reached:
            reach[t] += 1
    return {
        "closeness": closeness,
        "harmonic": harmonic,
        "influence": influence,
        "reach": [float(count) for count in reach],
    }


def close(a: float, b: float) -> bool:
    """Float equality up to :data:`REL_TOL` (NaN equals NaN)."""
    if math.isnan(a) and math.isnan(b):
        return True
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def compare_summary(
    label: str, expected: tuple[int, float, float], fraction: float, mean: float
) -> list[str]:
    """Failures when a program summary disagrees with the reference one."""
    _, want_fraction, want_mean = expected
    failures = []
    if not close(fraction, want_fraction):
        failures.append(f"{label}: reachable fraction {fraction!r} != {want_fraction!r}")
    if not close(mean, want_mean):
        failures.append(f"{label}: mean distance {mean!r} != {want_mean!r}")
    return failures
