"""The benchmark's arithmetic: percentiles, quartiles, geometric means, quiet units.

Kept free of any import from the program under test so the harness tests can
check it alone.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, Hashable, Iterable, List, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle ones for an even count)."""
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``): a value that was measured.

    Nearest rank never interpolates, so the result is always one of the
    samples and ``samples_beyond`` counts exactly the samples above it.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``-quantile."""
    return count - max(1, math.ceil(q * count))


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    logs = [math.log(v) for v in values]
    if not logs:
        raise ValueError("geometric mean of no values")
    return math.exp(sum(logs) / len(logs))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0.0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def group_medians(samples: Iterable[Tuple[str, float]]) -> Dict[str, float]:
    """Median duration of each group of ``(group, duration)`` samples."""
    groups: Dict[str, List[float]] = {}
    for group, duration in samples:
        groups.setdefault(group, []).append(duration)
    return {group: median(durations) for group, durations in groups.items()}


#: How far below the reference rate a unit of work may be and still be quiet.
QUIET_BAND = 0.10


def quiet(rates: Dict[Hashable, float], band: float = QUIET_BAND) -> List[Any]:
    """The units of work that ran while the host was undisturbed.

    ``rates`` maps a unit (a slice, a round) to its work per second, in a
    measure that is the same for every unit.  The virtual machines this runs on
    alternate, for seconds to a minute at a time, between two speed states
    about 1.4x apart (see README.md), so a unit is kept when its rate is
    within ``band`` of the second-best rate of the run: the program's own
    variation stays in, a neighbour's does not.  With fewer than three
    units all are kept.
    """
    if len(rates) < 3:
        return sorted(rates)
    reference = sorted(rates.values())[-2]
    return sorted(unit for unit, rate in rates.items()
                  if rate >= (1.0 - band) * reference)
