"""Summary statistics and naming rules shared by the benchmark's reports."""

from __future__ import annotations

import math
import re

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError.

    A name starts with a letter or digit and holds at most 64 letters,
    digits, ``_``, ``.`` and ``-``.
    """
    if not isinstance(name, str) or _NAME.fullmatch(name) is None:
        raise ValueError(f"invalid metric name {name!r}")
    return name


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    return xs[rank - 1]


def tail_percentile(n: int, beyond: int = 10):
    """Highest whole percentile that leaves at least ``beyond`` samples above
    its nearest-rank position in a sample of ``n``; None when n <= beyond."""
    if n <= beyond:
        return None
    return min(99, (100 * (n - beyond)) // n)


def timing_summary(values) -> dict:
    """Median, the highest percentile with at least 10 samples beyond it, and n."""
    values = list(values)
    out = {"n": len(values), "p50": None, "tail_q": None, "tail": None}
    if not values:
        return out
    out["p50"] = percentile(values, 50)
    q = tail_percentile(len(values))
    if q is not None:
        out["tail_q"] = q
        out["tail"] = percentile(values, q)
    return out


def median(values) -> float:
    xs = sorted(values)
    if not xs:
        raise ValueError("median of an empty sample")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def geomean(values) -> float:
    xs = list(values)
    if not xs or any(x <= 0 for x in xs):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))
