"""Order statistics for the benchmark's reports.

Percentiles are the repository's own :func:`repro.obs.metrics.percentile`
(linear between closest ranks), which raises on an empty sample: a
latency of no operations must fail loudly, not read as 0.
"""

from __future__ import annotations

from repro.obs.metrics import percentile

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def median(values) -> float:
    return percentile(values, 50)


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank above the ``q``-th percentile (as
    :func:`percentile` places it)."""
    if n == 0:
        return 0
    return n - 1 - int((n - 1) * q / 100.0)


def tail(values, q: float = 90.0):
    """The ``q``-th percentile, or None when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    values = list(values)
    if beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)
