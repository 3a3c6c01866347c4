"""Latency statistics shared by the benchmark and its tests."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(values):
    """Value at the highest percentile with at least TAIL_BEYOND values above it.

    Returns (value, percentile, count).  The value is the (TAIL_BEYOND+1)-th
    largest; its nearest-rank percentile is 100 * (count - TAIL_BEYOND) / count.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} values for the tail, got {count}")
    rank = count - TAIL_BEYOND                     # 1-based rank from the bottom
    return ordered[rank - 1], 100.0 * rank / count, count
