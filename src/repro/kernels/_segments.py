"""Shared segmented-array helpers for the kernel backends."""

from __future__ import annotations

import numpy as np


def cumsum0(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0+c1, ...]`` — group offsets from group sizes."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def group_argsort(
    values: np.ndarray, group: np.ndarray, n_groups: int, member: np.ndarray | None = None
) -> np.ndarray:
    """Order that sorts ``values[member]`` by group, then by value.

    ``group`` gives each member's group (``member`` defaults to every
    value).  One quicksort of unique integer keys does it: rank every value
    once, then sort group-major composite keys ``group * n + rank``.  A
    member may repeat across groups but not within one, so the keys are
    unique and the order deterministic.  NaN ranks last, at the end of its
    group, as in an ascending ``np.sort``.
    """
    n = values.size
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(values)] = np.arange(n)
    key = group * n + (rank if member is None else rank[member])
    if n_groups * n < np.iinfo(np.int32).max:
        key = key.astype(np.int32)  # int32 quicksort is measurably faster
    return np.argsort(key)


def group_median_sorted(
    values: np.ndarray, offsets: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Median per group over values already sorted within each group.

    Matches ``np.median`` exactly: the middle element for odd counts, the
    mean of the two middle elements for even counts, and NaN for a group
    holding a NaN (an ascending sort places NaN last, so the group's last
    element tells).  Empty groups get NaN.
    """
    med = np.full(counts.size, np.nan)
    nz = counts > 0
    starts = offsets[:-1][nz]
    sizes = counts[nz]
    middle = (values[starts + (sizes - 1) // 2] + values[starts + sizes // 2]) / 2.0
    med[nz] = np.where(np.isnan(values[starts + sizes - 1]), np.nan, middle)
    return med
