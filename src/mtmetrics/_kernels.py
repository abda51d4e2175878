"""Integer dynamic-programming kernels shared by the metrics.

Both kernels are numpy row updates over int64 arrays: integer arithmetic
only, so results are exact. Plain-list reference versions of the same
recurrences live in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

# Sentinel for "no feasible assignment". Costs are bounded by len^2 per pair,
# so INF + cost stays far below the int64 limit.
_INF = np.int64(2) ** 62


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def lcs_length_codes(a: np.ndarray, b: np.ndarray) -> int:
    """LCS length of two int64 code arrays."""
    # Row recurrence cur[j] = max(prev[j], prev[j-1] + eq, cur[j-1]); the
    # cur[j-1] chain collapses into a running maximum over the row.
    if a.size == 0 or b.size == 0:
        return 0
    prev = np.zeros(b.size + 1, dtype=np.int64)
    for i in range(a.size):
        cand = np.maximum(prev[1:], prev[:-1] + (b == a[i]))
        prev[1:] = np.maximum.accumulate(cand)
    return int(prev[-1])


def ordered_selection(small: np.ndarray, big: np.ndarray) -> np.ndarray:
    """Min-cost order-preserving assignment of `small` into `big`.

    Requires 1 <= small.size <= big.size and both arrays ascending. Returns,
    for each small element, the index of its assigned big element; on equal
    cost the earliest big slot wins.
    """
    # Suffix DP h[i][j] = cheapest completion for small[i:] against big[j:],
    # then a forward pass that prefers matching the earliest big slot on ties.
    p = small.size
    q = big.size
    h = np.full((p + 1, q + 1), _INF, dtype=np.int64)
    h[p, :] = 0
    for i in range(p - 1, -1, -1):
        cost = np.abs(small[i] - big)
        # Infeasible states (INF) must stay INF after adding a cost.
        via = np.minimum(h[i + 1, 1:], _INF - cost) + cost
        h[i, :q] = np.minimum.accumulate(via[::-1])[::-1]
    choice = np.empty(p, dtype=np.int64)
    i = 0
    j = 0
    while i < p:
        c = abs(int(small[i]) - int(big[j]))
        if h[i + 1, j + 1] < _INF and h[i + 1, j + 1] + c <= h[i, j + 1]:
            choice[i] = j
            i += 1
        j += 1
    return choice
