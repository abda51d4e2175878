"""Integer dynamic-programming kernels shared by the metrics.

Both kernels take int64 numpy code arrays and compute with integers only,
so results are exact. ``lcs_length_codes`` is bit-parallel over Python
ints (Allison & Dix 1986; Hyyrö 2004): one big-int add/or update per
code of ``a``. ``ordered_selection`` is a numpy row DP and imports numpy
only when it runs, so importing this module does not load numpy.
Plain-list reference versions of both recurrences live in
``tests/oracles.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Sentinel for "no feasible assignment". Costs are bounded by len^2 per pair,
# so INF + cost stays far below the int64 limit.
_INF = 2 ** 62


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def lcs_length_codes(a: np.ndarray, b: np.ndarray) -> int:
    """LCS length of two int64 code arrays."""
    # After each code of `a`, bit j of v is 0 exactly where the LCS table
    # row steps up at column j of `b`, so the zero bits of v count the LCS.
    masks: dict[int, int] = {}
    for j, code in enumerate(b.tolist()):
        masks[code] = masks.get(code, 0) | (1 << j)
    full = (1 << b.size) - 1
    v = full
    for code in a.tolist():
        u = v & masks.get(code, 0)
        v = ((v + u) | (v - u)) & full
    return b.size - v.bit_count()


def ordered_selection(small: np.ndarray, big: np.ndarray) -> np.ndarray:
    """Min-cost order-preserving assignment of `small` into `big`.

    Requires 1 <= small.size <= big.size and both arrays ascending. Returns,
    for each small element, the index of its assigned big element; on equal
    cost the earliest big slot wins.
    """
    import numpy as np

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
