"""Integer kernels shared by the metrics, in plain Python ints.

``lcs_length_codes`` is bit-parallel (Allison & Dix 1986; Hyyrö 2004): one
big-int add/or update per code of ``a``. ``ordered_selection`` is a suffix
DP banded to the slots each element can still take: it fills p * (q - p + 1)
cells but keeps one row and one slack per element, so its memory is linear.
All arithmetic is integer, so results are exact. Plain-list reference
versions of both recurrences live in ``tests/oracles.py``.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Sequence


class Codes(tuple):
    """A tuple of integer codes; the benchmark's tracer reads its ``size``."""

    __slots__ = ()
    size = property(len)


def active_backend() -> str:
    """Name of the kernel implementation; plain Python is the only one."""
    return "python"


def lcs_length_codes(a: Sequence[int], b: Sequence[int]) -> int:
    """LCS length of two integer code sequences."""
    # After each code of `a`, bit j of v is 0 exactly where the LCS table
    # row steps up at column j of `b`, so the zero bits of v count the LCS.
    masks: dict[int, int] = {}
    for j, code in enumerate(b):
        masks[code] = masks.get(code, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for code in a:
        u = v & masks.get(code, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def ordered_selection(small: Sequence[int], big: Sequence[int]) -> list[int]:
    """Min-cost order-preserving assignment of `small` into `big`.

    Requires 1 <= len(small) <= len(big) and both ascending. Returns, for
    each small element, the index of its assigned big element; on equal
    cost the earliest big slot wins.
    """
    # Element i can take only slot i + k, slack k in [0, q - p]. row[k] is
    # the cheapest completion of small[i + 1:] into big[i + 1 + k:], costs[k]
    # that of small[i:] with element i in slot i + k, and the new row is the
    # suffix minimum of costs, which from the first slot >= x is costs itself.
    # Taking slot i + k, once optimal, stays optimal at every larger k, so
    # element i takes its first cheapest slack unless an earlier element
    # took a larger one. At or above x costs only grow. Below x, an optimal
    # assignment that takes slot i + k either leaves i + k + 1 free, and
    # element i moves up at no cost, or uses it, and swapping it against
    # one optimal from k + 1 along the alternating path out of slot i + k
    # gives one optimal from k + 1 that holds slot i + k + 1; sorting it
    # costs nothing, as |x - y| over ascending sequences is Monge.
    slack = len(big) - len(small)
    row = [0] * (slack + 1)  # nothing left to place
    first = [0] * len(small)
    for i in range(len(small) - 1, -1, -1):
        x = small[i]
        end = i + slack + 1
        costs = [h + abs(x - y) for h, y in zip(row, big[i:end])]
        mid = bisect_left(big, x, i, end) - i
        row = list(accumulate(costs[mid::-1], min))
        row.reverse()
        row += costs[mid + 1:]
        first[i] = costs.index(row[0])
    return [i + k for i, k in enumerate(accumulate(first, max))]
