"""Integer kernels shared by the metrics, in plain Python ints.

``lcs_length_codes`` is bit-parallel (Allison & Dix 1986; Hyyrö 2004): one
big-int add/or update per code of ``a``. ``ordered_selection`` is a suffix
DP banded to the slots each element can still take: p * (q - p + 1) cells.
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
    # Element i can take only slot i + k, slack k in [0, q - p]. rows[i][k]
    # is the cheapest completion of small[i:] into big[i + k:]: the suffix
    # minimum over k' >= k of rows[i + 1][k'] + |small[i] - big[i + k']|.
    # From the first slot at or above small[i] on, that sum grows with k,
    # so only the slots below small[i] carry a running minimum.
    slack = len(big) - len(small)
    row = [0] * (slack + 1)
    rows = [row] * (len(small) + 1)  # rows[p] is final: nothing left to place
    for i in range(len(small) - 1, -1, -1):
        x = small[i]
        end = i + slack + 1
        mid = bisect_left(big, x, i, end)
        above = [h + y - x for h, y in zip(row[mid - i:], big[mid:end])]
        below = [h + x - y for h, y in zip(row, big[i:mid])]
        below.reverse()
        row = list(accumulate(below, min, initial=above[0] if above else None))
        row.reverse()
        row += above[1:]
        rows[i] = row
    # Forward pass: take slot i + k whenever that stays optimal, so the
    # earliest slot wins on ties; at the last slack value it is forced.
    choice = []
    k = 0
    for i, x in enumerate(small):
        taken, skipped = rows[i + 1], rows[i]
        while k < slack and taken[k] + abs(x - big[i + k]) > skipped[k + 1]:
            k += 1
        choice.append(i + k)
    return choice
