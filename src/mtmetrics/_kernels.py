"""Kernels shared by the metrics, in plain Python.

``lcs_length_codes`` is bit-parallel (Allison & Dix 1986; Hyyrö 2004): one
big-int add/or update per symbol of ``a``, where a symbol is any hashable
value, such as a token. ``ordered_selection`` is an exact min-cost matching
on a line over integer positions, a greedy with two heaps of revisable
offers: O((p + q) log q) time and O(p + q) memory, with the earliest slots
winning ties. All arithmetic is integer, so results are exact. Plain-list
reference DPs for both live in ``tests/oracles.py``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Hashable, Sequence


class Codes(tuple):
    """The tuple that ``tokenize`` and ``align`` return and the kernels take,
    with the names the benchmark reads: ``tokens`` and ``pairs`` are the tuple
    itself, and ``size`` is its length."""

    __slots__ = ()
    size = property(len)
    tokens = pairs = property(lambda self: self)


def active_backend() -> str:
    """Name of the kernel implementation; plain Python is the only one."""
    return "python"


def lcs_length_codes(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """LCS length of two sequences of hashable symbols."""
    # After each symbol of `a`, bit j of v is 0 exactly where the LCS table
    # row steps up at column j of `b`, so the zero bits of v count the LCS.
    masks: dict[Hashable, int] = {}
    for j, symbol in enumerate(b):
        masks[symbol] = masks.get(symbol, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for symbol in a:
        u = v & masks.get(symbol, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def ordered_selection(small: Sequence[int], big: Sequence[int]) -> list[int]:
    """Min-cost order-preserving assignment of `small` into `big`.

    Requires 1 <= len(small) <= len(big) and both ascending. Returns, for
    each small element, the index of its assigned big element; on equal
    cost the earliest big slot wins.
    """
    # Pairing element x with slot j (value y) costs m * |x - y| + j, with
    # m = p * q + 1. The p used slot indices sum to less than m, so an
    # optimum of this cost minimizes sum |x - y| first and the slot sum
    # second. Optimal slot vectors are closed under componentwise min: per
    # element, the min and max of two ascending slot vectors are again
    # ascending and cost the same two amounts, so both are optimal. The
    # componentwise-least optimum thus has the strictly least slot sum: the
    # optimum is unique, and it is the earliest-slot answer. Any matching
    # onto its slots, sorted, costs no more (|x - y| is Monge), so the used
    # slots in ascending order are the answer.
    #
    # Walk the values, scaled by m, in ascending order, a slot before an
    # element of equal value, with two min-heaps of (charge, slot) offers
    # from the left: the "mice and holes" greedy with regret, exact for
    # matching on a line. Element x takes the cheapest slot offer v and pays
    # x + v; a free slot y offers j - y, and a placeholder far left never
    # runs out. Slot y takes the cheapest element offer t if it pays
    # y + j + t < 0. Each charge is the exact change in total cost, and each
    # acceptance leaves an offer that undoes it: element x offers later
    # slots -2x - v (x moves there and v is undone), and a slot that took t
    # offers later elements -2y - t (one takes the slot and t is undone).
    # The general greedy also lets a slot's element move on to a later
    # slot; here that never pays, as both |x - y| and j grow. Taking an
    # offer changes the use count of the one slot it carries, +1 for a slot
    # offer and -1 for an element offer; an accepting slot also counts
    # itself. Each step pushes one offer: O((p + q) log q) time, O(p + q)
    # memory. The greedy stays exact for any m > p * q and either order of
    # equal values, and the optimum is unique. No charge is 0, so `< 0` and
    # `<= 0` accept alike: modulo m a charge is j minus the index of the slot
    # it frees (p * q for the placeholder), two unequal numbers in [0, m).
    # No later offer carries a slot that accepted, so any nonzero step of its
    # count marks it. Only used[:q] is read.
    p, q = len(small), len(big)
    m = p * q + 1
    lo, hi = min(small[0], big[0]), max(small[-1], big[-1])
    # One element in the placeholder costs more than any full assignment
    # to real slots, each pair of which costs at most m * (hi - lo) + q - 1.
    slot_offers = [(p * (m * (hi - lo) + q) - m * lo, q)]
    element_offers: list[tuple[int, int]] = []
    used = [0] * (q + 1)  # used[q] counts the placeholder
    i = j = 0
    while i < p or j < q:
        if j < q and (i == p or big[j] <= small[i]):  # slot j is next
            y = big[j] * m
            if element_offers and element_offers[0][0] + y + j < 0:
                t, s = heappop(element_offers)
                used[j] += 1
                used[s] -= 1
                heappush(slot_offers, (-2 * y - t, s))
            else:
                heappush(slot_offers, (j - y, j))
            j += 1
        else:  # element i is next
            x = small[i] * m
            v, s = slot_offers[0]
            if s < q:
                heappop(slot_offers)
            used[s] += 1
            heappush(element_offers, (-v - 2 * x, s))
            i += 1
    return [j for j in range(q) if used[j]]
