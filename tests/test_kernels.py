import heapq
import random
import time
import tracemalloc
from itertools import combinations

import pytest

from mtmetrics._kernels import lcs_length_codes, ordered_selection
from oracles import bf_best_matching, bf_lcs, dp_lcs, dp_ordered_selection


def random_codes(rng, max_len=12, vocab=4):
    return [rng.randrange(vocab) for _ in range(rng.randrange(max_len + 1))]


def test_lcs_matches_enumeration():
    rng = random.Random(13)
    for _ in range(200):
        a = random_codes(rng, max_len=8, vocab=3)
        b = random_codes(rng, max_len=8, vocab=3)
        assert lcs_length_codes(a, b) == bf_lcs(a, b)


def test_lcs_matches_reference_dp():
    rng = random.Random(11)
    for _ in range(300):
        vocab = rng.choice((2, 4, 12, 60))
        a = random_codes(rng, max_len=40, vocab=vocab)
        b = random_codes(rng, max_len=80, vocab=vocab)
        assert lcs_length_codes(a, b) == dp_lcs(a, b)
        assert lcs_length_codes(b, a) == dp_lcs(b, a)


def test_lcs_matches_reference_dp_at_word_boundaries():
    # The kernel keeps one bit per code of `b`; lengths around 64-bit word
    # boundaries and a long pair over a small alphabet stress the carries.
    rng = random.Random(29)
    lengths = (1, 63, 64, 65, 128)
    for m in lengths:
        for n in lengths:
            for vocab in (2, 5, 40):
                a = [rng.randrange(vocab) for _ in range(m)]
                b = [rng.randrange(vocab) for _ in range(n)]
                assert lcs_length_codes(a, b) == dp_lcs(a, b)
    same = [0] * 64
    assert lcs_length_codes(same, same) == 64
    a = [rng.randrange(3) for _ in range(300)]
    b = [rng.randrange(3) for _ in range(500)]
    assert lcs_length_codes(a, b) == dp_lcs(a, b)
    assert lcs_length_codes(b, a) == dp_lcs(b, a)


def selection_cost(small, big, choice):
    return sum(abs(small[i] - big[j]) for i, j in enumerate(choice))


def brute_force_selection(small, big):
    """Cheapest slot tuple; combinations() runs in lexicographic order, so
    on equal cost the earliest slots win."""
    best = None
    for idxs in combinations(range(len(big)), len(small)):
        cost = sum(abs(small[i] - big[j]) for i, j in enumerate(idxs))
        if best is None or cost < best[0]:
            best = (cost, list(idxs))
    return best


def random_ascending(rng, low, high, size):
    return sorted(rng.sample(range(low, high), size))


def scaled_positions(rng, p, q):
    """Ascending `small` (p) and `big` (q) codes as align() builds them:
    i * len(ref) against j * len(hyp), which makes equal-cost ties common."""
    lh, lr = rng.randint(p, 2 * q), rng.randint(q, 2 * q)
    small = [i * lr for i in sorted(rng.sample(range(lh), p))]
    big = [j * lh for j in sorted(rng.sample(range(lr), q))]
    return small, big


def test_selection_matches_reference_dp():
    rng = random.Random(17)
    for _ in range(300):
        q = rng.randint(1, 80)
        p = rng.randint(1, min(q, 40))
        small, big = scaled_positions(rng, p, q)
        assert ordered_selection(small, big) == dp_ordered_selection(small, big)


def test_selection_matches_reference_dp_at_band_edges():
    # p = 1 places one element, p = q - 1 leaves one slot free, and p = q
    # leaves none (every element takes the slot of its own index).
    rng = random.Random(31)
    for _ in range(100):
        q = rng.randint(2, 30)
        for p in (1, q - 1, q):
            small, big = scaled_positions(rng, p, q)
            assert ordered_selection(small, big) == dp_ordered_selection(small, big)
    assert ordered_selection([5], [5]) == [0]
    assert ordered_selection([0, 3, 9], [1, 2, 4]) == [0, 1, 2]


def test_selection_is_unchanged_by_a_shift_below_zero():
    # Only differences of values enter the cost, so the placeholder's
    # charge must not assume that the values are non-negative.
    rng = random.Random(53)
    for _ in range(200):
        q = rng.randint(1, 20)
        p = rng.randint(1, q)
        small, big = scaled_positions(rng, p, q)
        shift = rng.randint(1, 3 * max(small[-1], big[-1]) + 1)
        shifted = ordered_selection([v - shift for v in small], [v - shift for v in big])
        assert shifted == ordered_selection(small, big) == dp_ordered_selection(small, big)


def test_selection_matches_reference_dp_500_of_1000():
    # The size of the long repeated form in the benchmark's long-rep corpus.
    small, big = scaled_positions(random.Random(37), 500, 1000)
    assert ordered_selection(small, big) == dp_ordered_selection(small, big)


def test_selection_matches_reference_dp_on_every_small_pair():
    # Every pair of non-empty subsets of range(8) with |small| <= |big|:
    # 38,947 pairs, dense with equal-cost ties.
    subsets = [c for size in range(1, 9) for c in combinations(range(8), size)]
    pairs = 0
    for small in subsets:
        for big in subsets:
            if len(small) <= len(big):
                pairs += 1
                assert ordered_selection(small, big) == dp_ordered_selection(small, big)
    assert pairs == 38_947


def test_selection_memory_is_linear():
    # A p-row DP table of 1000 * 1001 cells takes about 23 MiB; the two
    # offer heaps and the use counts hold O(p + q) entries, well under 1 MiB.
    small, big = scaled_positions(random.Random(41), 1000, 2000)
    tracemalloc.start()
    try:
        ordered_selection(small, big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_selection_worst_case_is_near_linear():
    # 2000 of 4000 is four times the benchmark's long repeated form; a
    # banded DP fills 4 million cells here and takes about a second.
    small, big = scaled_positions(random.Random(43), 2000, 4000)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        ordered_selection(small, big)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.25


@pytest.mark.parametrize("p, q, seed", [(500, 1000, 40), (1000, 2000, 41), (2000, 4000, 43)])
def test_selection_heap_operations_are_linear(monkeypatch, p, q, seed):
    # The same bound as the timing test above, counted instead of timed, so
    # that a loaded host cannot fail it: each of the p + q steps pushes
    # exactly one offer and pops at most one.
    from mtmetrics import _kernels

    counts = {"push": 0, "pop": 0}

    def counting_push(heap, item):
        counts["push"] += 1
        heapq.heappush(heap, item)

    def counting_pop(heap):
        counts["pop"] += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(_kernels, "heappush", counting_push)
    monkeypatch.setattr(_kernels, "heappop", counting_pop)
    small, big = scaled_positions(random.Random(seed), p, q)
    assert len(ordered_selection(small, big)) == p
    assert counts["push"] == p + q
    assert counts["pop"] <= p + q


def test_align_is_unchanged_with_the_reference_selection(monkeypatch):
    from mtmetrics import _kernels
    from mtmetrics.hlepor import align

    rng = random.Random(47)
    forms = [f"w{k}" for k in range(40)]
    cases = [
        ([rng.choice(forms) for _ in range(rng.randint(50, 300))],
         [rng.choice(forms) for _ in range(rng.randint(50, 300))])
        for _ in range(30)
    ]
    # One form repeated 150 times against 300, among other forms.
    hyp = ["rep"] * 150 + [rng.choice(forms) for _ in range(50)]
    ref = ["rep"] * 300 + [rng.choice(forms) for _ in range(100)]
    rng.shuffle(hyp)
    rng.shuffle(ref)
    cases.append((hyp, ref))
    fast = [align(hyp, ref) for hyp, ref in cases]
    monkeypatch.setattr(_kernels, "ordered_selection", dp_ordered_selection)
    assert [align(hyp, ref) for hyp, ref in cases] == fast


def test_selection_is_minimal():
    rng = random.Random(19)
    for _ in range(200):
        q = rng.randint(1, 7)
        p = rng.randint(1, q)
        big = random_ascending(rng, 0, 40, q)
        small = random_ascending(rng, 0, 40, p)
        choice = ordered_selection(small, big)
        cost, earliest = brute_force_selection(small, big)
        assert sorted(set(choice)) == sorted(choice)
        assert selection_cost(small, big, choice) == cost
        assert choice == earliest


def test_selection_prefers_earliest_on_ties():
    assert ordered_selection([2], [0, 4]) == [0]
    assert dp_ordered_selection([2], [0, 4]) == [0]


def test_alignment_oracle_through_public_dispatch():
    # End-to-end: the selection kernel drives mtmetrics.align; compare
    # against the exhaustive matcher.
    from mtmetrics.hlepor import align
    from oracles import scaled_matching_cost

    rng = random.Random(23)
    vocab = "abcd"
    for _ in range(200):
        hyp = [rng.choice(vocab) for _ in range(rng.randrange(9))]
        ref = [rng.choice(vocab) for _ in range(rng.randrange(9))]
        result = align(hyp, ref)
        card, cost = bf_best_matching(hyp, ref)
        assert len(result) == card
        assert scaled_matching_cost(result, len(hyp), len(ref)) == cost
