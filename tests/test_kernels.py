import random
from itertools import combinations

import numpy as np

from mtmetrics._kernels import lcs_length_codes, ordered_selection
from oracles import bf_best_matching, bf_lcs, dp_lcs, dp_ordered_selection


def random_codes(rng, max_len=12, vocab=4):
    return np.array(
        [rng.randrange(vocab) for _ in range(rng.randrange(max_len + 1))],
        dtype=np.int64,
    )


def test_lcs_numpy_matches_enumeration():
    rng = random.Random(13)
    for _ in range(200):
        a = random_codes(rng, max_len=8, vocab=3)
        b = random_codes(rng, max_len=8, vocab=3)
        assert lcs_length_codes(a, b) == bf_lcs(list(a), list(b))


def test_lcs_matches_reference_dp():
    rng = random.Random(11)
    for _ in range(300):
        vocab = rng.choice((2, 4, 12, 60))
        a = random_codes(rng, max_len=40, vocab=vocab)
        b = random_codes(rng, max_len=80, vocab=vocab)
        assert lcs_length_codes(a, b) == dp_lcs(a.tolist(), b.tolist())
        assert lcs_length_codes(b, a) == dp_lcs(b.tolist(), a.tolist())


def test_lcs_matches_reference_dp_at_word_boundaries():
    # The kernel keeps one bit per code of `b`; lengths around 64-bit word
    # boundaries and a long pair over a small alphabet stress the carries.
    rng = random.Random(29)
    lengths = (1, 63, 64, 65, 128)
    for m in lengths:
        for n in lengths:
            for vocab in (2, 5, 40):
                a = np.array([rng.randrange(vocab) for _ in range(m)], dtype=np.int64)
                b = np.array([rng.randrange(vocab) for _ in range(n)], dtype=np.int64)
                assert lcs_length_codes(a, b) == dp_lcs(a.tolist(), b.tolist())
    same = np.zeros(64, dtype=np.int64)
    assert lcs_length_codes(same, same) == 64
    a = np.array([rng.randrange(3) for _ in range(300)], dtype=np.int64)
    b = np.array([rng.randrange(3) for _ in range(500)], dtype=np.int64)
    assert lcs_length_codes(a, b) == dp_lcs(a.tolist(), b.tolist())
    assert lcs_length_codes(b, a) == dp_lcs(b.tolist(), a.tolist())


def selection_cost(small, big, choice):
    return sum(abs(int(small[i]) - int(big[int(j)])) for i, j in enumerate(choice))


def brute_force_selection(small, big):
    """Cheapest slot tuple; combinations() runs in lexicographic order, so
    on equal cost the earliest slots win."""
    best = None
    for idxs in combinations(range(big.size), small.size):
        cost = sum(abs(int(small[i]) - int(big[j])) for i, j in enumerate(idxs))
        if best is None or cost < best[0]:
            best = (cost, list(idxs))
    return best


def random_ascending(rng, low, high, size):
    return np.array(sorted(rng.sample(range(low, high), size)), dtype=np.int64)


def test_selection_matches_reference_dp():
    rng = random.Random(17)
    for _ in range(300):
        q = rng.randint(1, 80)
        p = rng.randint(1, min(q, 40))
        # Scaled positions as align() builds them: i * len(ref) against
        # j * len(hyp), which makes equal-cost ties common.
        lh, lr = rng.randint(p, 2 * q), rng.randint(q, 2 * q)
        small = np.array(sorted(rng.sample(range(lh), p)), dtype=np.int64) * lr
        big = np.array(sorted(rng.sample(range(lr), q)), dtype=np.int64) * lh
        expected = dp_ordered_selection(small.tolist(), big.tolist())
        assert ordered_selection(small, big).tolist() == expected


def test_selection_is_minimal():
    rng = random.Random(19)
    for _ in range(200):
        q = rng.randint(1, 7)
        p = rng.randint(1, q)
        big = random_ascending(rng, 0, 40, q)
        small = random_ascending(rng, 0, 40, p)
        choice = ordered_selection(small, big)
        cost, earliest = brute_force_selection(small, big)
        assert sorted(set(int(c) for c in choice)) == sorted(int(c) for c in choice)
        assert selection_cost(small, big, choice) == cost
        assert choice.tolist() == earliest


def test_selection_prefers_earliest_on_ties():
    small = np.array([2], dtype=np.int64)
    big = np.array([0, 4], dtype=np.int64)
    assert ordered_selection(small, big).tolist() == [0]
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
        assert scaled_matching_cost(result.pairs, len(hyp), len(ref)) == cost
