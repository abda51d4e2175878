"""Independent oracles used to cross-check the metrics and their kernels.

Everything in this module is deliberately naive: plain loops over lists,
exhaustive enumeration, exact integer arithmetic, and the 13a tokenizer
in its textbook one-regex-pass-per-rule form. Nothing here imports from
the package under test, nor numpy.
"""

import codecs
import math
import re
from fractions import Fraction
from itertools import combinations

# The 13a rules as one regex pass each, with template replacements: the
# mteval-v13a/sacreBLEU formulation that the package's tokenizer must
# reproduce token for token.
_SPLIT_CHARS_13A = " !\"#$%&'()*+/:;<=>?@[\\]^_`{|}~"
_SPLIT_RE_13A = re.compile("([" + re.escape(_SPLIT_CHARS_13A) + "])")
_NONDIGIT_PUNCT_RE_13A = re.compile(r"([^0-9])([\.,])")
_PUNCT_NONDIGIT_RE_13A = re.compile(r"([\.,])([^0-9])")
_DIGIT_DASH_RE_13A = re.compile(r"([0-9])(-)")


def ref_tokenize_13a(text, lowercase):
    """13a tokens of `text`, lowercased per token after splitting."""
    text = text.replace("\n", " ")
    text = text.replace("&quot;", '"')
    text = text.replace("&amp;", "&")
    text = text.replace("&lt;", "<")
    text = text.replace("&gt;", ">")
    text = " " + text + " "
    text = _SPLIT_RE_13A.sub(r" \1 ", text)
    text = _NONDIGIT_PUNCT_RE_13A.sub(r"\1 \2 ", text)
    text = _PUNCT_NONDIGIT_RE_13A.sub(r" \1 \2", text)
    text = _DIGIT_DASH_RE_13A.sub(r"\1 \2 ", text)
    tokens = text.split()
    if lowercase:
        tokens = [tok.lower() for tok in tokens]
    return tuple(tokens)


def bf_ngram_counts(tokens, n):
    """Count n-token windows by sliding a window and scanning a list."""
    grams = [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]
    return {g: grams.count(g) for g in grams}


def bf_clipped_counts(hyp_segments, ref_segments, n):
    """Corpus-level clipped match count and total hypothesis n-gram count."""
    correct = 0
    total = 0
    for hyp, ref in zip(hyp_segments, ref_segments):
        hyp_counts = bf_ngram_counts(hyp, n)
        ref_counts = bf_ngram_counts(ref, n)
        for gram, count in hyp_counts.items():
            correct += min(count, ref_counts.get(gram, 0))
            total += count
    return correct, total


def bf_lcs(a, b):
    """Longest common subsequence length via subsequence enumeration.

    Tries candidate lengths from min(len(a), len(b)) downwards, so it is
    exact for short sequences and terminates at the first length that
    admits a shared subsequence.
    """

    def is_subsequence(needle, haystack):
        it = iter(haystack)
        return all(tok in it for tok in needle)

    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    for length in range(len(short), 0, -1):
        for idxs in combinations(range(len(short)), length):
            if is_subsequence([short[i] for i in idxs], long_):
                return length
    return 0


def bf_best_matching(hyp, ref):
    """Enumerate every injective matching over equal tokens.

    Returns (max_cardinality, min_scaled_cost) where the cost of a pair
    (i, j) is |i * len(ref) - j * len(hyp)|, i.e. the normalized position
    difference |i/len(hyp) - j/len(ref)| put over the common denominator
    len(hyp) * len(ref) so the comparison stays exact in integers.
    """
    lh, lr = len(hyp), len(ref)
    best = [0, 0]  # cardinality, scaled cost

    def consider(card, cost):
        if card > best[0] or (card == best[0] and cost < best[1]):
            best[0], best[1] = card, cost

    def recurse(i, used_ref, card, cost):
        if i == lh:
            consider(card, cost)
            return
        recurse(i + 1, used_ref, card, cost)  # leave hyp[i] unmatched
        for j in range(lr):
            if j not in used_ref and hyp[i] == ref[j]:
                recurse(i + 1, used_ref | {j}, card + 1,
                        cost + abs(i * lr - j * lh))

    recurse(0, frozenset(), 0, 0)
    return best[0], best[1]


def scaled_matching_cost(pairs, hyp_len, ref_len):
    """Scaled cost of a concrete pair list, comparable to bf_best_matching."""
    return sum(abs(i * ref_len - j * hyp_len) for i, j in pairs)


def hlepor_components(pairs, lh, lr, params):
    """hLEPOR's (lp, npd, npos_penal, precision, recall, hpr, score) for an
    alignment `pairs` of 0-based (hyp, ref) positions, a hypothesis of `lh`
    tokens and a reference of `lr`, from Han et al. (2013)'s formulas:
    LP = exp(1 - r/c) if c < r, 1 if c == r, exp(1 - c/r) if c > r;
    NPD = (1/lh) sum |PD|, each PD taken over 1-based positions, exactly;
    NPosPenal = exp(-NPD); HPR = (alpha + beta) / (alpha/R + beta/P); and
    hLEPOR = (w_lp + w_npp + w_hpr) / (w_lp/LP + w_npp/NPosPenal + w_hpr/HPR).
    Two empty segments are a perfect match; a factor of 0 makes hLEPOR 0."""
    if lh == 0 and lr == 0:
        return (1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    if lh == 0 or lr == 0:
        lp = 0.0
    elif lh < lr:
        lp = math.exp(1 - lr / lh)
    elif lh > lr:
        lp = math.exp(1 - lh / lr)
    else:
        lp = 1.0
    npd = 0.0
    if pairs:
        npd = float(sum(abs(Fraction(i + 1, lh) - Fraction(j + 1, lr)) for i, j in pairs) / lh)
    npos_penal = math.exp(-npd)
    m = len(pairs)
    precision = m / lh if lh else 0.0
    recall = m / lr if lr else 0.0
    hpr = 0.0
    if m:
        hpr = (params.alpha + params.beta) / (params.alpha / recall + params.beta / precision)
    score = 0.0
    if lp and hpr:
        score = (params.w_lp + params.w_npp + params.w_hpr) / (
            params.w_lp / lp + params.w_npp / npos_penal + params.w_hpr / hpr)
    return (lp, npd, npos_penal, precision, recall, hpr, score)


def dp_lcs(a, b):
    """LCS length by the textbook two-row dynamic program.

    Polynomial, so it checks the kernel on sizes subsequence enumeration
    cannot reach.
    """
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def dp_ordered_selection(small, big):
    """Order-preserving min-cost assignment of every `small` value to a
    distinct `big` slot (both ascending), cost |small[i] - big[j]|.

    Suffix table h[i][j] = cheapest completion of small[i:] into big[j:];
    the forward pass takes slot j whenever that stays optimal, so among
    optimal assignments the earliest slots win. Returns the slot indices.
    """
    p, q = len(small), len(big)
    h = [[math.inf] * (q + 1) for _ in range(p)] + [[0] * (q + 1)]
    for i in range(p - 1, -1, -1):
        for j in range(q - 1, -1, -1):
            h[i][j] = min(h[i + 1][j + 1] + abs(small[i] - big[j]), h[i][j + 1])
    choice = []
    j = 0
    while len(choice) < p:
        i = len(choice)
        # h[i][j] stays finite on this path, so the two sides are never
        # both infinite and an infeasible move never wins.
        if h[i + 1][j + 1] + abs(small[i] - big[j]) <= h[i][j + 1]:
            choice.append(j)
        j += 1
    return choice


class UndecodableLine(ValueError):
    """Raised by ref_read_lines; ``args[0]`` is the 1-based line number."""


def ref_read_lines(data):
    """The lines of a UTF-8 file's bytes, decoded one line at a time.

    One leading byte-order mark and one trailing empty line are dropped, and
    trailing carriage returns are stripped from every line. The first line
    that does not decode raises UndecodableLine with its number.
    """
    chunks = data.removeprefix(codecs.BOM_UTF8).split(b"\n")
    if chunks and chunks[-1] == b"":
        chunks.pop()
    lines = []
    for number, chunk in enumerate(chunks, start=1):
        try:
            lines.append(chunk.decode("utf-8").rstrip("\r"))
        except UnicodeDecodeError:
            raise UndecodableLine(number) from None
    return lines


def ref_round_half_up(value, decimals):
    """`value` (as its shortest decimal repr) rounded to `decimals` places,
    halves away from zero, in exact rational arithmetic."""
    scale = 10 ** decimals
    steps = math.floor(abs(Fraction(repr(value))) * scale + Fraction(1, 2))
    return math.copysign(float(Fraction(steps, scale)), value)


def bf_winner_matrix(rows, decimals=None):
    """(winners, skipped, agreement, compared) of (system, task, metric,
    value) rows, recomputed task by task and metric by metric.

    A cell is decided only when every system has a value for it; the one
    largest value wins, and equal largest values give "TIE". Two metrics
    agree on a task when both cells are decided with the same winner.
    """
    systems = sorted({row[0] for row in rows})
    tasks = sorted({row[1] for row in rows})
    metrics = sorted({row[2] for row in rows})
    value = {
        (s, t, m): v if decimals is None else ref_round_half_up(v, decimals)
        for s, t, m, v in rows
    }
    winners = {}
    skipped = []
    for t in tasks:
        for m in metrics:
            present = [s for s in systems if (s, t, m) in value]
            if not present:
                continue
            if len(present) < len(systems):
                skipped.append((t, m))
                continue
            best = max(value[s, t, m] for s in systems)
            leaders = [s for s in systems if value[s, t, m] == best]
            winners[t, m] = leaders[0] if len(leaders) == 1 else "TIE"
    agreement = {}
    compared = {}
    for a, b in combinations(metrics, 2):
        shared = [t for t in tasks if (t, a) in winners and (t, b) in winners]
        if shared:
            agree = sum(1 for t in shared if winners[t, a] == winners[t, b])
            agreement[a, b] = agree / len(shared)
            compared[a, b] = len(shared)
    return winners, skipped, agreement, compared
