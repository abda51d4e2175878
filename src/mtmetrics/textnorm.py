"""Text normalization, tokenization, and n-gram extraction.

Every metric in the package consumes the tokens produced here, so the
rules are frozen and fixture-tested. Tokens are tuples of str, and every
metric function takes any sequence of str; ``extract_ngrams`` returns a
``Counter`` of n-token tuples.

``13a``
    Language-independent punctuation splitting in the style of the WMT
    scoring scripts. In order: the four HTML entities ``&quot; &amp; &lt;
    &gt;`` are unescaped; every printable ASCII character that is not a
    letter, digit, period, comma, or dash is split off; a period or comma
    preceded by a non-digit is split off on both sides, and so is one
    followed by a non-digit; a dash is split off when preceded by a digit;
    finally the text is split on whitespace runs. A newline is whitespace
    like a space in every rule, so it needs no step of its own. Each
    digit-sensitive rule is one regex pass. Its matches do not overlap, as
    in mteval-v13a and sacreBLEU, so of two adjacent marks the second can
    stay attached: ``..0`` gives ``.`` and ``.0``. Unlike those two, which
    leave the apostrophe out of the split class, ``'`` is split off
    (``don't`` gives ``don ' t``), so BLEU on text with apostrophes differs
    from sacreBLEU's ``13a``.
``whitespace``
    Split on whitespace runs only.
``none``
    The input is assumed pre-tokenized: split on single spaces.

Lowercasing, when configured, happens per token after splitting.
Lowercasing the text first would change tokens, because the Greek final
sigma depends on what follows it: ``ΟΔΟΣ'Α`` gives ``οδος``, not ``οδοσ``.
Tokens are compared by exact scalar-value equality everywhere; no unicode
normalization is applied, so callers who need NFC/NFKC must pre-normalize.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import NamedTuple, Sequence

from ._kernels import Codes
from .errors import _checked

SCHEMES = ("13a", "whitespace", "none")

# Printable ASCII minus letters, digits, period, comma, and dash. Period,
# comma, and dash have digit-sensitive rules of their own below. Space is
# left out: padding a space with spaces does not change the tokens.
_SPLIT_CHARS = "!\"#$%&'()*+/:;<=>?@[\\]^_`{|}~"
_SPLIT_PADDED = tuple((char, f" {char} ") for char in _SPLIT_CHARS)
_NONDIGIT_PUNCT_RE = re.compile(r"([^0-9])([\.,])")
_PUNCT_NONDIGIT_RE = re.compile(r"([\.,])([^0-9])")
_DIGIT_DASH_RE = re.compile(r"([0-9])(-)")


# Replacement functions for the digit-sensitive passes: the same strings as
# the templates r"\1 \2 " and r" \1 \2", without per-match template expansion.
def _space_after_both(match: re.Match) -> str:
    return match[1] + " " + match[2] + " "


def _space_before_both(match: re.Match) -> str:
    return " " + match[1] + " " + match[2]


@_checked
class TokenizerConfig(NamedTuple):
    """Tokenization scheme plus casing; immutable so results reproduce."""

    scheme: str = "13a"
    lowercase: bool = True

    def _check(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown tokenizer scheme {self.scheme!r}; expected one of {SCHEMES}"
            )
        if not isinstance(self.lowercase, bool):
            raise ValueError(f"lowercase must be a bool, got {self.lowercase!r}")


def _normalize_13a(text: str) -> str:
    if "&" in text:
        text = text.replace("&quot;", '"')
        text = text.replace("&amp;", "&")
        text = text.replace("&lt;", "<")
        text = text.replace("&gt;", ">")
    # Padding with spaces makes the string boundaries look like token
    # boundaries to the digit-sensitive rules.
    text = " " + text + " "
    for char, padded in _SPLIT_PADDED:
        if char in text:
            text = text.replace(char, padded)
    if "." in text or "," in text:
        text = _NONDIGIT_PUNCT_RE.sub(_space_after_both, text)
        text = _PUNCT_NONDIGIT_RE.sub(_space_before_both, text)
    if "-" in text:
        text = _DIGIT_DASH_RE.sub(_space_after_both, text)
    return text


def tokenize(text: str, config: TokenizerConfig = TokenizerConfig()) -> tuple[str, ...]:
    """Tokenize one segment into a tuple of str; empty text yields ()."""
    if config.scheme == "13a":
        tokens = _normalize_13a(text).split()
    elif config.scheme == "whitespace":
        tokens = text.split()
    else:  # pre-tokenized
        tokens = [tok for tok in text.split(" ") if tok]
    if config.lowercase:
        tokens = [tok.lower() for tok in tokens]
    return Codes(tokens)


def extract_ngrams(seq: Sequence[str], n: int) -> Counter:
    """Count every contiguous n-token window of `seq`.

    Sequences shorter than `n` yield an empty counter; `n` must be >= 1.
    """
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    if len(seq) < n:  # common for short segments; skips building n copies
        return Counter()
    # The i-th shifted copy supplies the i-th token of every window; zip
    # stops at the shortest, so exactly len(seq) - n + 1 windows result.
    return Counter(zip(*[seq[i:] for i in range(n)]))
