"""Text normalization, tokenization, and n-gram extraction.

Every metric in the package consumes token sequences produced here, so the
rules are frozen and fixture-tested:

``13a``
    Language-independent punctuation splitting in the style of the WMT
    scoring scripts. In order: newlines become spaces; the four HTML
    entities ``&quot; &amp; &lt; &gt;`` are unescaped; every printable
    ASCII character that is not a letter, digit, period, comma, or dash is
    split off; a period or comma preceded by a non-digit is split off on
    both sides, and so is one followed by a non-digit; a dash is split off
    when preceded by a digit; finally whitespace runs collapse and the text
    is split on spaces. The split characters are padded with spaces by one
    ``str.replace`` each, skipped when the character is absent. The three
    digit-sensitive rules are one regex pass each, run only when the text
    holds a period or comma (a dash for the dash rule). Their matches do
    not overlap, as in mteval-v13a and sacreBLEU, so of two adjacent marks
    the second can stay attached: ``..0`` gives ``.`` and ``.0``.
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
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

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


@dataclass(frozen=True)
class TokenizerConfig:
    """Tokenization scheme plus casing; immutable so results reproduce."""

    scheme: str = "13a"
    lowercase: bool = True

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown tokenizer scheme {self.scheme!r}; expected one of {SCHEMES}"
            )

    @property
    def case_label(self) -> str:
        return "lc" if self.lowercase else "mixed"

    @property
    def scheme_label(self) -> str:
        return {"13a": "13a", "whitespace": "ws", "none": "none"}[self.scheme]


@dataclass(frozen=True)
class TokenSequence:
    """Ordered tokens of one segment plus the settings that produced them."""

    tokens: tuple[str, ...]
    config: TokenizerConfig

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens)

    def __getitem__(self, index):
        return self.tokens[index]


Tokens = Union[TokenSequence, Sequence[str]]


def as_tokens(seq: Tokens) -> tuple[str, ...]:
    """Accept a TokenSequence or any sequence of strings."""
    if isinstance(seq, TokenSequence):
        return seq.tokens
    return tuple(seq)


def _normalize_13a(text: str) -> str:
    text = text.replace("\n", " ")
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


def tokenize(text: str, config: TokenizerConfig | None = None) -> TokenSequence:
    """Tokenize one segment. Empty text yields an empty sequence."""
    if config is None:
        config = TokenizerConfig()
    if config.scheme == "13a":
        tokens = _normalize_13a(text).split()
    elif config.scheme == "whitespace":
        tokens = text.split()
    else:  # pre-tokenized
        tokens = [tok for tok in text.split(" ") if tok]
    if config.lowercase:
        tokens = [tok.lower() for tok in tokens]
    return TokenSequence(tuple(tokens), config)


@dataclass(frozen=True)
class NGramProfile:
    """Multiset of the contiguous n-token windows of one sequence."""

    order: int
    counts: Counter

    def total(self) -> int:
        return sum(self.counts.values())


def extract_ngrams(seq: Tokens, n: int) -> NGramProfile:
    """Count every contiguous n-token window of `seq`.

    Sequences shorter than `n` yield an empty profile; `n` must be >= 1.
    """
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    tokens = as_tokens(seq)
    if len(tokens) < n:  # common for short segments; skips building n copies
        return NGramProfile(n, Counter())
    # The i-th shifted copy supplies the i-th token of every window; zip
    # stops at the shortest, so exactly len(tokens) - n + 1 windows result.
    counts = Counter(zip(*[tokens[i:] for i in range(n)]))
    return NGramProfile(n, counts)
