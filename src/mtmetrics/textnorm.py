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
    is split on spaces. Each rule is one regex pass whose matches do not
    overlap, as in mteval-v13a and sacreBLEU, so of two adjacent marks the
    second can stay attached: ``..0`` gives ``.`` and ``.0``.
``whitespace``
    Split on whitespace runs only.
``none``
    The input is assumed pre-tokenized: split on single spaces.

Lowercasing, when configured, happens after splitting. Tokens are compared
by exact scalar-value equality everywhere; no unicode normalization is
applied, so callers who need NFC/NFKC must pre-normalize.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

SCHEMES = ("13a", "whitespace", "none")

# Printable ASCII minus letters, digits, period, comma, and dash. Period,
# comma, and dash have digit-sensitive rules of their own below.
_SPLIT_CHARS = " !\"#$%&'()*+/:;<=>?@[\\]^_`{|}~"
_SPLIT_RE = re.compile("([" + re.escape(_SPLIT_CHARS) + "])")
_NONDIGIT_PUNCT_RE = re.compile(r"([^0-9])([\.,])")
_PUNCT_NONDIGIT_RE = re.compile(r"([\.,])([^0-9])")
_DIGIT_DASH_RE = re.compile(r"([0-9])(-)")


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
    text = text.replace("&quot;", '"')
    text = text.replace("&amp;", "&")
    text = text.replace("&lt;", "<")
    text = text.replace("&gt;", ">")
    # Padding with spaces makes the string boundaries look like token
    # boundaries to the digit-sensitive rules.
    text = " " + text + " "
    text = _SPLIT_RE.sub(r" \1 ", text)
    text = _NONDIGIT_PUNCT_RE.sub(r"\1 \2 ", text)
    text = _PUNCT_NONDIGIT_RE.sub(r" \1 \2", text)
    text = _DIGIT_DASH_RE.sub(r"\1 \2 ", text)
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
    counts = Counter(tokens[i:i + n] for i in range(len(tokens) - n + 1))
    return NGramProfile(n, counts)
