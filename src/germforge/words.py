"""The word grammar, shared without the group machinery.

A word is a product of generator names with integer exponents, such as
'f1^4*f5*f1'.  `documents` checks the witness words of a document with
`parse_word`, so parsing a document never loads `groupkit`.  This module
imports only `re` and `typing`.
"""

from __future__ import annotations

import re
from typing import Sequence

# Longest word, in letters (the sum of |exponent| over its factors), that
# `parse_word` accepts: far above every corpus word and every witness the
# default bound can find, and low enough that `evaluate_word` answers in well
# under a second, since the coefficients of a power grow with its exponent.
MAX_WORD_LETTERS = 1000


class WordError(ValueError):
    """Malformed word or unknown generator name."""


_WORD_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)(?:\s*\^\s*(-?[0-9]+))?\s*")


def parse_word(word: str) -> list[tuple[str, int]]:
    """Parse 'f1^4*f5*f1' into [(name, exponent), ...]; '' is the empty word.

    A word longer than MAX_WORD_LETTERS letters is a WordError.
    """
    if word.strip() == "":
        return []
    out = []
    for chunk in word.split("*"):
        m = _WORD_TOKEN.fullmatch(chunk)
        if not m:
            raise WordError(f"bad word factor {chunk!r}")
        out.append((m.group(1), int(m.group(2)) if m.group(2) else 1))
    letters = sum(abs(e) for _, e in out)
    if letters > MAX_WORD_LETTERS:
        raise WordError(f"word has {letters} letters, above the limit {MAX_WORD_LETTERS}")
    return out


def format_word(tokens: Sequence[tuple[str, int]]) -> str:
    merged: list[tuple[str, int]] = []
    for name, e in tokens:
        if merged and merged[-1][0] == name:
            merged[-1] = (name, merged[-1][1] + e)
            if merged[-1][1] == 0:
                merged.pop()
        else:
            merged.append((name, e))
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in merged)
