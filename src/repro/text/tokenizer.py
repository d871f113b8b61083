"""Word tokenisation for news text.

The tokenizer is intentionally simple and deterministic: it lowercases,
splits on non-alphanumeric boundaries, keeps internal apostrophes and
hyphens ("o'brien", "mid-east"), and drops pure numbers shorter than a
configurable length (years like "1998" survive by default because they
carry topical signal in news).

Tokens are found on bytes. Only ``[a-z0-9'-]`` can be part of a token,
so one 256-byte table folds a text to its token bytes: ``A-Z`` become
``a-z``, ``[a-z0-9'-]`` stay, and every other byte becomes a space.
Non-ASCII text is lowercased before it is encoded, because some
characters lowercase to ASCII (U+212A KELVIN SIGN to ``k``); every byte
of a multi-byte UTF-8 character is then at least ``0x80`` and folds to
a space. :func:`surface_tokens` returns the ASCII ``bytes`` tokens;
:class:`Tokenizer` decodes them to ``str``.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Tuple

from .._validation import require_positive_int

#: A match starts and ends on ``[a-z0-9]``, so an apostrophe or hyphen
#: is only ever internal ("o'brien", "mid-east").
_TOKEN_RE = re.compile(rb"[a-z0-9]+(?:['\-][a-z0-9]+)*")


def _fold_table() -> bytes:
    table = bytearray(b" " * 256)
    for byte in b"abcdefghijklmnopqrstuvwxyz0123456789'-":
        table[byte] = byte
    for byte in b"ABCDEFGHIJKLMNOPQRSTUVWXYZ":
        table[byte] = byte + 32
    return bytes(table)


#: ``A-Z`` -> ``a-z``; ``[a-z0-9'-]`` kept; every other byte a space.
_FOLD = _fold_table()


def surface_tokens(text: str) -> List[bytes]:
    """Every candidate token of ``text`` in document order, lowercased,
    before the length and number rules, as ASCII ``bytes``.

    The tokens are those of ``[a-z0-9]+(?:['\\-][a-z0-9]+)*`` over
    ``text.lower()``: an apostrophe or hyphen joins two words only
    between them, and a non-ASCII character splits words.

    >>> surface_tokens("O'Brien's mid-East trip -- 'tis ab--cd x-")
    [b"o'brien's", b'mid-east', b'trip', b'tis', b'ab', b'cd', b'x']
    >>> surface_tokens("\\u212aelvin caf\\u00e9s")
    [b'kelvin', b'caf', b's']
    """
    if not isinstance(text, str):
        raise TypeError(f"text must be str, got {type(text).__name__}")
    if text.isascii():
        data = text.encode("ascii").translate(_FOLD)
    else:
        data = text.lower().encode("utf-8").translate(_FOLD)
    if b"'" in data or b"-" in data:
        return _TOKEN_RE.findall(data)
    return data.split()


class Tokenizer:
    """Configurable word tokenizer.

    Parameters
    ----------
    min_length:
        Tokens shorter than this are discarded (default 2).
    keep_numbers:
        When ``False``, tokens consisting solely of digits are dropped.
    min_number_length:
        When ``keep_numbers`` is true, all-digit tokens shorter than this
        are still dropped (defaults to 4, keeping years but not "12").
    """

    def __init__(
        self,
        min_length: int = 2,
        keep_numbers: bool = True,
        min_number_length: int = 4,
    ) -> None:
        self.min_length = require_positive_int("min_length", min_length)
        self.keep_numbers = bool(keep_numbers)
        self.min_number_length = require_positive_int(
            "min_number_length", min_number_length
        )

    @property
    def settings(self) -> Tuple[int, bool, int]:
        """``(min_length, keep_numbers, min_number_length)``."""
        return (self.min_length, self.keep_numbers, self.min_number_length)

    def keeps(self, token: str) -> bool:
        """Whether the length and number rules keep a surface token."""
        if len(token) < self.min_length:
            return False
        if token.isdigit():
            return self.keep_numbers and len(token) >= self.min_number_length
        return True

    def tokens(self, text: str) -> List[str]:
        """Return the list of tokens extracted from ``text``."""
        return list(self.iter_tokens(text))

    def iter_tokens(self, text: str) -> Iterator[str]:
        """Yield tokens from ``text`` lazily, in document order."""
        for surface in surface_tokens(text):
            token = surface.decode("ascii")
            if self.keeps(token):
                yield token

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tokenizer(min_length={self.min_length}, "
            f"keep_numbers={self.keep_numbers}, "
            f"min_number_length={self.min_number_length})"
        )


_DEFAULT_TOKENIZER = Tokenizer()


def tokenize(text: str) -> List[str]:
    """Tokenise ``text`` with the default :class:`Tokenizer` settings."""
    return _DEFAULT_TOKENIZER.tokens(text)
