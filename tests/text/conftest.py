"""Raw texts of generated streams, for the text front end's suites."""

from __future__ import annotations

from typing import Any, List, Optional

import pytest

from repro.corpus.repository import DocumentRepository
from repro.corpus.synthetic import SyntheticCorpusConfig, TDT2Generator

#: Texts whose tokens sit on every edge of the tokenizer's rules.
EDGE_TEXTS = [
    "",
    "   \t\n ",
    "'-x-'",
    "o'brien",
    "mid-east",
    "O'Brien's mid-East trip -- rock'n'roll, 'tis ab--cd x' 'y -z- q-",
    "a-1 1-a 3-4 12-345 1998's '98",
    "1998 12 007 2000s 7 42 123 1234 00 0",
    "The THE the, of OF; markets MARKETS rallied.",
    "Ünïcödé ÉCOLE straße İstanbul ǅemal Kelvin İ Σίσυφος",
    "café café naïve ＡＢＣ Ⅳ x²",
    "running runs ran runner sky skies ponies caresses relational",
    "a b c ab cd ef abc ab-cd a'b",
    "stock market crash stock market rally bank of england",
    "\u212aELVIN \u212a-9 o'\u212a \u0130stanbul-\u0130 stra\u00dfe-ss "
    "\u00c9cole'\u00c9 \u00c9T\u00c9 \u212a\u0130\u00df\u00c9",
]


class CapturingRepository(DocumentRepository):
    """Keeps each generated body instead of tokenizing it."""

    def __init__(self) -> None:
        super().__init__()
        self.texts: List[str] = []

    def add_text(self, doc_id: str, timestamp: float, text: str,  # type: ignore[override]
                 **_: Any) -> None:
        self.texts.append(text)


def generated_texts(seed: int, total: Optional[int] = None) -> List[str]:
    """The bodies of the TDT2-like stream ``seed``, in arrival order."""
    config = (SyntheticCorpusConfig(seed=seed) if total is None
              else SyntheticCorpusConfig(seed=seed, total_documents=total))
    repository = CapturingRepository()
    TDT2Generator(config).generate(repository=repository)
    return repository.texts


@pytest.fixture(scope="session")
def stream_texts() -> List[str]:
    """All 7,578 texts of the full-size seed-1998 stream."""
    return generated_texts(1998)
