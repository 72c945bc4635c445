"""Built-in example documents with recorded expected verdicts.

The entries are the package's JSON files, named by their stems.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Optional

from ..documents import DocumentError, InputDocument, parse_document

_FILES = resources.files("germforge.corpus")
ENTRIES = tuple(sorted(p.name[:-5] for p in _FILES.iterdir() if p.name.endswith(".json")))


def load_raw(name: str) -> dict:
    if name not in ENTRIES:
        raise DocumentError(f"unknown corpus entry {name!r}; available: {', '.join(ENTRIES)}")
    return json.loads(_FILES.joinpath(name + ".json").read_text())


def load(name: str, truncation_override: Optional[int] = None) -> InputDocument:
    return parse_document(load_raw(name), name=name, truncation_override=truncation_override)
