"""Built-in example documents with recorded expected verdicts.

The entries are the JSON files next to this module, named by their stems.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from ..documents import DocumentError, InputDocument, parse_document

_DIR = os.path.dirname(__file__)
ENTRIES = tuple(sorted(name[:-5] for name in os.listdir(_DIR) if name.endswith(".json")))


def load_raw(name: str) -> dict:
    if name not in ENTRIES:
        raise DocumentError(f"unknown corpus entry {name!r}; available: {', '.join(ENTRIES)}")
    with open(os.path.join(_DIR, name + ".json"), encoding="utf-8") as f:
        return json.load(f)


def load(name: str, truncation_override: Optional[int] = None) -> InputDocument:
    return parse_document(load_raw(name), name=name, truncation_override=truncation_override)
