"""Set-up cost every germ-forge call pays, measured in a fresh interpreter.

Reads a JSON list of document texts from stdin, then times `import germforge`
and `documents.parse_document` of every document.  Prints
{"import_s": ..., "parse_s": ...}.  Exits with 1 when the package does not
come from this checkout's `src/`.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    texts = json.load(sys.stdin)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import germforge
    from germforge.documents import parse_document

    t1 = time.perf_counter()
    for text in texts:
        parse_document(text)
    t2 = time.perf_counter()
    if not Path(germforge.__file__).resolve().is_relative_to(SRC):
        print(f"germforge imported from {germforge.__file__}, not {SRC}", file=sys.stderr)
        return 1
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
