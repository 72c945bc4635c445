"""Workloads, timed passes and the correctness gate of the germforge benchmark.

A pass runs every check of every document of a workload once, in one
process and one thread, with the CLI defaults (witness bound 6, closure cap
10 000).  Corpus documents go through `cli.run_corpus_entry`, exactly as
`germ-forge examples run ENTRY` does after start-up; conjugated documents go
through `documents.parse_document` and the public `groupkit` / `jets`
functions that the same checks call.  Outputs are verified after the pass
clock has stopped.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from germforge import cli, documents, groupkit, jets

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CORPUS_DIR = ROOT / "src" / "germforge" / "corpus"

WITNESS_BOUND = 6
CLOSURE_CAP = 10_000

WORKLOADS = {
    "witness-search": ("ex-2-1", "ex-2-2", "ex-2-3"),
    "closure-props": (
        "prop-5-1-1a",
        "prop-5-1-1b",
        "prop-5-1-2",
        "prop-5-1-2-abelian",
        "prop-5-1-3",
        "prop-5-1-4",
        "moebius-rotation-5",
        "moebius-inversion",
        "moebius-dilation",
    ),
    "conjugated-examples": ("ex-2-1", "ex-2-2", "ex-2-3"),
}
SEEDED = ("conjugated-examples",)


@dataclass
class Document:
    name: str
    text: str  # the JSON document, as a user would pass it to germ-forge
    expected: dict
    corpus: bool  # True: run through cli.run_corpus_entry


def corpus_documents(names) -> list[Document]:
    out = []
    for name in names:
        text = (CORPUS_DIR / f"{name}.json").read_text()
        out.append(Document(name, text, json.loads(text)["expected"], corpus=True))
    return out


def load_documents(workload: str, seed: int) -> list[Document]:
    if workload not in SEEDED:
        return corpus_documents(WORKLOADS[workload])
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "conjugate.py"), "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return [
        Document(raw["name"], json.dumps(raw), raw["expected"], corpus=False)
        for raw in json.loads(proc.stdout)
    ]


# ---------------------------------------------------------------------------
# one pass


@dataclass
class PassOutcome:
    seconds: float
    entry_seconds: dict  # document name -> seconds
    actuals: dict  # document name -> {check: payload} or the exception raised


def run_pass(docs: list[Document], tracer=None) -> PassOutcome:
    entry_seconds = {}
    actuals = {}
    clock = time.perf_counter
    begin = clock()
    for doc in docs:
        if tracer is not None:
            tracer.set_entry(doc.name)
        t0 = clock()
        try:
            if doc.corpus:
                report = cli.run_corpus_entry(doc.name, WITNESS_BOUND, CLOSURE_CAP, None)
                actual = {check: c["actual"] for check, c in report["checks"].items()}
            else:
                actual = _document_checks(doc, tracer)
        except Exception as exc:  # a raising check is a failed check, not a crash
            actual = exc
        entry_seconds[doc.name] = clock() - t0
        actuals[doc.name] = actual
    return PassOutcome(clock() - begin, entry_seconds, actuals)


def _document_checks(doc: Document, tracer) -> dict:
    """The expected-block checks of one document, as the CLI commands report them."""
    parsed = documents.parse_document(doc.text, name=doc.name)
    pres = parsed.presentation()
    out = {}
    for check, want in doc.expected.items():
        if tracer is not None:
            tracer.set_entry(doc.name, check)
        if check == "basic_set":
            out[check] = _basic_set_actual(pres)
        elif check == "order":
            result = jets.germ_order(groupkit.evaluate_word(pres, want["element"]))
            out[check] = {"element": want["element"], "kind": result.kind, "order": result.order}
        elif check == "linearize":
            out[check] = _linearize_actual(groupkit.linearize_group(pres))
        else:
            raise ValueError(f"{doc.name}: no conjugated-document runner for check {check!r}")
    return out


def _basic_set_actual(pres) -> dict:
    report = groupkit.check_basic_set(pres, WITNESS_BOUND)
    names = pres.names
    pairs = {}
    for (i, j), res in sorted(report.conjugacy.items()):
        entry = {"status": res.status}
        if res.word is not None:
            entry["word"] = res.word
        pairs[f"{names[i]},{names[j]}"] = entry
    return {
        "product_identity": report.product_is_identity,
        "verdict": report.verdict,
        "witnessed_pairs": sum(1 for r in report.conjugacy.values() if r.found),
        "pairs": pairs,
    }


def _linearize_actual(outcome) -> dict:
    if isinstance(outcome, groupkit.LinearizationSuccess):
        return {"outcome": "success", "group_order": outcome.group_order}
    out = {"outcome": "failure", "reason": outcome.reason}
    if outcome.eigenvalue_orders is not None:
        out["eigenvalue_orders"] = [
            o if o is not None else "not-a-root-of-unity" for o in outcome.eigenvalue_orders
        ]
    return out


# ---------------------------------------------------------------------------
# correctness gate


def expected_subset(expected, actual) -> bool:
    """The subset rule of `examples run`: every expected key and value is present."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and expected_subset(v, actual[k]) for k, v in expected.items()
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(expected) == len(actual)
            and all(expected_subset(e, a) for e, a in zip(expected, actual))
        )
    return expected == actual


@dataclass
class Verifier:
    """Checks pass outcomes against each document's `expected` block.

    Every reported witness word w for a pair (f_i, f_j) is re-checked with
    `groupkit.evaluate_word`: w o f_j must equal f_i o w.  Today's words are
    not pinned, since equivalent inputs may legitimately yield other words.
    """

    docs: list[Document]
    _presentations: dict = field(default_factory=dict)
    _witness_ok: dict = field(default_factory=dict)

    def verify(self, outcome: PassOutcome) -> tuple[int, list[str]]:
        """(checks attempted, one message per failed check)."""
        attempted = 0
        failures = []
        for doc in self.docs:
            attempted += len(doc.expected)
            actual = outcome.actuals.get(doc.name)
            if isinstance(actual, Exception) or actual is None:
                failures += [f"{doc.name}/{check}: raised {actual!r}" for check in doc.expected]
                continue
            for check, want in doc.expected.items():
                problem = self._check(doc, check, want, actual)
                if problem:
                    failures.append(f"{doc.name}/{check}: {problem}")
        return attempted, failures

    def _check(self, doc: Document, check: str, want, actual: dict) -> str:
        if check not in actual:
            return "check missing from the report"
        got = actual[check]
        if not expected_subset(want, got):
            return f"expected {json.dumps(want)}, got {json.dumps(got, default=str)[:300]}"
        if check == "basic_set":
            for pair, entry in got.get("pairs", {}).items():
                if entry.get("status") == "witness" and not self._witness_holds(
                    doc, pair, entry.get("word", "")
                ):
                    return f"witness {entry.get('word')!r} for {pair} does not conjugate"
        return ""

    def _witness_holds(self, doc: Document, pair: str, word: str) -> bool:
        key = (doc.name, pair, word)
        if key not in self._witness_ok:
            try:
                if doc.name not in self._presentations:
                    self._presentations[doc.name] = documents.parse_document(
                        doc.text, name=doc.name
                    ).presentation()
                pres = self._presentations[doc.name]
                gens = dict(pres.generators)
                name_i, name_j = pair.split(",")
                w = groupkit.evaluate_word(pres, word)
                ok = jets.compose(w, gens[name_j]) == jets.compose(gens[name_i], w)
            except Exception:
                ok = False
            self._witness_ok[key] = ok
        return self._witness_ok[key]
