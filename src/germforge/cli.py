"""Command-line front end: germ-forge <command> [flags] [file].

Commands dispatch to the library and emit a report in text or JSON form.
Closures are enumerated serially; `moebius-holonomy` honours `--witness-bound`
and `--closure-cap` like the jet commands.  Exit codes: 0 success (and, for
`examples run`, verdict matched), 1 verdict mismatch, 2 input error, 3 no
decision within the bounds or the field (closure cap, unresolved witnesses,
unresolved holonomy verdict).  Element orders are always decided exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Optional

from . import corpus
from .cyclo import format_coefficient
from .documents import (
    DocumentError,
    InputDocument,
    jet_payload,
    matrix_payload,
    parse_document,
)
from .groupkit import (
    AffineFamily,
    DEFAULT_CLOSURE_CAP,
    DEFAULT_WITNESS_BOUND,
    GroupPresentation,
    LinearizationSuccess,
    WordError,
    affine_conjugacy_decide,
    check_basic_set,
    closure_enumerate,
    evaluate_word,
    is_cyclic,
    linearize_group,
)
from .jets import germ_order
from .moebius import holonomy_check
from .resonance import enumerate_resonances, poincare_dulac_normalize

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3

WITNESS_BOUND_HELP = (
    "longest conjugacy witness word searched (default %(default)s); the word ball "
    "grows only until every generator pair is answered, and reaches this length "
    "only for a pair left unresolved"
)


# ---------------------------------------------------------------------------
# verdict payload builders (deterministic key order; all coefficients rendered
# through the same grammar the input uses)


def _basic_set_payload(doc: InputDocument, bound: int) -> dict:
    pres = doc.presentation()
    report = check_basic_set(pres, bound)
    names = pres.names
    pairs = {}
    for (i, j), res in sorted(report.conjugacy.items()):
        entry = {"status": res.status}
        if res.word is not None:
            entry["word"] = res.word
        if res.reason is not None:
            entry["reason"] = res.reason
        pairs[f"{names[i]},{names[j]}"] = entry
    payload = {
        "product_identity": report.product_is_identity,
        "verdict": report.verdict,
        "witnessed_pairs": sum(1 for r in report.conjugacy.values() if r.found),
        "pairs": pairs,
    }
    if not report.product_is_identity:
        payload["residual"] = jet_payload(report.residual)
    return payload


def _resonances_payload(doc: InputDocument, truncation: int) -> dict:
    if doc.eigenvalues is not None:
        eigenvalues = list(doc.eigenvalues)
    elif doc.generators:
        lin = doc.generators[0][1].linear_matrix()
        eigenvalues = [lin[i][i] for i in range(len(lin))]
    else:
        raise DocumentError("document provides neither eigenvalues nor generators")
    records = enumerate_resonances(eigenvalues, truncation)
    return {
        "eigenvalues": [format_coefficient(e) for e in eigenvalues],
        "truncation": truncation,
        "records": [{"coord": r.coord, "monomial": list(r.order)} for r in records],
    }


def _normalize_payload(doc: InputDocument, generator: Optional[str]) -> dict:
    pres = doc.presentation()
    if generator is None:
        if len(pres.generators) > 1:
            raise DocumentError("--generator NAME is required with several generators")
        generator = pres.names[0]
    if generator not in pres.names:
        raise DocumentError(f"unknown generator {generator!r}")
    jet = dict(pres.generators)[generator]
    result = poincare_dulac_normalize(jet)
    return {
        "generator": generator,
        "normal_form": jet_payload(result.normal_form),
        "conjugator": jet_payload(result.conjugator),
        "removed": [
            {"coord": s, "monomial": list(q), "coeff": format_coefficient(c)}
            for s, q, c in result.removed
        ],
    }


def _linearize_payload(doc: InputDocument) -> dict:
    outcome = linearize_group(doc.presentation())
    if isinstance(outcome, LinearizationSuccess):
        return {
            "outcome": "success",
            "group_order": outcome.group_order,
            "diagonal_generator": matrix_payload(outcome.diagonal_generator),
            "conjugator": jet_payload(outcome.conjugator),
        }
    payload: dict[str, Any] = {
        "outcome": "failure",
        "reason": outcome.reason,
        "detail": outcome.detail,
    }
    if outcome.degree is not None:
        payload["degree"] = outcome.degree
    if outcome.eigenvalue_orders is not None:
        payload["eigenvalue_orders"] = [
            o if o is not None else "not-a-root-of-unity" for o in outcome.eigenvalue_orders
        ]
    if outcome.offending:
        payload["offending"] = [
            {
                "generator": name,
                "coord": s,
                "monomial": list(q),
                "coeff": format_coefficient(c),
            }
            for name, s, q, c in outcome.offending
        ]
    return payload


def _closure_payload(doc: InputDocument, cap: int) -> dict:
    result = closure_enumerate(doc.presentation(), cap)
    payload = {"status": result.status, "count": result.count}
    if result.status == "closed" and result.count <= 64:
        payload["elements"] = [jet_payload(e) for e in result.elements]
    return payload


def _cyclic_payload(doc: InputDocument, cap: int) -> dict:
    result = closure_enumerate(doc.presentation(), cap)
    if result.status != "closed":
        return {"status": "cap-exceeded", "count": result.count}
    generator = is_cyclic(result.elements)
    payload = {"status": "closed", "count": result.count, "cyclic": generator is not None}
    if generator is not None:
        payload["generator"] = jet_payload(generator)
    return payload


def _order_payload(doc: InputDocument, element: str) -> dict:
    jet = evaluate_word(doc.presentation(), element)
    result = germ_order(jet)
    payload = {"element": element, "kind": result.kind}
    if result.order is not None:
        payload["order"] = result.order
    if result.certificate is not None:
        payload["certificate"] = result.certificate
    return payload


def _keylemma_payload(doc: InputDocument) -> dict:
    if doc.multiplier is None or doc.translations is None:
        raise DocumentError("keylemma needs 'multiplier' and 'translations'")
    family = AffineFamily(doc.multiplier, doc.translations)
    verdict, reason = affine_conjugacy_decide(family)
    return {
        "multiplier": format_coefficient(doc.multiplier),
        "translations": [format_coefficient(t) for t in doc.translations],
        "pairwise_conjugate": verdict,
        "reason": reason,
    }


def _holonomy_payload(doc: InputDocument, bound: int, cap: int, truncation: int) -> dict:
    if not doc.moebius_generators:
        raise DocumentError("document has no moebius_generators")
    gens = [m for _, m in doc.moebius_generators]
    verdict = holonomy_check(gens, word_bound=bound, order=max(truncation, 2), closure_cap=cap)
    payload: dict[str, Any] = {
        "finite_cyclic": verdict.finite_cyclic,
        "model": verdict.model,
    }
    if verdict.order is not None:
        payload["order"] = verdict.order
    if verdict.first_integral_exponent is not None:
        payload["first_integral_exponent"] = verdict.first_integral_exponent
    payload["detail"] = verdict.detail
    if verdict.certificate is not None:
        payload["certificate"] = verdict.certificate
    return payload


# ---------------------------------------------------------------------------
# corpus runner


def _expected_subset(expected: Any, actual: Any) -> bool:
    """Recursive subset comparison: every expected key/value must be present."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and _expected_subset(v, actual[k]) for k, v in expected.items()
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(expected) == len(actual)
            and all(_expected_subset(e, a) for e, a in zip(expected, actual))
        )
    return expected == actual


def run_corpus_entry(name: str, bound: int, cap: int, truncation: Optional[int]) -> dict:
    doc = corpus.load(name, truncation_override=truncation)
    expected = doc.expected or {}
    checks = {}
    for check, want in expected.items():
        if check == "basic_set":
            got = _basic_set_payload(doc, bound)
        elif check == "linearize":
            got = _linearize_payload(doc)
        elif check == "order":
            got = _order_payload(doc, want["element"])
        elif check == "closure":
            got = _closure_payload(doc, cap)
        elif check == "cyclic":
            got = _cyclic_payload(doc, cap).get("cyclic")
        elif check == "holonomy":
            got = _holonomy_payload(doc, bound, cap, doc.truncation or 3)
        else:
            raise DocumentError(f"unknown expected check {check!r} in corpus entry {name}")
        checks[check] = {
            "expected": want,
            "actual": got,
            "match": _expected_subset(want, got),
        }
    return {
        "entry": name,
        "matched": all(c["match"] for c in checks.values()),
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# rendering


def _render_text(value: Any, indent: int = 0, out=None) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:", file=out)
                _render_text(v, indent + 1, out)
            else:
                print(f"{pad}{k}: {v}", file=out)
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                _render_text(v, indent + 1, out)
            else:
                print(f"{pad}- {v}", file=out)
    else:
        print(f"{pad}{value}", file=out)


def emit_report(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        _render_text(report)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germ-forge",
        description="Exact computations with finitely generated groups of polynomial jet germs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="JSON input document")
        p.add_argument("--witness-bound", type=int, default=DEFAULT_WITNESS_BOUND,
                       help=WITNESS_BOUND_HELP)
        p.add_argument("--closure-cap", type=int, default=DEFAULT_CLOSURE_CAP)
        p.add_argument("--truncation", type=int, default=None, help="override document truncation")
        p.add_argument("--format", choices=("text", "json"), default="text")

    add_common(sub.add_parser("check-basic-set", help="verify the two basic-set conditions"))
    add_common(sub.add_parser("resonances", help="enumerate multiplicative resonances"))
    p = sub.add_parser("normalize", help="Poincare-Dulac normalization of one generator")
    add_common(p)
    p.add_argument("--generator", default=None, help="generator name to normalize")
    add_common(sub.add_parser("linearize", help="simultaneous linearization of the presentation"))
    add_common(sub.add_parser("closure", help="enumerate the generated subgroup"))
    p = sub.add_parser("order", help="order of a word in the generators")
    add_common(p)
    p.add_argument("--element", required=True, help="word such as 'f1^4*f5*f1'")
    add_common(sub.add_parser("keylemma", help="pairwise conjugacy in an affine family"))
    add_common(sub.add_parser("moebius-holonomy", help="finite-cyclic holonomy verdict"))

    p = sub.add_parser("examples", help="list or run the built-in corpus")
    p.add_argument("action", choices=("list", "run"))
    p.add_argument("entry", nargs="?", default=None)
    p.add_argument("--witness-bound", type=int, default=DEFAULT_WITNESS_BOUND,
                   help=WITNESS_BOUND_HELP)
    p.add_argument("--closure-cap", type=int, default=DEFAULT_CLOSURE_CAP)
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _load_file(path: str, truncation: Optional[int]) -> InputDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    return parse_document(text, name=path, truncation_override=truncation)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if args.command == "examples":
            if args.action == "list":
                verdict: Any = {"entries": list(corpus.list_entries())}
                exit_code = EXIT_OK
            else:
                if not args.entry:
                    raise DocumentError("examples run needs an entry name")
                try:
                    verdict = run_corpus_entry(
                        args.entry, args.witness_bound, args.closure_cap, args.truncation
                    )
                except KeyError as exc:
                    raise DocumentError(str(exc)) from exc
                exit_code = EXIT_OK if verdict["matched"] else EXIT_MISMATCH
            report = {
                "command": f"examples {args.action}" + (f" {args.entry}" if args.entry else ""),
                "verdict": verdict,
                "timing_ms": round((time.monotonic() - started) * 1000, 3),
            }
            emit_report(report, args.format)
            return exit_code

        doc = _load_file(args.file, args.truncation)
        truncation = args.truncation if args.truncation is not None else doc.truncation
        exit_code = EXIT_OK
        if args.command == "check-basic-set":
            verdict = _basic_set_payload(doc, args.witness_bound)
            if verdict["verdict"] == "condition-b-unresolved" and any(
                p["status"] == "unresolved" for p in verdict["pairs"].values()
            ):
                exit_code = EXIT_LIMIT
        elif args.command == "resonances":
            verdict = _resonances_payload(doc, truncation)
        elif args.command == "normalize":
            verdict = _normalize_payload(doc, args.generator)
        elif args.command == "linearize":
            verdict = _linearize_payload(doc)
        elif args.command == "closure":
            verdict = _closure_payload(doc, args.closure_cap)
            if verdict["status"] == "cap-exceeded":
                exit_code = EXIT_LIMIT
        elif args.command == "order":
            verdict = _order_payload(doc, args.element)
        elif args.command == "keylemma":
            verdict = _keylemma_payload(doc)
        elif args.command == "moebius-holonomy":
            verdict = _holonomy_payload(doc, args.witness_bound, args.closure_cap, truncation)
            if verdict["finite_cyclic"] == "unresolved":
                exit_code = EXIT_LIMIT
        else:  # pragma: no cover - argparse guards this
            raise DocumentError(f"unknown command {args.command}")
        report = {
            "command": args.command,
            "input": args.file,
            "verdict": verdict,
            "timing_ms": round((time.monotonic() - started) * 1000, 3),
        }
        emit_report(report, args.format)
        return exit_code
    except (DocumentError, WordError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
