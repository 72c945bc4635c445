"""Command-line front end: germ-forge <command> [flags] [file].

One table, `COMMANDS`, holds every command: its help text, the payload
builder that calls the library, the corpus `expected` check it answers, its
own options and the test that makes its verdict exit 3.  The parser, `main`
and the corpus runner all read that table, so a new command is one new row.
Every command takes `--witness-bound`, `--closure-cap`, `--truncation` and
`--format`; the first two have upper limits.  A document's generators are
jets or Moebius maps: `check-basic-set`, `closure`, `order` and the cyclic
check take either, `normalize` and `linearize` (and `resonances`, when it
reads a generator) take jets, and `moebius-holonomy` takes Moebius maps.
Exit codes: 0 success (and, for `examples run`, verdict matched), 1 verdict
mismatch, 2 input error, 3 no decision within the bounds (a closure that
reached the cap without proving the group finite or infinite, a basic set
with an unresolved pair and none disproved, an unresolved holonomy verdict).  Element orders and
the finiteness of a closure are decided exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable, NamedTuple, Optional

from . import corpus
from .cyclo import format_coefficient
from .documents import DocumentError, InputDocument, parse_document
from .groupkit import (
    AffineFamily,
    DEFAULT_CLOSURE_CAP,
    DEFAULT_WITNESS_BOUND,
    LinearizationSuccess,
    WordError,
    affine_conjugacy_decide,
    check_basic_set,
    evaluate_word,
    is_cyclic,
    linearize_group,
)
from .jets import GermJet
from .moebius import MoebiusMap, holonomy_check
from .resonance import _diagonal_eigenvalues, enumerate_resonances, poincare_dulac_normalize

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3

# Upper limits of --witness-bound and --closure-cap.  The witness ball of an
# infinite group grows faster the more distinct letters it has: about 2.2x per
# letter on the unipotent pair (x + y, y), (x, x + y) over Q (2.4 s at bound
# 11), about 3.2x on the five over Q [[1,1],[0,1]], [[1,0],[1,1]], [[2,-1],[1,0]],
# [[0,1],[-1,2]], [[1,2],[0,1]] (`check_basic_set`: 0.4 s at bound 6, 4.1 s at
# bound 8; 2-vCPU host, Python 3.11.7).  A closure holds every element it lists.
MAX_WITNESS_BOUND = 10
MAX_CLOSURE_CAP = 100_000

# ---------------------------------------------------------------------------
# verdict payload builders: each takes the document and the parsed options
# (deterministic key order; all coefficients rendered through the same
# grammar the input uses)


def jet_payload(jet: GermJet) -> list[list[dict]]:
    coords: list[list[dict]] = [[] for _ in range(jet.n)]
    for (s, q), c in jet.canonical_items():
        coords[s].append({"coeff": format_coefficient(c), "monomial": list(q)})
    return coords


def matrix_payload(matrix) -> list[list[str]]:
    return [[format_coefficient(c) for c in row] for row in matrix]


def _element_payload(x) -> list:
    """A group element: a jet's coordinates, or a Moebius map's matrix."""
    return jet_payload(x) if isinstance(x, GermJet) else matrix_payload(x.matrix)


def _presentation_of(doc: InputDocument, kind: type):
    """The document's presentation, when its generators are of type `kind`."""
    if not (doc.generators and isinstance(doc.generators[0][1], kind)):
        raise DocumentError("document has no jet generators" if kind is GermJet
                            else "document has no moebius_generators")
    return doc.presentation()


def _basic_set_payload(doc: InputDocument, opts: Any) -> dict:
    pres = doc.presentation()
    report = check_basic_set(pres, opts.witness_bound)
    names, slots = pres.names, report.slots
    entries: dict = {}  # one entry per pair of distinct generators, by slot pair
    pairs = {}
    witnessed = 0
    for (i, j), res in report.conjugacy.items():  # in (i, j) order
        witnessed += res.found
        key = slots[i], slots[j]
        entry = entries.get(key)
        if entry is None:
            entry = entries[key] = {"status": res.status}
            if res.word is not None:
                entry["word"] = res.word
            if res.reason is not None:
                entry["reason"] = res.reason
        pairs[f"{names[i]},{names[j]}"] = entry
    payload = {
        "product_identity": report.product_is_identity,
        "verdict": report.verdict,
        "witnessed_pairs": witnessed,
        "pairs": pairs,
    }
    if not report.product_is_identity:
        payload["residual"] = _element_payload(report.residual)
    return payload


def _resonances_payload(doc: InputDocument, opts: Any) -> dict:
    if doc.eigenvalues is not None:
        eigenvalues = list(doc.eigenvalues)
    elif doc.generators:
        eigenvalues = _diagonal_eigenvalues(_presentation_of(doc, GermJet).elements[0])
    else:
        raise DocumentError("document provides neither eigenvalues nor generators")
    records = enumerate_resonances(eigenvalues, doc.truncation)
    return {
        "eigenvalues": [format_coefficient(e) for e in eigenvalues],
        "truncation": doc.truncation,
        "records": [{"coord": r.coord, "monomial": list(r.order)} for r in records],
    }


def _normalize_payload(doc: InputDocument, opts: Any) -> dict:
    pres = _presentation_of(doc, GermJet)
    generator = opts.generator
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


def _linearize_payload(doc: InputDocument, opts: Any) -> dict:
    outcome = linearize_group(_presentation_of(doc, GermJet))
    if isinstance(outcome, LinearizationSuccess):
        return {
            "outcome": "success",
            "group_order": outcome.group_order,
            "diagonal_generator": matrix_payload(outcome.diagonal_generator),
            "conjugator": jet_payload(outcome.conjugator),
        }
    payload: dict[str, Any] = {"outcome": "failure", "reason": outcome.reason,
                               "detail": outcome.detail}
    if outcome.degree is not None:
        payload["degree"] = outcome.degree
    if outcome.eigenvalue_orders is not None:
        payload["eigenvalue_orders"] = [
            o if o is not None else "not-a-root-of-unity" for o in outcome.eigenvalue_orders
        ]
    if outcome.offending:
        payload["offending"] = [
            {"generator": name, "coord": s, "monomial": list(q), "coeff": format_coefficient(c)}
            for name, s, q, c in outcome.offending
        ]
    return payload


def _closure_payload(doc: InputDocument, opts: Any) -> dict:
    result = doc.closure(opts.closure_cap)
    payload = {"status": result.status, "count": result.count}
    if result.status == "infinite":
        payload["word"] = result.word
        payload["certificate"] = result.certificate
    if result.status == "closed" and result.count <= 64:
        payload["elements"] = [_element_payload(e) for e in result.elements]
    return payload


def _cyclic_payload(doc: InputDocument, opts: Any) -> Optional[bool]:
    """Whether the closure is cyclic; None when it is not a finite group listed
    within the closure cap."""
    result = doc.closure(opts.closure_cap)
    if result.status != "closed":
        return None
    return is_cyclic(result) is not None


def _order_payload(doc: InputDocument, opts: Any) -> dict:
    result = evaluate_word(doc.presentation(), opts.element).order()
    payload = {"element": opts.element, "kind": result.kind}
    if result.order is not None:
        payload["order"] = result.order
    if result.certificate is not None:
        payload["certificate"] = result.certificate
    return payload


def _keylemma_payload(doc: InputDocument, opts: Any) -> dict:
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


def _holonomy_payload(doc: InputDocument, opts: Any) -> dict:
    verdict = holonomy_check(_presentation_of(doc, MoebiusMap), opts.witness_bound)
    payload: dict[str, Any] = {"finite_cyclic": verdict.finite_cyclic, "model": verdict.model}
    if verdict.order is not None:
        payload["order"] = verdict.order
    if verdict.first_integral_exponent is not None:
        payload["first_integral_exponent"] = verdict.first_integral_exponent
    payload["detail"] = verdict.detail
    if verdict.certificate is not None:
        payload["certificate"] = verdict.certificate
    return payload


# ---------------------------------------------------------------------------
# the command table


class Command(NamedTuple):
    """One command: `name` is its subcommand (None for a corpus-only check),
    `check` the corpus `expected` key it answers (None for none), `options`
    its own (dest, argparse keywords) pairs, which a corpus check reads from
    its `expected` block, and `limited(verdict)` whether the verdict is a
    non-decision (exit 3)."""

    name: Optional[str]
    help: str
    build: Callable[[InputDocument, Any], Any]
    check: Optional[str] = None
    options: tuple = ()
    limited: Callable[[Any], bool] = lambda verdict: False


COMMANDS = (
    Command("check-basic-set", "verify the two basic-set conditions", _basic_set_payload,
            check="basic_set",
            limited=lambda v: v["verdict"] == "condition-b-unresolved"),
    Command("resonances", "enumerate multiplicative resonances", _resonances_payload),
    Command("normalize", "Poincare-Dulac normalization of one generator", _normalize_payload,
            options=(("generator", {"help": "generator name to normalize"}),)),
    Command("linearize", "simultaneous linearization of the presentation", _linearize_payload,
            check="linearize"),
    Command("closure", "decide finiteness of the generated subgroup", _closure_payload,
            check="closure",
            limited=lambda v: v["status"] == "cap-exceeded"),
    Command(None, "whether the generated subgroup is cyclic", _cyclic_payload, check="cyclic"),
    Command("order", "order of a word in the generators", _order_payload, check="order",
            options=(("element", {"required": True, "help": "word such as 'f1^4*f5*f1'"}),)),
    Command("keylemma", "pairwise conjugacy in an affine family", _keylemma_payload),
    Command("moebius-holonomy", "finite-cyclic holonomy verdict", _holonomy_payload,
            check="holonomy", limited=lambda v: v["finite_cyclic"] == "unresolved"),
)

_CHECKS = {c.check: c for c in COMMANDS if c.check is not None}


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
    checks = {}
    for check, want in (doc.expected or {}).items():
        if check not in _CHECKS:
            raise DocumentError(f"unknown expected check {check!r} in corpus entry {name}")
        command = _CHECKS[check]
        opts = argparse.Namespace(witness_bound=bound, closure_cap=cap,
                                  **{dest: want[dest] for dest, _ in command.options})
        got = command.build(doc, opts)
        checks[check] = {"expected": want, "actual": got, "match": _expected_subset(want, got)}
    return {
        "entry": name,
        "matched": all(c["match"] for c in checks.values()),
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# rendering


def _render_text(value: Any, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _render_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                _render_text(v, indent + 1)
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{value}")


# ---------------------------------------------------------------------------


def _int_between(low: int, high: int) -> Callable[[str], int]:
    """An argparse type: an integer from `low` to `high`."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germ-forge",
        description="Exact computations with finitely generated groups of polynomial jet germs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--witness-bound", type=_int_between(0, MAX_WITNESS_BOUND),
                        default=DEFAULT_WITNESS_BOUND,
                        help="longest conjugacy witness word searched (default %(default)s, at "
                        f"most {MAX_WITNESS_BOUND}); the word ball grows only until every "
                        "generator pair is answered, and reaches this length only for a pair "
                        "left unresolved")
    common.add_argument("--closure-cap", type=_int_between(1, MAX_CLOSURE_CAP),
                        default=DEFAULT_CLOSURE_CAP,
                        help="most elements a closure lists (default %(default)s, at most "
                        f"{MAX_CLOSURE_CAP}); it ends 'closed' (a finite group, listed), "
                        "'infinite' (the word of an element of infinite order, with a "
                        "certificate) or 'cap-exceeded' (neither shown within the cap)")
    common.add_argument("--truncation", type=int, default=None, help="override document truncation")
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        if command.name is not None:
            p = sub.add_parser(command.name, help=command.help, parents=[common])
            p.add_argument("file", help="JSON input document")
            for dest, kwargs in command.options:
                p.add_argument(f"--{dest}", **kwargs)
            p.set_defaults(row=command)
    p = sub.add_parser("examples", help="list or run the built-in corpus", parents=[common])
    p.add_argument("action", choices=("list", "run"))
    p.add_argument("entry", nargs="?", default=None)
    return parser


def _load_file(path: str, truncation: Optional[int]) -> InputDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    return parse_document(text, name=path, truncation_override=truncation)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        if args.command == "examples":
            if args.action == "list":
                verdict: Any = {"entries": list(corpus.ENTRIES)}
                exit_code = EXIT_OK
            else:
                if not args.entry:
                    raise DocumentError("examples run needs an entry name")
                verdict = run_corpus_entry(
                    args.entry, args.witness_bound, args.closure_cap, args.truncation
                )
                exit_code = EXIT_OK if verdict["matched"] else EXIT_MISMATCH
            report = {"command": " ".join(filter(None, ("examples", args.action, args.entry)))}
        else:
            verdict = args.row.build(_load_file(args.file, args.truncation), args)
            exit_code = EXIT_LIMIT if args.row.limited(verdict) else EXIT_OK
            report = {"command": args.command, "input": args.file}
        report["verdict"] = verdict
        report["timing_ms"] = round((time.monotonic() - started) * 1000, 3)
        if args.format == "json":
            print(json.dumps(report, indent=2))
        else:
            _render_text(report)
        return exit_code
    except (DocumentError, WordError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
