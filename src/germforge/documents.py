"""JSON input documents and report serialization for the CLI.

A document declares one ambient field (`conductor`), a shape (`dimension`,
`truncation`), and named generators: jets as per-coordinate lists of
{"coeff": <grammar string>, "monomial": [nat, ...]} in graded-lex order, or
Moebius maps as 2x2 matrices of grammar strings.  Corpus entries additionally
carry an `expected` block that `examples run` compares against.  The
conductor, dimension, truncation, monomial count and number of generators
have fixed upper limits; a larger document is a `DocumentError`, like any
other invalid input.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from typing import Any, Optional

from .cyclo import CycloField, CycloNum, field, format_coefficient, parse_coefficient
from .groupkit import ClosureResult, GroupPresentation, closure_enumerate, parse_word
from .jets import GermJet, grlex_key
from .moebius import MoebiusMap


class DocumentError(ValueError):
    """Invalid input document; the message carries the offending path."""


# Fixed size limits, far above every corpus entry: field arithmetic grows
# with the conductor's degree, and jet arithmetic with the number of
# monomials of degree 1..truncation in `dimension` variables; the basic-set
# check compares every pair of generators.
MAX_CONDUCTOR = 1000
MAX_DIMENSION = 8
MAX_TRUNCATION = 16
MAX_MONOMIALS = 1000
MAX_GENERATORS = 64


@dataclass
class InputDocument:
    conductor: int
    dimension: int
    truncation: int
    field: CycloField
    generators: tuple[tuple[str, GermJet], ...] = ()
    moebius_generators: tuple[tuple[str, MoebiusMap], ...] = ()
    eigenvalues: Optional[tuple[CycloNum, ...]] = None
    multiplier: Optional[CycloNum] = None
    translations: Optional[tuple[CycloNum, ...]] = None
    witnesses: dict = dc_field(default_factory=dict)
    expected: Optional[dict] = None
    name: str = ""
    _closures: dict = dc_field(default_factory=dict, repr=False, compare=False)

    def presentation(self) -> GroupPresentation:
        if not self.generators:
            raise DocumentError("document has no jet generators")
        return GroupPresentation(self.generators, dict(self.witnesses))

    def closure(self, cap: int) -> ClosureResult:
        """`closure_enumerate` of the presentation, run once per cap: the
        `closure` and `cyclic` checks of one document share it."""
        if cap not in self._closures:
            self._closures[cap] = closure_enumerate(self.presentation(), cap)
        return self._closures[cap]


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise DocumentError(f"{path}: {message}")


def _expect_at_most(value: int, limit: int, path: str) -> None:
    _expect(value <= limit, path, f"{value} exceeds the limit {limit}")


def _expect_monomials(dimension: int, truncation: int, path: str) -> None:
    count = math.comb(dimension + truncation, dimension) - 1  # degrees 1..truncation
    _expect(count <= MAX_MONOMIALS, path,
            f"dimension {dimension} and truncation {truncation} give {count} monomials "
            f"per coordinate, above the limit {MAX_MONOMIALS}")


def _generator_list(obj: dict, key: str) -> list:
    gens = obj.get(key, [])
    _expect(isinstance(gens, list), key, "must be a list")
    _expect(len(gens) <= MAX_GENERATORS, key,
            f"{len(gens)} generators exceed the limit {MAX_GENERATORS}")
    return gens


def _parse_coeff(text: Any, fld: CycloField, path: str) -> CycloNum:
    _expect(isinstance(text, str), path, f"coefficient must be a string, got {type(text).__name__}")
    try:
        return parse_coefficient(text, fld)
    except ValueError as exc:
        raise DocumentError(f"{path}: {exc}") from exc


def parse_document(obj: Any, name: str = "", truncation_override: Optional[int] = None) -> InputDocument:
    if isinstance(obj, (str, bytes)):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"not valid JSON: {exc}") from exc
    _expect(isinstance(obj, dict), "$", "document must be a JSON object")
    _expect("conductor" in obj, "$", "missing 'conductor'")
    conductor = obj["conductor"]
    _expect(isinstance(conductor, int) and conductor >= 1, "conductor", "must be a positive integer")
    _expect_at_most(conductor, MAX_CONDUCTOR, "conductor")
    fld = field(conductor)
    dimension = obj.get("dimension", 1)
    _expect(isinstance(dimension, int) and dimension >= 1, "dimension", "must be a positive integer")
    _expect_at_most(dimension, MAX_DIMENSION, "dimension")
    truncation = truncation_override if truncation_override is not None else obj.get("truncation", 1)
    _expect(isinstance(truncation, int) and truncation >= 1, "truncation", "must be a positive integer")
    _expect_at_most(truncation, MAX_TRUNCATION, "truncation")
    _expect_monomials(dimension, truncation, "truncation")

    generators = []
    names = set()
    for gi, gen in enumerate(_generator_list(obj, "generators")):
        path = f"generators[{gi}]"
        _expect(isinstance(gen, dict), path, "must be an object")
        gname = gen.get("name")
        _expect(isinstance(gname, str) and gname, f"{path}.name", "missing generator name")
        _expect(gname not in names, f"{path}.name", f"duplicate name {gname!r}")
        names.add(gname)
        coords = gen.get("coords")
        _expect(isinstance(coords, list) and len(coords) == dimension,
                f"{path}.coords", f"must be a list of {dimension} coordinate term lists")
        coeffs = {}
        for s, terms in enumerate(coords):
            _expect(isinstance(terms, list), f"{path}.coords[{s}]", "must be a list of terms")
            for ti, term in enumerate(terms):
                tpath = f"{path}.coords[{s}][{ti}]"
                _expect(isinstance(term, dict) and "coeff" in term and "monomial" in term,
                        tpath, "term must have 'coeff' and 'monomial'")
                mono = term["monomial"]
                _expect(
                    isinstance(mono, list)
                    and len(mono) == dimension
                    and all(isinstance(e, int) and e >= 0 for e in mono),
                    f"{tpath}.monomial",
                    f"must be a list of {dimension} naturals",
                )
                deg = sum(mono)
                _expect(1 <= deg <= truncation, f"{tpath}.monomial",
                        f"degree {deg} outside 1..{truncation}")
                key = (s, tuple(mono))
                _expect(key not in coeffs, tpath, f"duplicate monomial {mono} in coordinate {s}")
                coeffs[key] = _parse_coeff(term["coeff"], fld, f"{tpath}.coeff")
        try:
            jet = GermJet(dimension, truncation, fld, coeffs)
        except ValueError as exc:
            raise DocumentError(f"{path}: {exc}") from exc
        generators.append((gname, jet))

    moebius_generators = []
    for gi, gen in enumerate(_generator_list(obj, "moebius_generators")):
        path = f"moebius_generators[{gi}]"
        _expect(isinstance(gen, dict), path, "must be an object")
        gname = gen.get("name")
        _expect(isinstance(gname, str) and gname, f"{path}.name", "missing generator name")
        _expect(gname not in names, f"{path}.name", f"duplicate name {gname!r}")
        names.add(gname)
        matrix = gen.get("matrix")
        _expect(
            isinstance(matrix, list) and len(matrix) == 2
            and all(isinstance(r, list) and len(r) == 2 for r in matrix),
            f"{path}.matrix", "must be a 2x2 array of coefficient strings",
        )
        rows = tuple(
            tuple(_parse_coeff(matrix[r][c], fld, f"{path}.matrix[{r}][{c}]") for c in range(2))
            for r in range(2)
        )
        try:
            moebius_generators.append((gname, MoebiusMap(rows)))
        except ValueError as exc:
            raise DocumentError(f"{path}: {exc}") from exc

    eigenvalues = None
    if "eigenvalues" in obj:
        ev = obj["eigenvalues"]
        _expect(isinstance(ev, list) and ev, "eigenvalues", "must be a nonempty list")
        _expect(len(ev) <= MAX_DIMENSION, "eigenvalues",
                f"{len(ev)} eigenvalues exceed the dimension limit {MAX_DIMENSION}")
        _expect_monomials(len(ev), truncation, "eigenvalues")
        eigenvalues = tuple(
            _parse_coeff(e, fld, f"eigenvalues[{i}]") for i, e in enumerate(ev)
        )

    multiplier = None
    if "multiplier" in obj:
        multiplier = _parse_coeff(obj["multiplier"], fld, "multiplier")
    translations = None
    if "translations" in obj:
        tr = obj["translations"]
        _expect(isinstance(tr, list) and tr, "translations", "must be a nonempty list")
        translations = tuple(
            _parse_coeff(t, fld, f"translations[{i}]") for i, t in enumerate(tr)
        )

    witnesses = {}
    gen_names = [n for n, _ in generators]
    for wi, w in enumerate(obj.get("witnesses", [])):
        path = f"witnesses[{wi}]"
        _expect(isinstance(w, dict) and "pair" in w and "word" in w, path,
                "must be an object with 'pair' and 'word'")
        pair = w["pair"]
        _expect(isinstance(pair, list) and len(pair) == 2 and all(p in gen_names for p in pair),
                f"{path}.pair", "must name two known generators")
        _expect(isinstance(w["word"], str), f"{path}.word", "must be a string")
        try:
            tokens = parse_word(w["word"])
        except ValueError as exc:
            raise DocumentError(f"{path}.word: {exc}") from exc
        for wname, _ in tokens:
            _expect(wname in gen_names, f"{path}.word", f"unknown generator {wname!r}")
        witnesses[(gen_names.index(pair[0]), gen_names.index(pair[1]))] = w["word"]

    return InputDocument(
        conductor=conductor,
        dimension=dimension,
        truncation=truncation,
        field=fld,
        generators=tuple(generators),
        moebius_generators=tuple(moebius_generators),
        eigenvalues=eigenvalues,
        multiplier=multiplier,
        translations=translations,
        witnesses=witnesses,
        expected=obj.get("expected"),
        name=name or obj.get("name", ""),
    )


# ---------------------------------------------------------------------------
# serialization back to the document grammar


def jet_payload(jet: GermJet) -> list[list[dict]]:
    coords: list[list[dict]] = [[] for _ in range(jet.n)]
    for (s, q), c in jet.canonical_items():
        coords[s].append({"coeff": format_coefficient(c), "monomial": list(q)})
    return coords


def matrix_payload(matrix) -> list[list[str]]:
    return [[format_coefficient(c) for c in row] for row in matrix]
