"""JSON input documents for the CLI.

A document declares one ambient field (`conductor`), a shape (`dimension`,
`truncation`), and named generators: jets as per-coordinate lists of
{"coeff": <grammar string>, "monomial": [nat, ...]} in graded-lex order, or
Moebius maps as 2x2 matrices of grammar strings.  Corpus entries additionally
carry an `expected` block that `examples run` compares against.  The
conductor, dimension, truncation, monomial count and number of generators
have fixed upper limits; a larger document is a `DocumentError`, like any
other invalid input.

Parsing loads only what the document holds: this module imports `cyclo`,
`jetform` (the `GermJet` type) and `words` (for the witness words),
`mapform` (the `MoebiusMap` type) only when a document has
`moebius_generators`, and `groupkit` only when `presentation()` or
`closure()` is called.  The operations on jets and maps, in `jets` and
`moebius`, are loaded on their first use.  Without a bytecode cache every
line on the parse path is compiled at each start, so the jet documents of
the paper's examples parse without compiling any operation on jets, maps or
groups.  Report serialization is in `cli`.  None of these modules, nor `cli`,
imports `dataclasses` or `fractions`, and so neither `inspect` nor `decimal`
is loaded: the records are `NamedTuple`s or `__slots__` classes, exact
scalars are checked against `numbers.Rational`, and a `Fraction` is built
only where a caller asks for one.

Each distinct coefficient string is parsed once per document (the
documents of the paper's Examples 2.1-2.3 hold 14, 26 and 74 coefficient
strings, 4 distinct in each), and each distinct generator becomes one
`GermJet` (they list 6, 12 and 36 generators, 3 distinct in each).
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Any, Optional

from .cyclo import CycloField, CycloNum, field, parse_coefficient
from .jetform import GermJet
from .words import parse_word

if TYPE_CHECKING:
    from .groupkit import ClosureResult, GroupPresentation
    from .mapform import MoebiusMap


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


class InputDocument:
    """A parsed document, as `parse_document` returns it; `witnesses` maps a
    generator pair (i, j) to its word.  It builds its presentation once and
    caches its closure per cap, so the checks of one document share them."""

    __slots__ = ("conductor", "dimension", "truncation", "field", "generators",
                 "moebius_generators", "eigenvalues", "multiplier", "translations",
                 "witnesses", "expected", "name", "_presentation", "_closures")

    def __init__(
        self,
        conductor: int,
        dimension: int,
        truncation: int,
        field: CycloField,
        generators: tuple[tuple[str, GermJet], ...] = (),
        moebius_generators: tuple[tuple[str, MoebiusMap], ...] = (),
        eigenvalues: Optional[tuple[CycloNum, ...]] = None,
        multiplier: Optional[CycloNum] = None,
        translations: Optional[tuple[CycloNum, ...]] = None,
        witnesses: Optional[dict] = None,
        expected: Optional[dict] = None,
        name: str = "",
    ):
        self.conductor = conductor
        self.dimension = dimension
        self.truncation = truncation
        self.field = field
        self.generators = generators
        self.moebius_generators = moebius_generators
        self.eigenvalues = eigenvalues
        self.multiplier = multiplier
        self.translations = translations
        self.witnesses = {} if witnesses is None else witnesses
        self.expected = expected
        self.name = name
        self._presentation: Optional[GroupPresentation] = None
        self._closures: dict[int, ClosureResult] = {}

    def presentation(self) -> GroupPresentation:
        """The jet generators and witnesses as a `GroupPresentation`: one
        object, built on the first call, with the facts it memoizes."""
        if self._presentation is None:
            from .groupkit import GroupPresentation

            if not self.generators:
                raise DocumentError("document has no jet generators")
            self._presentation = GroupPresentation(self.generators, self.witnesses)
        return self._presentation

    def closure(self, cap: int) -> ClosureResult:
        """`closure_enumerate` of the presentation, run once per cap: the
        `closure` and `cyclic` checks of one document share it."""
        if cap not in self._closures:
            from .groupkit import closure_enumerate

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


def _parse_coeff(text: Any, fld: CycloField, path: str, memo: dict) -> CycloNum:
    """The coefficient at `path`; `memo` holds the document's strings parsed so far."""
    _expect(isinstance(text, str), path, f"coefficient must be a string, got {type(text).__name__}")
    value = memo.get(text)
    if value is None:
        try:
            value = memo[text] = parse_coefficient(text, fld)
        except ValueError as exc:
            raise DocumentError(f"{path}: {exc}") from exc
    return value


def parse_document(obj: Any, name: str = "", truncation_override: Optional[int] = None) -> InputDocument:
    """The document `obj`, a JSON text or its decoded object, checked and
    parsed; any invalid input raises `DocumentError` with its path.

    Each distinct coefficient string is parsed once, and generators with
    equal coefficients share one `GermJet`, with its determinant check and
    every fact it memoizes; so a singular one fails at its first listing.
    They are matched on the integer (key, num, den) triples: hashing a
    rational `CycloNum` would import `fractions`.
    """
    if isinstance(obj, (str, bytes)):
        try:
            obj = json.loads(obj)
        except RecursionError as exc:
            raise DocumentError("$: not valid JSON: nested too deeply to decode") from exc
        except ValueError as exc:  # also an integer literal above the str-to-int digit limit
            raise DocumentError(f"$: not valid JSON: {exc}") from exc
    _expect(isinstance(obj, dict), "$", "document must be a JSON object")
    _expect("conductor" in obj, "$", "missing 'conductor'")
    conductor = obj["conductor"]
    _expect(type(conductor) is int and conductor >= 1, "conductor", "must be a positive integer")
    _expect_at_most(conductor, MAX_CONDUCTOR, "conductor")
    fld = field(conductor)
    dimension = obj.get("dimension", 1)
    _expect(type(dimension) is int and dimension >= 1, "dimension", "must be a positive integer")
    _expect_at_most(dimension, MAX_DIMENSION, "dimension")
    truncation = truncation_override if truncation_override is not None else obj.get("truncation", 1)
    _expect(type(truncation) is int and truncation >= 1, "truncation", "must be a positive integer")
    _expect_at_most(truncation, MAX_TRUNCATION, "truncation")
    _expect_monomials(dimension, truncation, "truncation")

    memo: dict[str, CycloNum] = {}
    distinct: dict[frozenset, GermJet] = {}  # integer coefficients -> their one jet
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
                    and all(type(e) is int and e >= 0 for e in mono),
                    f"{tpath}.monomial",
                    f"must be a list of {dimension} naturals",
                )
                deg = sum(mono)
                _expect(1 <= deg <= truncation, f"{tpath}.monomial",
                        f"degree {deg} outside 1..{truncation}")
                key = (s, tuple(mono))
                _expect(key not in coeffs, tpath, f"duplicate monomial {mono} in coordinate {s}")
                coeffs[key] = _parse_coeff(term["coeff"], fld, f"{tpath}.coeff", memo)
        key = frozenset((k, c.num, c.den) for k, c in coeffs.items())
        jet = distinct.get(key)
        if jet is None:
            try:
                jet = distinct[key] = GermJet(dimension, truncation, fld, coeffs)
            except ValueError as exc:
                raise DocumentError(f"{path}: {exc}") from exc
        generators.append((gname, jet))

    moebius_generators = []
    for gi, gen in enumerate(_generator_list(obj, "moebius_generators")):
        from .mapform import MoebiusMap

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
            tuple(_parse_coeff(matrix[r][c], fld, f"{path}.matrix[{r}][{c}]", memo)
                  for c in range(2))
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
            _parse_coeff(e, fld, f"eigenvalues[{i}]", memo) for i, e in enumerate(ev)
        )

    multiplier = None
    if "multiplier" in obj:
        multiplier = _parse_coeff(obj["multiplier"], fld, "multiplier", memo)
    translations = None
    if "translations" in obj:
        tr = obj["translations"]
        _expect(isinstance(tr, list) and tr, "translations", "must be a nonempty list")
        translations = tuple(
            _parse_coeff(t, fld, f"translations[{i}]", memo) for i, t in enumerate(tr)
        )

    witnesses = {}
    gen_names = [n for n, _ in generators]
    witness_list = obj.get("witnesses", [])
    _expect(isinstance(witness_list, list), "witnesses", "must be a list")
    for wi, w in enumerate(witness_list):
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
