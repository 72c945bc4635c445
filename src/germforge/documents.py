"""JSON input documents for the CLI.

A document declares one ambient field (`conductor`), a shape (`dimension`,
`truncation`), and named generators of one type: jets (key `generators`) as
per-coordinate lists of {"coeff": <grammar string>, "monomial": [nat, ...]}
in graded-lex order, or Moebius maps (key `moebius_generators`) as 2x2
matrices of grammar strings, not both.  Either list becomes the one
`generators` list of `InputDocument`, and so one `GroupPresentation`, which
every group check reads whatever the element type.  Corpus entries
additionally carry an `expected` block that `examples run` compares
against.  The conductor, dimension, truncation, monomial count and number
of generators have fixed upper limits; a larger document is a
`DocumentError`, like any other invalid input.

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
`GermJet` (they list 6, 12 and 36 generators, 3 distinct in each).  Each
distinct linear part takes one Faddeev-LeVerrier pass (one in each of those
documents), which decides its invertibility and gives every later linear
fact but the order; parsing divides by no field element.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Any, Optional

from .cyclo import CycloField, CycloNum, field, parse_coefficient
from .jetform import GermJet, _common_form
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
    """A parsed document, as `parse_document` returns it; `generators` lists
    its named jets or its named Moebius maps, never both, and `witnesses`
    maps a generator pair (i, j) to its word.  It builds its presentation
    once and caches its closure per cap, so the checks of one document share
    them."""

    __slots__ = ("conductor", "dimension", "truncation", "field", "generators",
                 "eigenvalues", "multiplier", "translations",
                 "witnesses", "expected", "name", "_presentation", "_closures")

    def __init__(self, conductor: int, dimension: int, truncation: int, field: CycloField,
                 generators: tuple[tuple[str, GermJet | MoebiusMap], ...] = (),
                 eigenvalues: Optional[tuple[CycloNum, ...]] = None,
                 multiplier: Optional[CycloNum] = None,
                 translations: Optional[tuple[CycloNum, ...]] = None,
                 witnesses: Optional[dict] = None, expected: Optional[dict] = None,
                 name: str = ""):
        self.conductor = conductor
        self.dimension = dimension
        self.truncation = truncation
        self.field = field
        self.generators = generators
        self.eigenvalues = eigenvalues
        self.multiplier = multiplier
        self.translations = translations
        self.witnesses = {} if witnesses is None else witnesses
        self.expected = expected
        self.name = name
        self._presentation: Optional[GroupPresentation] = None
        self._closures: dict[int, ClosureResult] = {}

    def presentation(self) -> GroupPresentation:
        """The generators, jets or Moebius maps, and the witnesses as a
        `GroupPresentation`: one object, built on the first call, with the
        facts it memoizes."""
        if self._presentation is None:
            from .groupkit import GroupPresentation

            if not self.generators:
                raise DocumentError("document has no generators")
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


def _term_error(gi: int, s: int, ti: int, suffix: str, message: str) -> DocumentError:
    return DocumentError(f"generators[{gi}].coords[{s}][{ti}]{suffix}: {message}")


def _generator_name(key: str, gi: int, gen: Any, names: set) -> str:
    """The name of `gen`, entry gi of list `key`, checked and added to `names`."""
    if not isinstance(gen, dict):
        raise DocumentError(f"{key}[{gi}]: must be an object")
    gname = gen.get("name")
    if not (isinstance(gname, str) and gname):
        raise DocumentError(f"{key}[{gi}].name: missing generator name")
    if gname in names:
        raise DocumentError(f"{key}[{gi}].name: duplicate name {gname!r}")
    names.add(gname)
    return gname


def _parse_coeff(text: Any, fld: CycloField, path: str, memo: dict) -> CycloNum:
    """The coefficient at `path`; `memo` holds the document's strings parsed so far."""
    if not isinstance(text, str):
        raise DocumentError(f"{path}: coefficient must be a string, got {type(text).__name__}")
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
    equal coefficients (equal entries, for Moebius maps) share one `GermJet`
    or `MoebiusMap`, and every fact it memoizes.  Distinct jets with equal
    linear parts share one `LinearPart`, and so its facts; the jets are built
    by `GermJet._trusted` from the terms checked here, and invertibility is
    checked once per `LinearPart`, on the constant term of its
    characteristic polynomial, so a singular one fails at its first listing.
    That Faddeev-LeVerrier pass divides by no field element, and the
    `LinearPart` keeps it: the conjugacy invariant and the inverse read it
    later.  The jets are matched on integer (num, den) pairs: hashing a
    rational `CycloNum` would import `fractions`.  A pair of generators takes
    at most one witness word.
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
    linear: dict = {}  # integer form of a linear part -> the one `LinearPart` its jets share
    generators = []
    names = set()
    # the checks of each generator, coordinate and term format their text only on failure
    for gi, gen in enumerate(_generator_list(obj, "generators")):
        gname = _generator_name("generators", gi, gen, names)
        coords = gen.get("coords")
        if not (isinstance(coords, list) and len(coords) == dimension):
            raise DocumentError(f"generators[{gi}].coords: must be a list of {dimension} "
                                "coordinate term lists")
        coeffs = {}
        for s, terms in enumerate(coords):
            if not isinstance(terms, list):
                raise DocumentError(f"generators[{gi}].coords[{s}]: must be a list of terms")
            for ti, term in enumerate(terms):
                if not (isinstance(term, dict) and "coeff" in term and "monomial" in term):
                    raise _term_error(gi, s, ti, "", "term must have 'coeff' and 'monomial'")
                mono = term["monomial"]
                if not (isinstance(mono, list) and len(mono) == dimension
                        and all(type(e) is int and e >= 0 for e in mono)):
                    raise _term_error(gi, s, ti, ".monomial",
                                      f"must be a list of {dimension} naturals")
                deg = sum(mono)
                if not 1 <= deg <= truncation:
                    raise _term_error(gi, s, ti, ".monomial",
                                      f"degree {deg} outside 1..{truncation}")
                key = (s, tuple(mono))
                if key in coeffs:
                    raise _term_error(gi, s, ti, "",
                                      f"duplicate monomial {mono} in coordinate {s}")
                text = term["coeff"]
                value = memo.get(text) if type(text) is str else None
                coeffs[key] = value if value is not None else _parse_coeff(
                    text, fld, f"generators[{gi}].coords[{s}][{ti}].coeff", memo)
        key = frozenset((k, c.num, c.den) for k, c in coeffs.items())
        jet = distinct.get(key)
        if jet is None:
            nonzero = {k: c for k, c in coeffs.items() if not c.is_zero()}
            den, nums = _common_form(nonzero.values())
            jet = distinct[key] = GermJet._trusted(dimension, truncation, fld, den,
                                                   dict(zip(nonzero, nums)))
            part = jet._linear_part()
            jet._lin = linear.setdefault(part.form, part)
            if jet._lin is part and part.char_poly()[0].is_zero():
                raise DocumentError(f"generators[{gi}]: linear part is not invertible")
        generators.append((gname, jet))

    maps: dict[tuple, MoebiusMap] = {}  # integer entries -> their one map
    moebius_list = _generator_list(obj, "moebius_generators")
    # a presentation holds elements of one type
    _expect(not (generators and moebius_list), "moebius_generators",
            "a document lists jets or Moebius maps, not both")
    for gi, gen in enumerate(moebius_list):
        from .mapform import MoebiusMap

        gname = _generator_name("moebius_generators", gi, gen, names)
        path = f"moebius_generators[{gi}]"
        matrix = gen.get("matrix")
        _expect(isinstance(matrix, list) and len(matrix) == 2
                and all(isinstance(r, list) and len(r) == 2 for r in matrix),
                f"{path}.matrix", "must be a 2x2 array of coefficient strings")
        entries = [_parse_coeff(matrix[r][c], fld, f"{path}.matrix[{r}][{c}]", memo)
                   for r in range(2) for c in range(2)]
        key = tuple((x.num, x.den) for x in entries)
        if key not in maps:
            try:
                maps[key] = MoebiusMap((entries[:2], entries[2:]))
            except ValueError as exc:
                raise DocumentError(f"{path}: {exc}") from exc
        generators.append((gname, maps[key]))

    eigenvalues = None
    if "eigenvalues" in obj:
        ev = obj["eigenvalues"]
        _expect(isinstance(ev, list) and ev, "eigenvalues", "must be a nonempty list")
        _expect(len(ev) <= MAX_DIMENSION, "eigenvalues",
                f"{len(ev)} eigenvalues exceed the dimension limit {MAX_DIMENSION}")
        _expect_monomials(len(ev), truncation, "eigenvalues")
        eigenvalues = tuple(_parse_coeff(e, fld, f"eigenvalues[{i}]", memo)
                            for i, e in enumerate(ev))

    multiplier = None
    if "multiplier" in obj:
        multiplier = _parse_coeff(obj["multiplier"], fld, "multiplier", memo)
    translations = None
    if "translations" in obj:
        tr = obj["translations"]
        _expect(isinstance(tr, list) and tr, "translations", "must be a nonempty list")
        translations = tuple(_parse_coeff(t, fld, f"translations[{i}]", memo)
                             for i, t in enumerate(tr))

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
        key = (gen_names.index(pair[0]), gen_names.index(pair[1]))
        # a second word for the pair would replace the first unverified
        _expect(key not in witnesses, f"{path}.pair", f"duplicate pair ({pair[0]}, {pair[1]})")
        witnesses[key] = w["word"]

    return InputDocument(
        conductor=conductor,
        dimension=dimension,
        truncation=truncation,
        field=fld,
        generators=tuple(generators),
        eigenvalues=eigenvalues,
        multiplier=multiplier,
        translations=translations,
        witnesses=witnesses,
        expected=obj.get("expected"),
        name=name or obj.get("name", ""),
    )
