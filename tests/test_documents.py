import copy
import json

import pytest

from germforge import corpus, documents, jetform
from germforge.cyclo import CycloField, field, parse_coefficient
from germforge.documents import (
    MAX_CONDUCTOR,
    MAX_DIMENSION,
    MAX_GENERATORS,
    MAX_TRUNCATION,
    DocumentError,
    parse_document,
)
from germforge.jets import GermJet
from germforge.moebius import MoebiusMap


def term(coeff, monomial):
    return {"coeff": coeff, "monomial": monomial}


# (x + y^2, -y) and the identity over Q
VALID = {
    "conductor": 1,
    "dimension": 2,
    "truncation": 2,
    "generators": [
        {"name": "f", "coords": [[term("1", [1, 0]), term("1", [0, 2])], [term("-1", [0, 1])]]},
        {"name": "g", "coords": [[term("1", [1, 0])], [term("1", [0, 1])]]},
    ],
    # g is the identity, so it conjugates f to itself
    "witnesses": [{"pair": ["f", "f"], "word": "g"}],
}
# the inversion z -> 1/z over Q, listed twice: m conjugates it to itself
MOEBIUS = {
    "conductor": 1,
    "moebius_generators": [{"name": name, "matrix": [["0", "1"], ["1", "0"]]}
                           for name in ("m", "n")],
    "witnesses": [{"pair": ["m", "n"], "word": "m"}],
}


def test_valid_document_parses():
    doc = parse_document(VALID)
    assert [name for name, _ in doc.generators] == ["f", "g"]
    assert doc.witnesses == {(0, 0): "g"}
    assert doc.presentation().names == ["f", "g"]


def test_moebius_document_parses_into_the_one_generator_list():
    doc = parse_document(MOEBIUS)
    assert [name for name, _ in doc.generators] == ["m", "n"]
    assert not hasattr(doc, "moebius_generators")
    # witness words name the maps, as they name jets
    assert doc.witnesses == {(0, 1): "m"}
    pres = doc.presentation()
    assert pres.names == ["m", "n"] and pres.witnesses == {(0, 1): "m"}
    m, n = pres.elements
    assert isinstance(m, MoebiusMap) and m is n


def test_a_document_of_jets_and_maps_fails_at_parse():
    with pytest.raises(DocumentError) as info:
        parse_document({**VALID, "moebius_generators": MOEBIUS["moebius_generators"]})
    assert str(info.value) == "moebius_generators: a document lists jets or Moebius maps, not both"


def edited(path, value, base=VALID):
    """A copy of `base` with the value at `path` (keys and indices) replaced."""
    doc = copy.deepcopy(base)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is KeyError:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "doc, where",
    [
        ([1, 2], "$: document must be a JSON object"),
        (edited(["conductor"], KeyError), "$: missing 'conductor'"),
        (edited(["conductor"], 0), "conductor: must be a positive integer"),
        (edited(["generators", 0, "coords"], [[term("1", [1, 0])]]), "generators[0].coords:"),
        (edited(["generators", 0, "coords", 0, 1, "monomial"], [0, 3]),
         "generators[0].coords[0][1].monomial: degree 3 outside 1..2"),
        (edited(["generators", 0, "coords", 0, 1, "monomial"], [0, 0]),
         "generators[0].coords[0][1].monomial: degree 0 outside 1..2"),
        (edited(["generators", 0, "coords", 0, 1], term("2", [1, 0])),
         "generators[0].coords[0][1]: duplicate monomial [1, 0]"),
        (edited(["generators", 1, "name"], "f"), "generators[1].name: duplicate name 'f'"),
        (edited(["moebius_generators", 1, "name"], "m", MOEBIUS),
         "moebius_generators[1].name: duplicate name 'm'"),
        (edited(["generators", 0, "coords", 1, 0, "coeff"], "2*"),
         "generators[0].coords[1][0].coeff:"),
        (edited(["generators", 0, "coords", 1, 0, "coeff"], "1/0"),
         "generators[0].coords[1][0].coeff:"),
        (edited(["moebius_generators", 0, "matrix"], [["1", "0", "0"], ["0", "1", "0"]], MOEBIUS),
         "moebius_generators[0].matrix: must be a 2x2"),
        (edited(["moebius_generators", 0, "matrix"], [["1", "2"], ["2", "4"]], MOEBIUS),
         "moebius_generators[0]: matrix determinant is zero"),
        (edited(["generators", 0, "coords", 1, 0, "monomial"], [1, 0]),
         "generators[0]: linear part is not invertible"),
        (edited(["witnesses", 0, "pair"], ["f", "h"]), "witnesses[0].pair: must name two known"),
        (edited(["witnesses", 0, "word"], "f*h"), "witnesses[0].word: unknown generator 'h'"),
        (edited(["witnesses", 0, "word"], "g^100000"),
         "witnesses[0].word: word has 100000 letters, above the limit"),
        (edited(["witnesses"], 5), "witnesses: must be a list"),
        # JSON true is no integer, though Python's bool is an int
        (edited(["conductor"], True), "conductor: must be a positive integer"),
        (edited(["dimension"], True), "dimension: must be a positive integer"),
        (edited(["truncation"], True), "truncation: must be a positive integer"),
        (edited(["generators", 0, "coords", 1, 0, "monomial", 1], True),
         "generators[0].coords[1][0].monomial: must be a list of 2 naturals"),
        # the decoder itself fails: too deep for its recursion, and an integer
        # literal above Python's 4300-digit limit for str-to-int conversion
        ("[" * 100_000, "$: not valid JSON: nested too deeply"),
        ('{"conductor": 1' + "0" * 5000 + "}", "$: not valid JSON: Exceeds the limit"),
        (edited(["witnesses"], VALID["witnesses"] * 2), "witnesses[1].pair: duplicate pair (f, f)"),
    ],
)
def test_malformed_document_names_its_path(doc, where):
    with pytest.raises(DocumentError) as info:
        parse_document(doc)
    assert str(info.value).startswith(where)


COEFF = ["generators", 0, "coords", 0, 0, "coeff"]


@pytest.mark.parametrize(
    "doc, where",
    [
        (edited(COEFF, "\u0661"), "generators[0].coords[0][0].coeff:"),  # Arabic-Indic 1
        (edited(COEFF, "\u0663/\u0664"), "generators[0].coords[0][0].coeff:"),  # 3/4
        (edited(COEFF, "\uff11\uff12"), "generators[0].coords[0][0].coeff:"),  # fullwidth 12
        (edited(["witnesses", 0, "word"], "f^\u0664"), "witnesses[0].word:"),  # f^4
    ],
)
def test_only_ascii_digits_are_numbers(doc, where):
    with pytest.raises(DocumentError) as info:
        parse_document(doc)
    assert str(info.value).startswith(where)


def test_repeated_coefficient_strings_are_parsed_once(monkeypatch):
    """Every coefficient string is parsed once per document, and the jets
    equal ones whose coefficients were parsed one by one."""
    coords = [[("z", [1, 0]), ("1/2 - z^2", [2, 0]), ("z", [0, 2])],
              [("1/2 - z^2", [0, 1]), ("z", [1, 1])]]
    doc = {
        "conductor": 3, "dimension": 2, "truncation": 2,
        "generators": [
            {"name": name, "coords": [[term(c, m) for c, m in terms] for terms in coords]}
            for name in ("f", "g")
        ],
        "eigenvalues": ["z", "1/2 - z^2"],
    }
    calls = []
    monkeypatch.setattr(documents, "parse_coefficient",
                        lambda text, fld: calls.append(text) or parse_coefficient(text, fld))
    parsed = parse_document(doc)
    assert sorted(calls) == ["1/2 - z^2", "z"]
    fld = field(3)
    expected = GermJet(2, 2, fld, {(s, tuple(m)): parse_coefficient(c, fld)
                                   for s, terms in enumerate(coords) for c, m in terms})
    assert [jet for _, jet in parsed.generators] == [expected, expected]
    assert parsed.eigenvalues == (fld.zeta(), parse_coefficient("1/2 - z^2", fld))


def test_a_repeated_bad_coefficient_is_reported_at_its_first_path():
    doc = edited(["generators", 0, "coords", 1, 0, "coeff"], "2*")
    doc["generators"][1]["coords"][0][0]["coeff"] = "2*"
    with pytest.raises(DocumentError) as info:
        parse_document(doc)
    assert str(info.value).startswith("generators[0].coords[1][0].coeff:")


def test_equal_generators_share_one_jet():
    doc = corpus.load("ex-2-3")
    jets = [jet for _, jet in doc.generators]
    assert len(jets) == 36
    assert len({id(jet) for jet in jets}) == len(set(jets)) == 3


def test_equal_generators_written_in_another_term_order_share_one_jet():
    doc = copy.deepcopy(VALID)
    doc["generators"].append({"name": "h", "coords": [
        [term("1", [0, 2]), term("1", [1, 0])], [term("-1", [0, 1])]]})
    parsed = parse_document(doc)
    assert parsed.generators[2][1] is parsed.generators[0][1]


def test_a_repeated_singular_generator_fails_at_its_first_path():
    singular = {"name": "s", "coords": [[term("1", [1, 0])], [term("1", [1, 0])]]}
    doc = copy.deepcopy(VALID)
    doc["generators"] += [singular, {**singular, "name": "t"}]
    with pytest.raises(DocumentError) as info:
        parse_document(doc)
    assert str(info.value) == "generators[2]: linear part is not invertible"


@pytest.mark.parametrize("entry", ["ex-2-1", "ex-2-2", "ex-2-3"])
def test_distinct_generators_with_one_linear_part_share_one_holder(entry):
    """The three distinct generators of each of Examples 2.1-2.3 have one
    diagonal linear part, so they share one `LinearPart` and its facts."""
    distinct = set(jet for _, jet in corpus.load(entry).generators)
    assert len(distinct) == 3
    assert len({id(jet._lin) for jet in distinct}) == 1


@pytest.mark.parametrize("entry, checks", [
    ("ex-2-1", 1), ("ex-2-2", 1), ("ex-2-3", 1), ("prop-5-1-4", 4)])
def test_invertibility_is_checked_once_per_distinct_linear_part(monkeypatch, entry, checks):
    """Parsing takes one Faddeev-LeVerrier pass per `LinearPart` it shares,
    and keeps it there, and builds the jets the validating constructor builds
    from the same coefficients."""
    calls = []
    char_poly = jetform._char_poly
    monkeypatch.setattr(jetform, "_char_poly", lambda *args: calls.append(args) or char_poly(*args))
    doc = corpus.load(entry)
    parts = {id(jet._lin): jet._lin for _, jet in doc.generators}
    assert len(calls) == checks == len(parts)
    assert all(part._char_poly is not None for part in parts.values())
    for _, jet in doc.generators:
        assert jet == GermJet(jet.n, jet.K, jet.field, jet.coeffs)


@pytest.mark.parametrize("entry", [e for e in corpus.ENTRIES if not e.startswith("moebius")])
def test_parsing_a_jet_document_takes_no_norm(monkeypatch, entry):
    """Invertibility is read off the constant term of the characteristic
    polynomial, whose pass divides only by integers; the one division by a
    field element, for the inverse, waits for the first `inverse()`."""
    calls = []
    adjugate = CycloField._norm_adjugate
    monkeypatch.setattr(CycloField, "_norm_adjugate",
                        lambda fld, v: calls.append(v) or adjugate(fld, v))
    doc = corpus.load(entry)
    assert calls == []
    doc.generators[0][1].inverse()
    assert len(calls) == 1


def test_a_zero_coefficient_is_absent_from_the_parsed_jet():
    doc = copy.deepcopy(VALID)
    doc["generators"].append({"name": "h", "coords": [
        [term("1", [1, 0]), term("0", [1, 1]), term("1", [0, 2])], [term("-1", [0, 1])]]})
    f, h = (jet for name, jet in parse_document(doc).generators if name in "fh")
    assert h == f and (0, (1, 1)) not in h.nums


def test_distinct_linear_parts_have_their_own_holders():
    distinct = set(jet for _, jet in corpus.load("prop-5-1-4").generators)
    assert len({id(jet._lin) for jet in distinct}) == len(distinct) == 4


def test_two_parses_of_one_text_share_no_holder():
    """Holders are shared within one document only: no cache outlives a parse."""
    text = json.dumps(corpus.load_raw("ex-2-3"))
    first, second = parse_document(text), parse_document(text)
    holders = [{id(jet._lin) for _, jet in doc.generators} for doc in (first, second)]
    assert not holders[0] & holders[1]


def test_equal_moebius_generators_share_one_map():
    maps = [m for _, m in corpus.load("moebius-rotation-5").generators]
    assert len(maps) == 5 and all(m is maps[0] for m in maps)


def test_a_repeated_singular_moebius_generator_fails_at_its_first_path():
    singular = {"name": "s", "matrix": [["1", "2"], ["2", "4"]]}
    doc = copy.deepcopy(MOEBIUS)
    doc["moebius_generators"] += [singular, {**singular, "name": "t"}]
    with pytest.raises(DocumentError) as info:
        parse_document(doc)
    assert str(info.value) == "moebius_generators[2]: matrix determinant is zero"


def test_presentation_is_built_once():
    doc = parse_document(VALID)
    assert doc.presentation() is doc.presentation()


def oversized(**fields):
    return {"conductor": 1, **fields}


def negations(count):
    """`count` copies of z -> -z, or of the Moebius map with matrix -Id."""
    return [{"name": f"f{i}", "coords": [[term("-1", [1])]]} for i in range(count)]


def moebius_negations(count):
    return [{"name": f"m{i}", "matrix": [["-1", "0"], ["0", "-1"]]} for i in range(count)]


@pytest.mark.parametrize(
    "doc, where",
    [
        (oversized(conductor=MAX_CONDUCTOR + 1), f"conductor: {MAX_CONDUCTOR + 1} exceeds the limit"),
        (oversized(dimension=MAX_DIMENSION + 1), f"dimension: {MAX_DIMENSION + 1} exceeds the limit"),
        (oversized(truncation=MAX_TRUNCATION + 1), f"truncation: {MAX_TRUNCATION + 1} exceeds the limit"),
        # each within its own limit, but 3002 monomials of degree 1..8 in 6 variables
        (oversized(dimension=6, truncation=8), "truncation: dimension 6 and truncation 8 give 3002"),
        (oversized(eigenvalues=["1"] * (MAX_DIMENSION + 1)),
         f"eigenvalues: {MAX_DIMENSION + 1} eigenvalues exceed"),
        (oversized(truncation=8, eigenvalues=["1"] * 6), "eigenvalues: dimension 6 and truncation 8"),
        (oversized(generators=negations(MAX_GENERATORS + 1)),
         f"generators: {MAX_GENERATORS + 1} generators exceed the limit {MAX_GENERATORS}"),
        (oversized(moebius_generators=moebius_negations(MAX_GENERATORS + 1)),
         f"moebius_generators: {MAX_GENERATORS + 1} generators exceed the limit"),
        (oversized(generators={"f": []}), "generators: must be a list"),
    ],
)
def test_oversized_document_names_its_path(doc, where):
    with pytest.raises(DocumentError) as info:
        parse_document(doc)
    assert str(info.value).startswith(where)


def test_generator_count_at_the_limit_parses():
    jets = parse_document(oversized(generators=negations(MAX_GENERATORS)))
    maps = parse_document(oversized(moebius_generators=moebius_negations(MAX_GENERATORS)))
    assert len(jets.generators) == len(maps.generators) == MAX_GENERATORS


def test_truncation_override_is_bounded():
    with pytest.raises(DocumentError, match=f"^truncation: {MAX_TRUNCATION + 1} exceeds"):
        parse_document(VALID, truncation_override=MAX_TRUNCATION + 1)

