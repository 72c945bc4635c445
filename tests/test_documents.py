import copy

import pytest

from germforge import corpus, documents
from germforge.cyclo import field, parse_coefficient
from germforge.documents import (
    MAX_CONDUCTOR,
    MAX_DIMENSION,
    MAX_GENERATORS,
    MAX_TRUNCATION,
    DocumentError,
    parse_document,
)
from germforge.jets import GermJet


def term(coeff, monomial):
    return {"coeff": coeff, "monomial": monomial}


# (x + y^2, -y) over Q and the inversion z -> 1/z
VALID = {
    "conductor": 1,
    "dimension": 2,
    "truncation": 2,
    "generators": [
        {"name": "f", "coords": [[term("1", [1, 0]), term("1", [0, 2])], [term("-1", [0, 1])]]},
        {"name": "g", "coords": [[term("1", [1, 0])], [term("1", [0, 1])]]},
    ],
    "moebius_generators": [{"name": "m", "matrix": [["0", "1"], ["1", "0"]]}],
    # g is the identity, so it conjugates f to itself
    "witnesses": [{"pair": ["f", "f"], "word": "g"}],
}


def test_valid_document_parses():
    doc = parse_document(VALID)
    assert [name for name, _ in doc.generators] == ["f", "g"]
    assert doc.witnesses == {(0, 0): "g"}
    assert doc.presentation().names == ["f", "g"]


def edited(path, value):
    """A copy of VALID with the value at `path` (keys and indices) replaced."""
    doc = copy.deepcopy(VALID)
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
        (edited(["moebius_generators", 0, "name"], "g"),
         "moebius_generators[0].name: duplicate name"),
        (edited(["generators", 0, "coords", 1, 0, "coeff"], "2*"),
         "generators[0].coords[1][0].coeff:"),
        (edited(["generators", 0, "coords", 1, 0, "coeff"], "1/0"),
         "generators[0].coords[1][0].coeff:"),
        (edited(["moebius_generators", 0, "matrix"], [["1", "0", "0"], ["0", "1", "0"]]),
         "moebius_generators[0].matrix: must be a 2x2"),
        (edited(["moebius_generators", 0, "matrix"], [["1", "2"], ["2", "4"]]),
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
    doc = parse_document(oversized(generators=negations(MAX_GENERATORS),
                                   moebius_generators=moebius_negations(MAX_GENERATORS)))
    assert len(doc.generators) == len(doc.moebius_generators) == MAX_GENERATORS


def test_truncation_override_is_bounded():
    with pytest.raises(DocumentError, match=f"^truncation: {MAX_TRUNCATION + 1} exceeds"):
        parse_document(VALID, truncation_override=MAX_TRUNCATION + 1)

