import argparse
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from germforge import cli, corpus
from germforge.cyclo import field, parse_coefficient
from germforge.jetform import GermJet

CORPUS_DIR = Path(cli.__file__).resolve().parent / "corpus"
# `germ-forge examples run E --format json` of each corpus entry, without
# `timing_ms`; a change that means to alter a report rewrites its file
REPORTS_DIR = Path(__file__).resolve().parent / "corpus_reports"


def moebius_document(path: Path, matrices, conductor: int = 1, witnesses=()) -> str:
    """The maps named m1..mn; `witnesses` lists (pair, word) entries."""
    doc = {
        "name": path.stem,
        "conductor": conductor,
        "moebius_generators": [
            {"name": f"m{i + 1}", "matrix": [[str(x) for x in row] for row in m]}
            for i, m in enumerate(matrices)
        ],
        "witnesses": [{"pair": pair, "word": word} for pair, word in witnesses],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def jets_document(path: Path, conductor: int, truncation: int, generators) -> str:
    """Generators given as (name, coords) pairs; coords[s] lists the
    (coeff, monomial) terms of coordinate s."""
    doc = {
        "conductor": conductor,
        "dimension": len(generators[0][1]),
        "truncation": truncation,
        "generators": [{
            "name": name,
            "coords": [[{"coeff": c, "monomial": m} for c, m in terms] for terms in coords],
        } for name, coords in generators],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def jet_document(path: Path, conductor: int, truncation: int, coords) -> str:
    """One generator `f`, as in `jets_document`."""
    return jets_document(path, conductor, truncation, [("f", coords)])


S = [[0, 1], [1, 0]]
T = [[-1, 1], [0, 1]]
R3 = [[0, -1], [1, -1]]


@pytest.mark.parametrize("entry", corpus.ENTRIES)
def test_corpus_entry_matches(entry):
    assert cli.run_corpus_entry(entry, 6, 10_000, None)["matched"]


@pytest.mark.parametrize("entry", sorted({*corpus.ENTRIES, *(p.stem for p in REPORTS_DIR.glob("*.json"))}))
def test_corpus_report_is_the_committed_one(entry, capsys):
    assert cli.main(["examples", "run", entry, "--format", "json"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    del report["timing_ms"]
    committed = (REPORTS_DIR / f"{entry}.json").read_text(encoding="utf-8")
    assert json.dumps(report, indent=2) + "\n" == committed


@pytest.mark.parametrize("entry", corpus.ENTRIES)
def test_corpus_entry_leaves_no_reference_cycle(entry):
    """Memoized facts point one way (a jet to its inverse, a presentation to
    its product), so a run leaves nothing for the cycle collector."""
    gc.collect()
    gc.disable()
    try:
        report = cli.run_corpus_entry(entry, cli.DEFAULT_WITNESS_BOUND, cli.DEFAULT_CLOSURE_CAP, None)
        assert report["matched"]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_examples_run_exits_0(capsys):
    assert cli.main(["examples", "run", "prop-5-1-2", "--format", "json"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"]["matched"]


def test_malformed_document_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"conductor": 1, "generators": [')
    assert cli.main(["closure", str(bad)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error:")


def test_too_deeply_nested_document_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert cli.main(["closure", str(deep)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: $: not valid JSON: nested too deeply")


def test_witnesses_that_are_not_a_list_exit_2(tmp_path, capsys):
    doc = json.loads((CORPUS_DIR / "prop-5-1-2.json").read_text())
    doc["witnesses"] = 5
    path = tmp_path / "witnesses.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check-basic-set", str(path)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: witnesses: must be a list")


def ex21_with_witnesses(tmp_path, witnesses) -> str:
    """ex-2-1 with only the given witnesses and no `expected` block."""
    doc = json.loads((CORPUS_DIR / "ex-2-1.json").read_text())
    del doc["expected"]
    doc["witnesses"] = [{"pair": pair, "word": word} for pair, word in witnesses]
    path = tmp_path / "ex.json"
    path.write_text(json.dumps(doc))
    return str(path)


# singular linear parts over Q and Q(zeta_5) whose first pivot is zero, so
# that elimination would swap rows: the last row is a combination of the others
SINGULAR = [
    (1, [["0", "1", "2"], ["1", "0", "3"], ["2", "1", "8"]]),
    (5, [["0", "1", "z"], ["z", "0", "1"], ["z", "z", "z^2+1"]]),
    (1, [["0", "1", "2", "0"], ["0", "0", "1", "1"], ["1", "0", "0", "1"], ["1", "1", "3", "2"]]),
    (5, [["0", "1", "z", "0"], ["0", "0", "1", "z"], ["z", "0", "0", "1"],
         ["z^3", "z", "z^2+1", "z+z^2"]]),
]


@pytest.mark.parametrize("conductor, rows", SINGULAR)
def test_singular_linear_part_exits_2(tmp_path, capsys, conductor, rows):
    n = len(rows)
    coords = [[(c, [int(i == j) for j in range(n)]) for i, c in enumerate(row) if c != "0"]
              for row in rows]
    coords[0].append(("1", [2] + [0] * (n - 1)))
    path = jet_document(tmp_path / "f.json", conductor, 2, coords)
    assert cli.main(["check-basic-set", path]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: generators[0]: linear part is not invertible\n"
    fld = field(conductor)
    coeffs = {(s, tuple(m)): parse_coefficient(c, fld)
              for s, terms in enumerate(coords) for c, m in terms}
    with pytest.raises(ValueError, match="^linear part is not invertible$"):
        GermJet(n, 2, fld, coeffs)


@pytest.mark.parametrize("pair", [["f1", "f5"], ["f2", "f5"], ["f5", "f1"]])
def test_wrong_supplied_witness_exits_2_on_any_pair(tmp_path, capsys, pair):
    # f2 equals f1, so (f2, f5) is not the first pair naming its elements, and
    # check-basic-set lists no pair (i, j) with i > j; f6^3 conjugates none of them
    path = ex21_with_witnesses(tmp_path, [(pair, "f6^3")])
    assert cli.main(["check-basic-set", path]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: supplied witness 'f6^3' fails for pair ({pair[0]}, {pair[1]})\n")


def test_repeated_witness_pair_exits_2(tmp_path, capsys):
    # a second word for (f1, f5) used to replace the wrong first one unread
    corpus_witnesses = [(w["pair"], w["word"])
                        for w in json.loads((CORPUS_DIR / "ex-2-1.json").read_text())["witnesses"]]
    path = ex21_with_witnesses(tmp_path, [(["f1", "f5"], "f6"), *corpus_witnesses])
    assert cli.main(["check-basic-set", path]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: witnesses[1].pair: duplicate pair (f1, f5)\n"


def test_witness_supplied_on_a_later_pair_answers_its_elements(tmp_path, capsys):
    # the corpus witness of (f1, f5), given on (f2, f5) alone: both pairs name
    # the same elements and take it, where a search finds a shorter word
    path = ex21_with_witnesses(tmp_path, [(["f2", "f5"], "f1^4*f5*f1")])
    assert cli.main(["check-basic-set", path, "--format", "json"]) == cli.EXIT_OK
    pairs = json.loads(capsys.readouterr().out)["verdict"]["pairs"]
    assert pairs["f1,f5"] == pairs["f2,f5"] == {"status": "witness", "word": "f1^4*f5*f1"}


def test_closure_cap_exceeded_exits_3(capsys):
    path = str(CORPUS_DIR / "prop-5-1-2-abelian.json")
    assert cli.main(["closure", path, "--closure-cap", "10", "--format", "json"]) == cli.EXIT_LIMIT
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert verdict == {"status": "cap-exceeded", "count": 11}


def test_infinite_closure_exits_0_with_its_word(capsys):
    path = str(CORPUS_DIR / "prop-5-1-3.json")
    started = time.monotonic()
    assert cli.main(["closure", path, "--format", "json"]) == cli.EXIT_OK
    assert time.monotonic() - started < 0.5
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert (verdict["status"], verdict["word"]) == ("infinite", "B*C")
    assert "19/8" in verdict["certificate"]


def test_closure_and_cyclic_checks_share_one_enumeration(monkeypatch):
    from germforge import groupkit

    calls = []
    original = groupkit.closure_enumerate
    monkeypatch.setattr(groupkit, "closure_enumerate",
                        lambda *args: calls.append(args) or original(*args))
    report = cli.run_corpus_entry("prop-5-1-2-abelian", 6, 10_000, None)
    assert report["matched"] and {"closure", "cyclic"} <= report["checks"].keys()
    assert len(calls) == 1


def test_workers_option_is_gone(capsys):
    path = str(CORPUS_DIR / "prop-5-1-2.json")
    with pytest.raises(SystemExit):
        cli.main(["closure", path, "--workers", "2"])


def _holonomy(argv, capsys):
    code = cli.main(["moebius-holonomy", *argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)["verdict"]


def test_holonomy_exhausted_search_exits_3(tmp_path, capsys):
    path = moebius_document(tmp_path / "s3.json", [S, S, T, T])
    code, verdict = _holonomy([path, "--witness-bound", "0"], capsys)
    assert code == cli.EXIT_LIMIT
    assert verdict["finite_cyclic"] == "unresolved"
    code, verdict = _holonomy([path, "--witness-bound", "6"], capsys)
    assert code == cli.EXIT_OK
    assert verdict["finite_cyclic"] is False
    assert verdict["detail"] == (
        "generator pair (m1, m3): distinct but conjugate by m3*m1, so the group is not abelian")


def test_holonomy_ignores_closure_cap(capsys):
    # the group of one map g is <g>, whose element count is the order of g:
    # no closure is listed, so the cap bounds nothing
    path = str(CORPUS_DIR / "moebius-rotation-5.json")
    verdicts = [_holonomy([path, "--closure-cap", cap], capsys) for cap in ("3", "10000")]
    assert verdicts[0] == verdicts[1]
    code, verdict = verdicts[0]
    assert code == cli.EXIT_OK
    assert (verdict["finite_cyclic"], verdict["order"]) == (True, 5)
    assert verdict["detail"].endswith("; moebius closure has 5 elements")


def test_holonomy_reads_the_documents_witness_word(tmp_path, capsys):
    # m4*m2 is the element m3*m1 that the search finds, written another way
    path = moebius_document(tmp_path / "s3.json", [S, S, T, T],
                            witnesses=[(["m1", "m3"], "m4*m2")])
    code, verdict = _holonomy([path], capsys)
    assert code == cli.EXIT_OK
    assert verdict["detail"] == (
        "generator pair (m1, m3): distinct but conjugate by m4*m2, so the group is not abelian")


def test_wrong_witness_word_of_a_moebius_document_exits_2(tmp_path, capsys):
    path = moebius_document(tmp_path / "s3.json", [S, S, T, T], witnesses=[(["m1", "m3"], "m1")])
    for command in ("moebius-holonomy", "check-basic-set"):
        assert cli.main([command, path]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == "error: supplied witness 'm1' fails for pair (m1, m3)\n"


def test_document_of_jets_and_maps_exits_2_at_parse(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    jets = json.loads(Path(jet_document(tmp_path / "f.json", 1, 1, [[("-1", [1])]])).read_text())
    maps = json.loads(Path(moebius_document(tmp_path / "m.json", [S])).read_text())
    path.write_text(json.dumps({**jets, "moebius_generators": maps["moebius_generators"]}))
    assert cli.main(["closure", str(path)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: moebius_generators: a document lists jets or Moebius maps, not both\n")


def test_group_commands_run_on_a_moebius_document(tmp_path, capsys):
    def run(*argv):
        assert cli.main([*argv, "--format", "json"]) == cli.EXIT_OK
        return json.loads(capsys.readouterr().out)["verdict"]

    path = moebius_document(tmp_path / "s3.json", [S, S, T, T])
    closure = run("closure", path)
    assert (closure["status"], closure["count"]) == ("closed", 6)
    assert [["1", "0"], ["0", "1"]] in closure["elements"] and len(closure["elements"]) == 6
    assert run("check-basic-set", path)["verdict"] == "irreducible-verified"
    assert run("order", path, "--element", "m1*m3")["order"] == 3
    # S o T is z -> 1/(1 - z), the residual of an ordered product that is not the identity
    basic_set = run("check-basic-set", moebius_document(tmp_path / "st.json", [S, T]))
    assert basic_set["verdict"] == "condition-a-failed"
    assert basic_set["residual"] == [["0", "1"], ["-1", "1"]]


def test_holonomy_fixed_points_outside_the_field_exits_0(tmp_path, capsys):
    # the fixed points need sqrt(-3), which Q lacks; the verdict needs none
    path = moebius_document(tmp_path / "r3.json", [R3, R3, R3])
    code, verdict = _holonomy([path], capsys)
    assert code == cli.EXIT_OK
    assert verdict["finite_cyclic"] is True
    assert (verdict["model"], verdict["order"]) == ("rotation", 3)


def test_holonomy_order_3_over_zeta_3(tmp_path, capsys):
    # the same rotation over Q(zeta_3), which holds sqrt(-3) = 1 + 2*zeta_3
    path = moebius_document(tmp_path / "r3.json", [R3, R3, R3], conductor=3)
    code, verdict = _holonomy([path], capsys)
    assert code == cli.EXIT_OK
    assert verdict["finite_cyclic"] is True
    assert (verdict["model"], verdict["order"]) == ("rotation", 3)


def test_oversized_conductor_exits_2_at_once(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"conductor": 1_000_000, "eigenvalues": ["z"]}))
    started = time.monotonic()
    assert cli.main(["resonances", str(path)]) == cli.EXIT_INPUT
    assert time.monotonic() - started < 1.0
    assert capsys.readouterr().err.startswith("error: conductor:")


def test_too_many_generators_exit_2_at_once(tmp_path, capsys):
    path = tmp_path / "many.json"
    negation = [[{"coeff": "-1", "monomial": [1]}]]
    path.write_text(json.dumps({
        "conductor": 1,
        "generators": [{"name": f"f{i}", "coords": negation} for i in range(3000)],
    }))
    started = time.monotonic()
    assert cli.main(["check-basic-set", str(path)]) == cli.EXIT_INPUT
    assert time.monotonic() - started < 1.0
    assert capsys.readouterr().err.startswith("error: generators: 3000 generators exceed")


@pytest.mark.parametrize(
    "conductor, truncation, coords",
    [
        # linear part [[0,0,1],[1,0,0],[0,1,1]]: char poly x^3 - x^2 - 1
        (1, 1, [[("1", [0, 0, 1])], [("1", [1, 0, 0])], [("1", [0, 1, 0]), ("1", [0, 0, 1])]]),
        # (x + z*y, x + y + x^2) over Q(zeta_3)
        (3, 2, [[("1", [1, 0]), ("z", [0, 1])], [("1", [1, 0]), ("1", [0, 1]), ("1", [2, 0])]]),
    ],
)
def test_order_is_always_decided(tmp_path, capsys, conductor, truncation, coords):
    path = jet_document(tmp_path / "f.json", conductor, truncation, coords)
    assert cli.main(["order", path, "--element", "f", "--format", "json"]) == cli.EXIT_OK
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert verdict["kind"] == "infinite"
    assert "every finite order divides" in verdict["certificate"]


@pytest.mark.parametrize("coords", [
    # [[1, 1], [1, 2]]: eigenvalues (3 +- sqrt 5)/2, not its diagonal entries
    [[("1", [1, 0]), ("1", [0, 1])], [("1", [1, 0]), ("2", [0, 1])]],
    # [[0, 1], [1, 0]]: a zero diagonal, but eigenvalues 1 and -1
    [[("1", [0, 1])], [("1", [1, 0])]],
], ids=["full", "swap"])
def test_resonances_refuse_a_non_diagonal_linear_part(tmp_path, capsys, coords):
    path = jet_document(tmp_path / "f.json", 1, 3, coords)
    assert cli.main(["resonances", path]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: linear part must be diagonal\n"


def test_resonances_read_a_diagonal_linear_part(tmp_path, capsys):
    path = jet_document(tmp_path / "f.json", 1, 2, [[("-1", [1, 0])], [("1", [0, 1])]])
    assert cli.main(["resonances", path, "--format", "json"]) == cli.EXIT_OK
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert verdict["eigenvalues"] == ["-1", "1"]
    assert verdict["records"] == [{"coord": 0, "monomial": [1, 1]},
                                  {"coord": 1, "monomial": [0, 2]},
                                  {"coord": 1, "monomial": [2, 0]}]


# `linearize --format json` verdicts in full: the only tests that reach the
# `offending` and `conjugator` fields of a linearize report
PINNED_DIFFER = {
    "outcome": "failure",
    "reason": "generators-differ",
    "detail": "degree-2 coefficients differ from generator g1",
    "degree": 2,
    "offending": [{"generator": "g2", "coord": 0, "monomial": [2], "coeff": "0"},
                  {"generator": "g4", "coord": 0, "monomial": [2], "coeff": "0"}],
}
PINNED_SUCCESS = {
    "outcome": "success",
    "group_order": 4,
    "diagonal_generator": [["z", "0"], ["0", "-1"]],
    "conjugator": [
        [{"coeff": "1", "monomial": [1, 0]}, {"coeff": "-1", "monomial": [0, 2]},
         {"coeff": "2", "monomial": [1, 2]}],
        [{"coeff": "1", "monomial": [0, 1]}, {"coeff": "-1", "monomial": [1, 1]},
         {"coeff": "1", "monomial": [0, 3]}, {"coeff": "1", "monomial": [2, 1]}],
    ],
}


def _linearize(path, capsys) -> dict:
    assert cli.main(["linearize", path, "--format", "json"]) == cli.EXIT_OK
    return json.loads(capsys.readouterr().out)["verdict"]


def test_linearize_reports_the_generators_that_differ(tmp_path, capsys):
    # four generators iz + a_k z^2, a = (1, 0, 1, 0): their product is Id at K = 2
    with_square = [[("z", [1]), ("1", [2])]]
    linear = [[("z", [1])]]
    path = jets_document(tmp_path / "g.json", 4, 2, [
        ("g1", with_square), ("g2", linear), ("g3", with_square), ("g4", linear)])
    assert _linearize(path, capsys) == PINNED_DIFFER


def test_linearize_returns_the_conjugator_of_a_conjugated_group(tmp_path, capsys):
    # four copies of psi o diag(i, -1) o psi^-1, psi = Id + (z2^2, z1 z2), K = 3
    f = [[("z", [1, 0]), ("1 - z", [0, 2]), ("-2 + 2*z", [1, 2])],
         [("-1", [0, 1]), ("1 - z", [1, 1]), ("-1 + z", [0, 3]), ("-1 + z", [2, 1])]]
    path = jets_document(tmp_path / "f.json", 4, 3, [(f"f{k}", f) for k in range(1, 5)])
    assert _linearize(path, capsys) == PINNED_SUCCESS


def _keylemma(path: Path, doc: dict, capsys):
    path.write_text(json.dumps(doc))
    code = cli.main(["keylemma", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    return code, json.loads(out)["verdict"] if code == cli.EXIT_OK else err


@pytest.mark.parametrize("doc, conjugate, reason", [
    # Example 2.1's degree-2 family at (coordinate 0, z2^2): multiplier
    # lambda_1 / lambda^Q = -1/zeta_3^2 of order 6, translations a_i / zeta_3^2
    ({"conductor": 3, "multiplier": "-z", "translations": ["0", "0", "0", "0", "z", "1"]},
     True, "multiplier order 6 has distinct prime divisors [2, 3]"),
    ({"conductor": 4, "multiplier": "z", "translations": ["0", "1"]},
     False, "multiplier order 4 is a prime power but translations differ"),
])
def test_keylemma_decides_an_affine_family(tmp_path, capsys, doc, conjugate, reason):
    code, verdict = _keylemma(tmp_path / "k.json", doc, capsys)
    assert code == cli.EXIT_OK
    assert verdict["multiplier"] == doc["multiplier"]
    assert verdict["translations"] == doc["translations"]
    assert (verdict["pairwise_conjugate"], verdict["reason"]) == (conjugate, reason)


@pytest.mark.parametrize("doc, message", [
    ({"conductor": 4, "multiplier": "z"}, "keylemma needs 'multiplier' and 'translations'"),
    ({"conductor": 4, "multiplier": "2", "translations": ["0", "1"]},
     "multiplier must be a root of unity of order > 1"),
])
def test_keylemma_refuses_a_document_it_cannot_judge(tmp_path, capsys, doc, message):
    code, err = _keylemma(tmp_path / "k.json", doc, capsys)
    assert code == cli.EXIT_INPUT
    assert message in err


def test_basic_set_with_a_disproved_pair_fails_condition_b(tmp_path, capsys):
    # U, L and W = (UL)^-1 over Q: W's characteristic polynomial differs from
    # U's and L's, while (U, L) stays open in the infinite group <U, L>
    def linear(rows):
        return [[(str(c), [int(i == j) for j in range(2)]) for i, c in enumerate(row) if c]
                for row in rows]

    path = jets_document(tmp_path / "ulw.json", 1, 1, [
        ("U", linear([[1, 1], [0, 1]])), ("L", linear([[1, 0], [1, 1]])),
        ("W", linear([[1, -1], [-1, 2]]))])
    code = cli.main(["check-basic-set", path, "--witness-bound", "3", "--format", "json"])
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert code == cli.EXIT_OK
    assert (verdict["product_identity"], verdict["verdict"]) == (True, "condition-b-failed")
    assert {pair: p["status"] for pair, p in verdict["pairs"].items()} == {
        "U,L": "unresolved", "U,W": "disproved", "L,W": "disproved"}


# --- the command table ------------------------------------------------------------

TABLE_CAP = 200  # above every finite corpus closure (at most 24 elements)

SUBCOMMAND_CHECKS = [
    (entry, command.name, check, want)
    for entry in corpus.ENTRIES
    for check, want in corpus.load_raw(entry)["expected"].items()
    for command in cli.COMMANDS
    if command.check == check and command.name is not None
]


@pytest.mark.parametrize("entry, command, check, want", SUBCOMMAND_CHECKS,
                         ids=[f"{entry}-{check}" for entry, _, check, _ in SUBCOMMAND_CHECKS])
def test_subcommand_verdict_is_the_corpus_actual(entry, command, check, want, capsys):
    argv = [command, str(CORPUS_DIR / f"{entry}.json"), "--format", "json",
            "--closure-cap", str(TABLE_CAP)]
    if check == "order":
        argv += ["--element", want["element"]]
    cli.main(argv)
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    report = cli.run_corpus_entry(entry, 6, TABLE_CAP, None)
    assert verdict == report["checks"][check]["actual"]


def test_every_check_with_a_subcommand_is_compared():
    assert {check for _, _, check, _ in SUBCOMMAND_CHECKS} == {
        "basic_set", "linearize", "order", "closure", "holonomy"}


def test_parser_subcommands_are_the_table_rows():
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    rows = {command.name for command in cli.COMMANDS if command.name is not None}
    assert set(sub.choices) == rows | {"examples"}


def test_examples_list_is_the_corpus_files(capsys):
    assert cli.main(["examples", "list", "--format", "json"]) == cli.EXIT_OK
    entries = json.loads(capsys.readouterr().out)["verdict"]["entries"]
    assert entries == sorted(p.stem for p in CORPUS_DIR.glob("*.json"))


def test_module_entry_point_runs_an_example():
    env = dict(os.environ, PYTHONPATH=str(CORPUS_DIR.parents[1]))
    done = subprocess.run([sys.executable, "-m", "germforge.cli", "examples", "run", "prop-5-1-2"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert "matched: True" in done.stdout


def test_corpus_and_square_roots_run_without_mpmath():
    """The package has no runtime dependency: with mpmath unimportable, every
    corpus entry matches and a non-rational square root is found."""
    env = dict(os.environ, PYTHONPATH=str(CORPUS_DIR.parents[1]))
    code = ("import sys; sys.modules['mpmath'] = None\n"
            "from germforge import cli, corpus, cyclo_sqrt\n"
            "from germforge.cyclo import field\n"
            "print(sum(cli.run_corpus_entry(e, 6, 10_000, None)['matched'] "
            "for e in corpus.ENTRIES))\n"
            "b = field(7).zeta() * 3 + 2\n"
            "print(cyclo_sqrt(b * b) in (b, -b))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(len(corpus.ENTRIES)), "True"]
    assert len(corpus.ENTRIES) == 12


COLD_START_EXCLUDED = ("dataclasses", "decimal", "fractions", "inspect")


def test_import_and_parse_load_only_the_modules_a_document_needs():
    """`import germforge` loads no submodule; the jet documents of Examples
    2.1-2.3 parse with `cyclo`, `jetform`, `words` and `documents` alone, and
    a Moebius document adds `mapform`: no operation on jets, maps or groups
    (`jets`, `moebius`, `groupkit`) is loaded by any parse.  Neither parsing
    every corpus document nor `import germforge.cli` loads `dataclasses`,
    `fractions`, `decimal` or `inspect`; a `Fraction` still goes in and comes
    out where one is asked for, and the result records stay immutable."""
    env = dict(os.environ, PYTHONPATH=str(CORPUS_DIR.parents[1]))
    code = ("import json, sys\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith('germforge.'))\n"
            "import germforge\n"
            "print(json.dumps(loaded()))\n"
            "from germforge.documents import parse_document\n"
            "for path in sys.argv[1:4]:\n"
            "    parse_document(open(path).read())\n"
            "print(json.dumps(loaded()))\n"
            "parse_document(open(sys.argv[4]).read())\n"
            "print(json.dumps(loaded()))\n"
            "for path in sys.argv[5:]:\n"
            "    parse_document(open(path).read())\n"
            "print(json.dumps(loaded()))\n"
            f"print(json.dumps(sorted(set({COLD_START_EXCLUDED!r}) & set(sys.modules))))\n")
    paths = [str(CORPUS_DIR / f"{e}.json")
             for e in ("ex-2-1", "ex-2-2", "ex-2-3", "moebius-rotation-5")]
    assert "witnesses" in json.loads(Path(paths[0]).read_text())  # parsed with `words`
    paths += [str(CORPUS_DIR / f"{e}.json") for e in corpus.ENTRIES]
    done = subprocess.run([sys.executable, "-c", code, *paths], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    after_import, after_jets, after_moebius, after_all, excluded = map(
        json.loads, done.stdout.splitlines())
    assert after_import == []
    jet_modules = ["germforge.cyclo", "germforge.documents", "germforge.jetform",
                   "germforge.words"]
    assert after_jets == jet_modules
    assert after_moebius == after_all == sorted(jet_modules + ["germforge.mapform"])
    assert not {"germforge.jets", "germforge.moebius", "germforge.groupkit"} & set(after_all)
    assert excluded == []

    code = ("import json, sys, germforge.cli\n"
            f"print(json.dumps(sorted(set({COLD_START_EXCLUDED!r}) & set(sys.modules))))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []

    from fractions import Fraction

    from germforge.cyclo import OrderResult, field
    from germforge.groupkit import GroupPresentation, WitnessResult
    from germforge.jets import GermJet

    half = field(12).rational(1, 2)
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert all(type(c) is Fraction for c in (half + field(12).zeta()).coeffs)
    with pytest.raises(TypeError):
        field(12).from_rational(0.5)
    presentation = GroupPresentation((("f", GermJet.identity(field(1), 1, 1)),))
    for record, attr in ((OrderResult("finite", order=1), "order"),
                         (WitnessResult("witness", word=""), "word"),
                         (presentation, "witnesses")):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)


def test_console_script_start_loads_no_resource_machinery():
    """`import germforge.cli` lists and reads the corpus without
    `importlib.resources`, so the `germ-forge` start loads neither it nor
    `zipfile`.  `-S` skips `site`, whose `.pth` files may import either."""
    env = dict(os.environ, PYTHONPATH=str(CORPUS_DIR.parents[1]))
    code = ("import json, sys, germforge.cli\n"
            "from germforge import corpus\n"
            "corpus.load(corpus.ENTRIES[0])\n"
            "print(json.dumps(sorted({'importlib.resources', 'zipfile'} & set(sys.modules))))\n")
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_every_public_name_resolves_to_its_home_module():
    import importlib

    import germforge

    for module, names in germforge._EXPORTS.items():
        home = importlib.import_module(f"germforge.{module}")
        for name in names:
            assert getattr(germforge, name) is getattr(home, name), name
    # the 52 names the package bound when it imported all five layers
    # eagerly, less `embed_to_conductor`, `EmbeddingError`,
    # `slice_morphism_report`, `fixed_points`, `germ_at_fixed_point`,
    # `ProjectivePoint` and `ExtensionRequiredError`
    assert len(set(germforge.__all__)) == 45
    assert set(germforge.__all__) <= set(dir(germforge))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        germforge.no_such_name
    assert not hasattr(germforge, "to_complex")
    assert not hasattr(germforge, "embed_to_conductor")


def test_every_definition_is_named_by_the_program():
    """Every function and class that `src/germforge` defines is named
    somewhere in `src/germforge` or `benchmarks/`.

    A name-level heuristic: a definition counts as reached when its name
    appears as a `Name`, as an `Attribute`, as an import alias outside
    `__init__.py`, or as a string constant in `benchmarks/` (the tracer
    patches functions by name).  The `_EXPORTS` strings of `__init__.py` do
    not count, and neither does a caller in `tests/`: code that only tests
    call is deleted or moved into the tests.  Dunder methods are exempt.

    The definitions that only such a string keeps are pinned by name, so
    that the list that waits for the tracer to stop patching cannot grow
    unseen.
    """
    import ast

    root = Path(__file__).resolve().parents[1]
    defined: dict[str, str] = {}
    named: set[str] = set()
    strings: set[str] = set()
    for path in sorted((root / "src" / "germforge").glob("*.py")) + sorted(
            (root / "benchmarks").glob("*.py")):
        in_src = path.parent.name == "germforge"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if in_src and not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias) and path.name != "__init__.py":
                named.add(node.name)
            elif isinstance(node, ast.Constant) and not in_src and isinstance(node.value, str):
                strings.add(node.value)
    unnamed = sorted(f"{name} ({where})" for name, where in defined.items()
                     if name not in named | strings)
    assert not unnamed, "defined but never named: " + ", ".join(unnamed)
    assert (defined.keys() & strings) - named == {"cyclo_sqrt", "find_conjugacy_witness",
                                                  "mat_det"}


@pytest.mark.parametrize("flag, value", [("--witness-bound", "-2"), ("--closure-cap", "-1")])
def test_negative_bound_exits_2(flag, value, capsys):
    path = str(CORPUS_DIR / "prop-5-1-2.json")
    with pytest.raises(SystemExit) as info:
        cli.main(["closure", path, flag, value])
    assert info.value.code == cli.EXIT_INPUT
    assert f"argument {flag}: must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, limit", [
    ("check-basic-set", "--witness-bound", cli.MAX_WITNESS_BOUND),
    ("closure", "--closure-cap", cli.MAX_CLOSURE_CAP),
])
def test_bound_above_its_limit_exits_2(command, flag, limit, capsys):
    path = str(CORPUS_DIR / "prop-5-1-2.json")
    assert cli.main([command, path, flag, str(limit)]) == cli.EXIT_OK
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli.main([command, path, flag, str(limit + 1)])
    assert info.value.code == cli.EXIT_INPUT
    assert f"argument {flag}: must be at most {limit}, got {limit + 1}" in capsys.readouterr().err


# --- inputs that used to hang -----------------------------------------------------

NONLINEAR_F = [
    [("2 + z", [1, 0]), ("1/3", [0, 1]), ("z^2", [2, 0]), ("1", [1, 2])],
    [("3", [0, 1]), ("z", [1, 1]), ("5/7", [0, 3])],
]


def test_long_word_exits_2_at_once(tmp_path, capsys):
    path = jet_document(tmp_path / "f.json", 9, 3, NONLINEAR_F)
    started = time.monotonic()
    assert cli.main(["order", path, "--element", "f^100000"]) == cli.EXIT_INPUT
    assert time.monotonic() - started < 1.0
    assert "word has 100000 letters, above the limit" in capsys.readouterr().err


# z -> 2/z; its fixed points need sqrt(2), which Q(zeta_N) holds iff 8 divides N
INVERSION_2 = [[0, 2], [1, 0]]


def test_holonomy_rational_root_outside_the_field_exits_0_at_once(tmp_path, capsys):
    path = moebius_document(tmp_path / "i13.json", [INVERSION_2, INVERSION_2], conductor=13)
    started = time.monotonic()
    code, verdict = _holonomy([path], capsys)
    assert time.monotonic() - started < 1.0
    assert code == cli.EXIT_OK
    assert (verdict["finite_cyclic"], verdict["model"], verdict["order"]) == (True, "inversion", 2)


def test_holonomy_rational_root_in_the_field(tmp_path, capsys):
    path = moebius_document(tmp_path / "i8.json", [INVERSION_2, INVERSION_2], conductor=8)
    code, verdict = _holonomy([path], capsys)
    assert code == cli.EXIT_OK
    assert (verdict["finite_cyclic"], verdict["model"], verdict["order"]) == (True, "inversion", 2)
