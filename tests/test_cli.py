import json
import time
from pathlib import Path

import pytest

from germforge import cli, corpus

CORPUS_DIR = Path(cli.__file__).resolve().parent / "corpus"


def moebius_document(path: Path, matrices, conductor: int = 1) -> str:
    doc = {
        "name": path.stem,
        "conductor": conductor,
        "moebius_generators": [
            {"name": f"m{i + 1}", "matrix": [[str(x) for x in row] for row in m]}
            for i, m in enumerate(matrices)
        ],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def jet_document(path: Path, conductor: int, truncation: int, coords) -> str:
    """One generator `f`; coords[s] lists (coeff, monomial) terms of coordinate s."""
    doc = {
        "conductor": conductor,
        "dimension": len(coords),
        "truncation": truncation,
        "generators": [{
            "name": "f",
            "coords": [[{"coeff": c, "monomial": m} for c, m in terms] for terms in coords],
        }],
    }
    path.write_text(json.dumps(doc))
    return str(path)


S = [[0, 1], [1, 0]]
T = [[-1, 1], [0, 1]]
R3 = [[0, -1], [1, -1]]


@pytest.mark.parametrize("entry", corpus.ENTRIES)
def test_corpus_entry_matches(entry):
    assert cli.run_corpus_entry(entry, 6, 10_000, None)["matched"]


def test_examples_run_exits_0(capsys):
    assert cli.main(["examples", "run", "prop-5-1-2", "--format", "json"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"]["matched"]


def test_malformed_document_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"conductor": 1, "generators": [')
    assert cli.main(["closure", str(bad)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error:")


def test_closure_cap_exceeded_exits_3(capsys):
    path = str(CORPUS_DIR / "prop-5-1-3.json")
    assert cli.main(["closure", path, "--closure-cap", "200", "--format", "json"]) == cli.EXIT_LIMIT
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert verdict["status"] == "cap-exceeded" and verdict["count"] > 200


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
    assert "no common fixed point" in verdict["detail"]


def test_holonomy_missing_square_root_exits_3(tmp_path, capsys):
    path = moebius_document(tmp_path / "r3.json", [R3, R3, R3])
    code, verdict = _holonomy([path], capsys)
    assert code == cli.EXIT_LIMIT
    assert verdict["finite_cyclic"] == "unresolved"
    assert "square root of -3" in verdict["detail"]


def test_holonomy_order_3_over_zeta_3(tmp_path, capsys):
    # the fixed points need sqrt(-3), which Q(zeta_3) has; exact inverses
    # leave no residue in the local germs
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


def test_holonomy_honours_closure_cap(tmp_path, capsys):
    path = str(CORPUS_DIR / "moebius-rotation-5.json")
    code, verdict = _holonomy([path, "--closure-cap", "3"], capsys)
    assert code == cli.EXIT_OK
    assert verdict["finite_cyclic"] is True
    assert "exceeded cap 3" in verdict["detail"]


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
