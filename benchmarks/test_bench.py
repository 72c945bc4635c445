"""Self-tests of the benchmark harness, tracer and conjugated-document generator."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import germforge  # noqa: E402
from germforge import cyclo, documents, jets  # noqa: E402

import harness  # noqa: E402
from tracer import Tracer, germforge_modules  # noqa: E402

SMALL = ("ex-2-1", "prop-5-1-2", "prop-5-1-4", "moebius-rotation-5")

_TRACED_COUNTS = f"""
import json, sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(BENCH_DIR)!r}]
import harness
from tracer import Tracer
tracer = Tracer()
with tracer:
    harness.run_pass(harness.corpus_documents({list(SMALL)!r}), tracer)
print(json.dumps({{k: v for k, v in tracer.reduce().items() if not k.endswith("self_s")}}))
"""


def test_traced_counts_repeat_exactly_across_processes():
    counts = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", _TRACED_COUNTS], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        counts.append(json.loads(proc.stdout))
    assert counts[0] == counts[1]
    for key in ("jets.compose.calls", "cyclo.mul.calls", "groupkit.closure_enumerate.elements",
                "moebius.moebius_compose.calls", "documents.parse_document.calls"):
        assert counts[0][key] > 0, key


def _snapshot():
    state = {}
    for mod in germforge_modules():
        for attr, value in vars(mod).items():
            state[(mod.__name__, attr)] = value
    for cls in (cyclo.CycloNum, jets.GermJet):
        for attr, value in vars(cls).items():
            state[(cls.__qualname__, attr)] = value
    return state


def test_tracer_leaves_no_patched_function_behind():
    before = _snapshot()
    tracer = Tracer()
    try:
        with tracer:
            assert germforge.groupkit.compose is not before[("germforge.jets", "compose")]
            assert jets.GermJet.__hash__ is not before[("GermJet", "__hash__")]
            raise KeyError("escape from the traced region")
    except KeyError:
        pass
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_corrupted_expected_value_is_a_failure_not_a_crash():
    [doc] = harness.corpus_documents(["prop-5-1-2"])
    doc.expected = json.loads(json.dumps(doc.expected))
    doc.expected["closure"]["count"] += 1
    attempted, failures = harness.Verifier([doc]).verify(harness.run_pass([doc]))
    assert attempted == len(doc.expected)
    assert len(failures) == 1 and failures[0].startswith("prop-5-1-2/closure")


def test_wrong_witness_word_and_raising_check_are_failures():
    [doc] = harness.corpus_documents(["ex-2-1"])
    verifier = harness.Verifier([doc])
    outcome = harness.run_pass([doc])
    assert verifier.verify(outcome) == (len(doc.expected), [])
    outcome.actuals[doc.name]["basic_set"]["pairs"]["f1,f5"]["word"] = "f5"
    attempted, failures = verifier.verify(outcome)
    assert len(failures) == 1 and "does not conjugate" in failures[0]

    broken = harness.Document("broken", doc.text, {"bogus": True}, corpus=False)
    outcome = harness.run_pass([broken])
    assert isinstance(outcome.actuals["broken"], ValueError)
    attempted, failures = harness.Verifier([broken]).verify(outcome)
    assert attempted == 1 and len(failures) == 1


def test_generator_is_deterministic_and_round_trips_the_grammar():
    import conjugate

    entries = ("ex-2-1", "ex-2-2")
    first = conjugate.generate(7, entries)
    assert first == conjugate.generate(7, entries)
    assert first != conjugate.generate(8, entries)
    for raw in first:
        fld = cyclo.field(raw["conductor"])
        for gen in raw["generators"]:
            for terms in gen["coords"]:
                for term in terms:
                    text = term["coeff"]
                    assert cyclo.format_coefficient(cyclo.parse_coefficient(text, fld)) == text
        original = documents.parse_document(
            (harness.CORPUS_DIR / f"{raw['name']}.json").read_text())
        conjugated = documents.parse_document(json.dumps(raw))
        pairs = list(zip(original.generators, conjugated.generators))
        assert all(a.linear_matrix() == b.linear_matrix() for (_, a), (_, b) in pairs)
        assert any(a != b for (_, a), (_, b) in pairs)


def test_benchmark_json_matches_what_run_reports():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        assert workload["name"] in harness.WORKLOADS
        names = run.per_layer_names(workload["name"])
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == names


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "witness-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
