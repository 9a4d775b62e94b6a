"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import calibrate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import MIN_REQUESTS, WORKLOADS, describe, generate, key, pools  # noqa: E402

from ishkit import cli  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    return reference.load_golden()


def _answer(doc: dict) -> str:
    return cli.run(cli.request_from_doc(dict(doc, format="json")))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_and_covered(name, golden):
    w = WORKLOADS[name]
    n = w.rounds_for(25)
    assert generate(w, 7, n) == generate(w, 7, n)
    assert generate(w, 7, n) != generate(w, 8, n)
    rounds = generate(w, 7, n)
    info = describe(w, rounds)
    assert info["repeated_share"] == 0
    assert info["requests"] >= MIN_REQUESTS
    everything = [d for items in pools(w).values() for item in items for d in item] + list(w.fixed)
    assert all(key(d) in golden for d in everything)


def test_correct_answers_pass(golden):
    docs = [
        {"command": "charpoly", "type": "shi", "ell": 3},
        {"command": "charpoly", "type": "shi", "ell": 3, "cone": True},
        {"command": "chambers", "type": "shi", "ell": 3},
        {"command": "supersolvable", "type": "coxeter", "ell": 3, "cone": True},
    ]
    records = [{"ms": 1.0, "out": _answer(d)} for d in docs]
    assert run.check_records(docs, records, golden) == [[], [], [], []]


def test_corrupted_answers_fail(golden):
    doc = {"command": "charpoly", "type": "shi", "ell": 3}
    ans = json.loads(_answer(doc))
    ans["charPoly"][1] = "10/1"
    chambers = {"command": "chambers", "type": "shi", "ell": 3}
    cans = json.loads(_answer(chambers))
    cans["chambers"][0]["signs"] = cans["chambers"][1]["signs"]
    records = [
        {"ms": 1.0, "out": json.dumps(ans)},
        {"ms": 1.0, "out": json.dumps(cans)},
        {"ms": 1.0, "error": "RuntimeError: boom"},
        {"ms": 1.0, "out": "not json"},
    ]
    problems = run.check_records([doc, chambers, doc, doc], records, golden)
    assert all(problems), problems


def test_shi_and_ish_must_agree(golden):
    shi = {"command": "charpoly", "type": "deleted_shi", "ell": 4, "edges": [[1, 2], [3, 4]]}
    ish = dict(shi, type="deleted_ish")
    wrong = json.loads(_answer(ish))
    wrong["charPoly"] = json.loads(_answer({"command": "charpoly", "type": "coxeter", "ell": 4}))["charPoly"]
    pairs = [(shi, json.loads(_answer(shi))), (ish, wrong)]
    assert {i for i, _ in reference.check_pairs(pairs)} == {0, 1}


def _bindings():
    spaces = tracing._namespaces()
    out = {(ns.__name__, a): v for ns in spaces for a, v in vars(ns).items() if callable(v)}
    for layer, cls_name, _ in tracing.METHODS:
        cls = getattr(sys.modules[f"ishkit.{layer}"], cls_name)
        out.update({(cls_name, a): v for a, v in vars(cls).items()})
    return out


def test_tracer_wraps_and_restores():
    before = _bindings()
    doc = {"command": "chambers", "type": "ish", "ell": 3, "cone": True}
    plain = _answer(doc)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.char_poly is not before[("ishkit.cli", "char_poly")]
        assert sys.modules["ishkit.lattice"].char_poly is cli.char_poly
        traced = _answer(doc)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert traced == plain
    metrics = tracing.per_layer_metrics(tracer.layer_table())
    assert metrics["chambers.count"][0] == json.loads(plain)["count"]
    assert metrics["chambers.fm_calls"][0] > 0
    assert metrics["cli.self_ms"][0] > 0


def test_scaling_divides_by_the_local_slowdown():
    ref, window = calibrate.REF_MS, calibrate.WINDOW
    slow = 2 * window + 1  # requests measured while the machine ran twice as slow
    cal = [ref] * slow + [2 * ref] * slow + [ref] * slow
    records = [{"ms": 10.0 if i // slow != 1 else 20.0, "cal_ms": c} for i, c in enumerate(cal)]
    assert calibrate.speed(cal)[0] == 1.0 and calibrate.speed(cal)[slow + window] == 2.0
    scaled = run.scaled(records)
    assert scaled[0] == scaled[slow + window] == scaled[-1] == 10.0
