"""The summary, the pair count and the line counts of ``tools/bench_record.py``, on made-up input."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

DECLARED = [
    {"name": "req_per_s", "better": "higher"},
    {"name": "latency_p50_ms", "better": "lower"},
]


def run(workload: str, req_per_s: float, latency_p50_ms: float) -> dict:
    metrics = {"req_per_s": req_per_s, "latency_p50_ms": latency_p50_ms}
    return {"workload": workload, "seed": 0, "correct": True, "attempted": 1, "failed": 0,
            "metrics": metrics}


def test_summary_of_a_single_run_has_equal_quartiles():
    out = bench_record.summary([run("lattice", 500.0, 0.3)])
    assert out == {
        "lattice": {
            "req_per_s": {"median": 500.0, "q1": 500.0, "q3": 500.0},
            "latency_p50_ms": {"median": 0.3, "q1": 0.3, "q3": 0.3},
        }
    }


def test_summary_groups_by_workload_in_run_order():
    runs = [run("saito", v, 1.0) for v in (5, 1, 4, 2, 3)] + [run("lattice", 7, 2.0)]
    out = bench_record.summary(runs)
    assert list(out) == ["saito", "lattice"]
    assert out["saito"]["req_per_s"] == {"median": 3, "q1": 1.5, "q3": 4.5}
    assert out["saito"]["latency_p50_ms"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert out["lattice"]["req_per_s"]["median"] == 7


def test_comparison_takes_the_direction_from_better():
    mine = [run("lattice", 510, 0.20), run("lattice", 490, 0.40), run("saito", 100, 1.0)]
    base = [run("lattice", 500, 0.30), run("lattice", 500, 0.30), run("saito", 100, 1.0)]
    out = bench_record.comparison(mine, base, DECLARED)
    # more requests per second and a lower latency win; fewer and higher lose
    assert out["lattice"]["req_per_s"] == {"won": 1, "lost": 1, "pairs": 2}
    assert out["lattice"]["latency_p50_ms"] == {"won": 1, "lost": 1, "pairs": 2}
    # a tie counts as a pair for neither side
    assert out["saito"] == {
        "req_per_s": {"won": 0, "lost": 0, "pairs": 1},
        "latency_p50_ms": {"won": 0, "lost": 0, "pairs": 1},
    }


@pytest.mark.parametrize("better, mine, won", [("higher", 2, 1), ("higher", 0, 0),
                                               ("lower", 0, 1), ("lower", 2, 0)])
def test_comparison_of_one_pair(better, mine, won):
    declared = [{"name": "req_per_s", "better": better}]
    out = bench_record.comparison([run("w", mine, 0)], [run("w", 1, 0)], declared)
    assert out == {"w": {"req_per_s": {"won": won, "lost": 1 - won, "pairs": 1}}}


def test_a_baseline_that_is_not_a_git_checkout_fails_before_any_run(tmp_path, monkeypatch):
    (tmp_path / "src").mkdir()
    calls = []
    monkeypatch.setattr(bench_record, "run_once", lambda *args: calls.append(args))
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    out = tmp_path / "bench.json"
    argv = ["--out", str(out), "--workloads", "chambers", "--seeds", "1", "--baseline",
            str(tmp_path)]
    with pytest.raises(SystemExit):
        bench_record.main(argv)
    assert calls == []
    assert not out.exists()


def test_a_run_judged_wrong_stops_the_record_and_writes_no_file(tmp_path, monkeypatch):
    def wrong(checkout, workload, seed, seconds):
        return {**run(workload, 1.0, 1.0), "seed": seed, "correct": seed != 2}

    monkeypatch.setattr(bench_record, "run_once", wrong)
    out = tmp_path / "bench.json"
    wanted = re.escape(f"{bench_record.ROOT} saito seed 2: the answers were judged wrong")
    with pytest.raises(SystemExit, match=wanted):
        bench_record.main(["--out", str(out), "--workloads", "saito", "--seeds", "1", "2"])
    assert not out.exists()


MODULE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment counts as code


class Point:
    """One line."""

    x = (
        1,  # a continued expression counts on every line
    )

    def norm(self):
        """A docstring
        and its second line.
        """
        text = """a string that is
        not a docstring"""
        return text
'''


def test_src_code_lines_counts_code_not_blanks_comments_or_docstrings(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text(MODULE)
    (tmp_path / "src" / "pkg" / "b.py").write_text("\n# only a comment\n\nx = 1\n")
    (tmp_path / "src" / "notes.txt").write_text("not python\n")
    # a.py: import, class, x = (, 1, ), def, text = """, its second line, return
    assert bench_record.code_lines(MODULE) == 9
    assert bench_record.src_code_lines(tmp_path) == 10
    assert bench_record.src_code_lines_by_module(tmp_path) == {"pkg/a.py": 9, "pkg/b.py": 1}
    assert bench_record.src_lines(tmp_path) == len(MODULE.splitlines()) + 4


def test_the_record_gives_the_code_lines_of_each_module(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "run_once", lambda checkout, workload, seed, seconds: run(workload, 1.0, 1.0))
    out = tmp_path / "bench.json"
    assert bench_record.main(["--out", str(out), "--workloads", "saito", "--seeds", "1"]) == 0
    record = json.loads(out.read_text())
    by_module = record["src_code_lines_by_module"]
    assert by_module == bench_record.src_code_lines_by_module(bench_record.ROOT)
    assert "ishkit/freeness.py" in by_module and sum(by_module.values()) == record["src_code_lines"]


def test_a_directory_outside_any_checkout_records_no_commit(tmp_path, monkeypatch):
    monkeypatch.delenv("GIT_DIR", raising=False)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))  # git looks no higher
    assert bench_record.commit_of(tmp_path) is None


def test_a_one_step_scale_ladder_times_the_certificate_in_a_fresh_process():
    (step,) = bench_record.scale_ladder(bench_record.ROOT, [6])
    assert step["ell"] == 6 and 0 < step["median_s"] < bench_record.SCALE_CAP_S
    assert step["vmhwm_mb"] > 1  # the interpreter and the package at least


def test_a_step_past_the_cap_is_over_and_ends_the_ladder():
    # no interpreter starts and imports the package within a microsecond
    assert bench_record.scale_ladder(bench_record.ROOT, [5, 4], cap=1e-6) == [{"ell": 4, "over": True, "cap_s": 1e-6}]


def test_the_record_holds_each_checkouts_ladder(tmp_path, monkeypatch):
    def ladder(checkout, ells):
        return [{"ell": ell, "over": True} for ell in ells]

    monkeypatch.setattr(bench_record, "scale_ladder", ladder)
    out = tmp_path / "bench.json"
    assert bench_record.main(["--out", str(out), "--scale", "40", "80"]) == 0
    record = json.loads(out.read_text())
    assert record["scale"] == [{"ell": 40, "over": True}, {"ell": 80, "over": True}]
    assert record["runs"] == [] and record["summary"] == {}
