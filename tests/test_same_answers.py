"""``tools/same_answers.py`` on this checkout, against itself and against a checkout that answers otherwise."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_answers.py"


def same_answers(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, cwd=ROOT)


def test_the_checkout_gives_its_own_answers():
    proc = same_answers("--baseline", str(ROOT), "--seeds", "901", "--rounds", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "lattice seed 901", "saito seed 901", "chambers seed 901", "graph corpus", "spec corpus"
    ]
    assert lines[-3] == "graph corpus: 4406 answers the same"
    assert lines[-2] == "spec corpus: 744 answers the same"
    assert lines[-1].endswith("answers the same")


def test_a_different_answer_is_named(tmp_path):
    # a checkout whose ishkit answers every request with the same word
    package = tmp_path / "src" / "ishkit"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def request_from_doc(doc):\n    return doc\n\n\n"
                                    "def run(req):\n    return 'other'\n")
    proc = same_answers("--baseline", str(tmp_path), "--seeds", "901", "--rounds", "1",
                        "--workloads", "saito")
    assert proc.returncode == 1
    assert proc.stdout.startswith("saito seed 901: the answers differ on {")
    assert '"format": "text"' in proc.stdout.splitlines()[0]
