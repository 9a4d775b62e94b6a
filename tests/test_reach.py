"""Every function in ``src`` is reached by a request, an acceptance check or the command line.

The rule that ``src`` holds no helper that only a test calls, pinned by a
profiler: ``sys.setprofile`` records the code of every Python call while

- ``cli.run`` answers every command on one spec of each kind, affine and
  coned, in both formats (a spec a command refuses is a refusal path),
  and ``survey`` at ell = 3;
- the ``test_*`` functions of ``test_acceptance`` run;
- ``cli.main`` answers six command lines in process: a good request, bad
  JSON, an integer past the digit limit, a usage error, a spec that names
  another command, and a tripped guard.

Each function and method that an ``ast`` walk finds in ``src`` must then
be reached, matched by its file and first line (the first decorator's
line for a decorated one, as its code object counts it), or be on
``ALLOWED`` with the reason it stays.
"""

import ast
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import ishkit
import test_acceptance
from ishkit.arrangement import SPEC_KINDS
from ishkit.cli import COMMANDS, main, request_from_doc, run

SRC = Path(ishkit.__file__).resolve().parent

ALLOWED = {
    "freeness._expanded": "the Saito safety net: a factored log check that cannot decide "
    "expands the field, which no basis of the paper needs",
    "freeness._deferred": "the Saito safety net: the expanded check of the fields deferred "
    "by _expanded",
    "exactmath._pack": "packs the exponent tuples of the terms constructor, kept for a "
    "basis built from coefficients",
}

SPECS = {
    "coxeter": {"ell": 3},
    "shi": {"ell": 3},
    "ish": {"ell": 3},
    "n_ish": {"N": [[0, 1], [0]]},
    "deleted_shi": {"ell": 3, "edges": [[1, 2]]},
    "deleted_ish": {"ell": 3, "edges": [[1, 2], [2, 3]]},  # the one non-free graph at ell = 3
}


def defined_functions() -> dict[tuple[str, int], str]:
    """Each function and method defined in ``src``, by ``(file, first line)``,
    named ``module.Qual.name``."""
    found = {}

    def visit(node: ast.AST, module: str, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[(path, first)] = f"{module}.{prefix}{child.name}"
                visit(child, module, f"{prefix}{child.name}.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.", path)
            else:
                visit(child, module, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "", str(path.resolve()))
    return found


def requests() -> None:
    for kind, fields in SPECS.items():
        for coned in (False, True):
            for command in COMMANDS:
                if command == "survey":
                    continue
                for fmt in ("text", "json"):
                    doc = {"command": command, "format": fmt, "type": kind, **fields, "cone": coned}
                    try:
                        run(request_from_doc(doc))
                    except ValueError:  # a command that refuses the spec's kind: its refusal path
                        pass
    for fmt in ("text", "json"):
        run(request_from_doc({"command": "survey", "format": fmt, "ell": 3}))


def acceptance() -> None:
    with redirect_stdout(io.StringIO()):
        for name, test in vars(test_acceptance).items():
            if name.startswith("test_") and callable(test):
                test()


COMMAND_LINES = [  # (argv, stdin, exit code)
    (["charpoly"], json.dumps({"type": "ish", "ell": 3}), 0),
    (["charpoly"], "{", 1),
    (["charpoly"], '{"type": "ish", "ell": ' + "9" * 5000 + "}", 1),
    (["charpoly", "--format", "yaml"], "{}", 1),
    (["charpoly"], json.dumps({"command": "basis", "type": "ish", "ell": 3}), 1),
    (["chambers"], json.dumps({"type": "ish", "ell": 7}), 2),
]


def command_lines() -> None:
    for argv, stdin, code in COMMAND_LINES:
        with mock.patch("sys.stdin", io.StringIO(stdin)), redirect_stdout(io.StringIO()), \
                redirect_stderr(io.StringIO()):
            assert main(argv) == code, argv


def clear_caches() -> None:
    """Empty each ``functools`` cache in ``src``: a hit calls no Python code,
    so a function that earlier tests cached would read as unreached."""
    for name, module in list(sys.modules.items()):
        if name.startswith("ishkit."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def reached_code() -> set[tuple[str, int]]:
    codes = set()
    add = codes.add
    clear_caches()

    def profile(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    sys.setprofile(profile)
    try:
        requests()
        acceptance()
        command_lines()
    finally:
        sys.setprofile(None)
    return {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in codes}


def test_every_src_function_is_reached_or_allowed():
    assert sorted(SPECS) == sorted(SPEC_KINDS)
    defined = defined_functions()
    reached = reached_code()
    unreached = {name for key, name in defined.items() if key not in reached}
    assert sorted(unreached - set(ALLOWED)) == []  # reached by no request, acceptance check or command line
    assert sorted(set(ALLOWED) - unreached) == []  # allowed, but reached or not defined
