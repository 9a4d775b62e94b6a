import ast
from pathlib import Path

import pytest

import ishkit
from ishkit.cli import request_from_doc


def test_every_exported_name_resolves_and_appears_once():
    assert len(ishkit.__all__) == len(set(ishkit.__all__))
    for name in ishkit.__all__:
        assert hasattr(ishkit, name), name
    namespace: dict = {}
    exec("from ishkit import *", namespace)
    assert set(ishkit.__all__) <= set(namespace)


def _records():
    """One of each record type of the package, with its field names."""
    not_free = ishkit.decide_free(ishkit.NestSpec.make([[0, 1], [0, 2]]))
    report = ishkit.survey(2)
    records = [
        (ishkit.Hyperplane((1, -1), 0), ("coeffs", "const")),
        (ishkit.ish_nest(3), ("ell", "den", "nums")),
        (ishkit.Graph.complete(3), ("ell", "edges")),
        (ishkit.from_spec({"type": "ish", "ell": 3}), ("kind", "ell", "nest", "graph", "coned")),
        (ishkit.enumerate_chambers(ishkit.build_named("ish", 2))[0], ("bits", "size", "point", "den")),
        (request_from_doc({"type": "ish", "ell": 3, "command": "charpoly"}),
         ("command", "output_format", "ell", "parsed")),
        (not_free, ("free", "exponents", "witness", "order")),
        (not_free.witness, ("i", "j", "localized_exponents", "restriction_exponent")),
        (ishkit.analyze_graph(ishkit.Graph.complete(3)),
         ("graph", "athanasiadis_witness", "free")),
        (report.records[0], ("analysis", "char_shi", "char_ish")),
        (report, ("ell", "records", "free_count", "violations")),
    ]
    return [pytest.param(record, fields, id=type(record).__name__) for record, fields in records]


@pytest.mark.parametrize("record, fields", _records())
def test_records_refuse_to_set_a_field(record, fields):
    assert record._fields == fields and not hasattr(record, "__dict__")
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


KEY_LAYOUT = {"_FIELD", "_FIELD_CODE", "_MASK", "_GUARD", "_pack", "_unpack", "_check_degree", "_exact"}


def test_only_exactmath_touches_the_packed_monomial_key():
    """No module but ``exactmath`` imports or reads the private names of its key layout."""
    for path in sorted(Path(ishkit.__file__).parent.glob("*.py")):
        if path.name == "exactmath.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                used = {alias.name for alias in node.names} & KEY_LAYOUT
            else:
                used = {node.attr} & KEY_LAYOUT if isinstance(node, ast.Attribute) else set()
            assert not used, f"{path.name}:{node.lineno} uses {sorted(used)}"


def calls_outside(*owners: str):
    """``(module file, line, name)`` for each call of a name or attribute in
    the package's modules other than ``owners``."""
    for path in sorted(Path(ishkit.__file__).parent.glob("*.py")):
        if path.name in owners:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                yield path.name, node.lineno, func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_only_arrangement_makes_hyperplanes_and_arrangements():
    """No module but ``arrangement`` calls ``Arrangement(`` or ``Hyperplane(``:
    the hyperplane form and order have one owner."""
    for module, line, name in calls_outside("arrangement.py"):
        assert name not in ("Arrangement", "Hyperplane"), f"{module}:{line} calls {name}"


def test_only_arrangement_and_graphs_make_graphs_directly():
    """No module but ``arrangement`` and ``graphs`` calls ``Graph(``: every other
    graph comes from ``Graph.make`` or ``Graph.complete``, whose edges are sorted."""
    for module, line, name in calls_outside("arrangement.py", "graphs.py"):
        assert name != "Graph", f"{module}:{line} calls Graph"
