import io
import json
import os
import re
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial
from operator import neg
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ishkit
from ishkit.arrangement import SPEC_KINDS, Arrangement, NestSpec, build_n_ish, cone, from_spec, ish_nest, n_from_graph
from ishkit.chambers import (
    Chamber,
    canonical_chamber,
    chamber_rows,
    distance_poly,
    enumerate_chambers,
    geometric_product,
    ish_base_chamber,
    wallcross_expected,
)
from ishkit.cli import (
    _HANDLERS,
    COMMANDS,
    LATTICE_MAX_ELL,
    _chamber_records,
    _derivation_records,
    _flat_records,
    _json_edges,
    _json_sets,
    _json_unipoly,
    _render,
    _request_echo,
    _survey_records,
    AnalysisRequest,
    main,
    request_from_doc,
    run,
)
from ishkit.errors import CapacityError
from ishkit.exactmath import MultiPoly, UniPoly, format_rational, rational_str, unipoly_str
from ishkit.freeness import _degree, basis_derivations, decide_free, is_nest
from ishkit.graphs import analyze_graph
from ishkit.lattice import Flat
from ishkit.rooks import spec_char_poly
from test_arrangement import (
    MIXED_SETS,
    FractionNestSpec,
    fraction_build_n_ish,
    fraction_cone,
    fraction_ish_nest,
    fraction_n_from_graph,
    nest_to_json,
    rational_set,
    spec_to_json,
)
from test_chambers import (
    chamber_signs,
    chamber_to_json,
    descending_nests,
    difference_arrangements,
    oracle_chamber_of_point,
    oracle_enumerate_chambers,
    witness_text,
)
from test_exactmath import COEF, poly_terms, poly_to_json, unipoly_to_json, var
from test_graphs import analysis_to_json, per_graph_survey, record_to_json, report_to_json
from test_lattice import flat_to_json
from test_freeness import (
    fraction_basis_derivations,
    fraction_decide_free,
    fraction_factored_basis,
    nest_exponents,
)
from test_rooks import fraction_board_columns, fraction_nest_char_poly


def request_of(text: str):
    """The request a JSON document reads as, through the one parse path."""
    return request_from_doc(json.loads(text))


def request_echo(req: AnalysisRequest) -> dict:
    """The canonical spec document reproducing this request: the dict the
    spec echo was rendered from, the oracle of ``cli._request_echo``."""
    out: dict = {"command": req.command, "format": req.output_format}
    if req.parsed is None:
        out["ell"] = req.ell
    else:
        out.update(spec_to_json(req.parsed))
    return out


def text_of(spec: dict, command: str) -> str:
    doc = dict(spec, command=command)
    return run(request_of(json.dumps(doc)))


def json_of(spec: dict, command: str) -> dict:
    doc = dict(spec, command=command, format="json")
    return json.loads(run(request_of(json.dumps(doc))))


def main_error(text: str, capsys, monkeypatch) -> str:
    """The one stderr line of ``ishkit charpoly`` on ``text``, which must fail with exit 1."""
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["charpoly"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    return err


# -- request parsing ---------------------------------------------------


def test_parse_spec_named_type():
    req = request_of('{"type": "ish", "ell": 3, "command": "charpoly"}')
    assert req.command == "charpoly"
    assert req.output_format == "text"
    assert req.ell == 3
    assert req.parsed.kind == "ish"


def test_parse_spec_n_ish_with_fractions():
    req = request_of('{"type": "n_ish", "N": [[0], ["1/2"]], "command": "freeness"}')
    assert req.parsed.nest is not None
    assert rational_set(req.parsed.nest, 3) == (Fraction(1, 2),)


def test_parse_spec_deleted_graph():
    req = request_of(
        '{"type": "deleted_ish", "ell": 4, "edges": [[1, 2], [2, 4]],'
        ' "command": "graph"}'
    )
    assert req.parsed.graph.edges == ((1, 2), (2, 4))


def test_parse_spec_survey_skips_arrangement():
    req = request_of('{"ell": 4, "command": "survey"}')
    assert req.parsed is None
    assert req.ell == 4


def test_parse_spec_rejects_bad_json(capsys, monkeypatch):
    assert main_error("{not json", capsys, monkeypatch).startswith("error: invalid JSON")


def test_parse_spec_rejects_non_object(capsys, monkeypatch):
    err = main_error("[1, 2]", capsys, monkeypatch)
    assert err.startswith("error:") and "JSON object" in err


def test_parse_spec_rejects_unknown_command():
    with pytest.raises(ValueError, match="unknown command"):
        request_of('{"type": "ish", "ell": 3, "command": "frobnicate"}')


def test_parse_spec_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        request_of('{"type": "ish", "ell": 3, "command": "charpoly", "format": "xml"}')


def test_request_echo_round_trips():
    for doc in (
        {"type": "shi", "ell": 3, "command": "charpoly", "format": "json"},
        {"type": "n_ish", "N": [[0, 1], [0]], "cone": True, "command": "saito"},
        {"type": "deleted_ish", "ell": 3, "edges": [[1, 2]], "command": "graph"},
        {"ell": 3, "command": "survey"},
    ):
        req = request_of(json.dumps(doc))
        again = request_of(json.dumps(request_echo(req)))
        assert again == req
        parsed = req.parsed
        assert parsed is None or from_spec(spec_to_json(parsed)) == parsed


def deleted_specs(kind: str):
    """A deleted spec on ell = 2..6 vertices with any edge set, in any order."""
    return st.integers(2, 6).flatmap(lambda ell: st.builds(
        lambda edges: {"type": kind, "ell": ell, "edges": edges},
        st.lists(st.sampled_from([[i, j] for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]),
                 unique_by=tuple),
    ))


ECHO_SPECS = (
    st.builds(lambda kind, ell: {"type": kind, "ell": ell}, st.sampled_from(["coxeter", "shi", "ish"]),
              st.integers(2, 12))
    | st.builds(lambda sets: {"type": "n_ish", "N": sets}, MIXED_SETS)
    | deleted_specs("deleted_shi")
    | deleted_specs("deleted_ish")
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    ECHO_SPECS | st.builds(lambda ell: {"ell": ell}, st.integers(2, 10**30)),  # the last a survey
    st.sampled_from([c for c in COMMANDS if c != "survey"]),
    st.sampled_from(["text", "json"]),
    st.booleans(),
    st.sampled_from(["\n", "\n  ", "\n      "]),
)
@example({"type": "coxeter", "ell": 10**30}, "charpoly", "json", True, "\n  ")
@example({"type": "n_ish", "N": [[], ["-5/6", 7, "1/3"], []]}, "basis", "text", False, "\n")
@example({"type": "deleted_ish", "ell": 3, "edges": []}, "graph", "json", True, "\n  ")
def test_the_spec_echo_is_the_rendered_echo_dict(spec, command, fmt, coned, pad):
    doc = dict(spec, command=command, format=fmt)
    if "type" not in spec:
        doc["command"] = "survey"
    elif coned:
        doc["cone"] = True
    req = request_from_doc(doc)
    assert _request_echo(req, pad) == _render(request_echo(req), pad)


# -- pinned text formats -----------------------------------------------


def test_charpoly_text_is_pinned():
    out = text_of({"type": "ish", "ell": 3}, "charpoly")
    assert out == "t^3 - 6t^2 + 9t = t (t-3)^2"


def test_charpoly_shi_has_no_factorisation():
    # no nest backs a plain Shi spec, so only the expanded form is shown
    out = text_of({"type": "shi", "ell": 3}, "charpoly")
    assert out == "t^3 - 6t^2 + 9t"


def test_freeness_text_not_free_is_pinned():
    out = text_of({"type": "n_ish", "N": [[0], [1]]}, "freeness")
    assert out == "NOT FREE: witness pair (2,3), localized exp (1,1,1), restriction 2"


def test_freeness_text_free():
    out = text_of({"type": "ish", "ell": 3}, "freeness")
    assert out == "FREE: exponents (0, 1, 3, 3)"


def test_wallcross_ish_matches_product_form():
    out = text_of({"type": "ish", "ell": 3}, "wallcross")
    assert out == "t^6 + 2t^5 + 3t^4 + 4t^3 + 3t^2 + 2t + 1"


def test_chambers_text_counts_lines():
    out = text_of({"type": "ish", "ell": 2}, "chambers").splitlines()
    assert out[0] == "3 chambers"
    assert len(out) == 4
    assert all(line.startswith("  ") for line in out[1:])


def test_saito_text():
    out = text_of({"type": "ish", "ell": 2, "cone": True}, "saito")
    assert out == "SAITO PASS: constant -1/1, exponents (0, 1, 2)"


def test_saito_at_the_top_of_the_guard(capsys, tmp_path):
    # The largest staircase the ell <= 6 guard admits.  Expanding det M
    # and dividing by Q(A) also gives the constant -1 here (about 9 s).
    spec = {"type": "ish", "ell": 6, "cone": True}
    out = json_of(spec, "saito")
    assert out["pass"] is True
    assert out["constant"] == "-1/1"
    assert out["exponents"] == [0, 1, 6, 6, 6, 6, 6]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dict(spec, ell=7)))
    assert main(["saito", "--spec", str(path)]) == 2
    assert capsys.readouterr().err.startswith("capacity:")


def test_basis_at_the_top_of_the_guard(capsys, tmp_path):
    # basis takes the nests saito takes, under the same guard: its expanded
    # fields grow about 5x per +2 in ell
    assert len(json_of({"type": "ish", "ell": 6}, "basis")["derivations"]) == 7
    path = tmp_path / "big.json"
    for spec in ({"type": "ish", "ell": 7}, {"type": "n_ish", "N": [[0]] * 6}):
        path.write_text(json.dumps(spec))
        assert main(["basis", "--spec", str(path)]) == 2
        assert capsys.readouterr().err == "capacity: ell = 7 exceeds the guard ell <= 6 for basis\n"


@pytest.mark.parametrize("command", ["basis", "saito", "supersolvable", "chambers", "wallcross"])
def test_the_ell_guard_names_the_command_and_its_bound(command, capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"type": "ish", "ell": 7, "cone": True}))
    assert main([command, "--spec", str(path)]) == 2
    assert capsys.readouterr().err == f"capacity: ell = 7 exceeds the guard ell <= 6 for {command}\n"


def test_lattice_at_the_top_of_the_guard(capsys, tmp_path):
    # The largest cone of Ish the ell <= 6 guard admits.  Neither command builds
    # its 7204-flat poset: charpoly counts rooks, and supersolvable certifies
    # the nest filtration.  The guard refuses ell = 7 for supersolvable; charpoly
    # has its own bound on the rook DP, which admits ell = 16 and refuses ell = 17.
    spec = {"type": "ish", "ell": 6, "cone": True}
    assert text_of(spec, "charpoly") == (
        "t^7 - 31t^6 + 390t^5 - 2520t^4 + 8640t^3 - 14256t^2 + 7776t = t (t-1) (t-6)^5"
    )
    chain = text_of(spec, "supersolvable").splitlines()
    assert chain[0] == "SUPERSOLVABLE: modular chain of ranks 0..6"
    assert len(chain) == 8
    assert text_of(dict(spec, ell=16), "charpoly").endswith(" = t (t-1) (t-16)^15")
    for command, ell in (("charpoly", 17), ("supersolvable", 7)):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(dict(spec, ell=ell)))
        assert main([command, "--spec", str(path)]) == 2
        assert capsys.readouterr().err.startswith("capacity:")


def test_charpoly_guard_names_its_limit_and_estimate(capsys, tmp_path):
    # 2^(ell-1) states x the board's non-empty columns, at least one: 2^15 x 17
    # is the limit, and one more column is over it
    shi = UniPoly.from_roots([0, 1] + [16] * 15)
    assert text_of({"type": "shi", "ell": 16, "cone": True}, "charpoly") == unipoly_str(shi)
    # a graph board has a column per vertex that ends an edge: the Coxeter
    # arrangement has none, and 2^19 states is the most one column admits
    coxeter = UniPoly.from_roots([1, *range(20)])
    assert text_of({"type": "coxeter", "ell": 20, "cone": True}, "charpoly") == unipoly_str(coxeter)
    eight = {"type": "deleted_shi", "ell": 17, "edges": [[1, j] for j in range(2, 10)]}
    assert text_of(eight, "charpoly").startswith("t^17 - 144t^16 + ")
    path = tmp_path / "big.json"
    for doc, estimate in (
        ({"type": "n_ish", "N": [list(range(18))] * 15}, "2^15 states x 18 columns"),
        ({"type": "n_ish", "N": [[]] * 40}, "2^40 states x 1 columns"),
        ({"type": "coxeter", "ell": 21}, "2^20 states x 1 columns"),
        ({"type": "coxeter", "ell": 10**6}, "2^999999 states x 1 columns"),
        ({"type": "shi", "ell": 17}, "2^16 states x 16 columns"),
        ({"type": "shi", "ell": 10**6}, "2^999999 states x 999999 columns"),
        (dict(eight, edges=[[1, j] for j in range(2, 11)]), "2^16 states x 9 columns"),
    ):
        path.write_text(json.dumps(doc))
        assert main(["charpoly", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"capacity: the rook DP needs {estimate}, over the guard of 557056 for charpoly\n"


def test_the_charpoly_guard_counts_a_graphs_columns_off_its_edges(capsys, tmp_path, monkeypatch):
    # the non-empty columns are the heads of the edges, so the guard refuses a
    # long ell without the table of ell + 1 in-neighbour masks
    def never(graph):
        raise AssertionError("the guard built the in-neighbour table")

    monkeypatch.setattr("ishkit.arrangement.Graph.in_masks", never)
    path = tmp_path / "big.json"
    for edges, columns in (([[1, 2]], 1), ([[1, 2], [3, 5], [2, 5]], 2)):
        path.write_text(json.dumps({"type": "deleted_shi", "ell": 10**6, "edges": edges}))
        assert main(["charpoly", "--spec", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"capacity: the rook DP needs 2^999999 states x {columns} columns, over the guard of 557056 for charpoly\n"
        )


def test_supersolvable_needs_central():
    with pytest.raises(ValueError, match="cone"):
        text_of({"type": "ish", "ell": 3}, "supersolvable")


def test_supersolvable_takes_nest_backed_cones_off_the_poset(monkeypatch):
    # no request runs the Moebius closure: the climb gets the rook chi
    def no_closure(arr):
        raise AssertionError("the Moebius closure ran")

    monkeypatch.setattr("ishkit.lattice.char_poly", no_closure)
    nests = [
        ({"type": "ish", "ell": 6}, True),
        ({"type": "n_ish", "N": [[0, "1/2"], [0], [0, "1/2", 1]]}, True),
        ({"type": "n_ish", "N": [[0], [1]]}, False),
        ({"type": "deleted_ish", "ell": 4, "edges": [[1, 3], [2, 4]]}, False),
        ({"type": "deleted_ish", "ell": 4, "edges": [[1, 4], [2, 4]]}, True),
    ]
    for spec, verdict in nests:
        assert json_of(dict(spec, cone=True), "supersolvable")["supersolvable"] is verdict
    # nor do Shi-type cones and central specs that are not coned: the climb
    # makes its covers as it goes
    shi_type = [
        ({"type": "shi", "ell": 3, "cone": True}, False),
        ({"type": "shi", "ell": 6, "cone": True}, False),
        ({"type": "coxeter", "ell": 6, "cone": True}, True),
        ({"type": "coxeter", "ell": 6}, True),
        ({"type": "deleted_shi", "ell": 5, "edges": [[1, 2], [2, 5]], "cone": True}, False),
        ({"type": "deleted_shi", "ell": 4, "edges": [[1, 2], [3, 4]], "cone": True}, False),
        ({"type": "deleted_shi", "ell": 4, "edges": [[1, 2]], "cone": True}, True),
        ({"type": "n_ish", "N": [[0], [0]]}, True),
    ]
    for spec, verdict in shi_type:
        assert json_of(spec, "supersolvable")["supersolvable"] is verdict
        assert text_of(spec, "supersolvable").startswith("SUPER" if verdict else "NOT")


def test_saito_takes_the_factored_route(monkeypatch):
    def expanded(*args):
        raise AssertionError("the expanded route ran")

    decided = []  # one verdict per request gives both the chain order and the exponents

    def decide_once(nest):
        decided.append(nest)
        return decide_free(nest)

    for name in ("ishkit.freeness.saito_constant", "ishkit.freeness.is_log_derivation",
                 "ishkit.cli.basis_derivations"):
        monkeypatch.setattr(name, expanded)
    monkeypatch.setattr("ishkit.cli.decide_free", decide_once)
    spec = {"type": "n_ish", "N": [[0, 1], [0]], "cone": True}
    assert text_of(spec, "saito") == "SAITO PASS: constant 1/1, exponents (0, 1, 2, 2)"
    out = json_of(spec, "saito")
    assert (out["pass"], out["constant"], out["exponents"]) == (True, "1/1", [0, 1, 2, 2])
    assert len(decided) == 2


def test_a_failed_saito_check_is_an_internal_error(capsys, monkeypatch):
    # the paper's basis always passes, so a failing check is a bug in ishkit
    monkeypatch.setattr("ishkit.cli.factored_saito_constant", lambda derivs, arr: None)
    for fmt in ("text", "json"):
        spec = {"type": "n_ish", "N": [[0, 1], [0]], "cone": True, "format": fmt}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
        assert main(["saito"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "internal error: the basis of the ascending nest fails Saito's criterion\n"


def test_charpoly_raises_when_the_exponents_do_not_factor_chi(monkeypatch):
    monkeypatch.setattr("ishkit.cli.spec_char_poly", lambda parsed: UniPoly([0, 1]))
    spec = {"type": "ish", "ell": 3}
    for fmt in ("text", "json"):
        with pytest.raises(RuntimeError, match="free exponents do not factor the rook-number chi"):
            run(request_of(json.dumps(dict(spec, command="charpoly", format=fmt))))


def test_a_failed_check_is_one_internal_error_line_and_exit_3(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("ishkit.cli.spec_char_poly", lambda parsed: UniPoly([0, 1]))
    path = tmp_path / "req.json"
    path.write_text(json.dumps({"type": "ish", "ell": 3}))
    assert main(["charpoly", "--spec", str(path)]) == 3
    assert capsys.readouterr().err == "internal error: free exponents do not factor the rook-number chi\n"
    # a check's message may embed its whole input, and is cut short
    def long_failure(graph):
        raise RuntimeError("x" * 10**5)

    monkeypatch.setattr("ishkit.cli.analyze_graph", long_failure)
    path.write_text(json.dumps({"type": "deleted_shi", "ell": 3}))
    assert main(["graph", "--spec", str(path)]) == 3
    assert capsys.readouterr().err == f"internal error: {'x' * 200}...\n"


def test_main_cuts_a_long_bad_value_short(capsys, monkeypatch):
    # 100000 ones in one value is a 300 KB spec; its message stays one short line
    ones = [1] * 100000
    xs = "x" * 100000
    limit = sys.get_int_max_str_digits()
    cases = (
        ({"type": "n_ish", "N": [[ones]]}, f"cannot read a rational from {repr(ones)[:60]}..."),
        ({"type": "n_ish", "N": [["1" * 100000 + ".5"]]},
         f"cannot read a rational from {repr('1' * 100000)[:60]}...; expected 'p' or 'p/q'"),
        ({"type": "n_ish", "N": [["1/" + "0" * 4000]]}, f"zero denominator in {repr('1/' + '0' * 4000)[:60]}..."),
        ({"type": "deleted_ish", "ell": 3, "edges": [ones]},
         f"edge {repr(ones)[:60]}... is not a pair of integers"),
        ({"type": xs, "ell": 3}, f"unknown arrangement type {repr(xs)[:60]}..."),
        ({"type": "ish", "ell": 3, "cone": ones}, f"'cone' must be true or false, not {repr(ones)[:60]}..."),
        ({"type": "ish", "ell": 3, "format": xs}, f"unknown format {repr(xs)[:60]}...; expected 'text' or 'json'"),
        ({"type": "ish", "ell": 3, "command": xs},
         f"spec says command {repr(xs)[:60]}... but 'charpoly' was invoked"),
        # past the interpreter's digit limit, which stays as it is
        ({"type": "n_ish", "N": [["1/" + "0" * 100000]]},
         f"cannot read a rational from {repr('1/' + '0' * 100000)[:60]}...; a part has more than {limit} digits"),
        ('{"type": "ish", "ell": ' + "1" * 5000 + "}",
         f"invalid JSON: the number {'1' * 20}... has 5000 digits, over the limit of {limit}"),
        ('{"type": "n_ish", "N": [[0, -' + "2" * 100000 + "]]}",
         f"invalid JSON: the number -{'2' * 19}... has 100000 digits, over the limit of {limit}"),
    )
    for doc, message in cases:
        text = doc if isinstance(doc, str) else json.dumps(doc)
        err = main_error(text, capsys, monkeypatch)
        assert err == f"error: {message}\n" and len(err) < 200
    # the command line names its own command, so this one is read only by request_from_doc
    with pytest.raises(ValueError) as exc:
        request_from_doc({"type": "ish", "ell": 3, "command": xs})
    message = str(exc.value)
    assert message.startswith(f"unknown command {repr(xs)[:60]}...; expected one of charpoly,") and len(message) < 200


def test_handlers_render_only_the_requested_format(monkeypatch):
    def never(*args):
        raise AssertionError("rendered the other format")

    nest = {"type": "n_ish", "N": [[0, "1/2"], [0]], "cone": True}
    cone3 = {"type": "ish", "ell": 3, "cone": True}
    with monkeypatch.context() as m:
        m.setattr("ishkit.cli.derivation_str", never)
        m.setattr("ishkit.cli._chain_lines", never)
        m.setattr("ishkit.cli.rational_str", never)
        assert json_of(nest, "basis")["degrees"] == [0, 1, 2, 2]
        assert json_of(cone3, "supersolvable")["supersolvable"] is True
        assert json_of(cone3, "chambers")["count"] == 32
    with monkeypatch.context() as m:
        m.setattr("ishkit.cli.poly_json_str", never)
        m.setattr("ishkit.cli._json_rational", never)
        m.setattr("ishkit.cli._flat_records", never)
        assert text_of(nest, "basis").startswith("sets taken in ascending order (3, 2)")
        assert text_of(cone3, "supersolvable").startswith("SUPERSOLVABLE")
        assert text_of(cone3, "chambers").startswith("32 chambers")


def test_commands_on_the_nest_never_build_the_arrangement(monkeypatch):
    def build(*args):
        raise AssertionError("the spec's arrangement was built")

    for name in ("build_named", "build_n_ish", "build_deleted"):
        monkeypatch.setattr(f"ishkit.arrangement.{name}", build)
    assert text_of({"type": "ish", "ell": 200}, "freeness").startswith("FREE: exponents (0, 1, 200,")
    assert text_of({"type": "ish", "ell": 5}, "charpoly") == "t^5 - 20t^4 + 150t^3 - 500t^2 + 625t = t (t-5)^4"
    assert text_of({"type": "ish", "ell": 2}, "basis").startswith("theta_0 (degree 0)")
    assert text_of({"type": "deleted_shi", "ell": 3, "edges": [[1, 2]]}, "graph").startswith("edges: (1,2)")


def test_supersolvable_text_chain():
    out = text_of({"type": "ish", "ell": 3, "cone": True}, "supersolvable").splitlines()
    assert out[0] == "SUPERSOLVABLE: modular chain of ranks 0..3"
    assert len(out) == 5


def test_graph_text_fields():
    out = text_of(
        {"type": "deleted_ish", "ell": 3, "edges": [[1, 2], [2, 3]]}, "graph"
    ).splitlines()
    assert out[0] == "edges: (1,2) (2,3)"
    assert out[2] == "nest: no"
    assert out[5] == "free: no"


@pytest.mark.parametrize("kind", ["deleted_shi", "deleted_ish"])
def test_graph_answers_are_the_analysis_oracle_on_every_graph_to_four_vertices(kind):
    for ell in (2, 3, 4):
        pairs = [[i, j] for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
        for mask in range(1 << len(pairs)):
            edges = [pair for bit, pair in enumerate(pairs) if mask >> bit & 1]
            spec = {"type": kind, "ell": ell, "edges": edges}
            graph = from_spec(spec).graph
            out = json_of(spec, "graph")
            assert out == {"command": "graph", "spec": dict(spec, command="graph", format="json"),
                           **analysis_to_json(analyze_graph(graph))}
            assert f"derived sets: {n_from_graph(graph)}" in text_of(spec, "graph").splitlines()


def test_a_graph_request_builds_its_derived_sets_once():
    # a deleted_ish spec's nest is N_G, built once by from_spec and written
    # as it is; a deleted_shi spec has no nest, so the command builds N_G
    for kind, parsed_calls, written_calls in (("deleted_ish", 1, 0), ("deleted_shi", 0, 1)):
        spec = {"type": kind, "ell": 4, "edges": [[1, 3], [2, 4]]}
        for fmt in ("text", "json"):
            with mock.patch("ishkit.arrangement.n_from_graph", wraps=n_from_graph) as parsed, \
                    mock.patch("ishkit.cli.n_from_graph", wraps=n_from_graph) as written:
                answer = run(request_of(json.dumps(dict(spec, command="graph", format=fmt))))
            assert (parsed.call_count, written.call_count) == (parsed_calls, written_calls)
            sets = n_from_graph(from_spec(spec).graph)
            if fmt == "text":
                assert f"derived sets: {sets}" in answer.splitlines()
            else:
                assert json.loads(answer)["nG"] == [[format_rational(a, sets.den) for a in nums] for nums in sets.nums]


def test_survey_text_summary():
    out = text_of({"ell": 3}, "survey").splitlines()
    assert out[0] == "K_3: 8 subgraphs, 7 free, 0 violations"
    assert out[1] == "  not free: (1,2) (2,3)"


def test_basis_commands_on_non_chain_fail():
    with pytest.raises(ValueError, match="chain"):
        text_of({"type": "n_ish", "N": [[0], [1]]}, "basis")


# -- json output -------------------------------------------------------


def test_json_output_echoes_spec():
    out = json_of({"type": "ish", "ell": 3}, "charpoly")
    assert out["command"] == "charpoly"
    assert out["spec"]["type"] == "ish"
    assert out["spec"]["ell"] == 3
    assert out["roots"] == [0, 3, 3]
    assert out["charPoly"] == ["0/1", "9/1", "-6/1", "1/1"]


def test_json_output_is_deterministic():
    doc = {"type": "n_ish", "N": [[0, 1], [0]], "cone": True}
    runs = {run(request_of(json.dumps(dict(doc, command="saito", format="json")))) for _ in range(3)}
    assert len(runs) == 1


def test_json_wallcross_reports_chamber_count():
    out = json_of({"type": "ish", "ell": 3}, "wallcross")
    assert out["chambers"] == 16
    assert out["distancePoly"][0] == "1/1"


@pytest.mark.parametrize("sets", [
    [[0, 1], [0, 1, 2]],
    [[0, 1, 2], [0, 1], [1]],
    [["1/2"], ["1/2", 2], ["-3/2", "1/2", 2]],
    [[3], [], [0, 3]],
])
def test_wallcross_answers_for_the_cone_of_the_descending_nest(sets):
    # an affine n_ish spec answers as its cone does (documented, not changed:
    # the benchmark's reference answers expect the cone's polynomial)
    affine, coned = {"type": "n_ish", "N": sets}, {"type": "n_ish", "N": sets, "cone": True}
    nest = from_spec(affine).nest
    descending = nest.reordered(tuple(reversed(is_nest(nest))))
    expected = wallcross_expected(descending)
    assert text_of(affine, "wallcross") == text_of(coned, "wallcross") == unipoly_str(expected)
    assert json_of(affine, "wallcross")["chambers"] == json_of(coned, "wallcross")["chambers"] == expected.evaluate(1)
    if sets == [[0, 1], [0, 1, 2]]:  # affine Ish l = 3, whose own answer counts 16 chambers
        assert unipoly_str(expected) == "t^7 + 3t^6 + 5t^5 + 7t^4 + 7t^3 + 5t^2 + 3t + 1"
        assert text_of({"type": "ish", "ell": 3}, "wallcross") == "t^6 + 2t^5 + 3t^4 + 4t^3 + 3t^2 + 2t + 1"


@st.composite
def chained_wallcross_specs(draw):
    """A spec that ``wallcross`` answers for the cone of its chained nest, l <= 5:
    ``n_ish``, affine or coned, with half-integer entries and its sets in any
    order, the coned staircase, or ``deleted_ish`` whose derived sets form a chain."""
    kind = draw(st.sampled_from(["n_ish", "ish", "deleted_ish"]))
    if kind == "n_ish":
        sets = draw(st.permutations(nest_to_json(draw(descending_nests()))))
        return {"type": "n_ish", "N": sets, "cone": draw(st.booleans())}
    ell = draw(st.integers(2, 5))
    if kind == "ish":
        return {"type": "ish", "ell": ell, "cone": True}
    pairs = [(i, j) for i in range(1, ell) for j in range(i + 1, ell + 1)]
    spec = {"type": "deleted_ish", "ell": ell, "edges": draw(st.lists(st.sampled_from(pairs), unique=True)),
            "cone": draw(st.booleans())}
    assume(is_nest(from_spec(spec).nest) is not None)
    return spec


@settings(max_examples=60, deadline=None, derandomize=True)
@given(chained_wallcross_specs())
@example({"type": "n_ish", "N": [["-3/2", "1/2", 2], ["1/2"], ["1/2", 2]]})
@example({"type": "n_ish", "N": [[], [], []], "cone": True})
@example({"type": "ish", "ell": 5, "cone": True})
@example({"type": "deleted_ish", "ell": 4, "edges": [[1, 4], [2, 4]]})
def test_wallcross_is_the_walk_from_the_canonical_chamber(spec):
    nest = from_spec(spec).nest
    descending = nest.reordered(tuple(reversed(is_nest(nest))))
    arr = cone(build_n_ish(descending))
    walk = distance_poly(arr, canonical_chamber(descending, arr))
    assert text_of(spec, "wallcross") == unipoly_str(walk)
    out = json_of(spec, "wallcross")
    assert (out["distancePoly"], out["chambers"]) == (unipoly_to_json(walk), walk.evaluate(1))


@pytest.mark.parametrize("ell", range(2, 8))
def test_affine_ish_wallcross_is_the_walk_from_its_base_chamber(ell):
    walk = distance_poly(*ish_base_chamber(ell))
    nest = ish_nest(ell)
    exponents = list(nest_exponents(nest, is_nest(nest)))
    exponents.remove(1)  # the factor of z = 0, as the command leaves it out
    assert geometric_product(exponents) == geometric_product([ell] * (ell - 1)) == walk
    if ell <= LATTICE_MAX_ELL:
        assert text_of({"type": "ish", "ell": ell}, "wallcross") == unipoly_str(walk)
    else:
        with pytest.raises(CapacityError, match=f"^ell = {ell} exceeds the guard ell <= 6 for wallcross$"):
            text_of({"type": "ish", "ell": ell}, "wallcross")


WALLCROSS_KINDS = (
    {"type": "ish", "ell": 4},
    {"type": "ish", "ell": 4, "cone": True},
    {"type": "n_ish", "N": [["1/2"], ["1/2", 2], ["-3/2", "1/2", 2]]},
    {"type": "deleted_ish", "ell": 4, "edges": [[1, 4], [2, 4]], "cone": True},
)


def test_wallcross_walks_no_region(monkeypatch):
    docs = [dict(spec, command="wallcross", format=f) for spec in WALLCROSS_KINDS for f in ("text", "json")]
    want = [answer_of(doc) for doc in docs]

    def never(*args):
        raise AssertionError("wallcross walked the regions")

    for name in ("_regions", "distance_poly", "canonical_chamber", "ish_base_chamber"):
        monkeypatch.setattr(f"ishkit.chambers.{name}", never)
    assert [answer_of(doc) for doc in docs] == want


# one spec of each kind, chained where it has a nest
PATH_SPECS = {
    "coxeter": {"type": "coxeter", "ell": 4},
    "shi": {"type": "shi", "ell": 3},
    "ish": {"type": "ish", "ell": 4},
    "n_ish": {"type": "n_ish", "N": [["1/2"], ["1/2", 2], ["-3/2", "1/2", 2]]},
    "deleted_shi": {"type": "deleted_shi", "ell": 4, "edges": [[1, 2], [2, 4], [3, 4]]},
    "deleted_ish": {"type": "deleted_ish", "ell": 4, "edges": [[1, 4], [2, 4]]},
}
NEST_KINDS = ("ish", "n_ish", "deleted_ish")
# the kinds each command that reads a spec accepts; supersolvable takes them coned
ACCEPTED_KINDS = {
    "charpoly": SPEC_KINDS,
    "freeness": NEST_KINDS,
    "basis": NEST_KINDS,
    "saito": NEST_KINDS,
    "supersolvable": SPEC_KINDS,
    "chambers": SPEC_KINDS,
    "wallcross": NEST_KINDS,
    "graph": ("deleted_shi", "deleted_ish"),
}


def request_path_docs(commands) -> list[dict]:
    """Each command on one spec of each kind it accepts, affine and coned, in both formats."""
    docs = []
    for command in commands:
        if command == "survey":  # reads no spec
            specs = [{"ell": 3}]
        else:
            coned = (True,) if command == "supersolvable" else (False, True)
            specs = [dict(PATH_SPECS[kind], cone=c) for kind in ACCEPTED_KINDS[command] for c in coned]
        docs += [dict(spec, command=command, format=f) for spec in specs for f in ("text", "json")]
    return docs


def test_no_request_reads_an_arrangement_back(monkeypatch):
    # every arrangement a request builds is made of well-formed gain edges
    # over a positive den: None, the edge of z = 0, only when coned, and
    # otherwise (i, j, c) with 0 <= i < j < ell and an int gain c
    docs = request_path_docs(COMMANDS)
    assert {doc["command"] for doc in docs} == set(COMMANDS)
    want = [answer_of(doc) for doc in docs]
    assert not any(answer.startswith("ValueError") for answer in want)
    init = Arrangement.__init__

    def edges_only(self, dim, den, edges, coned=False):
        edges, ell = tuple(edges), dim - coned
        bad = [e for e in edges if not (coned if e is None else 0 <= e[0] < e[1] < ell and type(e[2]) is int)]
        assert type(den) is int and den > 0 and not bad, f"a request built the edges {bad} over {den!r}"
        init(self, dim, den, edges, coned)

    monkeypatch.setattr(Arrangement, "__init__", edges_only)
    assert [answer_of(doc) for doc in docs] == want


def assert_no_hyperplane_is_derived(docs, monkeypatch) -> None:
    """The answers to the requests stay the same with ``Arrangement.hyperplanes`` made to raise."""
    want = [answer_of(doc) for doc in docs]

    def never(*args):
        raise AssertionError("the request derived the hyperplanes of its gain edges")

    monkeypatch.setattr(Arrangement, "hyperplanes", property(never))
    assert [answer_of(doc) for doc in docs] == want


def test_chambers_and_wallcross_read_no_hyperplane(monkeypatch):
    assert_no_hyperplane_is_derived(request_path_docs(("chambers", "wallcross")), monkeypatch)


def test_supersolvable_reads_no_hyperplane(monkeypatch):
    # every spec kind, affine and coned: centrality is read off the gain edges
    docs = [
        dict(spec, cone=c, command="supersolvable", format=f)
        for spec in PATH_SPECS.values() for c in (False, True) for f in ("text", "json")
    ]
    docs += [  # central without a cone: every gain 0
        dict(spec, command="supersolvable", format=f)
        for spec in ({"type": "deleted_ish", "ell": 4}, {"type": "n_ish", "N": [[0], [], [0]]})
        for f in ("text", "json")
    ]
    answers = [answer_of(doc) for doc in docs]
    assert sum(a.startswith("SUPERSOLVABLE") or '"supersolvable": true' in a for a in answers) >= 8
    assert sum(a.startswith("ValueError: the lattice test needs a central") for a in answers) == 5 * 2
    assert_no_hyperplane_is_derived(docs, monkeypatch)


def assert_wallcross_internal_error(capsys, tmp_path, message: str) -> None:
    """Each spec of ``WALLCROSS_KINDS`` raises ``RuntimeError`` in ``run`` and exits 3
    from ``main`` with one ``internal error:`` line, in both formats."""
    path = tmp_path / "req.json"
    for spec in WALLCROSS_KINDS:
        for fmt in ("text", "json"):
            with pytest.raises(RuntimeError, match=message):
                run(request_of(json.dumps(dict(spec, command="wallcross", format=fmt))))
            path.write_text(json.dumps(spec))
            assert main(["wallcross", "--spec", str(path), "--format", fmt]) == 3
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.startswith("internal error: ") and out.err.count("\n") == 1


def test_a_wrong_exponent_fails_the_chamber_count(capsys, monkeypatch, tmp_path):
    def one_too_many(nest):
        verdict = decide_free(nest)
        exponents = verdict.exponents
        return verdict._replace(exponents=exponents[:-1] + (exponents[-1] + 1,))

    monkeypatch.setattr("ishkit.cli.decide_free", one_too_many)
    assert_wallcross_internal_error(capsys, tmp_path, r"\|chi\(-1\)\|")


def test_a_failed_chain_certificate_is_an_internal_error(capsys, monkeypatch, tmp_path):
    def broken(arr, order):
        raise RuntimeError("the top flat of the filtration misses a hyperplane")

    monkeypatch.setattr("ishkit.cli.nest_modular_chain", broken)
    assert_wallcross_internal_error(capsys, tmp_path, "the top flat of the filtration")


def oracle_report(spec: dict, command: str, fmt: str) -> str:
    """The ``chambers`` or ``wallcross`` report written from the Fraction records
    (``test_chambers.oracle_enumerate_chambers``) and the parent's rendering."""
    req = request_of(json.dumps(dict(spec, command=command, format=fmt)))
    parsed = req.parsed
    if command == "chambers":
        chambers = oracle_enumerate_chambers(parsed.arrangement)
        answer = {"count": len(chambers), "chambers": [c.to_json() for c in chambers]}
        lines = [f"{len(chambers)} chambers"]
        for c in chambers:
            point = ", ".join(str(v) for v in c.witness)
            lines.append(f"  {c.sign_vector}  witness ({point})")
    else:
        if parsed.kind == "ish" and not parsed.coned:  # the base x1 < xl < ... < x2
            arr, witness = parsed.arrangement, [0, *range(parsed.ell - 1, 0, -1)]
        else:  # the canonical chamber of the sets in descending order
            nest = parsed.nest.reordered(tuple(reversed(is_nest(parsed.nest))))
            arr, n2 = cone(build_n_ish(nest)), rational_set(nest, 2)
            witness = [1 + min(n2) if n2 else 1, *range(2, nest.ell + 1), 1]
        base = oracle_chamber_of_point(arr, witness).sign_vector.signs
        counts = [0] * (len(arr) + 1)
        for c in oracle_enumerate_chambers(arr):
            counts[sum(a != b for a, b in zip(c.sign_vector.signs, base))] += 1
        poly = UniPoly(counts)
        answer = {"distancePoly": unipoly_to_json(poly), "chambers": int(poly.evaluate(1))}
        lines = [unipoly_str(poly)]
    if fmt == "json":
        return dumps({"command": command, "spec": request_echo(req), **answer})
    return "\n".join(lines)


CHAMBER_SPECS = (
    [{"type": k, "ell": ell} for k in ("shi", "ish", "coxeter") for ell in (2, 3, 4)]
    + [
        {"type": "n_ish", "N": N}
        for N in (
            [["1/2", 1], [0, 3], [2]],
            [[0, 1], [0]],
            [[0, "-1/2"], [0]],
            [[], []],
            [[1, 2, "5/2"], [1, 2], [1]],
            [["-3/2"], ["-3/2", 0], ["-3/2", 0, "1/2"]],
        )
    ]
    + [
        {"type": kind, "ell": ell, "edges": edges}
        for kind in ("deleted_shi", "deleted_ish")
        for ell, edges in (
            (3, [[1, 2]]),
            (3, [[1, 3], [2, 3]]),
            (4, [[1, 2], [2, 4]]),
            (4, [[1, 3], [1, 4], [2, 4]]),
            (4, []),
        )
    ]
)


@pytest.mark.parametrize("coned", [False, True])
@pytest.mark.parametrize("spec", CHAMBER_SPECS)
def test_chamber_reports_match_the_fraction_records(spec, coned):
    spec = dict(spec, cone=coned)
    parsed = request_of(json.dumps(dict(spec, command="chambers"))).parsed
    commands = ["chambers"]
    if (parsed.kind == "ish" and not coned) or (
        parsed.nest is not None and is_nest(parsed.nest) is not None
    ):
        commands.append("wallcross")
    else:  # no base chamber is known
        with pytest.raises(ValueError):
            text_of(spec, "wallcross")
    for command in commands:
        for fmt in ("text", "json"):
            doc = dict(spec, command=command, format=fmt)
            assert run(request_of(json.dumps(doc))) == oracle_report(spec, command, fmt)


@contextmanager
def fraction_program():
    """The commands as they ran with one ``Fraction`` per nest entry: every
    reader of a nest swapped for its ``FractionNestSpec`` oracle."""
    swaps = {
        "ishkit.arrangement.NestSpec": FractionNestSpec,
        "ishkit.arrangement.ish_nest": fraction_ish_nest,
        "ishkit.arrangement.n_from_graph": fraction_n_from_graph,
        "ishkit.arrangement.build_n_ish": fraction_build_n_ish,
        "ishkit.arrangement.cone": fraction_cone,
        "ishkit.cli.build_n_ish": fraction_build_n_ish,
        "ishkit.cli.cone": fraction_cone,
        "ishkit.cli.decide_free": fraction_decide_free,
        "ishkit.cli.factored_basis": fraction_factored_basis,
        "ishkit.cli.basis_derivations": fraction_basis_derivations,
        "ishkit.cli.board_columns": fraction_board_columns,
        "ishkit.rooks.nest_char_poly": fraction_nest_char_poly,
        "ishkit.cli._request_echo": lambda req, pad: _render(request_echo(req), pad),
    }
    with pytest.MonkeyPatch.context() as m:
        for name, oracle in swaps.items():
            m.setattr(name, oracle)
        yield


def answer_of(doc: dict) -> str:
    """The rendered answer to a request document, or its ``ValueError``."""
    try:
        return run(request_of(json.dumps(doc)))
    except ValueError as exc:
        return f"ValueError: {exc}"


# entries over 2, 3, 4 and 6, negative ones among them, in chains and not
MIXED_NESTS = (
    [["-5/6", "1/3"], ["-5/6", "1/3", "7/4"], ["1/3"]],
    [["1/2", "-5/6"], ["7/4", "1/3"]],
    [["7/4", 0], ["-5/6", "7/4", 0, "2/3"], ["7/4"]],
    [["1/3", "-1/4"], ["-1/4", "5/6"], ["-5/6", "1/3", "-1/4"]],
    [["-5/6"], ["-5/6", "3/2"]],
    [[], ["2/4", "-3/6"], [1, "1/3"]],
)
NEST_COMMANDS = ("charpoly", "freeness", "basis", "saito", "supersolvable", "chambers", "wallcross")


@pytest.mark.parametrize("coned", [False, True])
@pytest.mark.parametrize("spec", [{"type": "n_ish", "N": N} for N in MIXED_NESTS] + [
    {"type": "ish", "ell": 4},
    {"type": "deleted_ish", "ell": 4, "edges": [[1, 3], [2, 4], [3, 4]]},
    {"type": "deleted_ish", "ell": 4, "edges": [[1, 4], [2, 4]]},
])
def test_nest_commands_match_the_fraction_program(spec, coned):
    spec = dict(spec, cone=coned)
    docs = [dict(spec, command=c, format=f) for c in NEST_COMMANDS for f in ("text", "json")]
    got = [answer_of(doc) for doc in docs]
    with fraction_program():
        want = [answer_of(doc) for doc in docs]
    assert got == want
    assert any(not answer.startswith("ValueError") for answer in got)


@pytest.mark.parametrize("spec", [{"type": "n_ish", "N": MIXED_NESTS[i]} for i in (0, 2, 4)] + [
    {"type": "ish", "ell": 5},
    {"type": "n_ish", "N": [[], [], [0]]},
])
def test_basis_degrees_are_the_derivation_degrees(spec):
    nest = request_of(json.dumps(dict(spec, command="basis"))).parsed.nest
    order = is_nest(nest)
    degrees = [_degree(d) for d in basis_derivations(nest.reordered(order))]
    assert json_of(spec, "basis")["degrees"] == degrees
    lines = text_of(spec, "basis").splitlines()[-len(degrees):]
    assert [int(line.split("degree ")[1].split(")")[0]) for line in lines] == degrees


@pytest.mark.parametrize("N, message", [
    ([[True], [0]], "cannot read a rational from True"),
    ([[1.5], [0]], "cannot read a rational from 1.5"),
    ([["1/0"], [0]], "zero denominator in '1/0'"),
    (5, "'N' must be a list of lists of rationals"),
])
def test_nest_spec_rejections_match_the_fraction_program(N, message):
    docs = [{"type": "n_ish", "N": N, "command": c} for c in NEST_COMMANDS]
    got = [answer_of(doc) for doc in docs]
    with fraction_program():
        want = [answer_of(doc) for doc in docs]
    assert got == want == [f"ValueError: {message}"] * len(docs)


def old_survey_text(report) -> str:
    """The text answer of a survey, written from its records as ``_cmd_survey`` did."""
    lines = [
        f"K_{report.ell}: {report.total} subgraphs, {report.free_count} free, "
        f"{len(report.violations)} violations"
    ]
    for record in report.records:
        if not record.analysis.free:
            edges = " ".join(f"({i},{j})" for i, j in sorted(record.analysis.graph.edges))
            lines.append(f"  not free: {edges or 'no edges'}")
    lines.extend(f"  VIOLATION: {v}" for v in report.violations)
    return "\n".join(lines)


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_survey_answers_match_the_per_graph_route_byte_for_byte(ell):
    # the old route: the per-graph loop, its records as dicts, and the dict path of _render
    report = per_graph_survey(ell)
    for fmt in ("text", "json"):
        req = request_of(json.dumps({"command": "survey", "ell": ell, "format": fmt}))
        if fmt == "json":
            want = _render({"command": "survey", "spec": request_echo(req), **report_to_json(report)})
        else:
            want = old_survey_text(report)
        assert run(req) == want


def test_json_survey_shape():
    out = json_of({"ell": 2}, "survey")
    assert out["total"] == 2
    assert out["freeCount"] == 2
    assert out["violations"] == []


def dumps(value) -> str:
    """The oracle of the JSON renderer."""
    return json.dumps(value, indent=2, sort_keys=True)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), -(10**30)) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(JSON_VALUES)
@example({"": [], "a": {}, "b": [[], {}, [{}]]})
@example(["\"quoted\"", "back\\slash", "\x00\x1f\x7f\n\t", "é ∑ 𝄞", "\u2028"])
@example({"é": -(10**50), "\n": [True, False, None], "\"": 0})
def test_render_matches_json_dumps(value):
    assert _render(value) == dumps(value)


# each writer of ``cli``, by the oracle of what it writes, from the writer's arguments
ORACLES = {
    _json_unipoly: unipoly_to_json,
    _derivation_records: lambda derivs: [[poly_to_json(c) for c in d] for d in derivs],
    _flat_records: lambda chain: [flat_to_json(flat) for flat in chain],
    _chamber_records: lambda rows, den, size: [chamber_to_json(Chamber(bits, size, point, den)) for bits, point in rows],
    _json_edges: lambda graph, memo: [list(e) for e in sorted(graph.edges)],
    _json_sets: lambda nest, memo: nest_to_json(nest),
    _survey_records: lambda records: [record_to_json(r) for r in records],
    _request_echo: request_echo,
}


def oracle_records(value):
    """``value`` with each writer replaced by what its oracle builds from the
    writer's arguments: ``unipoly_to_json``, ``poly_to_json``, ``flat_to_json``,
    ``chamber_to_json``, ``nest_to_json``, ``record_to_json`` or ``request_echo``."""
    if type(value) is partial:
        return ORACLES[value.func](*value.args)
    if type(value) is list:
        return [oracle_records(v) for v in value]
    if type(value) is dict:
        return {k: oracle_records(v) for k, v in value.items()}
    return value


POLYS = st.integers(0, 4).flatmap(
    lambda n: st.builds(MultiPoly, st.just(n), poly_terms(n) | st.builds(
        lambda coef: {(0,) * n: coef}, COEF | st.integers(-(10**20), 10**20)))
)
# the chambers of one answer: one size, one den, and points that are never empty
CHAMBERS = st.tuples(st.integers(0, 6), st.integers(1, 12) | st.integers(1, 10**20)).flatmap(
    lambda shape: st.lists(st.builds(
        Chamber,
        st.integers(0, (1 << shape[0]) - 1),
        st.just(shape[0]),
        st.lists(st.integers(-50, 50) | st.integers(-(10**20), 10**20), min_size=1, max_size=5).map(tuple),
        st.just(shape[1]),
    ), min_size=1, max_size=3)
)


def written(value):
    """``value`` with each value a handler hands over as a writer replaced by
    that writer: a list of ``Chamber``s by the ``_chamber_records`` of their
    rows, a list of ``Flat``s by ``_flat_records``, and polynomials by
    ``_derivation_records``, one writer, and so one exponent memo, for a
    list of lists of ``MultiPoly`` (a basis), a list of them (a basis of one
    derivation) or one alone."""
    if type(value) is MultiPoly:
        return partial(_derivation_records, [[value]])
    kinds = {type(v) for v in value} if type(value) is list else None
    if kinds == {Chamber}:
        return partial(_chamber_records, [(c.bits, c.point) for c in value], value[0].den, value[0].size)
    if kinds == {Flat}:
        return partial(_flat_records, value)
    if kinds == {MultiPoly}:
        return partial(_derivation_records, [value])
    if kinds == {list} and all({type(p) for p in v} == {MultiPoly} for v in value):
        return partial(_derivation_records, value)
    if type(value) is list:
        return [written(v) for v in value]
    if type(value) is dict:
        return {k: written(v) for k, v in value.items()}
    return value


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.recursive(
    POLYS | CHAMBERS,  # chambers come as a list alone
    lambda children: st.lists(children | st.integers() | st.text(max_size=3), max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
))
@example(MultiPoly(0))
@example([MultiPoly(0), MultiPoly.const(0, Fraction(-3, 2)), var(1, 0)])
@example({"a": [[Chamber(0, 0, (7,), 1)], [Chamber(5, 3, (0, -4, 6), 4)]]})
@example([Chamber(1, 2, (1, -2), 4), Chamber(2, 2, (-1, 2), 4), Chamber(3, 2, (4, 0), 4)])
@example({  # one monomial key at two depths and under two nvars: the exponent memo's scope
    "a": [
        MultiPoly(2, {(1, 0): 1, (0, 0): 2}),
        [MultiPoly(2, {(1, 0): 3}), MultiPoly(3, {(0, 1, 0): 1, (0, 0, 0): -1})],
    ],
    "b": [MultiPoly(3, {(0, 0, 0): 5}), MultiPoly(2, {(0, 0): Fraction(1, 2), (1, 0): 1})],
    "c": [[MultiPoly(2, {(0, 0): 1}), MultiPoly(3, {(0, 0, 0): 2})], [MultiPoly(2, {(1, 0): 1, (0, 0): -1})]],
})
@example({  # chains of flats, each written in one pass
    "a": [Flat.ambient(3, True, 2), Flat((1, 1), (-1, 0), False, True, 2), Flat((1, 1), (0, 0), True, True, 2)],
    "b": [[Flat((0, 2, 2), (0, 3, 0), False, False, 2)], 1],
})
def test_render_writes_polynomials_and_chambers_as_their_oracle_records(value):
    value = written(value)
    assert _render(value) == dumps(oracle_records(value))


@pytest.mark.parametrize("spec", [
    {"type": "ish", "ell": 3, "cone": True},
    {"type": "n_ish", "N": [["1/2", "-3/2"], [0, "5/2"]], "cone": True},  # half-integer gains
    {"type": "n_ish", "N": [["1/2", "-3/2"], [0, "5/2"]]},
    {"type": "n_ish", "N": [[]]},  # no hyperplane
])
def test_the_chamber_writer_matches_its_oracles_on_whole_answers(spec):
    parsed = from_spec(spec)
    chambers = enumerate_chambers(parsed.arrangement)
    points = [c.point for c in chambers]
    if parsed.coned:  # the antipodes repeat every numerator negated
        assert sorted(tuple(map(neg, p)) for p in points) == sorted(points)
    if not parsed.nest.nums[0]:  # one chamber, with empty signs
        assert [chamber_signs(c) for c in chambers] == [""]
    records = [chamber_to_json(c) for c in chambers]
    value = written(chambers)
    assert oracle_records(value) == records and _render(value) == dumps(records)
    assert _render({"chambers": value, "count": len(chambers)}) == dumps(
        {"chambers": records, "count": len(chambers)}
    )
    lines = [f"  {chamber_signs(c)}  witness ({witness_text(c)})" for c in chambers]
    assert text_of(spec, "chambers") == "\n".join([f"{len(chambers)} chambers", *lines])


# -- the Chamber-list writer that the row writer replaced: its oracle ----


def old_witness_coordinates(chambers: list[Chamber], write):
    """Each chamber with its witness coordinates, as ``write(num, den)`` writes
    them: each distinct numerator once, a new memo wherever ``den`` changes."""
    memo: dict[int, str] = {}
    den = 0  # no chamber has den 0: the first one starts a memo
    for c in chambers:
        if c.den != den:
            memo, den = {}, c.den
        yield c, [memo[x] if x in memo else memo.setdefault(x, write(x, den)) for x in c.point]


def old_chamber_records(chambers: list[Chamber], pad: str) -> list[str]:
    """Each chamber as ``json.dumps`` writes ``{"signs": ..., "witness": [...]}``
    at the indent ``pad``, each witness coordinate as ``format_rational`` does."""
    inner = pad + "  "
    field = inner + "  "
    sep = "," + field
    records = []
    for c, coords in old_witness_coordinates(chambers, lambda num, den: f'"{format_rational(num, den)}"'):
        witness = f"[{field}{sep.join(coords)}{inner}]" if coords else "[]"
        records.append(f'{{{inner}"signs": "{chamber_signs(c)}",{inner}"witness": {witness}{pad}}}')
    return records


def old_chambers_written(chambers: list[Chamber], pad: str | None = None) -> str:
    """The chambers as the Chamber-list writer wrote them: the text lines after
    the count, or the JSON list at the indent ``pad``."""
    if pad is None:
        return "\n".join(
            f"  {chamber_signs(c)}  witness ({', '.join(coords)})"
            for c, coords in old_witness_coordinates(chambers, rational_str)
        )
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(old_chamber_records(chambers, inner)) + pad + "]"


@st.composite
def chamber_spec_docs(draw) -> dict:
    """A spec of every kind with ell <= 4, coned or affine; nests with
    half-integer entries, empty sets included."""
    kind, coned, ell = draw(st.sampled_from(SPEC_KINDS)), draw(st.booleans()), draw(st.integers(2, 4))
    if kind == "n_ish":
        sets = st.lists(st.lists(st.integers(-4, 4).map(lambda n: f"{n}/2"), max_size=3), min_size=ell - 1, max_size=ell - 1)
        return {"type": kind, "N": draw(sets), "cone": coned}
    spec = {"type": kind, "ell": ell, "cone": coned}
    if kind.startswith("deleted"):
        pairs = [(i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
        spec["edges"] = [list(e) for e in draw(st.lists(st.sampled_from(pairs), unique=True))]
    return spec


@settings(max_examples=80, deadline=None, derandomize=True)
@given(chamber_spec_docs())
@example({"type": "n_ish", "N": [[]], "cone": False})  # one chamber, with empty signs
@example({"type": "n_ish", "N": [[]], "cone": True})  # z = 0 alone
@example({"type": "n_ish", "N": [["1/2", "-3/2"], [0, "5/2"]], "cone": True})  # half-integer gains
@example({"type": "ish", "ell": 4, "cone": True})
def test_chamber_answers_are_the_old_chamber_list_writers(spec):
    chambers = enumerate_chambers(from_spec(spec).arrangement)
    assert text_of(spec, "chambers") == f"{len(chambers)} chambers\n" + old_chambers_written(chambers)
    req = request_of(json.dumps(dict(spec, command="chambers", format="json")))
    rest = _render({"command": "chambers", "spec": request_echo(req), "count": len(chambers)})
    # "chambers" sorts first: the old list at the indent of the answer's fields, then the rest
    assert run(req) == '{\n  "chambers": ' + old_chambers_written(chambers, "\n  ") + "," + rest[1:]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(difference_arrangements())
@example(cone(build_n_ish(NestSpec.make([["-1/2", 1], [0], ["3/2"]]))))
def test_the_row_writer_is_the_old_chamber_list_writer(arr):
    rows, den = chamber_rows(arr)
    chambers = enumerate_chambers(arr)
    for pad in (None, "\n", "\n  ", "\n      "):
        assert _chamber_records(rows, den, len(arr), pad) == old_chambers_written(chambers, pad)


_SIDE = {"-": -1, "+": 1}
_SIGN_ORDER = str.maketrans("-+", "01")  # the side - before the side +, as the bits


@settings(max_examples=80, deadline=None, derandomize=True)
@given(chamber_spec_docs())
@example({"type": "n_ish", "N": [[]], "cone": False})
@example({"type": "n_ish", "N": [[]], "cone": True})
@example({"type": "n_ish", "N": [["1/2", "-3/2"], [0, "5/2"]], "cone": True})
@example({"type": "deleted_shi", "ell": 4, "edges": [[1, 2], [2, 4], [3, 4]], "cone": True})
def test_a_chamber_answer_holds_its_own_certificate(spec):
    """Read back, with ``Fraction`` arithmetic only: each witness strictly on
    its signed side of every hyperplane, sign vectors in strictly increasing
    order, ``count`` the list's length and ``|chi(-1)|`` (Zaslavsky), and the
    text answer the same chambers."""
    parsed = from_spec(spec)
    arr = parsed.arrangement
    answer = json_of(spec, "chambers")
    signs = [c["signs"] for c in answer["chambers"]]
    witnesses = [[Fraction(x) for x in c["witness"]] for c in answer["chambers"]]
    for side, point in zip(signs, witnesses):
        assert len(side) == len(arr) and len(point) == arr.dim
        for s, h in zip(side, arr.hyperplanes):
            assert _SIDE[s] * (sum(a * x for a, x in zip(h.coeffs, point)) - h.const) > 0
    order = [side.translate(_SIGN_ORDER) for side in signs]
    assert all(a < b for a, b in zip(order, order[1:]))
    assert answer["count"] == len(signs) == abs(spec_char_poly(parsed).evaluate(-1))
    head, *lines = text_of(spec, "chambers").split("\n")
    assert head == f"{len(signs)} chambers"
    for line, side, point in zip(lines, signs, witnesses, strict=True):
        got_side, coords = re.fullmatch(r"  ([-+]*)  witness \((.*)\)", line).groups()
        assert (got_side, [Fraction(x) for x in coords.split(", ")]) == (side, point)


SPECS = [
    {"type": "ish", "ell": 3},
    {"type": "shi", "ell": 3, "cone": True},
    {"type": "coxeter", "ell": 3},
    {"type": "n_ish", "N": [["1/2"], ["-1/2", "1/2"]], "cone": True},
    {"type": "n_ish", "N": [[0, 1], [0, 2]]},
    {"type": "deleted_ish", "ell": 4, "edges": [[1, 2], [2, 4]], "cone": True},
    {"type": "deleted_shi", "ell": 3, "edges": [[1, 3]]},
]


def test_render_matches_json_dumps_on_every_command():
    answered = set()
    for command in COMMANDS:
        for spec in SPECS if command != "survey" else [{"ell": 3}]:
            req = request_of(json.dumps(dict(spec, command=command, format="json")))
            try:
                out = run(req)
            except ValueError:  # the command does not apply to this spec kind
                continue
            assert out == dumps(json.loads(out))
            answer = oracle_records(_HANDLERS[command](req))
            assert out == dumps({"command": command, "spec": request_echo(req), **answer})
            answered.add(command)
    assert answered == set(COMMANDS)


@pytest.mark.parametrize(
    "value, name",
    [
        (Fraction(1, 2), "Fraction"),
        ({"a": [0.5]}, "float"),
        ([(1, 2)], "tuple"),
        ({"a": {1: 2}}, "int"),
        ({None: 1, "b": 2}, "NoneType"),
        ({"a": Chamber(0, 0, (), 1)}, "Chamber"),  # an answer's chambers are written from their rows
        # each of these is handed over as a writer: none has a branch of its own
        (MultiPoly(2, {(1, 0): 1}), "MultiPoly"),
        ({"chain": [Flat.ambient(3, True, 2)]}, "Flat"),
        ({"spec": request_of('{"type": "ish", "ell": 3, "command": "charpoly"}')}, "AnalysisRequest"),
    ],
)
def test_render_names_a_type_it_does_not_take(value, name):
    with pytest.raises(TypeError, match=name):
        _render(value)


# -- the executable ----------------------------------------------------


def test_main_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO('{"type": "ish", "ell": 3}'))
    assert main(["charpoly"]) == 0
    assert capsys.readouterr().out == "t^3 - 6t^2 + 9t = t (t-3)^2\n"


def test_main_reads_spec_file(capsys, tmp_path):
    path = tmp_path / "req.json"
    path.write_text('{"type": "ish", "ell": 3, "format": "json"}')
    assert main(["charpoly", "--spec", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["roots"] == [0, 3, 3]


def test_main_format_flag_overrides_doc(capsys, tmp_path):
    path = tmp_path / "req.json"
    path.write_text('{"type": "ish", "ell": 3, "format": "json"}')
    assert main(["charpoly", "--spec", str(path), "--format", "text"]) == 0
    assert capsys.readouterr().out.startswith("t^3")


def test_main_command_conflict_is_an_error(capsys, tmp_path):
    path = tmp_path / "req.json"
    path.write_text('{"type": "ish", "ell": 3, "command": "saito"}')
    assert main(["charpoly", "--spec", str(path)]) == 1
    assert "command" in capsys.readouterr().err


def test_main_help_prints_usage_and_exits_0(capsys):
    for argv, usage in ((["--help"], "usage: ishkit "), (["charpoly", "--help"], "usage: ishkit charpoly ")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(usage)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_argparse():
    # a fresh isolated interpreter: cold start is what one command-line call pays
    src = str(Path(ishkit.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import ishkit.cli; "
        "print(sorted({'dataclasses', 'inspect', 'argparse'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_main_exit_codes(capsys, tmp_path):
    cap = tmp_path / "big.json"
    cap.write_text('{"type": "ish", "ell": 17}')
    assert main(["charpoly", "--spec", str(cap)]) == 2
    assert capsys.readouterr().err.startswith("capacity:")

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["charpoly", "--spec", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: invalid JSON")

    assert main(["charpoly", "--spec", str(tmp_path / "missing.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv, message", [
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'charpoly', "),
    ([], "the following arguments are required: command"),
    (["charpoly", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    (["charpoly", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_a_usage_error_is_bad_input(argv, message, capsys):
    with mock.patch("sys.stdin", io.StringIO('{"type": "ish", "ell": 3}')):
        assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}") and len(err.splitlines()) == 1


@pytest.mark.parametrize("doc, key", [
    ({"type": "shi", "ell": 3, "edges": [[1, 2]]}, "edges"),
    ({"type": "n_ish", "N": [[0]], "edges": []}, "edges"),
    ({"type": "n_ish", "N": [[0]], "ell": 9}, "ell"),
    ({"type": "ish", "ell": 3, "N": [[0], [0, 1]]}, "N"),
    ({"type": "deleted_ish", "ell": 3, "edges": [], "N": [[0], [0]]}, "N"),
])
def test_a_key_of_another_spec_type_is_refused(doc, key, capsys):
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))):
        assert main(["charpoly"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {doc['type']} spec takes no key {key!r}\n"


def test_a_key_that_no_spec_type_reads_is_ignored():
    plain = {"type": "n_ish", "N": [[0], [0, 1]]}
    assert text_of({**plain, "note": "draft", "sets": 2}, "charpoly") == text_of(plain, "charpoly")


def test_a_reader_that_closes_the_pipe_early_ends_the_command_quietly_with_141():
    # 16807 lines, 1.3 MB: the command is still writing when the reader stops
    src = str(Path(ishkit.__file__).resolve().parent.parent)
    with subprocess.Popen(
        [sys.executable, "-m", "ishkit", "chambers"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    ) as proc:
        proc.stdin.write(b'{"type": "ish", "ell": 6}')
        proc.stdin.close()
        assert proc.stdout.readline() == b"16807 chambers\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


@pytest.mark.parametrize(
    "spec",
    [
        '{"type": "ish", "ell": 3, "cone": "false"}',
        '{"type": "deleted_ish", "ell": 3, "edges": [[1]]}',
        '{"type": "deleted_ish", "ell": 3, "edges": [[1, 2, 3]]}',
        '{"type": "n_ish", "N": 5}',
        '{"type": "n_ish", "N": [["1/0"]]}',
        '{"type": "n_ish", "N": [[true], [0]]}',
        '{"type": "n_ish", "N": [["1e3"], [0]]}',
        '{"type": "n_ish", "N": [["0.5"], [0]]}',
        '{"type": "n_ish", "N": [[" 1/2 "], [0]]}',
        # json.loads recurses once per level: too deep a nest is not a traceback
        pytest.param("[" * 200000, id="nested-too-deeply"),
        pytest.param('{"type": "n_ish", "N": ' + "[" * 200000 + "}", id="N-nested-too-deeply"),
    ],
)
def test_main_rejects_malformed_spec_fields(capsys, tmp_path, spec):
    path = tmp_path / "req.json"
    path.write_text(spec)
    assert main(["charpoly", "--spec", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    if "[" * 200000 in spec:
        assert err == "error: invalid JSON: nested too deeply\n"


def test_main_survey_capacity(capsys, tmp_path):
    path = tmp_path / "req.json"
    path.write_text('{"ell": 7}')
    assert main(["survey", "--spec", str(path)]) == 2
    assert capsys.readouterr().err.startswith("capacity:")


def test_guards_cut_a_long_ell_short(capsys, tmp_path, monkeypatch):
    # no refused spec builds its nest: the ish bound comes first
    def never(*args):
        raise AssertionError("a refused spec built its nest")

    for name in ("ish_nest", "n_from_graph"):
        monkeypatch.setattr(f"ishkit.arrangement.{name}", never)
    # a 4000-digit ell is still a JSON integer, under the interpreter's digit limit
    big = 10**4000 - 1
    cut = repr(big)[:60] + "..."
    ish_cases = tuple(
        (command, {"type": kind, "ell": ell}, 2, f"capacity: the {kind} nest of ell - 1 sets got "
         f"ell = {shown}, over the guard ell <= 1000")
        for kind, ell, shown in (("ish", 20000, 20000), ("deleted_ish", 30000000, 30000000),
                                 ("ish", 1001, 1001), ("deleted_ish", big, cut))
        for command in COMMANDS if command != "survey"
    )
    cases = ish_cases + (
        ("survey", {"ell": 1000}, 2, "capacity: the survey of 2^(ell(ell-1)/2) subgraphs got ell = 1000, "
         "over the guard ell <= 6"),
        ("survey", {"ell": big}, 2, f"capacity: the survey of 2^(ell(ell-1)/2) subgraphs got ell = {cut}, "
         "over the guard ell <= 6"),
        ("basis", {"type": "deleted_shi", "ell": big}, 2, f"capacity: ell = {cut} exceeds the guard ell <= 6 for basis"),
        ("charpoly", {"type": "shi", "ell": big}, 2, f"capacity: the rook DP needs 2^{repr(big - 1)[:60]}... states "
         f"x {repr(big - 1)[:60]}... columns, over the guard of 557056 for charpoly"),
        ("graph", {"type": "deleted_shi", "ell": 10**6}, 2, "capacity: the graph analysis of ell^2 vertex pairs "
         "got ell = 1000000, over the guard ell <= 1000"),
        ("graph", {"type": "deleted_shi", "ell": big}, 2, f"capacity: the graph analysis of ell^2 vertex pairs "
         f"got ell = {cut}, over the guard ell <= 1000"),
        ("charpoly", {"type": "deleted_shi", "ell": 5, "edges": [[1, big]]}, 1,
         f"error: edge {repr((1, big))[:60]}... is not a pair 1 <= i < j <= 5"),
        ("charpoly", {"type": "deleted_shi", "ell": big, "edges": [[1, big + 1]]}, 1,
         f"error: edge {repr((1, big + 1))[:60]}... is not a pair 1 <= i < j <= {cut}"),
        ("freeness", {"type": "deleted_ish", "ell": big, "edges": [[1, big + 1]]}, 1,
         f"error: edge {repr((1, big + 1))[:60]}... is not a pair 1 <= i < j <= {cut}"),
    )
    path = tmp_path / "req.json"
    for command, spec, code, message in cases:
        path.write_text(json.dumps(spec))
        assert main([command, "--spec", str(path)]) == code
        assert capsys.readouterr().err == message + "\n"


# -- fuzzing the parse boundary ----------------------------------------

# Integers stay small: an "ell" in the thousands builds a huge arrangement
# before any command runs, which is a size guard's job, not the parser's.
def junk(max_int: int):
    """A value of any JSON shape, with integers in -3..max_int."""
    return st.sampled_from(
        [
            st.none(),
            st.booleans(),
            st.integers(-3, max_int),
            st.floats(allow_nan=False),
            st.text(max_size=5),
            st.lists(st.integers(-2, 3), max_size=3),
            st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
        ]
    ).flatmap(lambda kind: kind)


RATIONAL = st.one_of(
    st.integers(-3, 5),
    st.builds("{}/{}".format, st.integers(-5, 5), st.integers(-1, 3)),
)


@st.composite
def spec_documents(draw, command: str, max_ell: int, max_junk_int: int):
    """A request drawn from the spec grammar: each field is absent in one
    draw of four and junk in one of three, and one document in twenty is
    junk as a whole.  Sets hold at most three entries."""
    junk_value = junk(max_junk_int)
    if not draw(st.integers(0, 19)):
        return draw(junk_value)
    fields = {
        "type": st.sampled_from(("n_ish",) + SPEC_KINDS),
        "ell": st.integers(2, max_ell),
        "N": st.lists(
            st.lists(st.one_of(RATIONAL, junk_value), max_size=3),
            min_size=1,
            max_size=max_ell - 1,
        ),
        "edges": st.lists(st.lists(st.integers(0, 5), min_size=2, max_size=2), max_size=4),
        "cone": st.booleans(),
        "command": st.just(command),
        "format": st.sampled_from(["text", "json"]),
    }
    doc = {}
    for key, good in fields.items():
        if draw(st.integers(0, 3)):
            doc[key] = draw(good if draw(st.integers(0, 2)) else junk_value)
    return doc


@st.composite
def valid_spec_documents(draw, command: str, max_ell: int):
    """A well-formed request of any spec kind on 2..max_ell vertices: n_ish
    sets of up to four integer or half entries, deleted edges inside
    1..ell, and an optional cone flag."""
    kind = draw(st.sampled_from(SPEC_KINDS))
    ell = draw(st.integers(2, max_ell))
    doc = {"type": kind, "command": command, "format": draw(st.sampled_from(["text", "json"]))}
    if kind == "n_ish":
        entry = st.integers(-3, 3) | st.builds("{}/2".format, st.integers(-7, 7))
        doc["N"] = draw(st.lists(st.lists(entry, max_size=4), min_size=ell - 1, max_size=ell - 1))
    else:
        doc["ell"] = ell
    if kind.startswith("deleted_"):
        pair = st.integers(1, ell - 1).flatmap(lambda i: st.tuples(st.just(i), st.integers(i + 1, ell)))
        doc["edges"] = [list(e) for e in draw(st.lists(pair, max_size=ell * (ell - 1) // 2))]
    cone_flag = draw(st.sampled_from([None, False, True]))
    if cone_flag is not None:
        doc["cone"] = cone_flag
    return doc


def request_documents(command: str, max_ell: int, max_junk_int: int = 8):
    """Well-formed requests, and grammar draws that are mostly refused while parsing."""
    return st.one_of(
        valid_spec_documents(command, max_ell), spec_documents(command, max_ell, max_junk_int)
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([c for c in COMMANDS if c != "survey"]).flatmap(
    lambda command: valid_spec_documents(command, max_ell=5)
))
def test_valid_spec_documents_parse(doc):
    req = request_from_doc(doc)
    assert (req.command, req.output_format, req.parsed.kind) == (doc["command"], doc["format"], doc["type"])


def assert_clean_exit(command: str, doc) -> None:
    """Exit code 0, 1 or 2, no traceback, one stderr line on failure."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))):
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert len(err.getvalue().splitlines()) == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(request_documents("freeness", max_ell=5))
@example({"type": "n_ish", "N": 5})
@example({"type": "n_ish", "N": [["1/0"]]})
def test_main_freeness_never_shows_a_traceback(doc):
    assert_clean_exit("freeness", doc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(request_documents("supersolvable", max_ell=5))
@example({"type": "shi", "ell": 5, "cone": True})
@example({"type": "coxeter", "ell": 5})
@example({"type": "deleted_shi", "ell": 5, "edges": [[1, 2], [2, 5]], "cone": True})
@example({"type": "n_ish", "N": [["1/2"], [0], [0, "-1/2"]], "cone": True})
@example({"type": "ish", "ell": 4})
@example({"type": "shi", "ell": 7, "cone": True})
@example({"type": "shi", "ell": 6, "cone": True})  # the largest ell the lattice guard admits
def test_main_supersolvable_never_shows_a_traceback(doc):
    assert_clean_exit("supersolvable", doc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(request_documents("charpoly", max_ell=5))
@example({"type": "shi", "ell": 21})
@example({"type": "shi", "ell": 16, "cone": True})
@example({"type": "n_ish", "N": [["1/2", 1], [0, "-1/2"], [1]], "cone": True})
# 2^15 rook states times 17 and 18 columns: at the guard of 557056, and past it
@example({"type": "n_ish", "N": [list(range(17))] + [[0]] * 14})
@example({"type": "n_ish", "N": [list(range(18))] + [[0]] * 14, "cone": True})
def test_main_charpoly_never_shows_a_traceback(doc):
    assert_clean_exit("charpoly", doc)


# basis and saito take the same nests under the same guard ell <= 6.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(["basis", "saito"]).flatmap(
    lambda command: st.tuples(st.just(command), request_documents(command, max_ell=5))
))
@example(("basis", {"type": "ish", "ell": 7}))
@example(("saito", {"type": "ish", "ell": 7, "cone": True}))
@example(("saito", {"type": "n_ish", "N": [[0, 1], [0]]}))
@example(("basis", {"type": "n_ish", "N": [["1/2"], [0, "1/2"], ["-3/2", 0, "1/2"]]}))
@example(("saito", {"type": "ish", "ell": 6, "cone": True}))
def test_main_basis_and_saito_never_show_a_traceback(command_and_doc):
    assert_clean_exit(*command_and_doc)


@st.composite
def graph_documents(draw):
    """A deleted family on 2..12 vertices with its edges drawn inside
    1..ell: pairs i < j, and in one document of ten one more pair of any
    two vertices, which may be refused."""
    ell = draw(st.integers(2, 12))
    pair = st.integers(1, ell - 1).flatmap(lambda i: st.tuples(st.just(i), st.integers(i + 1, ell)))
    edges = draw(st.lists(pair, max_size=3 * ell))
    if not draw(st.integers(0, 9)):
        edges.append(draw(st.tuples(st.integers(1, ell), st.integers(1, ell))))
    return {
        "type": draw(st.sampled_from(["deleted_shi", "deleted_ish"])),
        "ell": ell,
        "edges": edges,
        "format": draw(st.sampled_from(["text", "json"])),
    }


# analyze_graph raises when its verdict's certificate fails its check on the
# edge set, so this also fuzzes each verdict's certificate: the order of a
# free graph and the incomparable pair of a non-free one.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(
    valid_spec_documents("graph", max_ell=5),
    graph_documents(),
    spec_documents("graph", max_ell=12, max_junk_int=8),
))
@example({"type": "deleted_shi", "ell": 9, "edges": [[1, 2], [3, 4]]})
@example({"type": "deleted_ish", "ell": 9, "edges": [[1, 9], [2, 9], [1, 8]]})
@example({"type": "deleted_shi", "ell": 1000, "edges": [[1, 1000]]})
@example({"type": "deleted_ish", "ell": 1001, "edges": [[1, 2]]})
def test_main_graph_never_shows_a_traceback(doc):
    assert_clean_exit("graph", doc)


def flip_a_mask_bit(monkeypatch, vertex: int, bit: int) -> None:
    """Make the verdict read vertex's in-neighbour mask with one bit flipped."""
    masks = ishkit.Graph.in_masks

    def flipped(graph):
        ins = masks(graph)
        ins[vertex] ^= 1 << bit
        return ins

    monkeypatch.setattr(ishkit.Graph, "in_masks", flipped)


def assert_graph_internal_error(capsys, tmp_path, ell: int, edges, message: str) -> None:
    """The graph raises ``RuntimeError`` in ``analyze_graph``, and both deleted kinds
    exit 3 from ``main`` with one ``internal error:`` line, in both formats."""
    with pytest.raises(RuntimeError, match=message):
        ishkit.analyze_graph(ishkit.Graph.make(ell, edges))
    path = tmp_path / "req.json"
    for kind in ("deleted_shi", "deleted_ish"):
        path.write_text(json.dumps({"type": kind, "ell": ell, "edges": edges}))
        for fmt in ("text", "json"):
            assert main(["graph", "--spec", str(path), "--format", fmt]) == 3
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.startswith("internal error: ") and out.err.count("\n") == 1
            assert re.search(message, out.err)


@pytest.mark.parametrize("ell, edges, vertex, bit", [
    (3, [(1, 2)], 2, 1),  # free: the masks read as empty order (1, 2, 3), where (1, 2) must end at slot 3
    (3, [(1, 2), (2, 3)], 3, 2),  # not free: in(3) read as empty gives the order (1, 3, 2), against the edge (2, 3)
])
def test_a_corrupted_free_order_exits_3(capsys, monkeypatch, tmp_path, ell, edges, vertex, bit):
    flip_a_mask_bit(monkeypatch, vertex, bit)
    assert_graph_internal_error(capsys, tmp_path, ell, edges, r"the order \(.*\) does not certify .* free")


@pytest.mark.parametrize("ell, edges, vertex, bit", [
    (3, [(1, 2)], 3, 2),  # free: in(3) read as {2} is incomparable with in(2) = {1}, but (2, 3) is no edge
    (4, [(1, 2), (3, 4)], 4, 2),  # not free: in(4) read as {2, 3} names the pair (1, 2), (2, 4)
])
def test_a_corrupted_incomparable_pair_exits_3(capsys, monkeypatch, tmp_path, ell, edges, vertex, bit):
    flip_a_mask_bit(monkeypatch, vertex, bit)
    assert_graph_internal_error(capsys, tmp_path, ell, edges, r"the in-neighbours 1 of 2 and 2 of \d do not certify .* not free")


# ell <= 4 keeps every chamber enumeration cheap; the guard case is explicit.
CHAMBER_REQUESTS = st.sampled_from(["chambers", "wallcross"]).flatmap(
    lambda command: st.tuples(
        st.just(command), request_documents(command, max_ell=4, max_junk_int=4)
    )
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(CHAMBER_REQUESTS)
@example(("chambers", {"type": "shi", "ell": 7}))
@example(("wallcross", {"type": "n_ish", "N": [["1e3"], [0]]}))
@example(("chambers", {"type": "n_ish", "N": [["1/2", 1], [0, 3], [2]], "cone": True}))
@example(("wallcross", {"type": "n_ish", "N": [["-1/2", 1, 3], [1, 3], [3]]}))
@example(("wallcross", {"type": "n_ish", "N": [[0, 1, 2, 3], [0, 1, 2], [0, 1], [0], []]}))
def test_main_chambers_never_shows_a_traceback(command_and_doc):
    assert_clean_exit(*command_and_doc)
