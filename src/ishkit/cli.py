"""Command-line front end.

Reads a JSON spec (file or stdin) describing an arrangement, a nested
family, or a deleted family, runs one analysis command against it, and
prints either a short text report or a JSON document.  The JSON output
echoes the request under the ``"spec"`` key, so a saved report can be
fed straight back in.

This module alone knows the answer's JSON shape.  A handler returns the
text report, or for JSON a dict of plain values and writers: each value
written straight from its integer form (a polynomial, a basis, a chain
of flats, the chambers, a graph's edges, a nest's sets, a survey's
records) is a ``functools.partial`` of one writer here, missing only its
indent, and ``_render`` calls it where the value goes.  Each such value
has one writer, which a survey record, a ``graph`` answer and the spec
echo share.

Exit codes: 0 on success, 1 on bad input, 2 when a size guard trips, 3
when an internal cross-check fails (a ``RuntimeError``: a bug in ishkit),
and 141 when the reader closes standard output before the report is written.
"""

from __future__ import annotations

import json
import os
import sys
from functools import partial
from itertools import chain as chained
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, NamedTuple, Sequence

from .arrangement import Graph, NestSpec, ParsedSpec, build_n_ish, cone, from_spec, n_from_graph
from .chambers import chamber_rows, geometric_product
from .errors import CapacityError
from .exactmath import (
    MultiPoly,
    UniPoly,
    _shown,
    default_names,
    equation_str,
    format_rational,
    poly_json_str,
    rational_str,
    unipoly_factored_str,
    unipoly_str,
)
from .freeness import (
    _exponents,
    basis_derivations,
    decide_free,
    derivation_str,
    factored_basis,
    factored_saito_constant,
    is_nest,
    nest_exponents,
)
from .graphs import SurveyRecord, analyze_graph, survey
from .lattice import Flat, is_supersolvable, nest_modular_chain
from .rooks import board_columns, spec_char_poly

LATTICE_MAX_ELL = 6
CHARPOLY_MAX_WORK = 17 << 15  # rook DP states x non-empty board columns


class AnalysisRequest(NamedTuple):
    command: str
    output_format: str
    ell: int
    parsed: ParsedSpec | None  # None exactly for the survey command


def _json_int(digits: str) -> int:
    """``int(digits)`` for ``json.loads``; a number past the interpreter's
    digit limit is a ``ValueError`` that shows its first digits and its length."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(
            f"invalid JSON: the number {digits[:20]}... has {len(digits.lstrip('-'))} digits, "
            f"over the limit of {sys.get_int_max_str_digits()}"
        ) from None


def _read_doc(text: str) -> dict:
    """The request document in ``text``, which must be a JSON object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:  # json.loads recurses once per nested array or object
        raise ValueError("invalid JSON: nested too deeply") from exc
    except ValueError:  # an integer past the interpreter's digit limit: parse again to name it
        json.loads(text, parse_int=_json_int)
        raise
    if not isinstance(doc, dict):
        raise ValueError("the request must be a JSON object")
    return doc


def request_from_doc(doc: object) -> AnalysisRequest:
    if not isinstance(doc, dict):
        raise ValueError("the request must be a JSON object")
    command = doc.get("command")
    if command not in COMMANDS:
        raise ValueError(
            f"unknown command {_shown(command)}; expected one of {', '.join(COMMANDS)}"
        )
    fmt = doc.get("format", "text")
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown format {_shown(fmt)}; expected 'text' or 'json'")
    if command == "survey":
        ell = doc.get("ell")
        if not isinstance(ell, int) or ell < 2:
            raise ValueError("survey needs an integer 'ell' >= 2")
        return AnalysisRequest(command, fmt, ell, None)
    parsed = from_spec(doc)
    return AnalysisRequest(command, fmt, parsed.ell, parsed)


def _need_nest(parsed: ParsedSpec) -> NestSpec:
    if parsed.nest is None:
        raise ValueError(
            "this command needs a nest-backed spec: ish, n_ish or deleted_ish"
        )
    return parsed.nest


def _guard_lattice(req: AnalysisRequest) -> None:
    if req.ell > LATTICE_MAX_ELL:
        raise CapacityError(f"ell = {_shown(req.ell)} exceeds the guard ell <= {LATTICE_MAX_ELL} for {req.command}")


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _guard_rooks(req: AnalysisRequest) -> None:
    """Bound the rook DP's work: 2^(ell-1) states times the board's non-empty
    columns, at least one."""
    rows, columns = req.ell - 1, max(board_columns(req.parsed), 1)
    if rows >= CHARPOLY_MAX_WORK.bit_length() or columns << rows > CHARPOLY_MAX_WORK:
        raise CapacityError(
            f"the rook DP needs 2^{_shown(rows)} states x {_shown(columns)} columns, over the guard "
            f"of {CHARPOLY_MAX_WORK} for charpoly"
        )


def _cmd_charpoly(req: AnalysisRequest) -> str | dict:
    _guard_rooks(req)
    parsed = req.parsed
    poly = spec_char_poly(parsed)
    roots: list[int] | None = None
    if parsed.nest is not None:
        verdict = decide_free(parsed.nest)
        if verdict.free:
            roots = list(verdict.exponents)
            if not parsed.coned:
                roots.remove(1)  # deconing divides out one (t - 1) factor
            if UniPoly.from_roots(roots) != poly:
                raise RuntimeError("free exponents do not factor the rook-number chi")
    if req.output_format == "json":
        return {"charPoly": partial(_json_unipoly, poly), "roots": roots}
    text = unipoly_str(poly)
    if roots is not None:
        text += f" = {unipoly_factored_str(roots)}"
    return text


def _cmd_freeness(req: AnalysisRequest) -> str | dict:
    verdict = decide_free(_need_nest(req.parsed))
    w = verdict.witness
    if req.output_format == "json":
        if w is None:
            return {"free": True, "exponents": list(verdict.exponents), "witness": None}
        witness = {"i": w.i, "j": w.j, "localized": list(w.localized_exponents), "restriction": w.restriction_exponent}
        return {"free": False, "exponents": None, "witness": witness}
    if verdict.free:
        return f"FREE: exponents {verdict.exponents}"
    triple = "(" + ",".join(str(e) for e in w.localized_exponents) + ")"
    return (
        f"NOT FREE: witness pair ({w.i},{w.j}), localized exp {triple}, "
        f"restriction {w.restriction_exponent}"
    )


def _ascending(parsed: ParsedSpec):
    nest = _need_nest(parsed)
    order = is_nest(nest)
    if order is None:
        raise ValueError("the sets do not form a chain; the cone is not free")
    return nest.reordered(order), order


def _cmd_basis(req: AnalysisRequest) -> str | dict:
    _guard_lattice(req)
    sorted_nest, order = _ascending(req.parsed)
    derivs = basis_derivations(sorted_nest)
    # Each nonzero component is a product of linear forms, homogeneous of
    # degree its factor count, so one of them gives the field's degree.
    degrees = [next(c for c in d if not c.is_zero).total_degree() for d in derivs]
    if req.output_format == "json":
        return {
            "order": list(order),
            "degrees": degrees,
            "derivations": partial(_derivation_records, derivs),
        }
    names = default_names(sorted_nest.ell + 1, coned=True)
    lines = []
    if list(order) != list(range(2, sorted_nest.ell + 1)):
        lines.append(f"sets taken in ascending order {tuple(order)}")
    for k, (degree, d) in enumerate(zip(degrees, derivs)):
        lines.append(f"theta_{k} (degree {degree}): {derivation_str(d, names)}")
    return "\n".join(lines)


def _cmd_saito(req: AnalysisRequest) -> str | dict:
    _guard_lattice(req)
    sorted_nest, order = _ascending(req.parsed)
    arr = cone(build_n_ish(sorted_nest))
    constant = factored_saito_constant(factored_basis(sorted_nest), arr)
    if constant is None:  # the paper's basis of an ascending nest always passes
        raise RuntimeError("the basis of the ascending nest fails Saito's criterion")
    exponents = _exponents(req.parsed.nest, order)  # _ascending certified the chain
    if req.output_format == "json":
        return {
            "pass": True,
            "constant": format_rational(constant),
            "exponents": list(exponents),
        }
    return f"SAITO PASS: constant {format_rational(constant)}, exponents {exponents}"


def _cmd_supersolvable(req: AnalysisRequest) -> str | dict:
    _guard_lattice(req)
    parsed = req.parsed
    arr = parsed.arrangement
    if not arr.is_central:
        raise ValueError(
            'the lattice test needs a central arrangement; add "cone": true to the spec'
        )
    if parsed.nest is not None and parsed.coned:
        # Sets that form no chain have the incomparable pair of decide_free: the
        # cone is not free, so not supersolvable (Jambu-Terao).
        order = is_nest(parsed.nest)
        chain = None if order is None else nest_modular_chain(arr, order)
    else:
        chain = is_supersolvable(arr, spec_char_poly(parsed))
    if req.output_format == "json":
        return {"supersolvable": chain is not None, "chain": None if chain is None else partial(_flat_records, chain)}
    if chain is None:
        return "NOT SUPERSOLVABLE"
    lines = [f"SUPERSOLVABLE: modular chain of ranks 0..{len(chain) - 1}"]
    lines += _chain_lines(chain, arr.var_names())
    return "\n".join(lines)


def _cmd_chambers(req: AnalysisRequest) -> str | dict:
    _guard_lattice(req)
    arr = req.parsed.arrangement
    rows, den = chamber_rows(arr)
    if req.output_format == "json":
        return {"count": len(rows), "chambers": partial(_chamber_records, rows, den, len(arr))}
    return f"{len(rows)} chambers\n{_chamber_records(rows, den, len(arr))}"


def _cmd_wallcross(req: AnalysisRequest) -> str | dict:
    """The distance polynomial from a base chamber, and its chamber count, walking no region.

    An affine ``ish`` spec answers for affine Ish; every other nest-backed
    spec for the cone of its nest, ``"cone": true`` or not, so the affine
    ``{"type": "n_ish", "N": [[0, 1], [0, 1, 2]]}`` counts the cone's 32
    chambers where ``{"type": "ish", "ell": 3}`` counts 16.
    ``nest_modular_chain`` certifies that the cone is supersolvable, and
    the answer is ``geometric_product`` of its exponents, without the
    factor ``1 + t`` of ``z = 0`` for affine Ish (the chambers on the side
    ``z > 0``).  Its count is checked against ``|chi(-1)|`` of the
    arrangement answered for (Zaslavsky); a mismatch is a ``RuntimeError``.
    """
    _guard_lattice(req)
    parsed = req.parsed
    nest = parsed.nest
    if nest is None:
        raise ValueError("wall-crossing needs the affine staircase ('ish') or a nest-backed spec")
    order = is_nest(nest)
    if order is None:
        raise ValueError("the sets do not form a chain; no base chamber is known")
    nest_modular_chain(cone(build_n_ish(nest)), order)
    exponents = list(nest_exponents(nest, order))
    affine_ish = parsed.kind == "ish" and not parsed.coned
    if affine_ish:
        exponents.remove(1)
    poly = geometric_product(exponents)
    count, zaslavsky = poly.evaluate(1), abs(spec_char_poly(parsed).evaluate(-1))
    if not (parsed.coned or affine_ish):  # the cone's chi is chi times (t - 1): twice |chi(-1)|
        zaslavsky *= 2
    if count != zaslavsky:
        raise RuntimeError(f"the exponents {tuple(exponents)} count {count} chambers, |chi(-1)| {zaslavsky}")
    if req.output_format == "json":
        return {"distancePoly": partial(_json_unipoly, poly), "chambers": count}
    return unipoly_str(poly)


def _cmd_graph(req: AnalysisRequest) -> str | dict:
    graph = req.parsed.graph
    if graph is None:
        raise ValueError("graph analysis needs a deleted_shi or deleted_ish spec")
    a = analyze_graph(graph)
    w = a.athanasiadis_witness
    n_g = n_from_graph(graph) if req.parsed.nest is None else req.parsed.nest  # a deleted_ish spec's nest is N_G
    if req.output_format == "json":
        return {"athanasiadis": None if w is None else list(w), "edges": partial(_json_edges, graph, {}),
                "free": a.free, "nG": partial(_json_sets, n_g, {}), "nest": a.free, "pairwise": a.free}
    edges = " ".join(f"({i},{j})" for i, j in graph.edges) or "none"
    lines = [
        f"edges: {edges}",
        f"derived sets: {n_g}",
        f"nest: {_yesno(a.free)}",
        f"athanasiadis: {w or 'none'}",
        f"pairwise: {_yesno(a.free)}",
        f"free: {_yesno(a.free)}",
    ]
    return "\n".join(lines)


def _cmd_survey(req: AnalysisRequest) -> str | dict:
    report = survey(req.ell)
    if req.output_format == "json":
        return {
            "ell": report.ell,
            "total": report.total,
            "freeCount": report.free_count,
            "violations": list(report.violations),
            "records": partial(_survey_records, report.records),
        }
    lines = [
        f"K_{report.ell}: {report.total} subgraphs, {report.free_count} free, "
        f"{len(report.violations)} violations"
    ]
    for record in report.records:
        if not record.analysis.free:
            edges = " ".join(f"({i},{j})" for i, j in record.analysis.graph.edges)
            lines.append(f"  not free: {edges or 'no edges'}")
    lines.extend(f"  VIOLATION: {v}" for v in report.violations)
    return "\n".join(lines)


_HANDLERS = {
    "charpoly": _cmd_charpoly,
    "freeness": _cmd_freeness,
    "basis": _cmd_basis,
    "saito": _cmd_saito,
    "supersolvable": _cmd_supersolvable,
    "chambers": _cmd_chambers,
    "wallcross": _cmd_wallcross,
    "graph": _cmd_graph,
    "survey": _cmd_survey,
}
COMMANDS = tuple(_HANDLERS)


def _json_rational(num: int, den: int) -> str:
    """``num / den`` as a JSON string, written by ``format_rational``."""
    return f'"{format_rational(num, den)}"'


_SIGNS = str.maketrans("01", "-+")


def _chamber_records(rows: list[tuple[int, tuple[int, ...]]], den: int, size: int, pad: str | None = None) -> str:
    """The rows ``(bits, point)`` of ``chamber_rows``, written: one text line
    ``  signs  witness (x, ...)`` per row, each coordinate as ``rational_str``
    writes it, when ``pad`` is None, else the list of records
    ``{"signs": ..., "witness": [...]}`` as ``json.dumps`` writes it at the
    indent ``pad``, each coordinate as ``format_rational`` does.

    The one writer of both formats.  The rows of an answer share ``den``
    and repeat their numerators (an antipode negates its chamber's), so
    each distinct numerator is written once, before any record.  A
    record's signs are its ``size`` bits under a leading 1, in binary, with
    ``0`` and ``1`` translated to ``-`` and ``+``.  A point is never empty.
    """
    write = rational_str if pad is None else _json_rational
    coords = {x: write(x, den) for x in set(chained.from_iterable([point for _, point in rows]))}
    if pad is None:
        head, mid, sep, tail = "  ", "  witness (", ", ", ")"
    else:
        record, field = pad + "    ", pad + "      "
        head, mid = "{" + record + '"signs": "', '",' + record + '"witness": [' + field
        sep, tail = "," + field, record + "]" + pad + "  }"
    top = 1 << size
    records = [
        f"{head}{bin(bits | top)[3:].translate(_SIGNS)}{mid}{sep.join([coords[x] for x in point])}{tail}"
        for bits, point in rows
    ]
    if pad is None:
        return "\n".join(records)
    return "[" + pad + "  " + ("," + pad + "  ").join(records) + pad + "]"


def _json_unipoly(p: UniPoly, pad: str) -> str:
    """The ascending coefficients of ``p`` as ``json.dumps`` writes their list of
    ``"num/den"`` strings at the indent ``pad``; ``[]`` for the zero polynomial.
    The one writer of a univariate polynomial in JSON: ``charPoly``,
    ``distancePoly`` and a survey record's two characteristic polynomials."""
    item = pad + "  "
    return f"[{item}{(',' + item).join([_json_rational(c, 1) for c in p.coeffs])}{pad}]" if p.coeffs else "[]"


def _survey_records(records: Sequence[SurveyRecord], pad: str) -> str:
    """The records of a survey as ``json.dumps`` writes the list of their
    dicts at the indent ``pad``: the keys ``agree``, ``athanasiadis``,
    ``charPolyIsh``, ``charPolyShi``, ``edges``, ``free``, ``nG``, ``nest``
    and ``pairwise``, sorted -- a ``graph`` answer's fields, the two χ and
    whether they agree -- each record in one f-string.

    A survey repeats its polynomials and its sets N_j (at ell = 6, 543
    distinct polynomials and 32 distinct sets among 32768 records), so each
    distinct coefficient list and each distinct set is written once and
    read back from a memo.  N_G is built here, by ``n_from_graph``, as only
    the JSON answer holds it.  A survey has at least two records.
    """
    record, field = pad + "  ", pad + "    "
    item = field + "  "
    polys: dict[tuple[int, ...], str] = {}
    sets: dict[tuple[int, tuple[int, ...]], str] = {}
    edges: dict[tuple[int, int], str] = {}

    def poly(p: UniPoly) -> str:
        coeffs = p.coeffs
        if coeffs not in polys:
            polys[coeffs] = _json_unipoly(p, field)
        return polys[coeffs]

    out = []
    for r in records:
        a = r.analysis
        w = a.athanasiadis_witness
        witness = "null" if w is None else f"[{item}{(',' + item).join(map(str, w))}{field}]"
        free = "true" if a.free else "false"
        out.append(
            f'{{{field}"agree": {"true" if r.agree else "false"},{field}"athanasiadis": {witness},'
            f'{field}"charPolyIsh": {poly(r.char_ish)},{field}"charPolyShi": {poly(r.char_shi)},'
            f'{field}"edges": {_json_edges(a.graph, edges, field)},{field}"free": {free},'
            f'{field}"nG": {_json_sets(n_from_graph(a.graph), sets, field)},'
            f'{field}"nest": {free},{field}"pairwise": {free}{record}}}'
        )
    return f"[{record}{(',' + record).join(out)}{pad}]"


def _json_sets(nest: NestSpec, memo: dict, pad: str) -> str:
    """The sets of ``nest`` as ``json.dumps`` writes their list of lists of
    ``"num/den"`` strings at the indent ``pad``, each set written once into
    ``memo``, by its ``(den, numerators)``.  The one writer of a nest's sets
    in JSON: the spec echo's ``N`` and the ``nG`` of a graph answer and of a
    survey record."""
    item, sub = pad + "  ", pad + "    "
    den, texts = nest.den, []
    for n in nest.nums:
        key = (den, n)
        if key not in memo:
            memo[key] = f"[{sub}{(',' + sub).join([_json_rational(a, den) for a in n])}{item}]" if n else "[]"
        texts.append(memo[key])
    return f"[{item}{(',' + item).join(texts)}{pad}]"


def _json_edges(graph: Graph, memo: dict, pad: str) -> str:
    """The sorted edges of a graph as ``json.dumps`` writes their list of pairs at
    the indent ``pad``, each edge written once into ``memo``.  The one writer of
    a graph's edges in JSON: the spec echo's ``edges`` and the ``edges`` of a
    graph answer and of a survey record."""
    item, sub = pad + "  ", pad + "    "
    texts = []
    for e in graph.edges:
        if e not in memo:
            memo[e] = f"[{sub}{e[0]},{sub}{e[1]}{item}]"
        texts.append(memo[e])
    return f"[{item}{(',' + item).join(texts)}{pad}]" if texts else "[]"


def _request_echo(req: AnalysisRequest, pad: str) -> str:
    """The canonical spec document of a request, which reads back as the same
    request, as ``json.dumps`` writes it at the indent ``pad``: ``command``,
    ``format``, and for a survey its ``ell``, else the spec's ``type``, its
    sets ``N`` for ``n_ish`` and ``ell`` for the other types, the ``edges`` of
    a deleted type, and ``cone`` when coned, the keys sorted.  Written in one
    pass, straight from the request's integers."""
    inner, parsed = pad + "  ", req.parsed
    head = f'"command": "{req.command}"'
    if parsed is None:
        return f'{{{inner}{head},{inner}"ell": {req.ell},{inner}"format": "{req.output_format}"{pad}}}'
    fields = [f'"N": {_json_sets(parsed.nest, {}, inner)}', head] if parsed.kind == "n_ish" else [head]
    if parsed.coned:
        fields.append('"cone": true')
    if parsed.graph is not None:
        fields.append(f'"edges": {_json_edges(parsed.graph, {}, inner)}')
    if parsed.kind != "n_ish":
        fields.append(f'"ell": {parsed.ell}')
    fields += [f'"format": "{req.output_format}"', f'"type": "{parsed.kind}"']  # each field in its sort_keys place
    return "{" + inner + ("," + inner).join(fields) + pad + "}"


def _chain_rows(
    chain: list[Flat], write: Callable[[Flat, tuple[int, int, int] | None], str]
) -> Iterator[tuple[Flat, list[str]]]:
    """Each flat of a chain with the rows of its reduced row echelon form, as
    ``write(flat, row)`` writes them.

    The one writer of both formats.  A row is ``(v, r, o)`` for each
    coordinate v off its root r, in pivot order, the equation ``x_v - x_r =
    o/den`` (coned: ``x_v - x_r - (o/den)*z = 0``), then ``None`` for ``z =
    0``; a flat's rank is its number of rows.  The flats of a chain share
    their coordinates, ``coned`` and ``den``, and repeat their rows, so
    each distinct row is written once and read back from a memo; a new
    memo starts wherever one of those three changes.
    """
    memo: dict = {}
    shape = None  # no flat has this shape: the first one starts a memo
    for flat in chain:
        root, offset, zero, coned, den = flat
        if (len(root), coned, den) != shape:
            memo, shape = {}, (len(root), coned, den)
        rows = []
        for v, (r, o) in enumerate(zip(root, offset)):
            if r != v:
                row = (v, r, o)
                rows.append(memo[row] if row in memo else memo.setdefault(row, write(flat, row)))
        if zero:
            rows.append(memo[None] if None in memo else memo.setdefault(None, write(flat, None)))
        yield flat, rows


def _chain_lines(chain: list[Flat], names: Sequence[str]) -> list[str]:
    """Each flat as its line of the text answer: its rank and its rows as
    ``equation_str`` writes them, ``; ``-separated, or ``ambient space``."""
    z = names[-1]  # read only when coned

    def equation(flat: Flat, row: tuple[int, int, int] | None) -> str:
        if row is None:
            return equation_str((1,), 0, (z,))
        v, r, o = row
        den = flat.den
        if flat.coned:  # x_v - x_r - (o/den)*z = 0
            return equation_str((den, -den, -o), 0, (names[v], names[r], z), den)
        return equation_str((den, -den), o, (names[v], names[r]), den)  # x_v - x_r = o/den

    return [f"  rank {len(rows)}: {'; '.join(rows) or 'ambient space'}" for _, rows in _chain_rows(chain, equation)]


def _flat_records(chain: list[Flat], pad: str) -> str:
    """A modular chain as ``json.dumps`` writes the list of its flats' records
    ``{"dim": ..., "rank": ..., "rref": [...]}`` at the indent ``pad``, each
    row a list of ``"num/den"`` entries as ``format_rational`` writes them:
    the columns of the coordinates, then ``z`` when coned, then the
    constant.  The one writer of a chain of flats in JSON."""
    record = pad + "  "
    field = record + "  "
    line = field + "  "
    entry = line + "  "
    sep = "," + entry

    def row_record(flat: Flat, row: tuple[int, int, int] | None) -> str:
        n = len(flat.root)
        entries = ['"0/1"'] * (n + 1 + flat.coned)
        if row is None:  # z = 0
            entries[n] = '"1/1"'
        else:
            v, r, o = row
            entries[v], entries[r] = '"1/1"', '"-1/1"'
            entries[n] = _json_rational(-o if flat.coned else o, flat.den)
        return f"[{entry}{sep.join(entries)}{line}]"

    records = []
    for flat, rows in _chain_rows(chain, row_record):
        rref = f"[{line}{(',' + line).join(rows)}{field}]" if rows else "[]"
        rank = len(rows)
        records.append(
            f'{{{field}"dim": {len(flat.root) + flat.coned - rank},{field}"rank": {rank},{field}"rref": {rref}{record}}}'
        )
    return "[" + record + ("," + record).join(records) + pad + "]"


def _derivation_records(derivs: Sequence[Sequence[MultiPoly]], pad: str) -> str:
    """A basis as ``json.dumps`` writes the list of its derivations' component
    lists at the indent ``pad``, each component the list of its term records
    written by ``exactmath.poly_json_str``, which alone reads the packed
    keys.  The components of one answer share one exponent memo."""
    record = pad + "  "
    field = record + "  "
    memo: dict = {}
    lists = [f"[{field}" + ("," + field).join([poly_json_str(c, field, memo) for c in d]) + record + "]" for d in derivs]
    return "[" + record + ("," + record).join(lists) + pad + "]"


def _render(value: object, pad: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it.

    ``pad`` is the newline and indent of the enclosing line.  Only plain
    JSON is rendered -- dicts with str keys, lists, str, int, bool and None
    -- and writers: a writer is a ``functools.partial`` of a writer of this
    module whose one missing argument is ``pad``, and ``_render`` calls it
    with its indent.  A handler hands over each value that is written
    straight from its integer form as such a writer: ``_json_unipoly``,
    ``_derivation_records``, ``_flat_records``, ``_chamber_records``,
    ``_json_edges``, ``_json_sets`` and ``_survey_records``, and ``run`` the
    spec echo, ``_request_echo``.  Any other type is a ``TypeError`` naming it.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    inner = pad + "  "
    if kind is list:
        if not value:
            return "[]"
        rendered = ("," + inner).join([
            encode_basestring_ascii(v) if type(v) is str
            else int.__repr__(v) if type(v) is int
            else _render(v, inner)
            for v in value
        ])
        return "[" + inner + rendered + pad + "]"
    if kind is dict:
        if not value:
            return "{}"
        for key in value:
            if type(key) is not str:
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
        items = [encode_basestring_ascii(k) + ": " + _render(value[k], inner) for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is partial:
        return value(pad)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def run(req: AnalysisRequest) -> str:
    """Execute a request and return the rendered report.

    Each handler renders only the requested format: the text report, or
    for JSON output the fields that follow the command and the spec echo,
    plain values and writers that ``_render`` writes byte for byte as
    ``json.dumps(..., indent=2, sort_keys=True)`` would.
    """
    answer = _HANDLERS[req.command](req)
    if req.output_format == "json":
        payload = {"command": req.command, "spec": partial(_request_echo, req)}
        payload.update(answer)
        return _render(payload)
    return answer


def main(argv: list[str] | None = None) -> int:
    import argparse  # only the command line needs it: kept off the import of this module

    class Parser(argparse.ArgumentParser):
        def error(self, message: str):  # a usage error is bad input, as any other
            raise ValueError(message)

    parser = Parser(
        prog="ishkit",
        description="Exact analysis of nested and deleted difference arrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--spec", help="spec file (defaults to stdin)")
        p.add_argument("--format", choices=("text", "json"), dest="fmt")

    try:
        args = parser.parse_args(argv)
        if args.spec:
            with open(args.spec, encoding="utf-8") as fh:
                raw = fh.read()
        else:
            raw = sys.stdin.read()
        doc = _read_doc(raw)
        if "command" in doc and doc["command"] != args.command:
            raise ValueError(
                f"spec says command {_shown(doc['command'])} but {args.command!r} was invoked"
            )
        doc["command"] = args.command
        if args.fmt:
            doc["format"] = args.fmt
        print(run(request_from_doc(doc)))
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return 0
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout early: no fault of the request
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # the flush at exit writes what is left there
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a process the signal ended
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # a failed cross-check, whose message may embed a whole input
        text = str(exc)
        print(f"internal error: {text if len(text) <= 200 else text[:200] + '...'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
