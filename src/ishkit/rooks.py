"""Characteristic polynomials by rook numbers, with no intersection poset.

Every spec kind is a board after a translation, and its characteristic
polynomial follows from the board's rook numbers ``r_k`` (the ways to
place k non-attacking rooks on its cells; Goldman-Joichi-White, *Rook
theory I*, 1975) by the finite-field method (Athanasiadis, Adv. Math.
1996): over F_q, with q a large prime, chi(q) counts the points off
every hyperplane, and inclusion-exclusion over the cells a point hits
turns that count into a sum over rook placements.

* N-Ish on the sets N_2..N_l, which covers ``ish``, ``n_ish`` and
  ``deleted_ish`` (through ``n_from_graph``).  Translate to x1 = 0; a
  point then gives each row j = 2..l a distinct value x_j, avoiding the
  cell (j, -a) for each a in N_j.  So::

      chi(t) = t * sum_k (-1)^k r_k (t-k)(t-k-1)...(t-l+2).

* Deleted Shi on a graph G, which covers ``shi`` (G = K_l), ``coxeter``
  (no edges) and ``deleted_shi``.  The board has a cell (i, j) for each
  edge i < j.  A consistent set of forced equalities x_i = x_j + 1 is a
  rook placement, since two such edges out of one vertex, or into one,
  force a collision; its m rooks chain the l coordinates into l - m runs
  of consecutive residues, which fit on Z_q in q(q-l+1)...(q-m-1)
  ways.  So::

      chi(t) = t * sum_m (-1)^m r_m (t-m-1)(t-m-2)...(t-l+1).

  For G = K_l this gives Shi's t(t-l)^(l-1), which by Armstrong-Rhoades
  (Trans. AMS 2012) is also Ish's.  The two boards of one graph share
  their cells (N_G's is this one, transposed, plus the full column of the
  entry 0), so their agreement in ``graphs.survey`` checks the two DP
  vectors and the two shifts, not the column step they share.

A coned spec multiplies chi by (t - 1).  The coefficients stay ``int``
lists until the final ``UniPoly``.  ``lattice.char_poly``, the Moebius
sum over all flats, is the oracle these are tested against.
"""

from __future__ import annotations

from functools import cache
from operator import add
from typing import Iterable, Sequence

from .arrangement import Graph, NestSpec, ParsedSpec
from .exactmath import UniPoly, times_linear


def add_column(ways: list[int], col: int) -> list[int]:
    """The DP vector ``ways``, indexed by used-row mask, after one more
    column, which holds the rows in bitmask ``col``: a new list."""
    out = ways.copy()
    for used, count in enumerate(ways):
        free = col & ~used if count else 0
        while free:
            bit = free & -free
            out[used | bit] += count
            free ^= bit
    return out


@cache
def _popcount_groups(states: int) -> tuple[tuple[int, ...], ...]:
    """The masks below ``states``, a power of two, grouped by their number of set bits."""
    rows = states.bit_length() - 1
    return tuple(tuple(u for u in range(states) if u.bit_count() == k) for k in range(rows + 1))


def rook_counts(ways: list[int]) -> list[int]:
    """``r_0..r_rows`` of a DP vector: its ways summed over the masks of each size."""
    return [sum([ways[u] for u in group]) for group in _popcount_groups(len(ways))]


def every_column_counts(ways: list[int]) -> list[tuple[int, ...]]:
    """The rook numbers of the DP vector ``ways`` after one more column, for
    each column c over its rows, at index c: ``rook_counts(add_column(ways, c))``.

    A rook in row b turns each way of k - 1 rooks that leaves b free into a
    way of k, so a column adds to r_k the sum over its rows b of those ways,
    ``gains[b][k]``.  The rook numbers of c are then those of c without its
    lowest row, plus that row's gains: one vector sum per column.
    """
    groups = _popcount_groups(len(ways))
    gains = [
        (0, *[sum([ways[u] for u in group if not u >> b & 1]) for group in groups[:-1]])
        for b in range(len(groups) - 1)
    ]
    out = [tuple(rook_counts(ways))]
    for c in range(1, len(ways)):
        low = c & -c
        out.append(tuple(map(add, out[c ^ low], gains[low.bit_length() - 1])))
    return out


def rook_numbers(rows: int, columns: Iterable[int]) -> list[int]:
    """``r_0..r_rows`` of the board whose column c holds the rows in bitmask c.

    A DP over the used-row masks, one column at a time (``add_column``):
    2^rows states, whatever the number of columns.
    """
    ways = [0] * (1 << rows)
    ways[0] = 1
    for col in columns:
        ways = add_column(ways, col)
    return rook_counts(ways)


def _chi(rooks: Sequence[int], ell: int, shift: int, coned: bool) -> UniPoly:
    """``t * sum_k (-1)^k r_k prod_{c=k+shift}^{l-2+shift} (t - c)``, times (t - 1) when coned."""
    total = [0] * ell
    prod = [1]
    for k in range(ell - 1, -1, -1):
        if k < ell - 1:
            prod = times_linear(prod, k + shift)
        signed = -rooks[k] if k % 2 else rooks[k]
        for i, c in enumerate(prod):
            total[i] += signed * c
    poly = [0] + total
    return UniPoly(times_linear(poly, 1) if coned else poly)


def nest_char_poly(nest: NestSpec, coned: bool = False) -> UniPoly:
    """chi of the N-Ish arrangement of ``nest``, or of its cone."""
    columns: dict[int, int] = {}  # keyed by the entry's numerator over the nest's denominator
    for row, entries in enumerate(nest.nums):
        for a in entries:
            columns[a] = columns.get(a, 0) | 1 << row
    return _chi(rook_numbers(nest.ell - 1, columns.values()), nest.ell, 0, coned)


def graph_char_poly(graph: Graph, coned: bool = False) -> UniPoly:
    """chi of the deleted Shi arrangement of ``graph``, or of its cone."""
    # column j holds rows i - 1 of edges (i, j): its in-neighbour mask, less the bit 0 never set
    columns = [ins >> 1 for ins in graph.in_masks() if ins]
    return _chi(rook_numbers(graph.ell - 1, columns), graph.ell, 1, coned)


def board_columns(parsed: ParsedSpec) -> int:
    """The non-empty columns of the board of a parsed spec: ``rook_numbers``
    makes one pass over its 2^(ell-1) states for each."""
    if parsed.nest is not None:
        return len({a for entries in parsed.nest.nums for a in entries})
    if parsed.graph is not None:
        return sum(1 for ins in parsed.graph.in_masks() if ins)
    return parsed.ell - 1 if parsed.kind == "shi" else 0  # K_l fills columns 2..l


def spec_char_poly(parsed: ParsedSpec) -> UniPoly:
    """chi of a parsed spec, from the board of its kind."""
    if parsed.nest is not None:
        return nest_char_poly(parsed.nest, parsed.coned)
    graph = parsed.graph
    if graph is None:
        graph = Graph.complete(parsed.ell) if parsed.kind == "shi" else Graph.make(parsed.ell, [])
    return graph_char_poly(graph, parsed.coned)
