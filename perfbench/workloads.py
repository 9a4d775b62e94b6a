"""Request templates, pools and the seeded request generator.

A workload is a list of templates plus a few fixed requests.  A template
fixes what decides a request's cost: the command, the spec type, l, the
cone flag and the shape (the sizes of the sets N_2..N_l and whether they
form a chain, or the number of graph edges).  The seed fills in the rest:
which entries (integers, or halves too), which sets sit where, which
edges.  A round holds one instance of every template, so rounds of
different seeds have the same mix and nearly the same cost, and the
spread between seeds measures the program, not the draw.

Each template draws from a fixed pool of instances built from a constant
seed, so the golden answer file (``golden.json``) covers every request
the generator can emit; the run seed picks pool entries without
replacement, so no request occurs twice in a run.  The fixed requests
(named Shi, Ish and Coxeter specs, the l=4 survey, the l=5 staircase)
join the first round of every run.

A run's work is fixed: ``rounds_for(seconds)`` whole rounds, as many as
took about that long at the seed commit, and at least ``MIN_REQUESTS``
requests.  Both sides of a comparison then serve the same requests for a
seed, and a slow spell of the machine cannot change the mix.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

POOL_SEED = "ishkit-perfbench-pools-v2"
POOL_SIZE = 30  # instances per template use: up to 30 rounds in a run
INT_ENTRIES = (0, 1, 2, 3)
HALF_ENTRIES = (0, "1/2", 1, "3/2", 2, "5/2", 3)
MIN_REQUESTS = 100


def key(doc: dict) -> str:
    """Canonical text of a request document; the golden file's key."""
    return json.dumps({k: v for k, v in doc.items() if k != "format"}, sort_keys=True, separators=(",", ":"))


# -- spec builders ---------------------------------------------------------


def _spec(command: str, kind: str, coned: bool, **fields) -> dict:
    doc = {"command": command, "type": kind, **fields}
    if coned:
        doc["cone"] = True
    return doc


def _value(entry) -> float:
    if isinstance(entry, str):
        p, q = entry.split("/")
        return int(p) / int(q)
    return float(entry)


def _is_chain(sets: list[list]) -> bool:
    ordered = sorted((frozenset(map(str, s)) for s in sets), key=len)
    return all(a <= b for a, b in zip(ordered, ordered[1:]))


def _sets_of_sizes(rng: random.Random, sizes, chain: bool, halves: bool) -> list[list]:
    """Sets with the given sizes in a random order, forming a chain or not."""
    universe = list(HALF_ENTRIES if halves else INT_ENTRIES)
    sizes = list(sizes)
    while True:
        rng.shuffle(sizes)
        if chain:
            order = rng.sample(universe, len(universe))
            sets = [order[:s] for s in sizes]
        else:
            sets = [rng.sample(universe, s) for s in sizes]
        if _is_chain(sets) == chain:
            return [sorted(s, key=_value) for s in sets]


@dataclass(frozen=True)
class Template:
    """One slot of a round: ``make(rng)`` gives the requests of one instance."""

    label: str
    make: Callable[[random.Random], list[dict]]
    pool: int = POOL_SIZE


def nest(command: str, sizes, chain: bool, coned: bool = False, descending: bool = False) -> Template:
    """N-Ish with sets of the given sizes; entries are integers or halves, drawn per instance."""
    def make(rng):
        sets = _sets_of_sizes(rng, sizes, chain, halves=rng.random() < 0.5)
        if descending:
            sets.sort(key=len, reverse=True)
        return [_spec(command, "n_ish", coned, N=sets)]

    shape = ",".join(map(str, sizes))
    label = f"{command} n_ish l={len(sizes) + 1} sizes={shape} {'chain' if chain else 'non-chain'}"
    return Template(label + (" cone" if coned else ""), make)


def deleted(command: str, ell: int, edges: int, coned: bool = False) -> Template:
    """deleted Shi or deleted Ish (drawn per instance) of a random graph with this many edges."""
    def make(rng):
        graph = sorted(rng.sample(list(combinations(range(1, ell + 1), 2)), edges))
        kind = rng.choice(("deleted_shi", "deleted_ish"))
        return [_spec(command, kind, coned, ell=ell, edges=[list(e) for e in graph])]

    return Template(f"{command} deleted l={ell} edges={edges}" + (" cone" if coned else ""), make)


def subgraph(ell: int, edges: int | None) -> Template:
    """A random subgraph (with this many edges, or any): its analysis and both charpolys."""
    def make(rng):
        pairs = list(combinations(range(1, ell + 1), 2))
        count = rng.randint(0, len(pairs)) if edges is None else edges
        graph = [list(e) for e in sorted(rng.sample(pairs, count))]
        return [
            _spec("graph", "deleted_ish", False, ell=ell, edges=graph),
            _spec("charpoly", "deleted_shi", False, ell=ell, edges=graph),
            _spec("charpoly", "deleted_ish", False, ell=ell, edges=graph),
        ]

    label = f"subgraph K_{ell} edges={'any' if edges is None else edges}"
    return Template(label, make, pool=2 ** (ell * (ell - 1) // 2) // 4 if edges is None else POOL_SIZE)


def named(command: str, kind: str, ell: int, coned: bool = False) -> dict:
    return _spec(command, kind, coned, ell=ell)


# -- workloads -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    templates: tuple[Template, ...]
    fixed: tuple[dict, ...]
    round_s: float  # seconds a round took at the seed commit (2-vCPU VM, CPython 3.11)
    fixed_s: float  # seconds the fixed requests took there

    def rounds_for(self, seconds: float) -> int:
        """Whole rounds for a run of about ``seconds``, holding at least MIN_REQUESTS requests."""
        pool = pools(self)
        size = sum(len(pool[t.label][0]) for t in self.templates)
        by_time = math.ceil(max(seconds - self.fixed_s, 0) / self.round_s)
        by_count = math.ceil(max(MIN_REQUESTS - len(self.fixed), 0) / size)
        return max(by_time, by_count, 1)


_NAMED_LATTICE = tuple(
    [named("charpoly", k, ell, c) for ell in (3, 4) for k in ("shi", "ish", "coxeter") for c in (False, True)]
    + [named("supersolvable", k, ell, True) for ell in (3, 4) for k in ("shi", "ish", "coxeter")]
    + [named("charpoly", "coxeter", 5), named("charpoly", "coxeter", 5, True)]
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lattice",
            "charpoly, supersolvable and graph requests on Shi, Ish, Coxeter, N-Ish, deleted specs and "
            "subgraphs, l=3..5, l=5 cone tail, one survey: time is in the poset and the modular search",
            (
                # below the median
                nest("charpoly", (2, 3), True),
                nest("charpoly", (2, 2), False, coned=True),
                nest("supersolvable", (1, 3), True, coned=True),
                nest("supersolvable", (2, 2), False, coned=True),
                nest("charpoly", (1, 2, 3), True),
                nest("charpoly", (1, 2, 2), False),
                nest("charpoly", (1, 1, 2), True, coned=True),
                # the median falls in this block of requests of about the same cost
                deleted("charpoly", 4, 3, coned=True),
                deleted("charpoly", 4, 3, coned=True),
                deleted("charpoly", 4, 3, coned=True),
                nest("charpoly", (2, 1, 2), False, coned=True),
                nest("charpoly", (2, 1, 2), False, coned=True),
                nest("charpoly", (2, 1, 2), False, coned=True),
                # above the median
                nest("supersolvable", (1, 2, 3), True, coned=True),
                nest("supersolvable", (2, 2, 1), False, coned=True),
                deleted("supersolvable", 4, 2, coned=True),
                deleted("supersolvable", 4, 4, coned=True),
                nest("charpoly", (1, 1, 1, 2), True),
                nest("charpoly", (1, 2, 1, 1), False),
                nest("charpoly", (1, 1, 1, 1), False, coned=True),
                # the 90th percentile falls in this block
                deleted("charpoly", 5, 2, coned=True),
                deleted("charpoly", 5, 2, coned=True),
                deleted("charpoly", 5, 2, coned=True),
                # subgraphs: each is a graph request plus deleted Shi and Ish charpolys
                subgraph(4, None),
                subgraph(4, None),
                subgraph(5, 3),
            ),
            _NAMED_LATTICE + ({"command": "survey", "ell": 4},),
            round_s=4.5,
            fixed_s=7.5,
        ),
        Workload(
            "saito",
            "basis, Saito checks and freeness verdicts on random nests with l=3..5 and the l=5 "
            "staircase: the time is exact polynomial algebra, with no lattice and no Fourier-Motzkin",
            (
                nest("basis", (1, 2), True),
                nest("basis", (1, 2, 3), True),
                nest("basis", (0, 1, 2, 3), True),
                nest("basis", (0, 1, 2, 3), True),
                nest("basis", (0, 1, 2, 3), True),
                nest("freeness", (2, 2), False),
                nest("freeness", (1, 1, 2), True),
                nest("freeness", (1, 2, 2), False),
                nest("freeness", (1, 2, 2, 3), False),
                nest("freeness", (0, 1, 1, 3), True),
                nest("saito", (1, 2), True),
                nest("saito", (2, 3), True),
                nest("saito", (1, 2, 3), True),
                nest("saito", (2, 2, 3), True),
                nest("saito", (1, 1, 2, 3), True),
                nest("saito", (2, 3, 4), True),
                nest("saito", (1, 2, 3, 3), True),
                nest("saito", (2, 2, 3, 3), True),
                nest("saito", (1, 2, 3, 4), True),
            ),
            (named("saito", "ish", 3), named("saito", "ish", 4), named("basis", "ish", 5), named("saito", "ish", 5)),
            round_s=1.65,
            fixed_s=1.5,
        ),
        Workload(
            "chambers",
            "chamber enumeration on Shi, Ish and N-Ish with l=3..4 and wall-crossing on affine Ish and "
            "descending nests with l=3..5: the time is Fourier-Motzkin feasibility",
            (
                nest("chambers", (2, 3), True),
                nest("chambers", (1, 2), True),
                nest("chambers", (1, 1), False, coned=True),
                nest("chambers", (2, 3), False),
                nest("chambers", (2, 2), False, coned=True),
                nest("chambers", (1, 3), True, coned=True),
                nest("chambers", (1, 2, 2), True),
                nest("chambers", (1, 1, 2), False),
                nest("chambers", (0, 1, 2), True, coned=True),
                nest("chambers", (1, 2, 3), True, coned=True),
                nest("wallcross", (1, 3), True, descending=True),
                nest("wallcross", (2, 3), True, descending=True),
                nest("wallcross", (1, 2, 3), True, descending=True),
                nest("wallcross", (0, 1, 2), True, descending=True),
                nest("wallcross", (0, 1, 1, 2), True, descending=True),
                nest("wallcross", (0, 1, 2, 2), True, descending=True),
            ),
            tuple(
                [named("chambers", k, ell, c) for ell in (3, 4) for k in ("shi", "ish") for c in (False, True)]
                + [named("wallcross", "ish", 3), named("wallcross", "ish", 4)]
            ),
            round_s=1.5,
            fixed_s=1.7,
        ),
    )
}


def pools(workload: Workload) -> dict[str, list[list[dict]]]:
    """Each template's fixed instances; independent of the run seed."""
    uses = Counter(t.label for t in workload.templates)
    out = {}
    for t in workload.templates:
        if t.label in out:
            continue
        want = t.pool * uses[t.label]
        rng = random.Random(f"{POOL_SEED}/{t.label}")
        items: dict[str, list[dict]] = {}
        for _ in range(100 * want):
            item = t.make(rng)
            items.setdefault(key(item[0]), item)
            if len(items) == want:
                break
        out[t.label] = list(items.values())
    return out


def generate(workload: Workload, seed: int, n_rounds: int) -> list[list[dict]]:
    """The run's rounds for a seed: same seed, same rounds."""
    rng = random.Random(f"{workload.name}/{seed}")
    uses = Counter(t.label for t in workload.templates)
    dealt = {}
    for label, items in pools(workload).items():
        if len(items) < uses[label] * n_rounds:
            raise ValueError(f"template {label!r} has {len(items)} instances, too few for {n_rounds} rounds")
        dealt[label] = iter(rng.sample(items, uses[label] * n_rounds))
    rounds = []
    for r in range(n_rounds):
        items = [next(dealt[t.label]) for t in workload.templates]
        if r == 0:
            items += [[doc] for doc in workload.fixed]
        rng.shuffle(items)
        rounds.append([dict(doc, format="json") for item in items for doc in item])
    return rounds


def _ell(doc: dict) -> int:
    return doc["ell"] if "ell" in doc else len(doc["N"]) + 1


def describe(workload: Workload, rounds: list[list[dict]]) -> dict:
    """Request count, mix by command x l x spec type, repeated share, reason."""
    docs = [d for r in rounds for d in r]
    mix = Counter(
        f"{d['command']} l={_ell(d)} {d.get('type', '')}{' cone' if d.get('cone') else ''}".strip() for d in docs
    )
    return {
        "workload": workload.name,
        "rounds": len(rounds),
        "requests": len(docs),
        "repeated_share": 1 - len({key(d) for d in docs}) / len(docs),
        "mix": dict(sorted(mix.items())),
        "why": workload.why,
    }
