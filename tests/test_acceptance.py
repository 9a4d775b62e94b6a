"""End-to-end acceptance checks.

Every check here is exact: polynomial identities, chamber counts and
determinant constants are compared with rational arithmetic, never with
tolerances.  Each test prints a single ``[criterion N] PASS/FAIL`` line,
visible under ``pytest -s``.
"""

import random
from contextlib import contextmanager
from itertools import combinations

from ishkit.arrangement import (
    Graph,
    NestSpec,
    build_deleted,
    build_n_ish,
    build_named,
    cone,
    ish_nest,
)
from ishkit.chambers import (
    canonical_chamber,
    distance_poly,
    enumerate_chambers,
    ish_base_chamber,
    wallcross_expected,
)
from ishkit.exactmath import UniPoly
from ishkit.freeness import (
    basis_derivations,
    decide_free,
    is_log_derivation,
    is_nest,
    saito_verify,
    verify_nonfree_witness,
)
from ishkit.graphs import survey
from ishkit.lattice import char_poly, is_supersolvable


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {title}")
        raise
    print(f"[criterion {number}] PASS  {title}")


# -- shared example builders (also feeding the cone-relation registry) --


def subsets_012() -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for size in range(4):
        out.extend(combinations((0, 1, 2), size))
    return out


def all_nests_ell3() -> list[NestSpec]:
    """All 64 two-set nest specs with entries drawn from {0, 1, 2}."""
    return [
        NestSpec.make([n2, n3]) for n2 in subsets_012() for n3 in subsets_012()
    ]


def random_ascending_nests(count: int = 20, seed: int = 46181) -> list[NestSpec]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ell = rng.randint(2, 4)
        sets: list[list[int]] = []
        grown: set[int] = set()
        for _ in range(ell - 1):
            grown |= {rng.randrange(5) for _ in range(rng.randint(0, 2))}
            sets.append(sorted(grown))
        out.append(NestSpec.make(sets))
    return out


def subgraphs(ell: int) -> list[Graph]:
    edges = [(i, j) for i, j in combinations(range(1, ell + 1), 2)]
    return [
        Graph.make(ell, [e for k, e in enumerate(edges) if mask >> k & 1])
        for mask in range(1 << len(edges))
    ]


WALLCROSS_NESTS = (
    NestSpec.make([[0, 1], [0]]),
    NestSpec.make([[0, 1, 2], [0, 1]]),  # the ell=3 staircase, largest set first
)


def geometric_product(tops: list[int]) -> UniPoly:
    out = UniPoly.one()
    for top in tops:
        out = out * UniPoly.geometric(top)
    return out


# -- the criteria ------------------------------------------------------


def test_shi_ish_charpoly_match():
    with criterion(1, "Shi and Ish characteristic polynomials agree, ell=2..5"):
        for ell in range(2, 6):
            expected = UniPoly.from_roots([0] + [ell] * (ell - 1))
            assert char_poly(build_named("ish", ell)) == expected
            assert char_poly(build_named("shi", ell)) == expected


def test_nest_supersolvable_free_equivalence_exhaustive():
    with criterion(2, "nest <=> supersolvable <=> free over all 64 nests at ell=3"):
        for nest in all_nests_ell3():
            order = is_nest(nest)
            chain = is_supersolvable(cone(build_n_ish(nest)))
            assert (order is not None) == (chain is not None)
            if order is not None:
                ascending = nest.reordered(order)
                arr = cone(build_n_ish(ascending))
                derivs = basis_derivations(ascending)
                assert all(is_log_derivation(d, arr) for d in derivs)
                assert saito_verify(derivs, arr)
            else:
                verdict = decide_free(nest)
                assert not verdict.free
                witness = verdict.witness
                union = set(nest.set_at(2)) | set(nest.set_at(3))
                assert witness.restriction_exponent == len(union)
                assert len(union) != len(nest.set_at(2))
                assert len(union) != len(nest.set_at(3))
                assert verify_nonfree_witness(nest, witness)


def test_staircase_cone_saito_and_exponents():
    with criterion(3, "coned staircase is free with exponents (0,1,ell..ell)"):
        for ell in range(2, 6):
            nest = ish_nest(ell)
            arr = cone(build_n_ish(nest))
            assert saito_verify(basis_derivations(nest), arr)
            exponents = decide_free(nest).exponents
            assert exponents == (0, 1) + (ell,) * (ell - 1)
            # the exponents factor the cone polynomial, which decones to
            # the criterion-1 polynomial
            assert UniPoly.from_roots(exponents) == char_poly(arr)
            assert char_poly(arr) == UniPoly.from_roots(
                [1, 0] + [ell] * (ell - 1)
            )


def test_chamber_counts_match_moebius():
    with criterion(4, "chamber counts 3/16/125 and 32 equal |chi(-1)|"):
        cases = [
            (build_named("ish", 2), 3),
            (build_named("ish", 3), 16),
            (build_named("ish", 4), 125),
            (cone(build_named("ish", 3)), 32),
        ]
        for arr, expected in cases:
            assert len(enumerate_chambers(arr)) == expected
            assert abs(char_poly(arr).evaluate(-1)) == expected


def test_wallcross_distance_polynomials():
    with criterion(5, "wall-crossing distance polynomials match product forms"):
        for ell in (2, 3, 4):
            arr, base = ish_base_chamber(ell)
            assert distance_poly(arr, base) == geometric_product([ell] * (ell - 1))
        for nest in WALLCROSS_NESTS:
            assert nest.is_descending()
            arr = cone(build_n_ish(nest))
            base = canonical_chamber(nest, arr)
            sizes = sorted(len(nest.set_at(j)) for j in range(2, nest.ell + 1))
            tops = [1] + [
                sizes[k - 2] + nest.ell - k for k in range(2, nest.ell + 1)
            ]
            expected = geometric_product(tops)
            assert wallcross_expected(nest) == expected
            assert distance_poly(arr, base) == expected


def test_subgraph_survey():
    with criterion(6, "subgraph survey: 7/8 free at ell=3, no violations at ell=4"):
        report3 = survey(3)
        assert report3.total == 8
        assert report3.free_count == 7
        assert report3.violations == ()
        not_free = [r.analysis.graph for r in report3.records if not r.analysis.free]
        assert len(not_free) == 1
        assert not_free[0].sorted_edges() == [(1, 2), (2, 3)]

        report4 = survey(4)
        assert report4.total == 64
        assert report4.violations == ()

        for report in (report3, report4):
            assert all(r.char_shi == r.char_ish for r in report.records)


def test_random_nest_basis_members():
    with criterion(7, "random ascending nests: every basis member is logarithmic"):
        nests = random_ascending_nests()
        assert len(nests) == 20
        for nest in nests:
            assert nest.is_ascending()
            arr = cone(build_n_ish(nest))
            for theta in basis_derivations(nest):
                assert is_log_derivation(theta, arr)


def test_cone_charpoly_relation():
    with criterion(8, "chi(cone A) = (t-1) chi(A) for every affine example"):
        affine = [build_named(kind, ell) for kind in ("ish", "shi") for ell in range(2, 6)]
        affine += [build_n_ish(nest) for nest in all_nests_ell3()]
        affine += [build_n_ish(nest) for nest in random_ascending_nests()]
        affine += [build_n_ish(nest) for nest in WALLCROSS_NESTS]
        for ell in (3, 4):
            for graph in subgraphs(ell):
                affine.append(build_deleted("shi", graph))
                affine.append(build_deleted("ish", graph))
        t_minus_1 = UniPoly.from_roots([1])
        for arr in affine:
            assert char_poly(cone(arr)) == t_minus_1 * char_poly(arr)
