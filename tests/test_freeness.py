import itertools
import json
import random
from fractions import Fraction
from functools import reduce
from math import lcm, prod
from operator import mul, or_
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ishkit.arrangement import (
    NAMED_KINDS,
    Arrangement,
    Graph,
    Hyperplane,
    NestSpec,
    _diff_form,
    build_deleted,
    build_n_ish,
    build_named,
    cone,
    deletion,
    ish_nest,
)
from ishkit.cli import request_from_doc, run
from ishkit.exactmath import MultiPoly, UniPoly, int_det
from ishkit.freeness import (
    Derivation,
    FactoredDerivation,
    FreenessVerdict,
    NonFreeWitness,
    _degree,
    _exchange_group,
    _exchanged,
    _form_index,
    _off_point,
    _peel,
    _translation_and_euler,
    basis_derivations,
    decide_free,
    derivation_str,
    factored_basis,
    factored_saito_constant,
    is_log_derivation,
    is_nest,
    saito_constant,
    saito_verify,
    verify_nonfree_witness,
)
from ishkit.lattice import Flat, char_poly
from ishkit.rooks import nest_char_poly
from test_arrangement import (
    MIXED_SETS,
    FractionNestSpec,
    PlaneArrangement,
    fraction_build_n_ish,
    fraction_cone,
    make_hyperplane,
    rational_set,
    rational_sets,
    read_back,
)
from test_exactmath import as_terms, from_terms, neg, ref_div, sub, var


def euler(n):
    return tuple(var(n, i) for i in range(n))


# -- Derivation basics --------------------------------------------------


def test_derivation_validation():
    # both checkers that take expanded derivations want one component per variable
    arr = cone(build_named("ish", 2))
    n = arr.dim
    x1 = var(n, 0)
    derivs = basis_derivations(ish_nest(2))
    for bad in ((), (x1, x1), (x1, x1, var(2, 0)), (x1,) * 4):
        with pytest.raises(ValueError, match="one component per variable"):
            is_log_derivation(bad, arr)
        with pytest.raises(ValueError, match="one component per variable"):
            saito_constant([derivs[0], derivs[1], bad], arr)


def test_derivation_degree_and_homogeneity():
    n = 3
    zero, one = MultiPoly.zero(n), MultiPoly.const(n, 1)
    x1, x2 = var(n, 0), var(n, 1)
    assert _degree((one, one, zero)) == 0
    assert _degree(euler(n)) == 1
    assert _degree((zero, x1 * x2, x1 * x1)) == 2
    for mixed in ((x1 + one, zero, zero), (x1, one, zero), (zero, zero, zero)):
        with pytest.raises(ValueError, match="not homogeneous"):
            _degree(mixed)


def test_apply_to_is_coefficient_combination():
    # theta(alpha_H) = x2 - x1 on x1 = x2 and x2 + x1 on x1 = -x2: multiples
    # of alpha_H; on x1 = x3 it is x2, which is not
    n = 3
    x1, x2 = var(n, 0), var(n, 1)
    theta = (x2, x1, MultiPoly.zero(n))
    for coeffs, log in (([1, -1, 0], True), ([1, 1, 0], True), ([1, 0, -1], False)):
        assert is_log_derivation(theta, PlaneArrangement(n, [make_hyperplane(coeffs)])) is log


def test_derivation_render():
    n = 3
    names = ["x1", "x2", "z"]
    zero, one = MultiPoly.zero(n), MultiPoly.const(n, 1)
    x1 = var(n, 0)
    assert derivation_str((one, one, zero), names) == "(1) d/dx1 + (1) d/dx2"
    assert derivation_str((zero, sub(x1 * x1, one), zero), names) == "(x1^2 - 1) d/dx2"
    assert derivation_str((zero, zero, zero), names) == "0"


# -- logarithmic test ---------------------------------------------------


def test_euler_is_always_logarithmic():
    for arr in (cone(build_named("ish", 2)), cone(build_named("shi", 3)), build_named("coxeter", 3)):
        assert is_log_derivation(euler(arr.dim), arr)


def test_single_coordinate_field_fails_on_a_difference():
    arr = cone(build_named("ish", 2))
    n = arr.dim
    comps = [MultiPoly.zero(n)] * n
    comps[0] = var(n, 0)
    assert not is_log_derivation(tuple(comps), arr)  # fails on x1 - x2 = 0


def test_log_derivation_requires_central():
    arr = build_named("ish", 2)
    with pytest.raises(ValueError):
        is_log_derivation(euler(arr.dim), arr)


# -- chain detection and exponents --------------------------------------


def chain_order(nest: NestSpec) -> tuple[int, ...] | None:
    """The sets sorted by ``(size, numerators)``, when that order is a chain
    under inclusion: the chain test of a sort and ``NestSpec.chained``, the
    oracle of the verdict's ``order``."""
    nums = nest.nums
    order = tuple(sorted(range(2, nest.ell + 1), key=lambda j: (len(nums[j - 2]), nums[j - 2])))
    return order if nest.chained(order) else None


def nest_exponents(nest: NestSpec, order) -> tuple[int, ...]:
    """Exponent multiset ``{0, 1} | {|N_{w(k)}| + ell - k}`` of the cone, for an
    order it tests to be a chain order: the oracle of the verdict's ``exponents``."""
    if not nest.reordered(order).is_ascending():
        raise ValueError("order does not certify a chain")
    ell, nums = nest.ell, nest.nums
    return tuple(sorted([0, 1, *(len(nums[j - 2]) + ell - k for k, j in enumerate(order, start=2))]))


def test_is_nest_examples():
    assert is_nest(ish_nest(3)) == (2, 3)
    assert is_nest(NestSpec.make([[0, 1], [0]])) == (3, 2)
    assert is_nest(NestSpec.make([[0, 1], [0, 2]])) is None
    assert is_nest(NestSpec.make([[], [], [0]])) in ((2, 3, 4), (3, 2, 4))


def test_nest_exponents_for_full_staircase():
    # N_j = {0, ..., j-1} gives the coned arrangement exponent ell at
    # every position past the first two.
    for ell in range(2, 6):
        nest = ish_nest(ell)
        exps = nest_exponents(nest, chain_order(nest))
        assert exps == decide_free(nest).exponents == tuple([0, 1] + [ell] * (ell - 1))


def test_nest_exponents_mixed_chain():
    nest = NestSpec.make([[0, 1], [0]])
    assert nest_exponents(nest, (3, 2)) == decide_free(nest).exponents == (0, 1, 2, 2)


def test_nest_exponents_rejects_bad_orders():
    nest = NestSpec.make([[0, 1], [0]])
    with pytest.raises(ValueError):
        nest_exponents(nest, (2, 3))  # not a chain in this order
    with pytest.raises(ValueError):
        nest_exponents(nest, (2, 2))


def test_exponent_sum_matches_hyperplane_count():
    rng = random.Random(40231)
    for _ in range(25):
        ell = rng.randint(2, 4)
        nest = NestSpec.make(
            [rng.sample(range(4), rng.randint(0, 3)) for _ in range(ell - 1)]
        )
        verdict = decide_free(nest)
        if not verdict.free:
            continue
        arr = cone(build_n_ish(nest))
        assert sum(verdict.exponents) == sum(nest_exponents(nest, verdict.order)) == len(arr)


def test_exponents_agree_with_characteristic_polynomial():
    # Independent cross-check through the intersection-lattice route:
    # the characteristic polynomial of the cone factors over the
    # exponents.
    for sets in ([[0, 1], [0]], [[0], [0, 1]], [[], [1]], [[1, 2], [1, 2]]):
        nest = NestSpec.make(sets)
        verdict = decide_free(nest)
        arr = cone(build_n_ish(nest.reordered(verdict.order)))
        assert char_poly(arr) == UniPoly.from_roots(list(verdict.exponents))


# -- explicit bases and Saito's criterion --------------------------------


def test_basis_needs_ascending_nest():
    with pytest.raises(ValueError):
        basis_derivations(NestSpec.make([[0, 1], [0]]))


def test_basis_derivations_shapes():
    nest = ish_nest(3)
    derivs = basis_derivations(nest)
    assert len(derivs) == 4
    assert [_degree(d) for d in derivs] == [0, 1, 3, 3]
    arr = cone(build_named("ish", 3))
    assert all(is_log_derivation(d, arr) for d in derivs)


def test_saito_on_coned_staircase():
    for ell in (2, 3):
        nest = ish_nest(ell)
        arr = cone(build_named("ish", ell))
        assert saito_verify(basis_derivations(nest), arr)


def test_saito_constant_value_rank_two():
    nest = ish_nest(2)
    arr = cone(build_named("ish", 2))
    c = saito_constant(basis_derivations(nest), arr)
    assert c is not None and c != 0


def test_saito_fails_on_repeated_derivation():
    nest = ish_nest(2)
    arr = cone(build_named("ish", 2))
    derivs = basis_derivations(nest)
    derivs[2] = derivs[0]  # still logarithmic, but the determinant dies
    assert not saito_verify(derivs, arr)


def test_saito_determinant_is_integral_for_half_integer_entries(monkeypatch):
    matrices = []

    def recording_det(matrix):
        matrices.append(matrix)
        return int_det(matrix)

    monkeypatch.setattr("ishkit.freeness.int_det", recording_det)
    nest = NestSpec.make([["1/2"], ["1/2", "3/2"]])
    arr = cone(build_n_ish(nest))
    derivs = basis_derivations(nest)
    assert saito_constant(derivs, arr) == saito_constant_by_division(derivs, arr)
    assert all(type(entry) is int for row in matrices[0] for entry in row)


def test_saito_rejects_non_logarithmic_input():
    arr = cone(build_named("ish", 2))
    n = arr.dim
    comps = [MultiPoly.zero(n)] * n
    comps[0] = var(n, 0)
    bad = tuple(comps)
    derivs = basis_derivations(ish_nest(2))
    with pytest.raises(ValueError):
        saito_verify([derivs[0], derivs[1], bad], arr)


def test_saito_rejects_wrong_count():
    arr = cone(build_named("ish", 2))
    with pytest.raises(ValueError):
        saito_verify(basis_derivations(ish_nest(2))[:2], arr)


def test_saito_degree_mismatch_is_false():
    # A logarithmic triple whose degrees undershoot the hyperplane
    # count: replace the top basis element by the Euler field rescaled.
    arr = cone(build_named("ish", 2))
    derivs = basis_derivations(ish_nest(2))
    shrunk = [derivs[0], derivs[1], tuple(c * 2 for c in derivs[1])]
    assert not saito_verify(shrunk, arr)


# -- the full decision --------------------------------------------------


def test_decide_free_on_chain():
    verdict = decide_free(NestSpec.make([[0, 1], [0]]))
    assert verdict.free
    assert verdict.exponents == (0, 1, 2, 2)
    assert verdict.witness is None
    assert verdict.order == (3, 2)


def test_decide_not_free_smallest_pair():
    verdict = decide_free(NestSpec.make([[0], [0, 1], [2]]))
    assert not verdict.free
    assert verdict.witness.i == 2 and verdict.witness.j == 4
    assert verdict.witness.localized_exponents == (1, 1, 1)
    assert verdict.witness.restriction_exponent == 2


def pair_loop_witness(nest: NestSpec) -> NonFreeWitness | None:
    """The first pair i < j, in index order, of incomparable sets, found by
    testing every pair as ``decide_free`` once did: the oracle of its witness."""
    sets = [set(entries) for entries in nest.nums]
    for i in range(2, nest.ell + 1):
        for j in range(i + 1, nest.ell + 1):
            a, b = sets[i - 2], sets[j - 2]
            if not a <= b and not b <= a:
                return NonFreeWitness(i, j, (1, len(a), len(b)), len(a | b))
    return None


# few entries, so that empty, equal and equal-size sets are common
SMALL_FAMILIES = st.lists(st.lists(st.integers(0, 3), max_size=3), min_size=1, max_size=9)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(SMALL_FAMILIES)
@example([[0], [1]])
@example([[0, 1], [0], [1], []])  # i's partner comes before it in size order
@example([[], [0], [0], [1], [0, 1]])
@example([[1], [0, 1], [0], [2]])  # N_2 lies inside N_3 and is incomparable with N_4
def test_the_verdict_is_the_chain_test_and_the_witness_the_pair_loops(sets):
    nest = NestSpec.make(sets)
    verdict, order = decide_free(nest), chain_order(nest)
    assert verdict.witness == pair_loop_witness(nest)
    assert verdict.free == (verdict.witness is None) == (order is not None)
    assert verdict.exponents == (nest_exponents(nest, order) if verdict.free else None)


def test_the_witness_of_twenty_thousand_sets():
    # the pair loop tests about 2 * 10^8 pairs before it reaches this witness
    nest = NestSpec.make([[]] * 20000 + [[0], [1]])
    assert decide_free(nest) == FreenessVerdict(False, None, NonFreeWitness(20002, 20003, (1, 1, 1), 2), None)


def test_witness_verification_roundtrip():
    for sets in ([[0, 1], [0, 2]], [[0], [1], [0, 1]], [[1, 2], [0, 1], [0, 1, 2]]):
        nest = NestSpec.make(sets)
        verdict = decide_free(nest)
        assert not verdict.free
        assert verify_nonfree_witness(nest, verdict.witness)


def test_tampered_witness_is_rejected():
    from ishkit.freeness import NonFreeWitness

    nest = NestSpec.make([[0, 1], [0, 2]])
    verdict = decide_free(nest)
    w = verdict.witness
    assert not verify_nonfree_witness(nest, NonFreeWitness(w.i, w.j, w.localized_exponents, 5))
    assert not verify_nonfree_witness(nest, NonFreeWitness(w.i, w.j, (1, 1, 1), w.restriction_exponent))
    # a comparable pair carries no obstruction
    chain = NestSpec.make([[0], [0, 1]])
    assert not verify_nonfree_witness(chain, NonFreeWitness(2, 3, (1, 1, 2), 2))
    # the pair must be 2 <= i < j <= ell: index 1 would read N_4, index 9 nothing
    singles = NestSpec.make([[0], [1], [2]])
    assert not verify_nonfree_witness(singles, NonFreeWitness(1, 3, (1, 1, 1), 2))
    assert not verify_nonfree_witness(singles, NonFreeWitness(2, 9, (1, 1, 1), 2))
    assert not verify_nonfree_witness(nest, NonFreeWitness(w.j, w.i, w.localized_exponents, w.restriction_exponent))


def verdict_to_json(verdict: FreenessVerdict) -> dict:
    """The verdict as a dict: ``FreenessVerdict.to_json`` and
    ``NonFreeWitness.to_json`` as they stood, the oracle of the ``freeness``
    answer's fields."""
    w = verdict.witness
    return {
        "free": verdict.free,
        "exponents": list(verdict.exponents) if verdict.exponents is not None else None,
        "witness": None if w is None else {
            "i": w.i, "j": w.j, "localized": list(w.localized_exponents), "restriction": w.restriction_exponent,
        },
    }


def test_verdict_json_shapes():
    free = verdict_to_json(decide_free(ish_nest(2)))
    assert free == {"free": True, "exponents": [0, 1, 2], "witness": None}
    bad = verdict_to_json(decide_free(NestSpec.make([[0, 1], [0, 2]])))
    assert bad["free"] is False and bad["exponents"] is None
    assert bad["witness"] == {"i": 2, "j": 3, "localized": [1, 2, 2], "restriction": 3}


@pytest.mark.parametrize("spec", [
    {"type": "ish", "ell": 2},
    {"type": "n_ish", "N": [[0, 1], [0, 2]]},
    {"type": "n_ish", "N": [["1/2"], [0, "1/2"], [1]], "cone": True},
    {"type": "deleted_ish", "ell": 4, "edges": [[1, 3], [2, 4]]},
])
def test_the_freeness_answer_holds_the_verdict_fields(spec):
    req = request_from_doc(dict(spec, command="freeness", format="json"))
    answer = json.loads(run(req))
    assert {k: answer[k] for k in ("free", "exponents", "witness")} == verdict_to_json(decide_free(req.parsed.nest))
    assert sorted(answer) == ["command", "exponents", "free", "spec", "witness"]


def test_random_nests_decide_and_certify():
    rng = random.Random(7741)
    seen_free = seen_nonfree = 0
    for _ in range(30):
        ell = rng.randint(2, 4)
        nest = NestSpec.make(
            [rng.sample(range(4), rng.randint(0, 3)) for _ in range(ell - 1)]
        )
        sets = [set(nest.set_at(j)) for j in range(2, ell + 1)]
        chain_exists = all(
            a <= b or b <= a for a in sets for b in sets
        )
        verdict = decide_free(nest)
        assert verdict.free == chain_exists
        if verdict.free:
            seen_free += 1
            order = is_nest(nest)
            sorted_nest = nest.reordered(order)
            arr = cone(build_n_ish(sorted_nest))
            assert saito_verify(basis_derivations(sorted_nest), arr)
        else:
            seen_nonfree += 1
            assert verify_nonfree_witness(nest, verdict.witness)
    assert seen_free and seen_nonfree


# -- the witness check against its expanded oracle ----------------------


def expanded_verify_nonfree_witness(nest: NestSpec, witness: NonFreeWitness) -> bool:
    """``verify_nonfree_witness`` on the expanded route: the four fields
    multiplied out by hand as ``MultiPoly``s and checked by ``saito_constant``.
    It reads the pair's sets unchecked, so it is no judge of the indices."""
    den, a_nums, b_nums = nest.den, nest.nums[witness.i - 2], nest.nums[witness.j - 2]
    a, b = len(a_nums), len(b_nums)
    c = len(set(a_nums) | set(b_nums))
    if witness.localized_exponents != (1, a, b) or witness.restriction_exponent != c:
        return False
    if c in (a, b):
        return False
    full = cone(build_n_ish(NestSpec(3, den, (a_nums, b_nums))))
    h_coxeter = Hyperplane((0, 1, -1, 0), 0)
    deleted = PlaneArrangement(4, [h for h in full.hyperplanes if h != h_coxeter], coned=True)
    if len(deleted) != len(full) - 1:
        return False
    n = 4
    zero, one = MultiPoly.zero(n), MultiPoly.const(n, 1)
    x1, x2, x3, z = (var(n, k) for k in range(4))
    prod2, prod3 = one, one
    for e in a_nums:
        prod2 = prod2 * sub(den * sub(x1, x2), e * z)
    for e in b_nums:
        prod3 = prod3 * sub(den * sub(x1, x3), e * z)
    derivs = [
        (one, one, one, zero),
        (x1, x2, x3, z),
        (zero, prod2, zero, zero),
        (zero, zero, prod3, zero),
    ]
    if sorted(map(_degree, derivs)) != sorted((0,) + witness.localized_exponents):
        return False
    try:
        if saito_constant(derivs, deleted) is None:
            return False
    except ValueError:
        return False
    edges_den, edges = read_back(deleted.hyperplanes, coned=True)
    traces = {Flat.through([edge, (1, 2, 0)], n, True, edges_den) for edge in edges}
    return len(traces) == 1 + c


NON_CHAIN_NESTS = st.integers(3, 8).flatmap(
    lambda ell: st.lists(
        st.lists(st.sampled_from(list(range(10)) + ["1/2", "3/2"]), min_size=1, max_size=5),
        min_size=ell - 1,
        max_size=ell - 1,
    )
).map(NestSpec.make).filter(lambda nest: is_nest(nest) is None)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(NON_CHAIN_NESTS)
@example(NestSpec.make([["1/2", 1], [0, "3/2"], [1]]))
@example(NestSpec.make([[0], [1], [2]]))
def test_witness_check_matches_the_expanded_oracle(nest):
    w = decide_free(nest).witness
    candidates = [
        w,
        NonFreeWitness(w.i, w.j, w.localized_exponents, w.restriction_exponent + 1),
        NonFreeWitness(w.i, w.j, (1, 1, 1), w.restriction_exponent),
    ]
    verdicts = [verify_nonfree_witness(nest, c) for c in candidates]
    assert verdicts == [expanded_verify_nonfree_witness(nest, c) for c in candidates]
    assert verdicts[:2] == [True, False]
    # the swapped pair and indices outside 2..ell are no witness (the oracle
    # would read the sets at -1 or past the end, or accept the swap)
    for i, j in ((w.j, w.i), (1, w.j), (w.i, nest.ell + 1), (0, 1)):
        assert not verify_nonfree_witness(nest, NonFreeWitness(i, j, w.localized_exponents, w.restriction_exponent))


def test_witness_check_runs_on_the_factored_route():
    nest = NestSpec.make([["1/2", 1], [0, "3/2"], [1]])
    w = decide_free(nest).witness
    with mock.patch("ishkit.freeness.factored_saito_constant", wraps=factored_saito_constant) as factored, \
            mock.patch.object(MultiPoly, "__init__", side_effect=AssertionError("a MultiPoly was built")):
        assert verify_nonfree_witness(nest, w)
    assert factored.call_count == 1
    # the swapped pair is accepted by the oracle, which reads the sets unchecked
    swapped = NonFreeWitness(w.j, w.i, (1, len(nest.set_at(w.j)), len(nest.set_at(w.i))), w.restriction_exponent)
    assert expanded_verify_nonfree_witness(nest, swapped)
    assert not verify_nonfree_witness(nest, swapped)


# -- differential test of the point-evaluation Saito check --------------


def _det_cofactor(m):
    """Plain first-row cofactor expansion: the reference determinant."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = MultiPoly.zero(m[0][0].nvars)
    for j, entry in enumerate(m[0]):
        if entry.is_zero:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in m[1:]]
        cofactor = _det_cofactor(minor)
        total = total + entry * (neg(cofactor) if j % 2 else cofactor)
    return total


def form(h):
    """The defining polynomial ``sum(c_i x_i) - const`` of a hyperplane."""
    n = h.dim
    terms = {tuple(int(i == k) for i in range(n)): c for k, c in enumerate(h.coeffs)}
    terms[(0,) * n] = -h.const
    return from_terms(n, terms)


def defining_poly(arr):
    """Q(A): the product of the defining forms."""
    q = MultiPoly.const(arr.dim, 1)
    for h in arr.hyperplanes:
        q = q * form(h)
    return q


def saito_constant_by_division(derivs, arr):
    """Reference route: expand det M(theta) and divide it by Q(A).

    No degree or homogeneity hypothesis is used: the derivations are a
    basis exactly when the full determinant is a nonzero constant times
    Q(A) (Saito's criterion in its polynomial form).
    """
    det = _det_cofactor([[d[i] for d in derivs] for i in range(arr.dim)])
    if det.is_zero:
        return None
    quotient, rem = ref_div(dict(det.sorted_terms()), dict(defining_poly(arr).sorted_terms()))
    one = (0,) * arr.dim
    if rem or set(quotient) != {one}:
        return None
    return Fraction(quotient[one])


def test_saito_constant_on_the_rank_five_staircase():
    arr = cone(build_named("ish", 5))
    derivs = basis_derivations(ish_nest(5))
    assert saito_constant(derivs, arr) == saito_constant_by_division(derivs, arr) == 1


def test_saito_zero_derivation_gives_none():
    arr = cone(build_named("ish", 2))
    derivs = basis_derivations(ish_nest(2))
    derivs[1] = (MultiPoly.zero(arr.dim),) * arr.dim
    assert saito_constant(derivs, arr) is None
    assert saito_constant_by_division(derivs, arr) is None


def test_saito_rejects_non_homogeneous_derivation():
    # theta_0 + theta_1 is logarithmic, but of no single degree
    arr = cone(build_named("ish", 2))
    derivs = basis_derivations(ish_nest(2))
    mixed = tuple(a + b for a, b in zip(derivs[0], derivs[1]))
    assert is_log_derivation(mixed, arr)
    with pytest.raises(ValueError, match="homogeneous"):
        saito_constant([mixed, derivs[1], derivs[2]], arr)


def scaled(theta, factor):
    return tuple(c * factor for c in theta)


@st.composite
def ascending_nests(draw, max_ell=4):
    """Chains N_2 <= ... <= N_ell, integer or half-integer entries."""
    ell = draw(st.integers(2, max_ell))
    step = draw(st.sampled_from([1, Fraction(1, 2)]))
    pool = [step * k for k in range(-2, 6)]
    grow = st.lists(st.sampled_from(pool), max_size=3)
    sets, current = [], set()
    for _ in range(ell - 1):
        current |= set(draw(grow))
        sets.append(sorted(current))
    return NestSpec.make(sets)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ascending_nests(), st.randoms(use_true_random=False))
def test_saito_constant_matches_division_reference(nest, rng):
    arr = cone(build_n_ish(nest))
    derivs = basis_derivations(nest)
    with mock.patch("ishkit.freeness.int_det", wraps=int_det) as det:
        c = saito_constant(derivs, arr)
    assert isinstance(c, Fraction) and c != 0
    assert c == saito_constant_by_division(derivs, arr)

    k = rng.randrange(2, len(derivs)) if len(derivs) > 2 else 1
    repeated = list(derivs)
    repeated[k] = derivs[k - 1]
    assert saito_constant(repeated, arr) is None
    assert saito_constant_by_division(repeated, arr) is None

    # theta * alpha_H stays logarithmic but raises the determinant degree
    alpha = form(rng.choice(arr.hyperplanes))
    raised = list(derivs)
    raised[k] = tuple(comp * alpha for comp in derivs[k])
    assert saito_constant(raised, arr) is None
    assert saito_constant_by_division(raised, arr) is None

    # f * theta_j in place of theta_k, f a product of hyperplane forms of
    # degree deg(theta_k) - deg(theta_j): logarithmic, homogeneous, the
    # same degree sum, and dependent, so the determinant vanishes
    lower = [i for i, d in enumerate(derivs) if i != k and _degree(d) <= _degree(derivs[k])]
    j = rng.choice(lower)
    f = MultiPoly.const(arr.dim, 1)
    for _ in range(_degree(derivs[k]) - _degree(derivs[j])):
        f = f * form(rng.choice(arr.hyperplanes))
    dependent = list(derivs)
    dependent[k] = tuple(comp * f for comp in derivs[j])
    assert sum(map(_degree, dependent)) == len(arr)
    assert saito_constant(dependent, arr) is None
    assert saito_constant_by_division(dependent, arr) is None

    for factor in (Fraction(1, 2), 2):
        rescaled = list(derivs)
        rescaled[k] = scaled(derivs[k], factor)
        assert saito_constant(rescaled, arr) == c * factor

    if all(a.denominator == 1 for s in rational_sets(nest) for a in s):
        polys = [comp for d in derivs for comp in d]
        ints = [p1 * p2 for p1, p2 in zip(polys, polys[1:])]
        ints += [p1 + p2 for p1, p2 in zip(polys, polys[1:])]
        assert all(type(coef) is int for p in polys + ints for coef in p.terms.values())
        (matrix,), _ = det.call_args
        assert all(type(entry) is int for row in matrix for entry in row)


def saito_constant_by_scaling(derivs, arr):
    """``saito_constant`` computed on scaled polynomials: each derivation
    multiplied by the lcm of its coefficient denominators, the hypotheses
    checked on the scaled derivations, ``int_det`` of their values at
    ``_off_point``'s point, and the scales divided back out of the constant."""
    n = arr.dim
    if len(derivs) != n:
        raise ValueError("need exactly ambient-dimension many derivations")
    if not all(len(theta) == n and all(comp.nvars == n for comp in theta) for theta in derivs):
        raise ValueError("need exactly one component per variable")
    scale, scaled_derivs = 1, []
    for theta in derivs:
        m = lcm(*(c.denominator for comp in theta for c in comp.terms.values()))
        scaled_derivs.append(scaled(theta, m))
        scale *= m
    if not all(is_log_derivation(theta, arr) for theta in scaled_derivs):
        raise ValueError("all derivations must be logarithmic for the arrangement")
    if any(all(comp.is_zero for comp in theta) for theta in scaled_derivs):
        return None
    if sum(map(_degree, scaled_derivs)) != len(arr):
        return None
    point, q = _off_point(arr)
    det = int_det([[comp.evaluate(point) for comp in theta] for theta in scaled_derivs])
    return Fraction(det, q) / scale if det else None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ascending_nests(), st.randoms(use_true_random=False))
@example(NestSpec.make([["1/2"], ["1/2", "3/2"]]), random.Random(0))
def test_saito_constant_matches_the_polynomial_scaling_oracle(nest, rng):
    arr = cone(build_n_ish(nest))
    derivs = basis_derivations(nest)
    c = saito_constant(derivs, arr)
    assert c == saito_constant_by_scaling(derivs, arr) != 0

    def rational():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2, 3, 4, 5, 7]))

    # every field over denominators of its own
    factors = [rational() for _ in derivs]
    fields = [scaled(theta, f) for theta, f in zip(derivs, factors)]
    assert saito_constant(fields, arr) == c * prod(factors) == saito_constant_by_scaling(fields, arr)

    k = rng.randrange(1, len(fields))
    j = rng.randrange(k)
    alpha = form(rng.choice(arr.hyperplanes))
    s = rng.choice([i for i, comp in enumerate(fields[k]) if not comp.is_zero])
    cases = {
        "repeated": scaled(fields[j], rational()),
        "zero": (MultiPoly.zero(arr.dim),) * arr.dim,
        "raised": scaled(tuple(comp * alpha for comp in fields[k]), rational()),
        "one component": tuple(comp * rational() if i == s else comp for i, comp in enumerate(fields[k])),
        "mixed": tuple(a + b for a, b in zip(fields[k], fields[j])),
    }
    for name, theta in cases.items():
        mutated = fields[:k] + [theta] + fields[k + 1:]
        assert verdict(saito_constant, mutated, arr) == verdict(saito_constant_by_scaling, mutated, arr), name


# -- the factored route: differential tests against the expanded one ----


def basis_by_products(nest, entries=None):
    """The basis multiplied out linear form by linear form, as ``basis_derivations``
    built it before the factored form; ``entries`` may replace some sets ``N_k``
    for their own field only."""
    entries = entries or {}
    ell = nest.ell
    n = ell + 1
    zero, one = MultiPoly.zero(n), MultiPoly.const(n, 1)
    xs = [var(n, i) for i in range(ell)]
    z = var(n, ell)
    out = [(one,) * ell + (zero,), tuple(xs + [z])]
    for k in range(2, ell + 1):
        comps = [zero] * n
        for s in range(2, k + 1):
            poly = one
            for a in entries.get(k, rational_set(nest, k)):
                poly = poly * sub(sub(xs[0], xs[s - 1]), a * z)
            for t in range(k + 1, ell + 1):
                poly = poly * sub(xs[s - 1], xs[t - 1])
            comps[s - 1] = poly
        out.append(tuple(comps))
    return out


def verdict(constant_of, derivs, arr):
    """The constant, None, or the ValueError or RuntimeError message of one Saito route."""
    try:
        return constant_of(derivs, arr)
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


# the general route's verdict on a field that is not logarithmic, and the
# factored route's three refusals
NOT_LOG = "ValueError: all derivations must be logarithmic for the arrangement"
NOT_SHOWN = "RuntimeError: the factors do not show that every derivation is logarithmic"
NOT_PEELED = "RuntimeError: the basis matrix does not peel to a triangular one"
NOT_A_FORMS = "RuntimeError: the pivot factors are not the arrangement's forms, each once"


def certified(derivs, arr):
    """``factored_saito_constant``'s verdict, a refusal read as its message."""
    return verdict(factored_saito_constant, derivs, arr)


def general(derivs, arr):
    """``saito_constant``'s verdict on the derivations multiplied out."""
    return verdict(saito_constant, multiplied_out(derivs, arr), arr)


def proves_or_refuses(derivs, arr):
    """``certified``, checked against ``general``: the same verdict, or a
    refusal, and the log check's refusal for a field that is not
    logarithmic, as the factors never show a check that fails."""
    got, oracle = certified(derivs, arr), general(derivs, arr)
    if oracle == NOT_LOG:
        assert got == NOT_SHOWN
    else:
        assert got in (oracle, NOT_SHOWN, NOT_PEELED, NOT_A_FORMS)
    return got


def halved(theta):
    return tuple(None if comp is None else (comp[0] * Fraction(1, 2), comp[1]) for comp in theta)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ascending_nests(max_ell=5), st.randoms(use_true_random=False))
@example(NestSpec.make([[], [], [], []]), random.Random(0))
@example(NestSpec.make([["1/2"], ["1/2"], ["1/2", 2], ["1/2", 2]]), random.Random(1))
def test_factored_saito_matches_the_expanded_route(nest, rng):
    arr = cone(build_n_ish(nest))
    basis = factored_basis(nest)
    expanded = basis_by_products(nest)
    assert as_terms(multiplied_out(basis, arr)) == as_terms(basis_derivations(nest)) == as_terms(expanded)
    c = factored_saito_constant(basis, arr)  # the factors prove every check of the paper's basis
    assert isinstance(c, Fraction) and c != 0
    assert c == saito_constant(expanded, arr)

    k = rng.randrange(len(basis))
    mutated, oracle = list(basis), list(expanded)
    mutated[k], oracle[k] = halved(basis[k]), scaled(expanded[k], Fraction(1, 2))
    assert factored_saito_constant(mutated, arr) == c / 2
    assert saito_constant(oracle, arr) == c / 2

    # drop the factor of one entry a from theta_k: its image on x1 - x_k = a z
    # no longer vanishes there, the general route rejects the field, and the
    # factored route, which never disproves, refuses it
    fields = [k for k in range(2, nest.ell + 1) if nest.set_at(k)]
    if fields:
        k = rng.choice(fields)
        a = rng.choice(rational_set(nest, k))
        dropped = []
        for s, comp in enumerate(basis[k]):
            if comp is not None:
                rest = list(comp[1])
                rest.remove((0, s, int(a * cone_den(arr))))  # the edge of x1 - x_s = a z
                comp = (comp[0] * a.denominator, tuple(rest))
            dropped.append(comp)
        mutated, oracle = list(basis), list(expanded)
        mutated[k] = tuple(dropped)
        oracle[k] = basis_by_products(nest, {k: [b for b in rational_set(nest, k) if b != a]})[k]
        assert verdict(saito_constant, oracle, arr) == NOT_LOG
        assert certified(mutated, arr) == NOT_SHOWN

        # the same factor dropped from one component only
        s = rng.randrange(1, k)
        comps = list(basis[k])
        comps[s] = dropped[s]
        mutated[k] = tuple(comps)
        oracle[k] = tuple(oracle[k][i] if i == s else comp for i, comp in enumerate(expanded[k]))
        assert verdict(saito_constant, oracle, arr) == NOT_LOG
        assert certified(mutated, arr) == NOT_SHOWN

    mutated = list(basis)
    mutated[rng.randrange(len(basis))] = (None,) * arr.dim
    assert factored_saito_constant(mutated, arr) is None


def shortcut_mutations(basis, rng):
    """The translation field (index 0) or the Euler field (index 1) bent just
    off its shape: a multiple of the Euler field, which its identity shows,
    or a field of constants, which its exchange group shows when it has no
    ``z`` component."""
    translation, euler = basis[0], basis[1]
    n = len(euler)
    k = rng.randrange(n)
    other = rng.choice([i for i in range(n) if i != k])
    s = rng.randrange(n - 1)  # a coordinate of the translation field
    return {
        "an Euler scalar changed": (1, euler[:k] + ((rng.choice([2, -1, Fraction(1, 2)]), euler[k][1]),) + euler[k + 1:]),
        "an Euler form swapped": (1, euler[:k] + ((1, euler[other][1]),) + euler[k + 1:]),
        "the Euler z component dropped": (1, euler[:-1] + (None,)),
        "a constant changed": (0, translation[:s] + ((2, ()),) + translation[s + 1:]),
        "a constant at z": (0, translation[:-1] + ((1, ()),)),
        "a constant with scalar 0": (0, translation[:s] + ((0, ()),) + translation[s + 1:]),
        "a constant beside a factor": (0, translation[:-1] + (euler[-1],)),
        "an Euler component made constant": (1, euler[:k] + ((1, ()),) + euler[k + 1:]),
    }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ascending_nests(max_ell=5), st.randoms(use_true_random=False))
@example(NestSpec.make([[0], [0], [0]]), random.Random(0))
@example(NestSpec.make([["-1/2"], ["-1/2", "1/2"], ["-1/2", "1/2", "3/2"], ["-1/2", "1/2", "3/2", 2]]),
         random.Random(1))
def test_bent_euler_and_constant_fields_give_the_expanded_routes_verdict(nest, rng):
    # the Euler and translation fields, bent: the verdict, value or error,
    # is the general route's on the derivations multiplied out, or a refusal
    arr = cone(build_n_ish(nest))
    basis = factored_basis(nest)
    for name, (i, theta) in shortcut_mutations(basis, rng).items():
        proves_or_refuses(basis[:i] + [theta] + basis[i + 1:], arr)
    # a multiple of the Euler field is shown by its identity: a form left on
    # a field with factors would be refused
    c = factored_saito_constant(basis, arr)
    for scalar in (3, Fraction(-1, 2)):
        derivs = [basis[0], tuple((scalar, comp[1]) for comp in basis[1]), *basis[2:]]
        assert factored_saito_constant(derivs, arr) == c * scalar


def test_every_field_of_the_ish_cone_at_rank_twelve_is_shown_by_masks():
    # every component of the Euler field and of the nest fields theta_k has
    # factors, and the translation field is constants with no z component:
    # with nothing refused, the index's masks, the groups and the identity
    # settle them all.  The translation field's group of constants clears
    # the forms x1 - x_j = a z, a != 0, with the braid forms, as each is on
    # two of its members
    nest = ish_nest(12)
    basis = factored_basis(nest)
    assert all(comp is None or not comp[1] for comp in basis[0])
    assert all(comp[1] for theta in basis[1:] for comp in theta if comp is not None)
    assert factored_saito_constant(basis, cone(build_n_ish(nest))) == -1


def no_coefficients(*args):
    raise AssertionError("a form's coefficients were read")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ascending_nests(max_ell=6))
@example(ish_nest(12))
@example(NestSpec.make([["1/2"], ["-1/2", "1/2"], ["-1/2", "1/2", "3/2"]]))
def test_the_certificate_reads_no_form_coefficients(nest):
    # the translation field's forms x_i - x_j = a z are cleared by its group
    # of constants, not by sums of coefficients read off each form: with
    # _coefficients raising, the certificate of the paper's basis still comes
    # out (test_the_witness_basis_peels checks the witness bases the same way)
    arr = cone(build_n_ish(nest))
    c = saito_constant(basis_derivations(nest), arr)
    with mock.patch("ishkit.freeness._coefficients", no_coefficients):
        assert factored_saito_constant(factored_basis(nest), arr) == c


def test_a_group_of_constants_shows_only_forms_on_two_members_with_no_z_component():
    # on x1 - x2 + z = 0 over x1, x2, z: the translation (1, 1, 0) is a group
    # of constants that shows the form, and (x1 - x2 + z) d/dx1 is shown by
    # the index.  Beside them each field below is no log field: the general
    # route rejects it, and the factored route refuses it.  With a constant
    # at z the matrix peels, so only the log check refuses it: a group that
    # cleared every form on two members whatever z holds would certify it.
    # shortcut_mutations bends the paper's translation field the same ways
    arr, (translation, _) = one_plane()
    by_index = ((1, ((0, 1, -1),)), None, None)
    fields = {
        "a constant at z": ((1, ()), (1, ()), (1, ())),
        "a constant at x1 and z": ((1, ()), None, (1, ())),
        "two different constants": ((1, ()), (2, ()), None),
        "a constant with scalar 0": ((0, ()), (1, ()), None),
    }
    for name, theta in fields.items():
        derivs = [theta, translation, by_index]
        assert general(derivs, arr) == NOT_LOG, name
        assert certified(derivs, arr) == NOT_SHOWN, name


def one_plane():
    """The plane x1 - x2 + x3 = 0, the gain edge (0, 1, -1) over the variables
    x1, x2, z, with two translations along it."""
    arr = Arrangement(3, 1, [(0, 1, -1)], coned=True)
    return arr, [((1, ()), (1, ()), None), (None, (1, ()), (1, ()))]


X1, X2, X3 = (0, None, 0), (1, None, 0), (2, None, 0)  # the unit forms of the first three coordinates


def test_factored_saito_refuses_what_the_factors_cannot_show():
    # On x1 - x2 + x3 = 0 the image x1 (x1 + 2 x3) - x2^2 + x3^2 restricts to
    # (x2 - x3)(x2 + x3) - x2^2 + x3^2: zero, but from three different
    # products, so the factors cannot show it; only the general route
    # decides it.  x1 + 2 x3 is the unit form of x1 with the gain -2 on x3,
    # the plane's z.  Beside it the first translation and the Euler field
    # are shown, so each refusal below is the third field's own
    arr, along = one_plane()
    alpha = (0, 1, -1)
    euler = _translation_and_euler(2)[1]
    theta = ((1, (X1, (0, None, -2))), (1, (X2, X2)), (1, (X3, X3)))
    assert dense_form((0, None, -2), 3) == (1, 0, 2)
    assert not shown_on_the_factors(theta, alpha)
    assert log_by_expansion(theta, arr.hyperplanes[0])
    assert certified([along[0], euler, theta], arr) == NOT_SHOWN
    assert general([along[0], euler, theta], arr) is None  # degree sum 3 != 1
    bent = theta[:2] + ((2, theta[2][1]),)
    assert not log_by_expansion(bent, arr.hyperplanes[0])
    assert certified([along[0], euler, bent], arr) == NOT_SHOWN
    assert general([along[0], euler, bent], arr) == NOT_LOG
    # the second translation is logarithmic, and with the first and Euler a
    # basis, but it has a z component, so no group of constants shows it
    assert certified(along + [euler], arr) == NOT_SHOWN
    assert general(along + [euler], arr) == 1


def test_factored_log_check_rejects_linear_forms_that_do_not_cancel():
    # On x1 - x2 + x3 = 0 the image x1 + x2 + x3 of this degree-1 field
    # restricts to 2 x2: its summed linear form is no multiple of alpha.
    arr, (translation, _) = one_plane()
    euler = _translation_and_euler(2)[1]
    theta = ((1, (X1,)), (-1, (X2,)), (1, (X3,)))
    assert not shown_on_the_factors(theta, (0, 1, -1))
    assert not log_by_expansion(theta, arr.hyperplanes[0])
    assert certified([translation, euler, theta], arr) == NOT_SHOWN
    assert general([translation, euler, theta], arr) == NOT_LOG


def test_factored_log_check_takes_fraction_scalars_as_they_are():
    nest = NestSpec.make([["1/2"], ["-1/2", "1/2"], ["-1/2", "1/2", "3/2"]])
    basis = factored_basis(nest)
    arr = cone(build_n_ish(nest))
    n = arr.dim

    # the index settles the nest fields, those of scalar 1/4 and 1/8 among
    # them, and the translation field's constants, of scalar 1, are one group
    assert {comp[0] for theta in basis[2:] for comp in theta if comp is not None} >= {Fraction(1, 4), Fraction(1, 8)}
    assert {type(comp[0]) for comp in basis[0] if comp is not None} == {int}
    constant = factored_saito_constant(basis, arr)
    assert constant == saito_constant(multiplied_out(basis, arr), arr) != 0

    # the translation field halved: no form of A is held by a constant, and
    # every form is on two members of its group of the constant 1/2, with no
    # z component, so the group clears them all, with the scalar as it is
    halved_translation = tuple(None if comp is None else (Fraction(1, 2), ()) for comp in basis[0])
    assert basis[0][n - 1] is None
    assert factored_saito_constant([halved_translation, *basis[1:]], arr) == constant / 2


def test_factored_log_check_folds_the_contents():
    # On 2 x1 - 2 x2 = z, the edge (0, 1, 1) over 2, the image
    # 2 x2 z - 2 * 1/2 (2 x1 - z) z = -z (2 x1 - 2 x2 - z) vanishes: two
    # products of two factors, neither alpha, that cancel only once
    # multiplied out.  The translation and the Euler field beside it are shown.
    arr = Arrangement(3, 2, [(0, 1, 1)], coned=True)
    translation, euler = _translation_and_euler(2)
    theta = ((1, (X2, X3)), (Fraction(1, 2), ((0, None, 1), X3)), None)
    assert dense_form((0, None, 1), 3, 2) == (2, 0, -1)
    assert not shown_on_the_factors(theta, (0, 1, 1), 2)
    assert is_log_derivation(expand(theta, 2), arr)
    assert certified([translation, euler, theta], arr) == NOT_SHOWN
    assert general([translation, euler, theta], arr) is None  # degree sum 3 != 1


def test_factored_saito_rejects_what_the_expanded_route_rejects():
    # the translation, the Euler field and a field the index shows
    arr, (translation, _) = one_plane()
    alpha = (0, 1, -1)
    mixed = ((1, (alpha,)), (1, (alpha, alpha)), None)  # logarithmic, degrees 1 and 2
    factored = [translation, _translation_and_euler(2)[1], mixed]
    for route, derivs in ((factored_saito_constant, factored), (saito_constant, multiplied_out(factored, arr))):
        with pytest.raises(ValueError, match="not homogeneous"):
            route(derivs, arr)
        with pytest.raises(ValueError, match="ambient-dimension"):
            route(derivs[:2], arr)
    affine = Arrangement(3, 1, [(0, 1, 1)])  # x1 - x2 = 1
    with pytest.raises(ValueError, match="central"):
        factored_saito_constant(factored, affine)


def log_by_expansion(theta: FactoredDerivation, h: Hyperplane, den: int = 1) -> bool:
    """The log check with no factored reasoning: the image multiplied out."""
    return is_log_derivation(expand(theta, den), PlaneArrangement(len(theta), [h]))


def support_of(alpha, n: int, den: int) -> list[tuple[int, int]]:
    """The nonzero coefficients ``(k, alpha[k])`` of a factor's form, in increasing ``k``."""
    return [(k, a) for k, a in enumerate(dense_form(alpha, n, den)) if a]


def forms_of(arr: Arrangement) -> list:
    """``(alpha, h)`` for each hyperplane ``h``: ``alpha`` its gain edge as a
    factor, the unit form of ``z`` for ``None``."""
    edges = arr.gain_edges()[1]
    return [(edge or (arr.dim - 1, None, 0), h) for edge, h in zip(edges, arr.hyperplanes)]


def dense_exchanged(factors, s: int, t: int) -> tuple:
    """``_exchanged`` on dense forms, as it stood before the edges: the factors
    with coordinates ``s`` and ``t`` exchanged in each, sorted."""
    out = []
    for f in factors:
        g = list(f)
        g[s], g[t] = f[t], f[s]
        out.append(tuple(g))
    out.sort()
    return tuple(out)


def pair_exchange_shows(theta: FactoredDerivation, support, den: int = 1) -> bool:
    """The pair exchange the factored log check tried first before the exchange
    groups became the one exchange rule, kept as the groups' oracle.

    A braid form ``alpha = a (x_s - x_t)`` meets two components with one
    scalar ``c`` whose factors swapping ``x_s`` and ``x_t`` (the map
    ``sigma``) exchanges.  Then ``theta(alpha) = a c (P - P o sigma)`` for
    the product ``P`` of the ``x_s`` factors, which vanishes on
    ``x_s = x_t``, whether or not ``P`` holds ``x_t``."""
    if len(support) != 2:
        return False
    (s, a), (t, b) = support
    cs, ct = dense(theta, den)[s], dense(theta, den)[t]
    return a == -b and cs is not None and ct is not None and cs[0] == ct[0] and ct[1] == dense_exchanged(cs[1], s, t)


def nonzero_of(theta: FactoredDerivation) -> list[int]:
    """The coordinates of the field's nonzero components, a scalar 0 read as zero."""
    return [k for k, comp in enumerate(theta) if comp and comp[0]]


def group_of(theta: FactoredDerivation) -> set[int] | None:
    """The field's exchange group (``_exchange_group``)."""
    return _exchange_group(theta, nonzero_of(theta))


def columns(derivs) -> list[int]:
    """The column masks of a matrix of fields, as ``_peel`` takes them: bit ``r``
    of column ``c`` when row ``r`` is nonzero there."""
    cols = [0] * len(derivs)
    for r, theta in enumerate(derivs):
        for c in nonzero_of(theta):
            cols[c] |= 1 << r
    return cols


def shown_by_the_identity_or_index(theta: FactoredDerivation, alpha, den: int) -> bool:
    """The log check of one form with no exchange: a multiple of the Euler
    field by its identity, or a form that every component it picks out
    holds (the index)."""
    support = support_of(alpha, len(theta), den)
    first = theta[0]
    if first is not None and all(comp is not None and comp == (first[0], ((k, None, 0),))
                                 for k, comp in enumerate(theta)):
        return True
    return all(theta[k] is None or alpha in theta[k][1] for k, _ in support)


def shown_off_the_groups(theta: FactoredDerivation, alpha, den: int) -> bool:
    """The log check of one form with no exchange, as it was made before the
    groups: the identity, the index or, on a field of constants ``c_k``, a
    form on which the number ``sum alpha[k] c_k`` is 0 (a constant sum)."""
    if shown_by_the_identity_or_index(theta, alpha, den):
        return True
    support = support_of(alpha, len(theta), den)
    constants = all(comp is None or not comp[1] for comp in theta)
    return constants and sum(a * theta[k][0] for k, a in support if theta[k] is not None) == 0


def pair_or_factors(theta: FactoredDerivation, alpha, den: int) -> bool:
    """The log check as it was made before the groups: the pair exchange,
    then the identity, the index or a constant sum."""
    support = support_of(alpha, len(theta), den)
    return pair_exchange_shows(theta, support, den) or shown_off_the_groups(theta, alpha, den)


def shown_on_the_factors(theta: FactoredDerivation, alpha, den: int = 1) -> bool:
    """Does ``factored_saito_constant`` show this check with nothing
    multiplied out: a braid form inside the field's exchange group, any form
    on two members of a group of constants with no ``z`` component, or any
    form by the identity or the index?"""
    n = len(theta)
    support = support_of(alpha, n, den)
    group = group_of(theta)
    pair = {k for k, _ in support if k != n - 1}  # alpha's coordinates besides z
    on_two = group is not None and len(pair) == 2 and pair <= group
    braid = len(support) == 2 and support[0][1] == -support[1][1]
    constants = group is not None and theta[n - 1] is None and not theta[min(group)][1]
    return on_two and (braid or constants) or shown_by_the_identity_or_index(theta, alpha, den)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ascending_nests(max_ell=5), st.randoms(use_true_random=False))
@example(ish_nest(5), random.Random(0))
def test_factored_log_check_on_swapped_components_matches_the_expansion(nest, rng):
    arr = cone(build_n_ish(nest))
    den = cone_den(arr)
    basis = factored_basis(nest)
    for alpha, h in forms_of(arr):
        for theta in basis:
            # on x_s - x_t with 2 <= s < t <= l the field's exchange group
            # settles the two products the factors alone could not, as the
            # pair exchange did
            assert shown_on_the_factors(theta, alpha, den) is log_by_expansion(theta, h, den) is True
            assert pair_or_factors(theta, alpha, den)

    # the same exchanged factors under unequal scalars: the image does not
    # vanish on x_s = x_t, the check does not claim it does, and the general
    # route rejects the field
    if nest.ell >= 3:
        k = rng.randrange(3, nest.ell + 1)
        s, t = sorted(rng.sample(range(2, k + 1), 2))
        comps = list(basis[k])
        comps[t - 1] = (2 * comps[s - 1][0], comps[t - 1][1])
        theta = tuple(comps)
        alpha, h = next((alpha, h) for alpha, h in forms_of(arr) if alpha == (s - 1, t - 1, 0))
        assert [(i, a) for i, a in enumerate(h.coeffs) if a] == [(s - 1, 1), (t - 1, -1)]
        assert t - 1 not in group_of(theta)
        assert shown_on_the_factors(theta, alpha, den) is pair_or_factors(theta, alpha, den) \
            is log_by_expansion(theta, h, den) is False
        mutated = basis[:k] + [theta] + basis[k + 1:]
        assert general(mutated, arr) == NOT_LOG
        assert certified(mutated, arr) == NOT_SHOWN


def test_factored_log_check_exchange_shortcut_needs_exchanged_factors_and_equal_scalars():
    # Over x1, x2, x3, z, on x2 = x3: x3 (x1 - x2) d/dx2 + x2 (x1 - x3) d/dx3
    # has its x3 factors exchanged from its x2 factors, so the pair exchange
    # shows it; the other fields are not shown, and are not logarithmic
    # either.  Its x2 component holds x3, so it is no exchange group, and
    # the factored route refuses it.  x1 (x1 - x2) d/dx2 + x1 (x1 - x3) d/dx3
    # is a group of two, which shows it with no expansion.  Beside three
    # Euler fields the degrees sum to 5, not 1, so the general route gives
    # None on each log field.
    alpha = (1, 2, 0)
    arr = Arrangement(4, 1, [alpha], coned=True)
    h, support = arr.hyperplanes[0], [(1, 1), (2, -1)]
    euler = _translation_and_euler(3)[1]
    exchanged = (None, (3, (X3, (0, 1, 0))), (3, (X2, (0, 2, 0))), None)
    halves = (None, (Fraction(1, 2), exchanged[1][1]), (Fraction(1, 2), exchanged[2][1]), None)
    unequal = (None, (3, exchanged[1][1]), (6, exchanged[2][1]), None)
    skew = (None, (1, (X1, X2)), (1, (X1, X1)), None)
    grouped = (None, (3, (X1, (0, 1, 0))), (3, (X1, (0, 2, 0))), None)
    for theta, log in ((exchanged, True), (halves, True), (unequal, False), (skew, False), (grouped, True)):
        assert pair_exchange_shows(theta, support) is log_by_expansion(theta, h) is log
        assert shown_on_the_factors(theta, alpha) is (theta is grouped)
        derivs = [theta, euler, euler, euler]
        assert general(derivs, arr) == (None if log else NOT_LOG)
        assert certified(derivs, arr) == (None if theta is grouped else NOT_SHOWN)
    assert group_of(exchanged) == {1} and group_of(grouped) == {1, 2}
    # x2 - x3 = z is no braid form: no exchange shows it, and it is not shown
    alpha = (1, 2, 1)
    h, support = Arrangement(4, 1, [alpha], coned=True).hyperplanes[0], [(1, 1), (2, -1), (3, -1)]
    for theta in (exchanged, grouped):
        assert pair_exchange_shows(theta, support) is shown_on_the_factors(theta, alpha) \
            is log_by_expansion(theta, h) is False


@st.composite
def products_on_a_plane(draw):
    """A coned plane ``alpha`` over ``x1..xl, z`` with gains over ``den``, the
    factor of a gain edge or of ``z = 0``, and a derivation whose components
    are products of two or three factors: random ones (gain edges, unit forms
    with a gain or none, and ``z``), ``alpha`` among them, or one product
    ``P`` times a vector ``v`` along the plane, whose image ``P * (alpha . v)``
    is zero only once multiplied out.  Returns ``(den, alpha, theta)``."""
    n = draw(st.integers(2, 4))
    ell = n - 1
    den = draw(st.sampled_from([1, 2]))
    gain = st.integers(-2, 2)
    pair = st.lists(st.integers(0, ell - 1), min_size=2, max_size=2, unique=True).map(sorted)
    edge = st.builds(lambda ij, c: (*ij, c), pair, gain)
    unit = st.builds(lambda k, c: (k, None, c), st.integers(0, ell - 1), gain)
    z = st.just((ell, None, 0))
    alpha = draw(z | edge if ell >= 2 else z)
    factor = edge | unit | z if ell >= 2 else unit | z
    products = st.lists(factor, min_size=2, max_size=3)
    scalar = st.integers(-3, 3).filter(bool)
    mode = draw(st.sampled_from(["random", "alpha", "along"]))
    if mode == "along":
        form = dense_form(alpha, n, den)
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        v = [0] * n
        v[i], v[j] = form[j], -form[i]
        p = tuple(draw(products))
        c = draw(scalar)
        return den, alpha, tuple((c * vk, p) if vk else None for vk in v)
    comps = []
    for _ in range(n):
        factors = draw(products)
        if mode == "alpha" and draw(st.booleans()):
            factors[0] = alpha
        comps.append(draw(st.one_of(st.none(), st.tuples(scalar, st.just(tuple(factors))))))
    return den, alpha, tuple(comps)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(products_on_a_plane())
@example((1, (0, 1, -1), ((1, (X1, (0, None, -2))), (1, (X2, X2)), (1, (X3, X3)))))
@example((2, (0, 1, 1), ((1, (X3, X2)), (1, (X3, X2)), None)))
def test_factored_log_check_on_products_implies_the_expansion(case):
    den, alpha, theta = case
    n = len(theta)
    arr = Arrangement(n, den, [None if alpha[1] is None else alpha], coned=True)
    h = arr.hyperplanes[0]
    assert h.coeffs == dense_form(alpha, n, den)
    shown = shown_on_the_factors(theta, alpha, den)
    if shown:
        assert log_by_expansion(theta, h, den)
    # end to end, beside the Euler field: the same constant, None or error
    # as the general route, and a refusal exactly when the check is not
    # shown in the exchange group or by the factors
    euler = _translation_and_euler(n - 1)[1]
    derivs = [theta] + [euler] * (n - 1)
    assert certified(derivs, arr) == (general(derivs, arr) if shown else NOT_SHOWN)


def test_factored_basis_uses_the_hyperplane_forms():
    nest = NestSpec.make([["1/2"], ["1/2", "3/2"]])
    arr = cone(build_n_ish(nest))
    forms = {h.coeffs for h in arr.hyperplanes}
    theta = factored_basis(nest)[3]
    assert theta[2] == (Fraction(1, 4), ((0, 2, 1), (0, 2, 3)))  # the gains 1/2 and 3/2 over 2
    assert set(theta[2][1]) <= set(arr.gain_edges()[1])  # x1 - x3 = a z for a in N_3
    assert dense(theta, 2)[2] == (Fraction(1, 4), ((2, 0, -2, -3), (2, 0, -2, -1)))
    assert set(dense(theta, 2)[2][1]) <= forms


def test_factored_saito_on_the_rank_ten_staircase():
    nest = ish_nest(10)
    arr = cone(build_n_ish(nest))
    c = factored_saito_constant(factored_basis(nest), arr)
    assert c == saito_constant(basis_derivations(nest), arr) == -1


# -- the product kernel, the exchange and the peel against their oracles --


def expand_by_mul(comp, nvars: int) -> MultiPoly:
    """A factored component multiplied out as it was before its product
    kernel: one ``MultiPoly.linear`` per factor, multiplied by ``MultiPoly.__mul__``."""
    if comp is None:
        return MultiPoly.zero(nvars)
    scalar, factors = comp
    if not factors:
        return MultiPoly.const(nvars, scalar)
    poly = MultiPoly.linear(factors[0])
    for f in factors[1:]:
        poly = poly * MultiPoly.linear(f)
    return poly if scalar == 1 else poly * scalar


@st.composite
def factored_components(draw):
    """A component over 1..4 variables: None, or a scalar (0, an int or a
    Fraction) times up to five nonzero integer forms, some with zero coordinates."""
    n = draw(st.integers(1, 4))
    form = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any).map(tuple)
    scalar = st.integers(-4, 4) | st.fractions(min_value=-4, max_value=4, max_denominator=6)
    comp = st.none() | st.tuples(scalar, st.lists(form, max_size=5).map(lambda fs: tuple(sorted(fs))))
    return draw(comp), n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(factored_components())
@example(((1, ((1, -1), (1, 1))), 2))  # (x1 - x2)(x1 + x2): the x1 x2 terms cancel
@example(((Fraction(3, 2), ((1, 0, -2), (1, 0, 2), (2, 0, 0))), 3))
@example(((Fraction(1, 2), ((0, 2),)), 2))  # an integral product of a Fraction scalar
@example(((Fraction(-5, 3), ()), 3))  # no factor: the scalar itself
@example(((0, ((1, 1),)), 2))
def test_the_product_kernel_matches_the_linear_products(case):
    comp, n = case
    got = MultiPoly.zero(n) if comp is None else MultiPoly.product(n, *comp)
    assert as_terms(got) == as_terms(expand_by_mul(comp, n))
    assert all(c and type(c) is (int if c.denominator == 1 else Fraction) for c in got.terms.values())


def test_the_product_kernel_checks_the_degree():
    unit = (1, 0)
    below = (1, (unit,) * (2**15 - 1))
    top = from_terms(2, {(2**15 - 1, 0): 1})
    assert as_terms((MultiPoly.product(2, *below),)) == as_terms((expand_by_mul(below, 2),)) == as_terms((top,))
    for kernel in (lambda comp, n: MultiPoly.product(n, *comp), expand_by_mul):
        with pytest.raises(ValueError, match="total degree 32768 exceeds the limit 32767"):
            kernel((1, (unit,) * 2**15), 2)


def dense_translation_and_euler(ell: int) -> list[FactoredDerivation]:
    """``_translation_and_euler`` as it stood before the edges: the Euler
    field's unit forms as dense tuples."""
    zeros = (0,) * ell
    units = [zeros[:k] + (1,) + zeros[k:] for k in range(ell + 1)]
    return [((1, ()),) * ell + (None,), tuple((1, (u,)) for u in units)]


def dense_factored_basis(nest: NestSpec) -> list[FactoredDerivation]:
    """``factored_basis`` as it stood before the edges, the oracle of the edge
    builder: each factor the coned hyperplane's dense form (``_diff_form``),
    sorted, the ``x2`` factors built once and the ``x_s`` ones exchanged from
    them (``dense_exchanged``)."""
    if not nest.is_ascending():
        raise ValueError("the derivation basis needs an ascending nest")
    ell, den = nest.ell, nest.den
    out = dense_translation_and_euler(ell)
    entry_forms = {a: _diff_form(ell, 1, 2, a, den) for a in nest.nums[-1]}  # N_ell holds every entry
    braid_forms = [_diff_form(ell, 2, t) for t in range(3, ell + 1)]
    for k, entries in enumerate(nest.nums, start=2):
        first = tuple(sorted([entry_forms[a] for a in entries] + braid_forms[k - 2:]))
        scale = prod(f[0] for f in first if f[0])  # the q of each x1 - x2 - a z
        scalar = 1 if scale == 1 else Fraction(1, scale)
        comps = [first] + [dense_exchanged(first, 1, s - 1) for s in range(3, k + 1)]
        out.append((None, *((scalar, c) for c in comps), *(None,) * (ell + 1 - k)))
    return out


def factored_basis_by_forms(nest: NestSpec) -> list[FactoredDerivation]:
    """``factored_basis`` as it built the factors of every ``x_s`` component
    from ``_diff_form``, with no exchange."""
    if not nest.is_ascending():
        raise ValueError("the derivation basis needs an ascending nest")
    ell, den = nest.ell, nest.den
    n = ell + 1
    out = dense_translation_and_euler(ell)
    for k, entries in enumerate(nest.nums, start=2):
        comps = [None] * n
        for s in range(2, k + 1):
            factors = [_diff_form(ell, 1, s, a, den) for a in entries]
            factors += [_diff_form(ell, s, t) for t in range(k + 1, ell + 1)]
            comps[s - 1] = tuple(sorted(factors))
        scale = prod(f[0] for f in comps[1] if f[0])
        scalar = 1 if scale == 1 else Fraction(1, scale)
        out.append(tuple(None if c is None else (scalar, c) for c in comps))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ascending_nests(max_ell=6))
@example(ish_nest(6))
@example(NestSpec.make([["1/2"], ["-3/2", "1/2"], ["-3/2", "1/2", 2], ["-3/2", "1/2", 2], ["-3/2", "1/2", 2]]))
def test_the_factored_basis_and_the_exchange_match_the_forms(nest):
    oracle = factored_basis_by_forms(nest)
    arr = cone(build_n_ish(nest))
    den = cone_den(arr)
    basis = factored_basis(nest)
    assert [dense(theta, den) for theta in basis] == oracle == dense_factored_basis(nest)
    for theta, dense_theta in zip(basis[2:], oracle[2:]):
        comps = [comp for comp in theta if comp is not None]
        for s, t in itertools.combinations(range(1, len(comps) + 1), 2):
            assert _exchanged(theta[s][1], s, t) == theta[t][1]
            assert dense_exchanged(dense_theta[s][1], s, t) == dense_theta[t][1]
    # the factors show every log check, each braid form x_s - x_t inside the
    # field's exchange group, as the pair exchange did
    for alpha, h in forms_of(arr):
        for theta in basis:
            assert shown_on_the_factors(theta, alpha, den) is pair_or_factors(theta, alpha, den) \
                is log_by_expansion(theta, h, den) is True


@st.composite
def shuffled_chains(draw, max_ell=7):
    """Chains ``N_2 <= ... <= N_ell`` of integers, halves and thirds, negative
    ones among them, with empty and repeated sets, given out of order: the
    sets permuted and each set's entries shuffled, written as strings."""
    ell = draw(st.integers(2, max_ell))
    pool = sorted({Fraction(k, q) for q in (1, 2, 3) for k in range(-4, 7)})
    sets, current = [], []
    for _ in range(ell - 1):
        current = current + [a for a in dict.fromkeys(draw(st.lists(st.sampled_from(pool), max_size=3)))
                             if a not in current]
        sets.append(current)
    return [[str(a) for a in draw(st.permutations(s))] for s in draw(st.permutations(sets))]


# few entries over integers, halves and thirds: empty, equal and equal-size sets are common
HALVES_AND_THIRDS = st.lists(st.lists(st.sampled_from(["0", "1/2", "-1/2", "1/3", "2/3", "1"]), max_size=3),
                             min_size=1, max_size=7)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(shuffled_chains(), HALVES_AND_THIRDS))
@example([[0, "1/2", 2], [], ["1/2", 0], [0, "1/2"], [2, "1/2", -1, 0]])  # an empty set and equal sets, out of order
@example([["1/2"], ["1/3"], []])
def test_the_verdicts_order_and_exponents_are_the_sorted_chain_tests(sets):
    nest = NestSpec.make(sets)
    verdict, order = decide_free(nest), chain_order(nest)
    assert verdict.order == order
    assert (verdict.order is None) == (not verdict.free)
    assert verdict.exponents == (None if order is None else nest_exponents(nest, order))


def with_the_ish_cones(test, max_ell=8):
    """``test`` with the sets of Ish at each ``ell <= max_ell``, over their least
    denominator, as examples."""
    for ell in range(2, max_ell + 1):
        test = example([list(range(j)) for j in range(2, ell + 1)], 1)(test)
    return test


@settings(max_examples=150, deadline=None, derandomize=True)
@given(shuffled_chains(), st.sampled_from([1, 2, 3]))
@with_the_ish_cones
@example([["1/2", 0, 2], [], [0, "1/2"], ["1/2", 0], [2, "1/2", -1, 0]], 2)
def test_the_edge_basis_is_the_dense_basis_and_holds_its_masks(sets, scale):
    # every factor of the edge builder, written as its form, is the dense
    # builder's factor, and each component holds the bits the dense forms hold;
    # ``scale`` writes the nest over a denominator that is not the least
    nest = NestSpec.make(sets)
    order = is_nest(nest)
    assert order is not None
    ascending = nest.reordered(order)
    nums = tuple(tuple(a * scale for a in s) for s in ascending.nums)
    ascending = NestSpec(ascending.ell, ascending.den * scale, nums)
    arr = cone(build_n_ish(ascending))
    n, bits, den = arr.dim, _form_index(arr)[0], cone_den(arr)
    dense_bits = scan(arr)[0]
    for theta, oracle in zip(factored_basis(ascending), dense_factored_basis(ascending), strict=True):
        for comp, dense_comp in zip(theta, oracle, strict=True):
            assert (comp is None) is (dense_comp is None)
            if comp is None:
                continue
            scalar, factors = comp
            assert scalar == dense_comp[0] and type(scalar) is type(dense_comp[0])
            assert sorted(dense_form(f, n, den) for f in factors) == list(dense_comp[1])
            held = reduce(or_, [bits.get(f, 0) for f in factors], 0)
            assert held == reduce(or_, [dense_bits.get(f, 0) for f in dense_comp[1]], 0)


# -- exchange groups against the pair route ------------------------------


def pair_route(derivs, arr):
    """``certified`` as before the exchange groups: each log check of a field
    made form by form, by the pair exchange, then the identity, the index or
    a constant sum (``pair_or_factors``)."""
    den, forms = cone_den(arr), [alpha for alpha, _ in forms_of(arr)]

    def shown(theta, nonzero, left, index):
        return all(pair_or_factors(theta, alpha, den) for alpha in forms)

    with mock.patch("ishkit.freeness._log_shown", shown):
        return certified(derivs, arr)


def braid_forms(arr):
    """``(alpha, support)`` of each braid form ``x_s - x_t`` of the arrangement, a gain edge of gain 0."""
    return [(edge, [(edge[0], 1), (edge[1], -1)]) for edge in arr.gain_edges()[1] if edge and not edge[2]]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ascending_nests(max_ell=8))
@example(ish_nest(8))
@example(NestSpec.make([[], [], ["1/2"], ["1/2"], ["1/2", 2], ["1/2", 2], ["-3/2", "1/2", 2]]))
def test_exchange_groups_hold_what_the_pair_route_shows(nest):
    arr = cone(build_n_ish(nest))
    den = cone_den(arr)
    basis = factored_basis(nest)
    for theta in basis:
        nonzero = [k for k, comp in enumerate(theta) if comp is not None]
        group = group_of(theta)
        if len(nonzero) < 2:
            assert group is None
            continue
        assert group == set(nonzero)  # every component of the paper's fields
        for s, t in itertools.combinations(sorted(group), 2):
            assert theta[s][0] == theta[t][0] and _exchanged(theta[s][1], s, t) == theta[t][1]
        for alpha, support in braid_forms(arr):
            if {k for k, _ in support} <= group:
                assert pair_exchange_shows(theta, support, den)
    c = factored_saito_constant(basis, arr)
    assert c == pair_route(basis, arr)
    assert c


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ascending_nests(max_ell=5).filter(lambda nest: nest.ell >= 4), st.randoms(use_true_random=False),
       st.sampled_from(["the first component holds x_s", "another scalar", "a component moved"]))
@example(ish_nest(5), random.Random(0), "the first component holds x_s")
@example(NestSpec.make([["1/2"], ["1/2"], ["1/2", 2]]), random.Random(1), "another scalar")
@example(ish_nest(4), random.Random(2), "a component moved")
@example(NestSpec.make([[], [], [0]]), random.Random(3), "a component moved")  # x1 - x2 has no z, and is no member
@example(NestSpec.make([[], [], []]), random.Random(4), "a component moved")  # the constant 1 moves into the group
def test_a_field_off_the_group_premise_gets_the_general_routes_verdict(nest, rng, mutation):
    arr = cone(build_n_ish(nest))
    basis = factored_basis(nest)
    n = arr.dim
    k = rng.randrange(4, nest.ell + 1)  # theta_k has k - 1 >= 3 components, on x2..xk
    theta = list(basis[k])
    s = rng.randrange(2, k)  # a member besides the first component, at x2
    scalar, first = theta[1]
    if mutation == "the first component holds x_s":
        # x1 - x_s joins the x2 factors, and every component is their exchange
        first = tuple(sorted(first + ((0, s, 0),)))
        theta = [None if comp is None else (scalar, first if u == 1 else _exchanged(first, 1, u))
                 for u, comp in enumerate(theta)]
        off = s
    elif mutation == "another scalar":
        theta[s] = (2 * scalar, theta[s][1])
        off = s
    else:  # to z, off the group unless the x2 component is a constant: each of
        # its factors holds x2, which the move renames x_s, not z
        theta[n - 1], theta[s] = theta[s], None
        off = n - 1
    mutated = list(basis)
    mutated[k] = tuple(theta)
    group = group_of(mutated[k])
    assert 1 in group
    assert (off in group) is (mutation == "a component moved" and not first)
    # a check the group leaves is shown by the factors, or the whole basis
    # is refused: the verdict is the expanded route's when it is given
    got = certified(mutated, arr)
    den = cone_den(arr)
    shown = all(shown_on_the_factors(theta, alpha, den) for theta in mutated for alpha, _ in forms_of(arr))
    assert got == (general(mutated, arr) if shown else NOT_SHOWN)
    assert pair_route(mutated, arr) in (got, NOT_SHOWN)


def test_a_group_shows_braid_forms_only():
    # over x1..x4, z: (x1 - x2) d/dx2 + (x1 - x3) d/dx3 + (x1 - x4) d/dx4 is
    # one group; its image is a multiple of x2 - x3, but not of x2 - x3 = z
    # or x2 - x3 = -2 z, which meet the group in two coordinates too
    n = 5
    theta = (None, (1, ((0, 1, 0),)), (1, ((0, 2, 0),)), (1, ((0, 3, 0),)), None)
    assert group_of(theta) == {1, 2, 3}
    # over x1, x2, z, x1 - z d/dx1 + (its edge relabelled to z) d/dz: the
    # first component holds z by its gain, so z is no member
    assert group_of(((1, ((0, None, 1),)), None, (1, ((2, None, 1),)))) == {0}
    euler = _translation_and_euler(n - 1)[1]
    for form, log in (((1, 2, 0), True), ((1, 2, 1), False), ((1, 2, -2), False)):
        arr = Arrangement(n, 1, [form], coned=True)
        assert log_by_expansion(theta, arr.hyperplanes[0]) is log
        derivs = [theta] + [euler] * (n - 1)
        got = certified(derivs, arr)
        assert got == pair_route(derivs, arr) == (None if log else NOT_SHOWN)  # degree sum 5 != 1
        assert general(derivs, arr) == (None if log else NOT_LOG)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ascending_nests(max_ell=6), NON_CHAIN_NESTS)
@example(ish_nest(10), NestSpec.make([["1/2", 1], [0, "3/2"], [1]]))
@example(ish_nest(6), NestSpec.make([[0], [1], [2]]))
def test_no_certificate_basis_reaches_saito_constant(nest, other):
    with mock.patch("ishkit.freeness.saito_constant", wraps=saito_constant) as general:
        assert factored_saito_constant(factored_basis(nest), cone(build_n_ish(nest)))
        assert verify_nonfree_witness(other, decide_free(other).witness)
    assert not general.called


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ascending_nests(max_ell=6), NON_CHAIN_NESTS)
@example(NestSpec.make([[], [], [], [], []]), NestSpec.make([[0], [1], [2]]))
@example(NestSpec.make([["1/2"], ["1/2"], ["-3/2", "1/2", 2], ["-3/2", "1/2", 2], ["-3/2", "1/2", 2, 5]]),
         NestSpec.make([["1/2", 1], [0, "3/2"], [1]]))
@example(NestSpec.make([[], ["1/2"], ["1/2"]]), NestSpec.make([[], [0], ["1/2"], [0, "3/2"]]))
def test_no_request_loses_its_factored_proof(nest, other):
    # the exchange groups and the factors show every log check of both
    # certificates: with nothing refused, every saito answer and witness
    # check comes out
    sets = [[str(a) for a in s] for s in rational_sets(nest)]
    for fmt in ("text", "json"):
        run(request_from_doc({"type": "n_ish", "N": sets, "command": "saito", "format": fmt}))
    assert verify_nonfree_witness(other, decide_free(other).witness)


def test_the_cone_of_ish_at_rank_forty_keeps_its_factored_proof():
    nest = ish_nest(40)
    assert factored_saito_constant(factored_basis(nest), cone(build_n_ish(nest)))


def scanned(arr):
    """The same arrangement given as its hyperplanes."""
    return PlaneArrangement(arr.dim, arr.hyperplanes, arr.coned)


def scan(arr):
    """``_form_index`` as it once read the hyperplanes themselves, the
    oracle of the edge index: ``(bits, touch, braid, forms)``, each form its
    hyperplane's coefficients, scanned for its coordinates."""
    n = arr.dim
    bits, touch, braid, forms = {}, [0] * n, 0, []
    for i, h in enumerate(arr.hyperplanes):
        bit = 1 << i
        alpha = h.coeffs
        bits[alpha] = bit
        forms.append(alpha)
        for k in range(n):
            if alpha[k]:
                touch[k] |= bit
        if alpha.count(0) == n - 2 and not sum(alpha):  # two entries, a and -a
            braid |= bit
    return bits, touch, braid, forms


def written_out(index, n, den):
    """The edge index with each factor written as its form (``dense_form``)
    over the gains' denominator ``den``, and its forms in bit order."""
    bits, touch, braid = index
    return {dense_form(f, n, den): bit for f, bit in bits.items()}, touch, braid, [dense_form(f, n, den) for f in bits]


def cones_of_every_kind(max_ell=5):
    for ell in range(2, max_ell + 1):
        for kind in NAMED_KINDS:
            yield cone(build_named(kind, ell))
        pairs = list(itertools.combinations(range(1, ell + 1), 2))
        for mask in range(1 << len(pairs)):
            graph = Graph.make(ell, [p for b, p in enumerate(pairs) if mask >> b & 1])
            for kind in ("shi", "ish"):
                yield cone(build_deleted(kind, graph))


def test_the_form_index_of_the_edges_is_the_scan_of_the_hyperplanes():
    # every cone of the named and deleted kinds at ell <= 5, and the
    # unconed central ones, whose forms have no column z
    arrs = [*cones_of_every_kind(), *(build_named("coxeter", ell) for ell in range(2, 6)),
            build_n_ish(NestSpec.make([[], [], []]))]
    for arr in arrs:
        assert arr.is_central
        index = _form_index(arr)
        assert written_out(index, arr.dim, cone_den(arr)) == scan(arr) == scan(scanned(arr))
    assert len(arrs) == 2 * (2 + 8 + 64 + 1024) + 3 * 4 + 5


@pytest.mark.parametrize("nest", [ish_nest(3), NestSpec.make([["1/2"], ["1/2", 2]])])
def test_the_general_route_on_the_hyperplanes_gives_the_factored_constant(nest):
    # the general route reads only the hyperplanes, given here as they are
    arr = cone(build_n_ish(nest))
    c = factored_saito_constant(factored_basis(nest), arr)
    assert saito_constant(basis_derivations(nest), scanned(arr)) == c != 0


@st.composite
def halves_and_thirds(draw, max_ell=5):
    """Nests of ell <= max_ell sets, chained or not, of entries k/2 and k/3."""
    ell = draw(st.integers(2, max_ell))
    pool = sorted({Fraction(k, q) for q in (2, 3) for k in range(-4, 7)})
    return NestSpec.make([draw(st.lists(st.sampled_from(pool), max_size=4, unique=True)) for _ in range(ell - 1)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(halves_and_thirds())
@example(NestSpec.make([["1/3", "-1/2", "2/3"], ["1/3"], ["1/3", "-1/2", "2/3", "5/2"], ["1/3", "-1/2"]]))
@example(NestSpec.make([[], [], [], []]))
def test_the_form_index_of_a_nest_cone_is_the_scan_of_its_hyperplanes(nest):
    arr = cone(build_n_ish(nest))
    index = _form_index(arr)
    den = cone_den(arr)
    assert written_out(index, arr.dim, den) == scan(arr)
    bits = index[0]
    assert list(bits) == [alpha for alpha, _ in forms_of(arr)]
    assert list(bits.values()) == [1 << i for i in range(len(bits))]  # the forms in bit order
    assert [dense_form(f, arr.dim, den) for f in bits] == [h.coeffs for h in arr.hyperplanes]


def test_a_saito_request_and_the_witness_check_derive_no_hyperplane():
    # the certificates read the gain edges only
    reads = []
    derive = Arrangement.hyperplanes.fget

    def spy(arr):
        reads.append(arr)
        return derive(arr)

    docs = [{"type": "n_ish", "N": [["1/3", "-1/2"], ["1/3"], ["1/3", "-1/2", "2/3", "5/2"]]},
            {"type": "ish", "ell": 5}, {"type": "deleted_ish", "ell": 4, "edges": [[1, 3], [1, 4], [2, 4]]}]
    nests = [NestSpec.make([["1/2", 1], [0, "3/2"], [1]]), NestSpec.make([[0], ["1/3"], [0, "2/3"]])]
    with mock.patch.object(Arrangement, "hyperplanes", property(spy)):
        for doc in docs:
            doc = dict(doc, command="saito", cone=True)
            assert run(request_from_doc(doc)).startswith("SAITO PASS")
            assert json.loads(run(request_from_doc(dict(doc, format="json"))))["pass"]
        for nest in nests:
            assert verify_nonfree_witness(nest, decide_free(nest).witness)
    assert reads == []


def unpeeled(derivs, arr):
    """``certified`` with the peel turned off, so the matrix is refused."""
    with mock.patch("ishkit.freeness._peel", return_value=None):
        return certified(derivs, arr)


def factored_point_route(derivs, arr):
    """The determinant step ``factored_saito_constant`` once took for a matrix
    that does not peel, as it now refuses one: each
    derivation scaled by the lcm of its scalar denominators, its components'
    values at ``_off_point``'s point from integer dot products, and ``int_det``,
    the scales divided back out.  The log and degree hypotheses are assumed."""
    point, q = _off_point(arr)
    n, den = arr.dim, cone_den(arr)
    scale, rows = 1, []
    for theta in derivs:
        m = lcm(*(Fraction(comp[0]).denominator for comp in theta if comp is not None))
        scale *= m
        rows.append([0 if comp is None else
                     int(comp[0] * m) * prod(sum(map(mul, dense_form(f, n, den), point)) for f in comp[1])
                     for comp in theta])
    det = int_det(rows)
    return Fraction(det, q) / scale if det else None


def negated(theta, k):
    """``theta`` with the first factor of component ``k``, a gain edge
    ``(i, j, c)``, written as its negation ``(j, i, -c)``, and its scalar
    negated: the same polynomial, with a factor that is not A's edge."""
    scalar, ((i, j, c), *rest) = theta[k]
    comp = (-scalar, ((j, i, -c), *rest))
    return theta[:k] + (comp,) + theta[k + 1:]


def doubled_z(euler, den: int):
    """The Euler field with its ``z`` component's factor written as the edge
    ``(z, None, -den)``, the form ``z + z``, and its scalar halved: the same
    polynomial, with a factor that is not A's edge."""
    scalar, _ = euler[-1]
    return euler[:-1] + ((scalar * Fraction(1, 2), ((len(euler) - 1, None, -den),)),)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ascending_nests(max_ell=6), st.randoms(use_true_random=False))
@example(ish_nest(6), random.Random(0))
@example(NestSpec.make([[]]), random.Random(0))
def test_the_peeled_constant_is_the_point_routes(nest, rng):
    arr = cone(build_n_ish(nest))
    basis = factored_basis(nest)
    c = factored_saito_constant(basis, arr)
    assert c != 0
    assert unpeeled(basis, arr) == NOT_PEELED
    assert general(basis, arr) == factored_point_route(basis, arr) == c
    n = arr.dim
    # the paper's basis peels Euler at z, the translation at x1, theta_k at x_k
    assert _peel(columns(basis)) == [0, n - 1, *range(1, n - 1)]

    order = list(range(n))
    rng.shuffle(order)
    permuted = [basis[i] for i in order]
    sign = (-1) ** sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    assert factored_saito_constant(permuted, arr) == sign * c
    assert unpeeled(permuted, arr) == NOT_PEELED
    assert general(permuted, arr) == factored_point_route(permuted, arr) == sign * c

    # a pivot's factor that is not A's edge, the polynomial unchanged: the
    # component no longer holds its form's bit, so the factored route
    # refuses the log check before it reads the pivots, and the general
    # route gives the same constant.  A field theta_k's factor is written as
    # minus A's form, with the scalar negated; with l = 2 and N_2 empty, the
    # one pivot factor is Euler's z, written as twice z with the scalar halved
    k = rng.choice([i for i in range(2, n) if basis[i][i - 1][1]] or [1])
    mutated = list(basis)
    den = cone_den(arr)
    mutated[k] = doubled_z(basis[1], den) if k == 1 else negated(basis[k], k - 1)
    assert as_terms(expand(mutated[k], den)) == as_terms(expand(basis[k], den))
    assert certified(mutated, arr) == NOT_SHOWN
    assert general(mutated, arr) == factored_point_route(mutated, arr) == c
    # with every log check taken as shown, the pivots are read, and the
    # factor that is not A's edge is refused there
    with mock.patch("ishkit.freeness._log_shown", return_value=True):
        assert certified(mutated, arr) == NOT_A_FORMS


def witness_basis(nest: NestSpec, i: int, j: int):
    """The deletion and the basis ``verify_nonfree_witness`` checks for the pair ``(i, j)``."""
    den, a_nums, b_nums = nest.den, nest.nums[i - 2], nest.nums[j - 2]
    deleted = deletion(cone(build_n_ish(NestSpec(3, den, (a_nums, b_nums)))), (1, 2, 0))
    edges_den = deleted.gain_edges()[0]
    # the edges of x1 - x2 = a z and x1 - x3 = b z over the deletion's denominator, read off the Fractions
    g = Fraction(nest.den, edges_den)
    phi2 = (None, (1, tuple((0, 1, int(e / g)) for e in a_nums)), None, None)
    phi3 = (None, None, (1, tuple((0, 2, int(e / g)) for e in b_nums)), None)
    return deleted, _translation_and_euler(3) + [phi2, phi3]


@pytest.mark.parametrize("sets", [[["1/2", 1], [0, "3/2"], [1]], [[0, 1], [0, 2]], [[0], [1], [2]]])
def test_the_witness_basis_peels(sets):
    nest = NestSpec.make(sets)
    w = decide_free(nest).witness
    deleted, basis = witness_basis(nest, w.i, w.j)
    # Euler at z, the translation at x1, then phi2 at x2 and phi3 at x3
    assert _peel(columns(basis)) == [0, 3, 1, 2]
    with mock.patch("ishkit.freeness._coefficients", no_coefficients):  # no form's coefficients are read
        c = factored_saito_constant(basis, deleted)
        assert verify_nonfree_witness(nest, w)
    assert c != 0
    assert unpeeled(basis, deleted) == NOT_PEELED
    assert general(basis, deleted) == factored_point_route(basis, deleted) == c
    # one pivot factor negated: refused, and the general route gives the same constant
    mutated = basis[:3] + [negated(basis[3], 2)]
    assert certified(mutated, deleted) == NOT_SHOWN
    assert general(mutated, deleted) == factored_point_route(mutated, deleted) == c


def test_a_matrix_that_does_not_peel_is_refused():
    # over x1, x2, z, the translation, Euler and (x1 - x2) d/dx2 + z d/dz on
    # z (x1 - x2): det = 2 z (x2 - x1) = -2 Q, and each column has two or
    # three nonzero entries.  The factored route refuses the matrix; the
    # general route's point gives its constant, as the factored route once
    # took it itself
    arr = Arrangement(3, 1, [None, (0, 1, 0)], coned=True)
    translation, euler = _translation_and_euler(2)
    third = (None, (1, ((0, 1, 0),)), (1, (X3,)))
    assert _peel(columns([translation, euler, third])) is None
    for derivs, c in (([translation, euler, third], -2), ([euler, translation, third], 2)):
        assert certified(derivs, arr) == NOT_PEELED
        assert general(derivs, arr) == factored_point_route(derivs, arr) == c
    # the x2 factor written as minus A's form: the index no longer shows its log check
    negated_third = negated(third, 1)
    assert certified([translation, euler, negated_third], arr) == NOT_SHOWN
    assert general([translation, euler, negated_third], arr) == factored_point_route([translation, euler, negated_third], arr) == -2


def test_a_zero_scalar_is_a_zero_component():
    # z (x1 - x2) over x1, x2, z: the translation, the Euler field, and
    # (x1 - x2) d/dx2 with its x1 component written as the scalar 0
    arr = Arrangement(3, 1, [None, (0, 1, 0)], coned=True)
    translation, euler = _translation_and_euler(2)
    for third, c in ((((0, ()), (1, ((0, 1, 0),)), None), -1), (((0, ()), (0, ((0, 1, 0),)), None), None)):
        assert factored_saito_constant([translation, euler, third], arr) == c
        assert saito_constant(multiplied_out([translation, euler, third], arr), arr) == c


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ascending_nests(), st.randoms(use_true_random=False))
@example(ish_nest(3), random.Random(0))
def test_zero_scalars_give_the_expanded_routes_verdict(nest, rng):
    arr = cone(build_n_ish(nest))
    basis = factored_basis(nest)
    places = [(i, k) for i, theta in enumerate(basis) for k, comp in enumerate(theta) if comp is not None]
    zeroed = [list(theta) for theta in basis]
    for i, k in rng.sample(places, min(len(places), rng.choice([1, 2, 3]))):
        zeroed[i][k] = (0, zeroed[i][k][1])
    proves_or_refuses([tuple(theta) for theta in zeroed], arr)

    # zero terms of any degree in place of zero components change nothing
    c = factored_saito_constant(basis, arr)
    forms = [alpha for alpha, _ in forms_of(arr)]
    padded = [
        tuple((0, tuple(sorted(rng.choices(forms, k=rng.randrange(4))))) if comp is None else comp for comp in theta)
        for theta in basis
    ]
    assert factored_saito_constant(padded, arr) == c
    assert saito_constant(multiplied_out(padded, arr), arr) == c

    # a field whose every term has the scalar 0 is the zero field
    k = rng.randrange(len(basis))
    zeroed = list(basis)
    zeroed[k] = tuple(None if comp is None else (0, comp[1]) for comp in basis[k])
    assert factored_saito_constant(zeroed, arr) is None


# -- the oracles of the integer nest form: the nest readers on Fraction entries --


def dense_form(f, n: int, den: int = 1) -> tuple[int, ...]:
    """A factor ``(i, j, c)`` as ``n`` coefficients, read off the ``Fraction``
    ``c/den``: ``q x_i - q x_j - p z`` for ``p/q`` the reduced gain, with no
    ``x_j`` when ``j`` is None and ``z`` the last coordinate."""
    i, j, c = f
    a = Fraction(c, den)
    form = [0] * n
    form[i] += a.denominator
    if j is not None:
        form[j] -= a.denominator
    form[-1] -= a.numerator
    return tuple(form)


def dense(theta: FactoredDerivation, den: int = 1) -> FactoredDerivation:
    """The field with each factor written as its form, sorted, as the factors were held before the edges."""
    n = len(theta)
    return tuple(None if comp is None else (comp[0], tuple(sorted(dense_form(f, n, den) for f in comp[1])))
                 for comp in theta)


def cone_den(arr: Arrangement) -> int:
    return arr.gain_edges()[0]


def expand(theta: FactoredDerivation, den: int = 1) -> Derivation:
    """The factored derivation multiplied out, component by component, one
    ``MultiPoly.linear`` per factor's form (``dense_form``)."""
    n = len(theta)
    comps = []
    for comp in theta:
        poly = MultiPoly.zero(n)
        if comp is not None:
            scalar, factors = comp
            poly = MultiPoly.const(n, scalar)
            for f in factors:
                poly = poly * MultiPoly.linear(dense_form(f, n, den))
        comps.append(poly)
    return tuple(comps)


def multiplied_out(derivs, arr) -> list[Derivation]:
    """Each field ``expand``ed over the gains' denominator of ``arr``."""
    den = cone_den(arr)
    return [expand(theta, den) for theta in derivs]


def fraction_is_nest(nest: FractionNestSpec) -> tuple[int, ...] | None:
    order = sorted(range(2, nest.ell + 1), key=lambda j: (len(nest.set_at(j)), nest.set_at(j)))
    for a, b in zip(order, order[1:]):
        if not set(nest.set_at(a)) <= set(nest.set_at(b)):
            return None
    return tuple(order)


def fraction_nest_exponents(nest: FractionNestSpec, order) -> tuple[int, ...]:
    ell = nest.ell
    if sorted(order) != list(range(2, ell + 1)):
        raise ValueError("order must be a permutation of 2..ell")
    for a, b in zip(order, order[1:]):
        if not set(nest.set_at(a)) <= set(nest.set_at(b)):
            raise ValueError("order does not certify a chain")
    exps = [0, 1]
    for k in range(2, ell + 1):
        exps.append(len(nest.set_at(order[k - 2])) + ell - k)
    return tuple(sorted(exps))


def fraction_decide_free(nest: FractionNestSpec) -> FreenessVerdict:
    order = fraction_is_nest(nest)
    if order is not None:
        return FreenessVerdict(True, fraction_nest_exponents(nest, order), None, order)
    for i in range(2, nest.ell + 1):
        for j in range(i + 1, nest.ell + 1):
            a, b = set(nest.set_at(i)), set(nest.set_at(j))
            if not a <= b and not b <= a:
                return FreenessVerdict(False, None, NonFreeWitness(i, j, (1, len(a), len(b)), len(a | b)), None)
    raise RuntimeError("no chain order and no incomparable pair; unreachable")


def fraction_cone_den(nest: FractionNestSpec) -> int:
    """The lcm of the entries' denominators: the gains' denominator of the cone
    of an ascending nest, whose last set holds every entry."""
    return lcm(*(a.denominator for a in nest.set_at(nest.ell)))


def fraction_factored_basis(nest: FractionNestSpec) -> list[FactoredDerivation]:
    """``factored_basis`` reading each factor's gain off the entry's ``Fraction``."""
    if not nest.is_ascending():
        raise ValueError("the derivation basis needs an ascending nest")
    ell = nest.ell
    n = ell + 1
    cone_lcm = fraction_cone_den(nest)
    translations = ((1, ()),) * ell + (None,)
    euler = tuple((1, ((k, None, 0),)) for k in range(n))
    out = [translations, euler]
    for k in range(2, ell + 1):
        comps = [None] * n
        for s in range(2, k + 1):
            factors, den = [], 1
            for a in nest.set_at(k):
                factors.append((0, s - 1, int(a * cone_lcm)))
                den *= a.denominator
            for t in range(k + 1, ell + 1):
                factors.append((s - 1, t - 1, 0))
            comps[s - 1] = (1 if den == 1 else Fraction(1, den), tuple(factors))
        out.append(tuple(comps))
    return out


def fraction_basis_derivations(nest: FractionNestSpec) -> list[Derivation]:
    return [expand(theta, fraction_cone_den(nest)) for theta in fraction_factored_basis(nest)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(MIXED_SETS)
@example([["-5/6", "1/3"], ["-5/6", "1/3", "7/4"], ["1/3"]])
def test_nest_readers_match_the_fraction_oracles(sets):
    nest, oracle = NestSpec.make(sets), FractionNestSpec.make(sets)
    order = is_nest(nest)
    assert order == fraction_is_nest(oracle)
    assert decide_free(nest) == fraction_decide_free(oracle)
    if order is None:
        return
    assert nest_exponents(nest, order) == fraction_nest_exponents(oracle, order)
    ascending, old = nest.reordered(order), oracle.reordered(order)
    basis = factored_basis(ascending)
    assert basis == fraction_factored_basis(old)
    assert as_terms(basis_derivations(ascending)) == as_terms(fraction_basis_derivations(old))
    arr = cone(build_n_ish(ascending))
    assert arr.hyperplanes == fraction_cone(fraction_build_n_ish(old)).hyperplanes
    assert factored_saito_constant(basis, arr) == saito_constant(fraction_basis_derivations(old), arr)


def fractions_made(monkeypatch, call) -> int:
    """How many ``Fraction``s ``call()`` constructs."""
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", counting)
        call()
    return len(made)


@pytest.mark.parametrize("sets, scalars", [
    ([[0, 1], [0, 1, 3], [-2, 0, 1, 3]], 0),
    ([["1/2"], ["1/2", 2], ["-3/2", "1/2", 2]], 3),  # one 1/2^m per field theta_k
])
def test_the_nest_readers_construct_no_fraction(monkeypatch, sets, scalars):
    nest = NestSpec.make(sets)
    assert fractions_made(monkeypatch, lambda: NestSpec.make(sets)) == 0
    for reader in (is_nest, decide_free, nest_char_poly, build_n_ish, lambda n: cone(build_n_ish(n))):
        assert fractions_made(monkeypatch, lambda: reader(nest)) == 0
    # the scalar 1 / prod q of a field with a non-integral entry is the one Fraction
    assert fractions_made(monkeypatch, lambda: factored_basis(nest)) == scalars
    assert fractions_made(monkeypatch, lambda: Fraction(1, 2)) == 1  # the count sees a Fraction
