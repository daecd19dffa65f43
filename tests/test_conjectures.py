"""Tests for bounded-subset predicates, exponent cones, purity, interior
points, cone-derived fraction witnesses, and the four-condition verifier."""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from semiring_lab.abhyankar import AbhyankarContext, univar_in_kernel
from semiring_lab.conjectures import (
    BoundClass,
    BoundedSubsetPredicate,
    Cone,
    ConditionReport,
    RecurrenceCandidate,
    Verdict,
    cone_dim,
    cone_enumerate,
    find_interior_u,
    purity_check,
    qf_from_cone,
    verify_conditions,
)
from semiring_lab.groebner import GroebnerBudget
from semiring_lab.polynomials import Domain, DomainError, Polynomial, parse_poly, t_names
from semiring_lab import semiring
from semiring_lab.semiring import Budget, EvalHom, Presentation, Tri
from tests.oracles import purity_violations, reference_explore, semigroup_within_box
from tests.test_semiring import CATALOG

SEED = 66217

SMALL = Budget(max_degree=4, max_coeff=8, max_steps=2000)


def word(text: str, nvars: int = 2) -> Polynomial:
    return parse_poly(text, t_names(nvars), Domain.NAT)


@pytest.fixture(scope="module")
def ev():
    return EvalHom((Fraction(2), Fraction(3)))


@pytest.fixture(scope="module")
def absorbing():
    return Presentation.from_text(1, "T1 + 1 = T1")


@pytest.fixture(scope="module")
def collapse_to_one():
    return Presentation.from_text(1, "T1 = 1")


# -- bounded-subset predicates ----------------------------------------------


def test_evaluation_target_is_exact(ev):
    above = BoundedSubsetPredicate(BoundClass.ABOVE, ev)
    two_sided = BoundedSubsetPredicate(BoundClass.TWO_SIDED, ev)
    absorbing = BoundedSubsetPredicate(BoundClass.ABSORBING, ev)
    w = word("2*T1 + 1")  # value 5
    assert above.classify(w).answer is Tri.YES
    assert above.classify(w).upper == 6
    v = two_sided.classify(w)
    assert v.answer is Tri.YES and v.lower == Fraction(5, 2) and v.upper == 6
    assert absorbing.classify(w).answer is Tri.NO


def test_zero_word_has_no_lower_bound(ev):
    two_sided = BoundedSubsetPredicate(BoundClass.TWO_SIDED, ev)
    zero = Polynomial.zero(2, Domain.NAT)
    assert two_sided.classify(zero).answer is Tri.NO
    above = BoundedSubsetPredicate(BoundClass.ABOVE, ev)
    assert above.classify(zero).answer is Tri.YES


def test_free_presentation_bounds():
    free = Presentation.free(1)
    above = BoundedSubsetPredicate(BoundClass.ABOVE, free, SMALL, max_bound=4)
    assert above.classify(word("2", 1)).answer is Tri.YES
    assert above.classify(word("2", 1)).upper == 2
    # a variable has no constant bound, but finitely many refusals cannot
    # rule out a larger one
    assert above.classify(word("T1", 1)).answer is Tri.UNKNOWN
    two_sided = BoundedSubsetPredicate(BoundClass.TWO_SIDED, free, SMALL, max_bound=4)
    assert two_sided.classify(word("2", 1)).answer is Tri.YES
    # the variable's component is complete and has no constant term, so the
    # missing lower bound is conclusive
    assert two_sided.classify(word("T1", 1)).answer is Tri.NO


def test_absorbing_predicate(absorbing):
    pred = BoundedSubsetPredicate(BoundClass.ABSORBING, absorbing, SMALL)
    # the variable absorbs 1 by the relation itself; the constant 1 does
    # not (its component is complete and misses 2)
    assert pred.classify(word("T1", 1)).answer is Tri.YES
    assert pred.classify(word("1", 1)).answer is Tri.NO
    free_pred = BoundedSubsetPredicate(
        BoundClass.ABSORBING, Presentation.free(1), SMALL
    )
    assert free_pred.classify(word("1", 1)).answer is Tri.NO


def test_predicate_rejects_bad_words(ev):
    pred = BoundedSubsetPredicate(BoundClass.ABOVE, ev)
    with pytest.raises(DomainError):
        pred.classify(parse_poly("T1 - 1", t_names(2), Domain.INT))
    with pytest.raises(ValueError):
        pred.classify(word("T1", 1))


# -- cone enumeration -------------------------------------------------------


def test_evaluation_cone_is_full_box(ev):
    c = cone_enumerate(ev, 4)
    assert len(c.members) == 25
    assert c.unknown == ()
    assert all((i, j) in c.members for i in range(5) for j in range(5))


def test_box_zero_cone(ev):
    c = cone_enumerate(ev, 0)
    assert c.members == frozenset({(0, 0)})


def test_negative_box_rejected(ev):
    with pytest.raises(ValueError):
        cone_enumerate(ev, -1)


def test_absorbing_presentation_cone(absorbing):
    c = cone_enumerate(absorbing, 3, SMALL, max_bound=4)
    # the unit monomial is bounded by 1; powers of the variable are neither
    # bounded within the scan nor refutable, so they stay unknown
    assert c.members == frozenset({(0,)})
    assert c.unknown == ((1,), (2,), (3,))


def test_collapsing_presentation_cone(collapse_to_one):
    # with the variable identified with 1, every monomial is bounded by 1
    c = cone_enumerate(collapse_to_one, 3, Budget(max_degree=5, max_coeff=8, max_steps=4000))
    assert c.members == frozenset({(0,), (1,), (2,), (3,)})
    assert c.unknown == ()
    assert _closed_under_sums(c)


def _closed_under_sums(cone) -> bool:
    """Whether every sum of two members that stays in the box is a member."""
    sums = (tuple(a + b for a, b in zip(u, v)) for u in cone.members for v in cone.members)
    return all(w in cone.members for w in sums if max(w, default=0) <= cone.box)


def test_evaluation_cone_closure_property():
    rng = random.Random(SEED)
    for _ in range(10):
        assignment = tuple(
            Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2)
        )
        c = cone_enumerate(EvalHom(assignment), 3)
        assert _closed_under_sums(c)
        assert len(c.members) == 16


def test_cone_determinism(absorbing):
    a = cone_enumerate(absorbing, 3, SMALL, max_bound=4)
    b = cone_enumerate(absorbing, 3, SMALL, max_bound=4)
    assert a == b


def test_cone_explores_each_start_once(monkeypatch):
    starts = Counter()
    exploration = semiring._Exploration

    def counting(start, *args):
        starts[start] += 1
        return exploration(start, *args)

    monkeypatch.setattr(semiring, "_Exploration", counting)
    pres = Presentation.from_text(2, "T1*T2 = 1")
    budget = Budget(max_degree=5, max_coeff=8, max_steps=5000)
    for kind in BoundClass:
        BoundedSubsetPredicate(kind, pres, budget)
    assert not starts, "constructing a predicate explored"
    cone_enumerate(pres, 2, budget)
    assert starts
    assert max(starts.values()) == 1, "a start word was explored twice"


def _swapped(pres):
    """The same presentation with T1 and T2 exchanged."""
    def swap(p):
        return Polynomial(2, Domain.NAT, {(u[1], u[0]): c for u, c in p.terms()})

    return Presentation(2, tuple((swap(lhs), swap(rhs)) for lhs, rhs in pres.relations))


def _catalog_targets():
    for nvars, text in CATALOG:
        pres = Presentation.free(nvars) if text is None else Presentation.from_text(nvars, text)
        yield text, pres
        if nvars == 2:
            yield f"{text} (swapped)", _swapped(pres)


def _reference_cone(pres, box, budget, max_bound):
    """The cone from ``tests.oracles.reference_explore`` run from every
    constant, each closing the supports of its members."""
    cells = list(product(range(box + 1), repeat=pres.nvars))
    closed = set()
    for q in range(1, min(max_bound, budget.max_coeff) + 1):
        constant = Polynomial.constant(pres.nvars, q, Domain.NAT)
        for member in reference_explore(constant, pres, budget).members:
            closed.update(member.support())
    members = frozenset(u for u in cells if u in closed)
    return Cone(pres.nvars, box, members, tuple(u for u in cells if u not in closed))


@pytest.mark.parametrize("box", [2, 3])
@pytest.mark.parametrize(
    "budget", [Budget(4, 8, 300), Budget(5, 8, 5000)], ids=["small", "cone-scan"]
)
def test_cone_sweep_matches_the_predicate_cell_by_cell(budget, box):
    # the sweep over constants must give each cell the verdict of the
    # bounded-above predicate, which scans the constants cell by cell, and
    # of the reference sweep, which searches from each constant with the
    # oracle's own exploration
    for text, pres in _catalog_targets():
        predicate = BoundedSubsetPredicate(BoundClass.ABOVE, pres, budget)
        verdicts = {
            u: predicate.classify(Polynomial.monomial(u, 1, Domain.NAT)).answer
            for u in product(range(box + 1), repeat=pres.nvars)
        }
        cone = cone_enumerate(pres, box, budget)
        assert cone.members == frozenset(u for u, v in verdicts.items() if v is Tri.YES), text
        assert cone.unknown == tuple(u for u, v in verdicts.items() if v is Tri.UNKNOWN), text
        assert cone == _reference_cone(pres, box, budget, 16), text


def test_cone_sweep_searches_on_from_a_member_of_a_capped_search():
    # at cap 1 the search from 1 finds only 2 (by 1 = 1 + 1); the search
    # from 2 has not ended with it and finds T1 first (by 1 + 1 = T1)
    pres = Presentation.from_text(1, "1 + 1 = T1\n1 + 1 = 1")
    budget = Budget(max_degree=4, max_coeff=8, max_steps=1)
    predicate = BoundedSubsetPredicate(BoundClass.ABOVE, pres, budget, max_bound=2)
    assert predicate.classify(word("T1", 1)).upper == 2
    cone = cone_enumerate(pres, 1, budget, max_bound=2)
    assert cone.members == frozenset({(0,), (1,)}) and cone.unknown == ()
    assert cone == _reference_cone(pres, 1, budget, 2)


def test_evaluation_cone_evaluates_nothing(monkeypatch, ev):
    def refuse(*args, **kwargs):
        raise AssertionError("a monomial was evaluated")

    monkeypatch.setattr(Polynomial, "evaluate", refuse)
    c = cone_enumerate(ev, 3)
    assert c.members == frozenset(product(range(4), repeat=2)) and c.unknown == ()


def _spy_searches(monkeypatch):
    """Record every search created, by start word."""
    searches = {}
    exploration = semiring._Exploration

    def recording(start, *args):
        searches[start] = exploration(start, *args)
        return searches[start]

    monkeypatch.setattr(semiring, "_Exploration", recording)
    return searches


def test_cone_sweep_searches_a_shared_component_once(monkeypatch):
    # under 2 = 1 the constants 1..8 form one component: the scan cell by
    # cell searches it from each of them, the sweep from 1 only
    pres = Presentation.from_text(2, "1 + 1 = 1")
    budget = Budget(max_degree=5, max_coeff=8, max_steps=5000)
    searches = _spy_searches(monkeypatch)
    predicate = BoundedSubsetPredicate(BoundClass.ABOVE, pres, budget)
    for u in product(range(4), repeat=2):
        predicate.classify(Polynomial.monomial(u, 1, Domain.NAT))
    assert len(searches) == 8
    searches.clear()
    cone = cone_enumerate(pres, 3, budget)
    assert list(searches) == [pres.one]
    assert cone.members == frozenset({(0, 0)}) and len(cone.unknown) == 15


def test_monomial_cone_sweep_stops_after_the_search_from_1_ends(monkeypatch):
    # under T1*T2 = 1 a word ~ q is q words ~ 1, so the ended search from 1
    # has closed every cell that the other constants' searches can close
    searches = _spy_searches(monkeypatch)
    pres = Presentation.from_text(2, "T1*T2 = 1")
    cone = cone_enumerate(pres, 2, Budget(max_degree=5, max_coeff=8, max_steps=5000))
    assert list(searches) == [pres.one]
    assert cone.members == frozenset({(0, 0), (1, 1), (2, 2)}) and len(cone.unknown) == 6


def test_cone_sweep_searches_each_component(monkeypatch):
    # no two constants are equivalent under T1*T2 = 1 or 2*T1 = 1; each gets
    # a search when the search from 1 stops at its cap (T1*T2 = 1 at 3
    # rewrites), and on a presentation that is not monomial (2*T1 = 1)
    searches = _spy_searches(monkeypatch)
    for text, max_steps, ended in (("T1*T2 = 1", 3, False), ("2*T1 = 1", 5000, True)):
        pres = Presentation.from_text(2, text)
        searches.clear()
        cone_enumerate(pres, 2, Budget(max_degree=5, max_coeff=8, max_steps=max_steps))
        assert len(searches) == 8, text
        assert searches[pres.one].ended is ended, text


def test_monomial_cone_sweep_matches_the_reference_sweep(monkeypatch):
    # random monomial presentations, sides 0 or T^u with exponents <= 2: the
    # sweep gives every cell the reference's verdict, and it stops after the
    # search from 1 exactly when that search ended
    searches = _spy_searches(monkeypatch)
    rng = random.Random(SEED + 2)
    for _ in range(40):
        n = rng.randint(1, 3)

        def side():
            if rng.random() < 0.25:
                return Polynomial.zero(n, Domain.NAT)
            return Polynomial.monomial(tuple(rng.randint(0, 2) for _ in range(n)), 1, Domain.NAT)

        pres = Presentation(n, tuple((side(), side()) for _ in range(rng.randint(1, 3))))
        budget = Budget(rng.randint(1, 6), rng.randint(2, 12), rng.randint(300, 20_000))
        box, max_bound = rng.randint(0, 3), rng.randint(1, 16)
        label = (pres.to_text(), budget, box, max_bound)
        searches.clear()
        cone = cone_enumerate(pres, box, budget, max_bound)
        assert cone == _reference_cone(pres, box, budget, max_bound), label
        if reference_explore(pres.one, pres, budget).steps_used <= budget.max_steps:
            assert list(searches) == [pres.one], label
        elif cone.unknown and min(max_bound, budget.max_coeff) > 1:
            assert len(searches) > 1, label


def test_ended_searches_of_one_component_agree():
    # 8 ~ 9 leaves the coefficient box, so no search is complete; each still
    # ends, with the same members after the same number of rewrites
    pres = Presentation.from_text(2, "1 + 1 = 1")
    budget = Budget(max_degree=5, max_coeff=8, max_steps=5000)
    searches = []
    for q in range(1, 9):
        table = semiring._RewriteTable(pres, budget)
        search = semiring._Exploration(Polynomial.constant(2, q, Domain.NAT), table)
        assert search.find(lambda _: False, budget.max_steps) is None
        assert search.ended and not search.complete
        searches.append(search)
    assert all(set(s.members) == set(searches[0].members) for s in searches)
    assert len({s.rewrites_used for s in searches}) == 1


# -- cone dimension ---------------------------------------------------------


def test_dim_examples(ev):
    full = cone_enumerate(ev, 4)
    assert cone_dim(full) == 2
    assert cone_dim(Cone(2, 0, frozenset({(0, 0)}), ())) == 0
    diagonal = Cone(2, 4, frozenset({(k, k) for k in range(5)}), ())
    assert cone_dim(diagonal) == 1


def test_dim_bounded_by_nvars_and_full_with_units():
    rng = random.Random(SEED + 1)
    for _ in range(50):
        n = rng.randint(1, 3)
        members = {
            tuple(rng.randint(0, 4) for _ in range(n))
            for _ in range(rng.randint(1, 8))
        }
        c = Cone(n, 4, frozenset(members), ())
        assert 0 <= cone_dim(c) <= n
        with_units = frozenset(members) | {
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        }
        assert cone_dim(Cone(n, 4, with_units, ())) == n


# -- purity -----------------------------------------------------------------


def test_purity_full_quadrant():
    assert purity_check([(1, 0), (0, 1)], 4).pure


def test_purity_even_axis_witness():
    result = purity_check([(2, 0), (0, 1)], 4)
    assert not result.pure
    assert result.witness == ((2, 0), 2, (1, 0))


def test_purity_empty_generators():
    result = purity_check([], 4)
    assert result.pure
    assert result.members == frozenset({()})


def test_purity_agrees_with_oracle():
    rng = random.Random(SEED + 2)
    impure_seen = 0
    for _ in range(120):
        n = rng.randint(1, 3)
        gens = [
            tuple(rng.randint(0, 3) for _ in range(n))
            for _ in range(rng.randint(1, 4))
        ]
        gens = [g for g in gens if any(g)]
        box = rng.randint(1, 6)
        result = purity_check(gens, box, nvars=n)
        violations = purity_violations(gens, box, nvars=n)
        assert result.pure == (not violations)
        assert result.members == frozenset(semigroup_within_box(gens, box, nvars=n))
        if not result.pure:
            impure_seen += 1
            a, k, quotient = result.witness
            assert (a, k) in violations
            assert tuple(x // k for x in a) == quotient
    assert impure_seen >= 10


def test_purity_witness_is_the_first_violation_in_graded_order():
    # (3, 3) is the first member whose coordinates share a factor, and (1, 1)
    # is no member
    assert purity_check([(1, 2), (2, 1)], 4).witness == ((3, 3), 3, (1, 1))
    rng = random.Random(SEED + 3)
    impure_seen = 0
    for _ in range(120):
        n = rng.randint(1, 3)
        gens = [g for g in (tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(3)) if any(g)]
        violations = purity_violations(gens, 8, nvars=n)
        if violations:
            impure_seen += 1
            a, k = min(violations, key=lambda v: (sum(v[0]), v[0], v[1]))
            assert purity_check(gens, 8, nvars=n).witness == (a, k, tuple(x // k for x in a))
    assert impure_seen >= 10


def test_purity_rejects_bad_generators():
    with pytest.raises(ValueError):
        purity_check([(1, 0), (1,)], 3)
    with pytest.raises(ValueError):
        purity_check([(-1, 0)], 3)


def test_box_over_the_cell_limit_fails_before_any_scan():
    primes = EvalHom(tuple(Fraction(p) for p in (2, 3, 5, 7, 11, 13, 17, 19)))
    with pytest.raises(semiring.BudgetError, match=r"\[0, 6\]\^8 holds 7\^8 exponent vectors"):
        cone_enumerate(primes, 6)
    with pytest.raises(semiring.BudgetError, match=r"2001\^2 .* limit of 100,000 \(lower --box"):
        purity_check([(1, 0), (0, 1)], 2000)
    # [0, 9]^5 holds exactly 10^5 vectors, the most a scan may cover
    assert purity_check([(1, 0, 0, 0, 0)], 9).pure
    with pytest.raises(semiring.BudgetError, match=r"11\^5"):
        purity_check([(1, 0, 0, 0, 0)], 10)


# -- interior points --------------------------------------------------------


def test_interior_of_full_box(ev):
    c = cone_enumerate(ev, 4)
    assert find_interior_u(c) == (0, 0)


def test_interior_of_diagonal_not_found():
    diagonal = Cone(2, 4, frozenset({(k, k) for k in range(5)}), ())
    assert find_interior_u(diagonal) is None


def test_interior_result_satisfies_definition():
    rng = random.Random(SEED + 3)
    found = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        members = frozenset(
            tuple(rng.randint(0, 3) for _ in range(n))
            for _ in range(rng.randint(1, 12))
        )
        c = Cone(n, 3, members, ())
        u = find_interior_u(c)
        if u is not None:
            found += 1
            assert u in members
            for i in range(n):
                shifted = tuple(x + (1 if i == j else 0) for j, x in enumerate(u))
                assert shifted in members
    assert found >= 5


# -- two-sided boundedness of 1 + T^u ---------------------------------------


def one_plus(u) -> Polynomial:
    """1 + T^u as a natural-domain word in len(u) variables."""
    return Polynomial.one(len(u), Domain.NAT) + Polynomial.monomial(u, 1, Domain.NAT)


def test_one_plus_monomial_on_evaluation(ev):
    two_sided = BoundedSubsetPredicate(BoundClass.TWO_SIDED, ev)
    assert two_sided.classify(one_plus((2, 3))).answer is Tri.YES
    assert two_sided.classify(one_plus((0, 0))).answer is Tri.YES


def test_one_plus_monomial_unknown_propagates(absorbing):
    two_sided = BoundedSubsetPredicate(BoundClass.TWO_SIDED, absorbing, SMALL, max_bound=4)
    assert two_sided.classify(one_plus((1,))).answer is Tri.UNKNOWN


def test_one_plus_monomial_derivable_bound(collapse_to_one):
    two_sided = BoundedSubsetPredicate(
        BoundClass.TWO_SIDED, collapse_to_one, Budget(max_degree=5, max_coeff=8, max_steps=4000)
    )
    verdict = two_sided.classify(one_plus((1,)))
    assert verdict.answer is Tri.YES
    assert verdict.lower == 1 and verdict.upper == 2


def test_one_plus_monomial_arity_check(ev):
    with pytest.raises(ValueError):
        BoundedSubsetPredicate(BoundClass.TWO_SIDED, ev).classify(one_plus((1,)))


# -- fraction witnesses from cones ------------------------------------------


def _assert_witnesses_in_cone(c, witnesses):
    """One witness per variable; both exponents are members, and they differ by e_i."""
    assert [w.variable_index for w in witnesses] == list(range(c.nvars))
    for w in witnesses:
        assert c.contains(w.numerator_exp) and c.contains(w.denominator_exp)
        unit = tuple(int(j == w.variable_index) for j in range(c.nvars))
        assert tuple(a - b for a, b in zip(w.numerator_exp, w.denominator_exp)) == unit


def test_qf_from_full_box(ev):
    c = cone_enumerate(ev, 4)
    witnesses = qf_from_cone(c)
    assert len(witnesses) == 2
    assert witnesses[0].denominator_exp == (0, 0)
    assert witnesses[0].numerator_exp == (1, 0)
    assert witnesses[1].numerator_exp == (0, 1)
    _assert_witnesses_in_cone(c, witnesses)


def test_qf_without_ambient_variables_is_empty():
    point = Cone(0, 1, frozenset({()}), ())
    assert find_interior_u(point) == () and qf_from_cone(point) == ()


def test_qf_from_diagonal_not_found():
    diagonal = Cone(2, 4, frozenset({(k, k) for k in range(5)}), ())
    assert qf_from_cone(diagonal) is None


def test_qf_off_origin_interior():
    c = Cone(2, 3, frozenset({(1, 1), (2, 1), (1, 2)}), ())
    witnesses = qf_from_cone(c)
    assert witnesses is not None
    assert witnesses[0].denominator_exp == (1, 1)
    assert witnesses[0].numerator_exp == (2, 1)
    assert witnesses[1].numerator_exp == (1, 2)
    _assert_witnesses_in_cone(c, witnesses)
    # expansion oracle: T_i * T^u really is T^(u + e_i)
    t1 = Polynomial.variable(2, 0, Domain.NAT)
    t2 = Polynomial.variable(2, 1, Domain.NAT)
    u = Polynomial.monomial((1, 1), 1, Domain.NAT)
    assert t1 * u == Polynomial.monomial((2, 1), 1, Domain.NAT)
    assert t2 * u == Polynomial.monomial((1, 2), 1, Domain.NAT)


# -- the aggregate verifier -------------------------------------------------


@pytest.fixture(scope="module")
def recurrence_report():
    ctx = AbhyankarContext.build(6)
    return verify_conditions(RecurrenceCandidate(ctx, (word("T1*T2"),)))


def test_recurrence_verdicts(recurrence_report):
    rep = recurrence_report
    assert rep.a.status is Verdict.HOLDS
    assert rep.b.status is Verdict.HOLDS
    assert rep.c.status is Verdict.FAILS
    assert rep.d.status is Verdict.HOLDS
    assert rep.truncation == 6
    assert rep.evidence_level == 20


def test_every_holds_has_certificate(recurrence_report):
    for verdict in recurrence_report.as_mapping().values():
        if verdict.status is Verdict.HOLDS:
            assert verdict.certificate


def test_fails_carries_replayable_witness(recurrence_report):
    c = recurrence_report.c
    assert c.witness
    w = c.witness[0]
    assert w.residual.is_zero
    assert not univar_in_kernel(w.h)
    assert w.h.evaluate_ambient((w.base + w.shift).as_domain(Domain.INT)).is_zero


def test_b_runs_both_routes(recurrence_report):
    cert_text = " ".join(recurrence_report.b.certificate)
    assert "3*T2" in cert_text
    assert "independent route" in cert_text
    assert "member" in cert_text
    assert "cofactor expansion" in cert_text


def test_d_lists_preimages(recurrence_report):
    cert_text = " ".join(recurrence_report.d.certificate)
    for m in range(2, 21):
        assert f"1/{m} " in cert_text
    assert "60" in cert_text
    # the two evidence tiers are labeled
    assert "relation-checked at this truncation" in cert_text
    assert "beyond the relation-checked level" in cert_text


def test_d_evidence_bound_is_adjustable():
    ctx = AbhyankarContext.build(6)
    rep = verify_conditions(RecurrenceCandidate(ctx, ()), evidence_bound=6)
    assert rep.evidence_level == 6
    assert "beyond the relation-checked level" not in " ".join(rep.d.certificate)


def test_d_evidence_at_the_limit_is_pinned():
    ctx = AbhyankarContext.build(6)
    rep = verify_conditions(RecurrenceCandidate(ctx, ()), evidence_bound=1000)
    cert = rep.d.certificate
    assert rep.d.status is Verdict.HOLDS and rep.evidence_level == 1000
    # generators 2..6 relation-checked, 7..1000 designated, and the closing line
    assert len(cert) == 1000
    assert cert[5] == (
        "generator 7 is the designated preimage of 1/7 at truncation 7 "
        "(beyond the relation-checked level)"
    )
    assert cert[-2] == (
        "generator 1000 is the designated preimage of 1/1000 at truncation 1000 "
        "(beyond the relation-checked level)"
    )
    assert cert[-1] == (
        "the image is a ring, so the relation-checked part alone contains "
        "every rational whose denominator divides a power of 60"
    )


def test_empty_base_list_leaves_c_unknown():
    ctx = AbhyankarContext.build(6)
    rep = verify_conditions(RecurrenceCandidate(ctx, ()))
    assert rep.c.status is Verdict.UNKNOWN
    assert "nothing was searched" in rep.c.certificate[0]


def test_unresolved_base_leaves_c_unknown():
    ctx = AbhyankarContext.build(6)
    rep = verify_conditions(
        RecurrenceCandidate(ctx, (word("T1*T2"), word("T1^3")))
    )
    assert rep.c.status is Verdict.UNKNOWN
    assert len(rep.c.witness) == 1  # the resolved base's witness is kept


def test_unverified_context_degrades_honestly():
    ctx = AbhyankarContext.build(5, GroebnerBudget(max_degree=30, max_steps=3))
    assert not ctx.verified
    rep = verify_conditions(RecurrenceCandidate(ctx, (word("T1*T2"),)))
    assert rep.a.status is Verdict.HOLDS  # pure identities, no evaluation needed
    assert rep.b.status is Verdict.UNKNOWN
    assert rep.c.status is Verdict.UNKNOWN
    assert rep.d.status is Verdict.UNKNOWN


def test_budget_note_names_the_context_budget():
    ctx = AbhyankarContext.build(6, GroebnerBudget(max_degree=12))
    rep = verify_conditions(RecurrenceCandidate(ctx, (word("T1*T2"),)))
    assert rep.budget_note == "groebner budget (12, 50000)"


def test_truncation_two_leaves_c_unknown():
    # the annihilator search needs f_3; at k = 2 condition c reports why
    ctx = AbhyankarContext.build(2)
    rep = verify_conditions(RecurrenceCandidate(ctx, (word("T1*T2"),)))
    assert rep.c.status is Verdict.UNKNOWN
    assert rep.c.certificate == ("search needs truncation at least 3",)
    assert rep.a.status is Verdict.UNKNOWN and rep.b.status is Verdict.UNKNOWN
    assert rep.d.status is Verdict.HOLDS


def test_report_determinism():
    ctx = AbhyankarContext.build(6)
    candidate = RecurrenceCandidate(ctx, (word("T1*T2"), word("T2")))
    first = verify_conditions(candidate)
    second = verify_conditions(candidate)
    assert first == second
    assert first.to_dict() == second.to_dict()


def test_report_serializes(recurrence_report):
    blob = json.dumps(recurrence_report.to_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["conditions"]["c"]["verdict"] == "fails"
    assert parsed["conditions"]["a"]["verdict"] == "holds"
    assert list(parsed["conditions"]) == ["a", "b", "c", "d"]


def test_summary_lines_cover_all_conditions(recurrence_report):
    text = "\n".join(recurrence_report.summary_lines())
    for letter in "abcd":
        assert f"{letter})" in text
    assert "HOLDS" in text and "FAILS" in text


def test_rejects_unknown_candidate_type():
    with pytest.raises(TypeError, match=r"^expected RecurrenceCandidate, got object$"):
        verify_conditions(object())
