"""Tests for bounded-subset predicates, exponent cones, purity, interior
points, cone-derived fraction witnesses, and the four-condition verifier."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from semiring_lab.abhyankar import AbhyankarContext
from semiring_lab.conjectures import (
    BoundClass,
    BoundedSubsetPredicate,
    Cone,
    ConditionReport,
    RecurrenceCandidate,
    UnitIdealCandidate,
    Verdict,
    cone_dim,
    cone_enumerate,
    find_interior_u,
    one_plus_Tu_in_P,
    purity_check,
    qf_from_cone,
    verify_conditions,
)
from semiring_lab.groebner import GroebnerBudget
from semiring_lab.polynomials import Domain, DomainError, Polynomial, parse_poly, t_names
from semiring_lab import semiring
from semiring_lab.semiring import Budget, EvalHom, Presentation, Tri
from tests.oracles import purity_violations, semigroup_within_box

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


# -- cone dimension ---------------------------------------------------------


def test_dim_examples(ev):
    full = cone_enumerate(ev, 4)
    assert cone_dim(full) == 2
    assert cone_dim(Cone(2, 0, frozenset({(0, 0)}), (), "origin")) == 0
    diagonal = Cone(2, 4, frozenset({(k, k) for k in range(5)}), (), "diagonal")
    assert cone_dim(diagonal) == 1


def test_dim_bounded_by_nvars_and_full_with_units():
    rng = random.Random(SEED + 1)
    for _ in range(50):
        n = rng.randint(1, 3)
        members = {
            tuple(rng.randint(0, 4) for _ in range(n))
            for _ in range(rng.randint(1, 8))
        }
        c = Cone(n, 4, frozenset(members), (), "random")
        assert 0 <= cone_dim(c) <= n
        with_units = frozenset(members) | {
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        }
        assert cone_dim(Cone(n, 4, with_units, (), "random+units")) == n


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
    diagonal = Cone(2, 4, frozenset({(k, k) for k in range(5)}), (), "diagonal")
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
        c = Cone(n, 3, members, (), "random")
        u = find_interior_u(c)
        if u is not None:
            found += 1
            assert u in members
            for i in range(n):
                shifted = tuple(x + (1 if i == j else 0) for j, x in enumerate(u))
                assert shifted in members
    assert found >= 5


# -- two-sided boundedness of 1 + T^u ---------------------------------------


def test_one_plus_monomial_on_evaluation(ev):
    assert one_plus_Tu_in_P((2, 3), ev).answer is Tri.YES
    assert one_plus_Tu_in_P((0, 0), ev).answer is Tri.YES


def test_one_plus_monomial_unknown_propagates(absorbing):
    verdict = one_plus_Tu_in_P((1,), absorbing, SMALL, max_bound=4)
    assert verdict.answer is Tri.UNKNOWN


def test_one_plus_monomial_derivable_bound(collapse_to_one):
    verdict = one_plus_Tu_in_P(
        (1,), collapse_to_one, Budget(max_degree=5, max_coeff=8, max_steps=4000)
    )
    assert verdict.answer is Tri.YES
    assert verdict.lower == 1 and verdict.upper == 2


def test_one_plus_monomial_arity_check(ev):
    with pytest.raises(ValueError):
        one_plus_Tu_in_P((1,), ev)


# -- fraction witnesses from cones ------------------------------------------


def test_qf_from_full_box(ev):
    c = cone_enumerate(ev, 4)
    witnesses = qf_from_cone(c)
    assert len(witnesses) == 2
    assert witnesses[0].denominator_exp == (0, 0)
    assert witnesses[0].numerator_exp == (1, 0)
    assert witnesses[1].numerator_exp == (0, 1)
    assert all(w.valid for w in witnesses)


def test_qf_from_diagonal_not_found():
    diagonal = Cone(2, 4, frozenset({(k, k) for k in range(5)}), (), "diagonal")
    assert qf_from_cone(diagonal) is None


def test_qf_off_origin_interior():
    c = Cone(2, 3, frozenset({(1, 1), (2, 1), (1, 2)}), (), "synthetic")
    witnesses = qf_from_cone(c)
    assert witnesses is not None
    assert witnesses[0].denominator_exp == (1, 1)
    assert witnesses[0].numerator_exp == (2, 1)
    assert witnesses[1].numerator_exp == (1, 2)
    assert all(w.valid for w in witnesses)
    # expansion oracle: T_i * T^u really is T^(u + e_i)
    t1 = Polynomial.variable(2, 0, Domain.NAT)
    t2 = Polynomial.variable(2, 1, Domain.NAT)
    u = Polynomial.monomial((1, 1), 1, Domain.NAT)
    assert t1 * u == Polynomial.monomial((2, 1), 1, Domain.NAT)
    assert t2 * u == Polynomial.monomial((1, 2), 1, Domain.NAT)


def test_qf_custom_oracle_flags_failures():
    c = Cone(2, 3, frozenset({(1, 1), (2, 1), (1, 2)}), (), "synthetic")
    witnesses = qf_from_cone(c, member_oracle=lambda v: v == (1, 1))
    assert witnesses is not None
    assert not witnesses[0].numerator_in_subring
    assert witnesses[0].denominator_in_subring
    assert not witnesses[0].valid


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
    assert w.valid
    assert w.residual.is_zero
    assert w.h.evaluate_ambient(w.element).is_zero


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


def test_degenerate_candidate():
    rep = verify_conditions(UnitIdealCandidate())
    assert rep.a.status is Verdict.HOLDS
    assert rep.b.status is Verdict.HOLDS
    assert rep.c.status is Verdict.HOLDS
    assert rep.d.status is Verdict.FAILS
    assert rep.d.witness == Polynomial.one(2, Domain.INT)
    assert rep.truncation is None


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
    with pytest.raises(TypeError):
        verify_conditions(object())
