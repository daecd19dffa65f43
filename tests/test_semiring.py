"""Presented semirings: word problem, idempotence, cancellativity,
preorder, L-sets, difference rings."""

import gc
import random
import weakref
from fractions import Fraction
from itertools import islice, product

import pytest

from semiring_lab import semiring
from semiring_lab.polynomials import (
    Domain,
    DomainError,
    Polynomial,
    format_poly,
    mono_deg,
    parse_poly,
    t_names,
)
from semiring_lab.semiring import (
    Budget,
    BudgetError,
    CancellativityReport,
    CongruenceClosure,
    DifferencePair,
    DifferenceRing,
    EvalHom,
    NotCancellativeError,
    Presentation,
    Separator,
    Step,
    TraceError,
    Tri,
    congruence_close,
    difference_embed,
    find_L,
    is_add_cancellative,
    is_add_idempotent,
    preorder_leq,
    replay_trace,
    words_equivalent,
)
from tests.oracles import random_poly, reference_explore, reference_words_equivalent

SEED = 91731


def P1(text: str) -> Polynomial:
    return parse_poly(text, t_names(1), Domain.NAT)


@pytest.fixture(scope="module")
def absorbing_one():
    return Presentation.from_text(1, "1 + 1 = 1")


@pytest.fixture(scope="module")
def successor_absorbed():
    # T + 1 ~ T: adding a unit near the variable disappears
    return Presentation.from_text(1, "T1 + 1 = T1")


@pytest.fixture(scope="module")
def free1():
    return Presentation.free(1)


# -- presentations ---------------------------------------------------------


def test_text_format_roundtrip(successor_absorbed):
    text = successor_absorbed.to_text()
    assert text == "T1 + 1 = T1"
    assert Presentation.from_text(1, text) == successor_absorbed


def test_text_format_skips_blank_lines():
    pres = Presentation.from_text(2, "\nT1*T2 = 1\n\n  T1 + T2 = T2  \n")
    assert len(pres.relations) == 2


def test_text_format_rejects_malformed_lines():
    with pytest.raises(ValueError):
        Presentation.from_text(1, "T1 + 1")
    with pytest.raises(ValueError):
        Presentation.from_text(1, "T1 = 1 = T1")


def test_relations_must_be_natural_domain():
    neg = parse_poly("T1 - 1", t_names(1), Domain.INT)
    with pytest.raises(DomainError):
        Presentation(1, ((neg.as_domain(Domain.NAT), P1("1")),))
    with pytest.raises(DomainError):
        Presentation(1, ((neg, P1("1")),))


def test_relation_arity_checked():
    with pytest.raises(ValueError):
        Presentation(2, ((P1("T1"), P1("1")),))


# -- budgets ---------------------------------------------------------------


@pytest.mark.parametrize(
    "field, low", [("max_degree", 0), ("max_coeff", 1), ("max_steps", 1)]
)
def test_budget_rejects_a_cap_below_its_floor(field, low):
    # the box-1 T1*T2 = 1 cone once called its trivial cell (0, 0) unknown
    # under a zero coefficient cap and a member under a negative degree cap
    assert getattr(Budget(**{field: low}), field) == low
    with pytest.raises(ValueError, match=f"budget {field} must be at least {low}, got {low - 1}"):
        Budget(**{field: low - 1})


# -- congruence closure ----------------------------------------------------


def test_closure_of_absorbing_one_derives_doubling(absorbing_one):
    cc = congruence_close(absorbing_one)
    rng = random.Random(SEED)
    for _ in range(20):
        p = random_poly(rng, 1, Domain.NAT, max_terms=3, max_exp=2, max_coeff=5)
        if p.is_zero or not cc.budget.admits(p + p):
            continue
        assert words_equivalent(p + p, p, cc).verdict is Tri.YES


def test_closure_of_free_presentation_has_no_components(free1):
    cc = congruence_close(free1)
    # only reflexive pairs hold
    assert words_equivalent(P1("T1"), P1("T1"), cc).verdict is Tri.YES
    assert words_equivalent(P1("T1"), P1("T1 + 1"), cc).verdict is Tri.NO


def test_closure_iterates_unit_absorption(successor_absorbed):
    cc = congruence_close(successor_absorbed)
    for k in range(1, 6):
        answer = words_equivalent(P1(f"T1 + {k}"), P1("T1"), cc)
        assert answer.verdict is Tri.YES
        assert len(answer.trace) == k


def test_closure_is_deterministic(successor_absorbed):
    a, b = congruence_close(successor_absorbed), congruence_close(successor_absorbed)
    assert a == b


# -- the word problem ------------------------------------------------------


def test_reflexivity_is_yes_with_empty_trace(free1):
    cc = congruence_close(free1)
    answer = words_equivalent(P1("2*T1 + 3"), P1("2*T1 + 3"), cc)
    assert answer.verdict is Tri.YES and answer.trace == ()


def test_two_step_derivation_and_replay(successor_absorbed):
    cc = congruence_close(successor_absorbed)
    start, end = P1("T1 + 2"), P1("T1")
    answer = words_equivalent(start, end, cc)
    assert answer.verdict is Tri.YES and len(answer.trace) == 2
    assert replay_trace(start, answer.trace, successor_absorbed) == end


def test_no_carries_a_separating_certificate(free1):
    cc = congruence_close(free1)
    answer = words_equivalent(P1("1 + 1"), P1("1"), cc)
    assert answer.verdict is Tri.NO
    assert answer.separator is not None
    assert answer.separator.kind in ("exhausted-component", "evaluation")


def test_unknown_when_nothing_certifies(successor_absorbed):
    # 2*T1 and T1: both components are infinite (clipped), and no positive
    # evaluation satisfies T1 + 1 = T1, so the engine must stay agnostic
    cc = congruence_close(successor_absorbed)
    answer = words_equivalent(P1("2*T1"), P1("T1"), cc)
    assert answer.verdict is Tri.UNKNOWN


def test_out_of_budget_words_rejected(free1):
    cc = congruence_close(free1, Budget(max_degree=2, max_coeff=4))
    with pytest.raises(BudgetError):
        words_equivalent(P1("T1^3"), P1("T1"), cc)
    with pytest.raises(BudgetError):
        words_equivalent(P1("T1"), P1("5"), cc)


def test_non_natural_words_rejected(free1):
    cc = congruence_close(free1)
    p_int = parse_poly("T1", t_names(1), Domain.INT)
    with pytest.raises(DomainError):
        words_equivalent(p_int, p_int, cc)


def test_yes_traces_always_replay(successor_absorbed, absorbing_one):
    rng = random.Random(SEED + 1)
    budget = Budget(max_degree=4, max_coeff=16, max_steps=4000)
    yes_seen = 0
    for pres in (successor_absorbed, absorbing_one):
        cc = congruence_close(pres, budget)
        for _ in range(15):
            p = random_poly(rng, 1, Domain.NAT, max_terms=3, max_exp=2, max_coeff=4)
            q = random_poly(rng, 1, Domain.NAT, max_terms=3, max_exp=2, max_coeff=4)
            answer = words_equivalent(p, q, cc)
            if answer.verdict is Tri.YES:
                assert replay_trace(p, answer.trace, pres) == q
                yes_seen += 1
    assert yes_seen >= 3


def test_broken_trace_raises(successor_absorbed):
    bogus = (Step(rel_index=0, forward=True, shift=(0,), mult=3),)
    with pytest.raises(TraceError):
        replay_trace(P1("T1"), bogus, successor_absorbed)


def test_closure_monotonicity(successor_absorbed):
    small = congruence_close(successor_absorbed, Budget(max_degree=3, max_coeff=8, max_steps=2000))
    large = congruence_close(successor_absorbed, Budget(max_degree=6, max_coeff=64, max_steps=100_000))
    rng = random.Random(SEED + 2)
    checked = 0
    for _ in range(30):
        p = random_poly(rng, 1, Domain.NAT, max_terms=2, max_exp=1, max_coeff=3)
        q = random_poly(rng, 1, Domain.NAT, max_terms=2, max_exp=1, max_coeff=3)
        if words_equivalent(p, q, small).verdict is Tri.YES:
            assert words_equivalent(p, q, large).verdict is Tri.YES
            checked += 1
    assert checked >= 3


# -- additive idempotence --------------------------------------------------


def test_idempotent_when_relation_given(absorbing_one):
    assert is_add_idempotent(absorbing_one).verdict is Tri.YES


def test_free_semiring_not_idempotent(free1):
    answer = is_add_idempotent(free1)
    assert answer.verdict is Tri.NO and answer.separator is not None


def test_variable_idempotence_does_not_reach_the_unit():
    # T*T ~ T and T+T ~ T say nothing about 1+1: the unit's component is the
    # isolated {2}, which certifies that 1+1 ~ 1 is underivable
    pres = Presentation.from_text(1, "T1*T1 = T1\nT1 + T1 = T1")
    answer = is_add_idempotent(pres)
    assert answer.verdict is not Tri.YES
    if answer.verdict is Tri.NO:
        assert answer.separator.kind == "exhausted-component"


def test_doubling_collapses_for_all_words_once_units_collapse(absorbing_one):
    cc = congruence_close(absorbing_one)
    for text in ("T1", "T1 + 1", "T1^2 + 2*T1", "3"):
        p = P1(text)
        assert words_equivalent(p + p, p, cc).verdict is Tri.YES


# -- additive cancellativity -----------------------------------------------


def test_rational_target_is_cancellative():
    hom = EvalHom((Fraction(3, 2),))
    report = is_add_cancellative(hom)
    assert report.verdict is Tri.YES


def test_free_semiring_is_cancellative(free1):
    assert is_add_cancellative(free1).verdict is Tri.YES


def test_unit_absorption_breaks_cancellativity(successor_absorbed):
    report = is_add_cancellative(successor_absorbed)
    assert report.verdict is Tri.NO
    a, b, c = report.witness
    assert (a, b, c) == (P1("1"), P1("0"), P1("T1"))
    # witness validity: a + c ~ b + c derivable, a ~ b refuted
    cc = congruence_close(successor_absorbed)
    assert words_equivalent(a + c, b + c, cc).verdict is Tri.YES
    assert words_equivalent(a, b, cc).verdict is Tri.NO


# -- the natural preorder --------------------------------------------------


def test_rational_preorder_examples():
    hom = EvalHom((Fraction(1),))
    yes = preorder_leq(Fraction(2, 3), Fraction(5, 3), hom)
    assert yes.verdict is Tri.YES and yes.witness == Fraction(1)
    assert preorder_leq(Fraction(5), Fraction(5), hom).verdict is Tri.NO
    assert preorder_leq(Fraction(5), Fraction(2), hom).verdict is Tri.NO


def test_rational_preorder_is_strict_order_randomized():
    hom = EvalHom((Fraction(1),))
    rng = random.Random(SEED + 3)
    for _ in range(200):
        a = Fraction(rng.randint(1, 60), rng.randint(1, 30))
        b = Fraction(rng.randint(1, 60), rng.randint(1, 30))
        answer = preorder_leq(a, b, hom)
        assert (answer.verdict is Tri.YES) == (a < b)
        if answer.verdict is Tri.YES:
            assert answer.witness == b - a > 0


def test_rational_preorder_transitivity_randomized():
    hom = EvalHom((Fraction(1),))
    rng = random.Random(SEED + 4)
    for _ in range(200):
        a, b, c = (Fraction(rng.randint(1, 40), rng.randint(1, 20)) for _ in range(3))
        if (
            preorder_leq(a, b, hom).verdict is Tri.YES
            and preorder_leq(b, c, hom).verdict is Tri.YES
        ):
            assert preorder_leq(a, c, hom).verdict is Tri.YES


def test_presentation_preorder_with_witness(successor_absorbed, free1):
    answer = preorder_leq(P1("T1"), P1("T1 + 3"), successor_absorbed)
    assert answer.verdict is Tri.YES and answer.witness == P1("3")
    # in a presentation 0 is an element, so the preorder is reflexive
    assert preorder_leq(P1("T1"), P1("T1"), free1).verdict is Tri.YES
    assert preorder_leq(P1("T1"), P1("1"), free1).verdict is Tri.NO
    # and unit absorption makes T+3 <= T hold as well (the preorder is not an order)
    back = preorder_leq(P1("T1 + 3"), P1("T1"), successor_absorbed)
    assert back.verdict is Tri.YES


# the presentations of scripts/explore_idempotent_presentations.py and four
# two-variable ones
CATALOG = [
    (1, None),
    (1, "1 = 0"),
    (1, "1 + 1 = 1"),
    (1, "T1 + 1 = T1"),
    (1, "T1 = 1"),
    (1, "T1^2 = T1"),
    (1, "T1 + T1 = T1"),
    (1, "T1 + T1 = 1"),
    (2, "T1*T2 = 1"),
    (2, "T1 + T2 = T2"),
    (2, "T1^2 = T2"),
    (2, "T1 = 0"),
]


def test_closure_preorder_matches_presentation_preorder():
    # the closure's exploration memo must not change any verdict or witness,
    # whatever order the queries come in
    budget = Budget(max_degree=4, max_coeff=8, max_steps=300)
    rng = random.Random(SEED + 6)
    for nvars, text in CATALOG:
        pres = Presentation.free(nvars) if text is None else Presentation.from_text(nvars, text)
        words = [
            random_poly(rng, nvars, Domain.NAT, max_terms=2, max_exp=2, max_coeff=3)
            for _ in range(5)
        ]
        pairs = [(a, b) for a in words for b in words[:3]]
        expected = [preorder_leq(a, b, pres, budget) for a, b in pairs]
        cc = congruence_close(pres, budget)
        assert [preorder_leq(a, b, cc) for a, b in pairs] == expected
        assert [preorder_leq(a, b, cc, budget) for a, b in reversed(pairs)] == expected[::-1]
        fresh = congruence_close(pres, budget)
        assert [preorder_leq(a, b, fresh) for a, b in reversed(pairs)] == expected[::-1]


_CAP = "witness search attempt cap reached"
_NONE_FOUND = "no witness found within budget"
_SEPARATED = "a + c ~ b + c derivable yet a and b separated"
# is_add_cancellative over CATALOG: verdict, witness (a, b, c) and reason,
# the same at each budget of the test below
CANCELLATIVITY = {
    None: ("yes", None, "free semiring: polynomial addition over N cancels"),
    "1 = 0": ("unknown", None, _CAP),
    "1 + 1 = 1": ("no", ("1", "0", "1"), _SEPARATED),
    "T1 + 1 = T1": ("no", ("1", "0", "T1"), _SEPARATED),
    "T1 = 1": ("unknown", None, _NONE_FOUND),
    "T1^2 = T1": ("unknown", None, _NONE_FOUND),
    "T1 + T1 = T1": ("no", ("T1", "0", "T1"), _SEPARATED),
    "T1 + T1 = 1": ("unknown", None, _CAP),
    "T1*T2 = 1": ("unknown", None, _NONE_FOUND),
    "T1 + T2 = T2": ("no", ("T1", "0", "T2"), _SEPARATED),
    "T1^2 = T2": ("unknown", None, _NONE_FOUND),
    "T1 = 0": ("unknown", None, _CAP),
}


@pytest.mark.parametrize(
    "budget",
    [Budget(), Budget(8, 64, 50000), Budget(4, 8, 300)],
    ids=["library-default", "cli-default", "small"],
)
def test_cancellativity_over_the_catalog(budget):
    for nvars, text in CATALOG:
        report = is_add_cancellative(_catalog_presentation(nvars, text), budget)
        witness = report.witness and tuple(format_poly(p, t_names(nvars)) for p in report.witness)
        assert (report.verdict.value, witness, report.reason) == CANCELLATIVITY[text], text


def test_rewrite_kernel_matches_step_replay():
    # _iter_rewrites computes results on term dicts; Step.apply replays each
    # step through public arithmetic, independently of it
    budget = Budget(max_degree=4, max_coeff=8, max_steps=300)
    rng = random.Random(SEED + 7)
    yielded = clipped = 0
    for nvars, text in CATALOG:
        pres = Presentation.free(nvars) if text is None else Presentation.from_text(nvars, text)
        words = [
            random_poly(rng, nvars, Domain.NAT, max_terms=3, max_exp=2, max_coeff=4)
            for _ in range(4)
        ]
        # start words outside the box: a coefficient and a degree too large
        unit = (0,) * nvars
        words.append(Polynomial(nvars, Domain.NAT, {unit: 9, (1,) + unit[1:]: 2}))
        words.append(Polynomial(nvars, Domain.NAT, {(5,) + unit[1:]: 1, unit: 1}))
        for word in words:
            for step, result in semiring._iter_rewrites(word, pres, budget):
                replayed = step.apply(word, pres)
                yielded += 1
                if budget.admits(replayed):
                    assert result == replayed, (text, format_poly(word), step)
                else:
                    assert result is None, (text, format_poly(word), step)
                    clipped += 1
    assert yielded > clipped > 0


def test_zero_side_shifts_match_the_filtered_product():
    for n in range(4):
        for max_degree in range(6):
            for head in range(max_degree + 2):
                expected = sorted(
                    u
                    for u in product(range(max_degree + 1), repeat=n)
                    if mono_deg(u) + head <= max_degree
                )
                assert list(semiring._bounded_exponents(n, max_degree - head)) == expected


def test_zero_side_rewrite_does_not_enumerate_the_full_box(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the full exponent box was enumerated")

    monkeypatch.setattr(semiring, "product", refuse)
    pres = Presentation.from_text(8, "0 = T1")
    word = Polynomial.one(8, Domain.NAT)
    step, result = next(semiring._iter_rewrites(word, pres, Budget(max_degree=8)))
    assert step == Step(0, True, (0,) * 8, 1)
    assert result == word + Polynomial.variable(8, 0, Domain.NAT)


def _catalog_presentation(nvars, text):
    return Presentation.free(nvars) if text is None else Presentation.from_text(nvars, text)


# the packed path against the dict path: the catalog, a relation coefficient
# above 1 in two variables, a zero relation side in one variable, and two
# relations that rewrite a start word outside the box to one word twice
PACKED_CATALOG = CATALOG + [(2, "2*T1 = 1"), (1, "T1 = 0"), (1, "2 = 1\n3 = 2")]


def _outcome(result):
    if result is None:
        return "clipped"
    return "known" if result is semiring._KNOWN else result


def _dict_path_rewrites(start, pres, budget):
    """(word, step, outcome) of a breadth-first search on the dict path,
    drawing at most max_steps + 1 rewrites; outcome is the new word,
    "known" or "clipped"."""
    members, queue, out = {start}, [start], []
    for word in queue:
        for step, result in semiring._iter_rewrites(word, pres, budget):
            if len(out) > budget.max_steps:
                return out
            if result is not None and result in members:
                result = semiring._KNOWN
            elif result is not None:
                members.add(result)
                queue.append(result)
            out.append((word, step, _outcome(result)))
    return out


def _start_words(rng, pres, budget):
    nvars, unit = pres.nvars, (0,) * pres.nvars
    words = [pres.one, pres.one + pres.one]
    words += [side for rel in pres.relations for side in rel if budget.admits(side)]
    words += [
        random_poly(rng, nvars, Domain.NAT, max_terms=2, max_exp=2, max_coeff=3) for _ in range(2)
    ]
    # outside the box: a coefficient and a degree above the caps
    words.append(Polynomial(nvars, Domain.NAT, {unit: budget.max_coeff + 1, (1,) + unit[1:]: 1}))
    words.append(Polynomial(nvars, Domain.NAT, {(budget.max_degree + 1,) + unit[1:]: 1, unit: 1}))
    return words


@pytest.mark.parametrize(
    "budget", [Budget(4, 8, 300), Budget(5, 8, 5000)], ids=["small", "cone-scan"]
)
def test_packed_path_matches_the_dict_path(budget):
    rng = random.Random(SEED + 9)
    for nvars, text in PACKED_CATALOG:
        pres = _catalog_presentation(nvars, text)
        table = semiring._RewriteTable(pres, budget)  # shared, as in one closure
        for start in _start_words(rng, pres, budget):
            expected = _dict_path_rewrites(start, pres, budget)
            packed = semiring._rewrites(start, pres, budget, table)
            got = [(w, s, _outcome(r)) for w, s, r in islice(packed, len(expected))]
            assert got == expected, (text, format_poly(start))
            reference = reference_explore(start, pres, budget)
            search = semiring._Exploration(start, pres, budget, table)
            search.find(lambda _: False, budget.max_steps)
            assert list(search.members.items()) == list(reference.members.items()), text
            assert (search.steps_used, search.complete) == (
                reference.steps_used,
                reference.complete,
            ), (text, format_poly(start))
            # equal (parent, step) entries make equal traces; replay the deepest
            last = list(search.members)[-1]
            assert replay_trace(start, search.trace_to(last), pres) == last


@pytest.mark.parametrize(
    "nvars, text, start",
    [(1, "1 = 0", "T1 + 1"), (1, "3 = 0", "T1 + 1"), (2, "T1 = 3*T2", "{c}*T1 + {c}*T2")],
)
@pytest.mark.parametrize("max_coeff", [1, 2, 3, 7, 8, 9, 15, 64])
def test_packed_cap_admits_the_cap_and_clips_above_it(nvars, text, start, max_coeff):
    # every rewrite of an in-box start is keyed and tested against the cap:
    # under 0 -> c one coefficient grows by c*mult, so with c = 1 one
    # reaches the cap exactly and one lands just above it; under
    # T1 -> 3*T2 from the corner of the box a field grows to 4*max_coeff
    pres = Presentation.from_text(nvars, text)
    budget = Budget(max_degree=2, max_coeff=max_coeff, max_steps=100)
    start = parse_poly(start.format(c=max_coeff), t_names(nvars), Domain.NAT)
    table = semiring._RewriteTable(pres, budget)
    over = set()  # the largest coefficient minus the cap, per rewrite
    for word, step, result in semiring._rewrites(start, pres, budget, table):
        if word != start:
            break
        replayed = step.apply(start, pres)
        assert (result is not None) == budget.admits(replayed), step
        assert result is None or result == replayed
        over.add(replayed.max_coeff_abs() - max_coeff)
    assert max(over) > 0
    if text == "1 = 0":
        assert {0, 1} <= over


def test_a_search_that_draws_no_rewrite_keys_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a word was keyed")

    monkeypatch.setattr(semiring._RewriteTable, "encode", refuse)
    budget = Budget(max_degree=4, max_coeff=8, max_steps=300)
    one = Polynomial.one(2, Domain.NAT)
    # no rewrite applies to 1 under T1^2 = T2, and the free presentation has none
    for pres in (Presentation.from_text(2, "T1^2 = T2"), Presentation.free(2)):
        search = semiring._Exploration(one, pres, budget)
        assert search.find(lambda _: False, budget.max_steps) is None
        assert search.complete and list(search.members) == [one]
    # 1 <= 2 is answered by the start word: nothing is drawn or built
    cc = congruence_close(Presentation.from_text(2, "T1*T2 = 1"), budget)
    assert preorder_leq(one, one + one, cc).verdict is Tri.YES
    assert "sides" not in vars(cc._table)
    # the first rewrite of 1 under T1*T2 = 1 keys the start word
    with pytest.raises(AssertionError, match="a word was keyed"):
        preorder_leq(Polynomial.variable(2, 0, Domain.NAT), one, cc)


def _advanced(start, pres, budget, *caps):
    search = semiring._Exploration(start, pres, budget)
    for cap in caps:
        assert search.find(lambda _: False, cap) is None
    return search


def test_search_matches_the_reference_search_at_every_cap():
    # the resumable search must reproduce a from-scratch search exactly:
    # members and their order, parents and steps, completeness and step
    # counts, at and around every cap boundary, however it was advanced
    rng = random.Random(SEED + 8)
    for nvars, text in CATALOG:
        pres = _catalog_presentation(nvars, text)
        box = Budget(max_degree=2, max_coeff=2, max_steps=10**6)
        words = [pres.one, pres.one + pres.one]
        words += [side for rel in pres.relations for side in rel if box.admits(side)]
        while len(words) < 8:
            word = random_poly(rng, nvars, Domain.NAT, max_terms=3, max_exp=2, max_coeff=2)
            if box.admits(word):
                words.append(word)
        for start in words:
            n = reference_explore(start, pres, box).steps_used
            # a budget caps steps at 1 or more
            for cap in sorted({1, 2, max(n // 2, 1), max(n - 1, 1), max(n, 1), n + 1}):
                budget = Budget(max_degree=2, max_coeff=2, max_steps=cap)
                expected = reference_explore(start, pres, budget)
                fresh = _advanced(start, pres, budget, cap)
                resumed = _advanced(start, pres, budget, min(n // 2, cap), cap)
                for search in (fresh, resumed):
                    assert list(search.members) == list(expected.members), (text, start, cap)
                    assert search.members == expected.members
                    assert (search.complete, search.steps_used) == (
                        expected.complete,
                        expected.steps_used,
                    ), (text, start, cap)
                assert resumed.members == fresh.members
                cc = congruence_close(pres, budget)
                for target in words:
                    answer = words_equivalent(start, target, cc)
                    assert answer == reference_words_equivalent(start, target, pres, budget), (
                        text,
                        format_poly(start),
                        format_poly(target),
                        cap,
                    )
                    if answer.verdict is Tri.YES:
                        assert replay_trace(start, answer.trace, pres) == target


def test_queries_free_their_searches_on_return(monkeypatch):
    # a search that formed a reference cycle with its rewrite generator would
    # outlive the query with the cycle collector off
    refs = []
    exploration = semiring._Exploration

    def tracking(*args):
        search = exploration(*args)
        refs.append(weakref.ref(search))
        return search

    monkeypatch.setattr(semiring, "_Exploration", tracking)
    budget = Budget(max_degree=3, max_coeff=4, max_steps=400)
    gc.disable()
    try:
        for nvars, text in CATALOG:
            pres = _catalog_presentation(nvars, text)
            queries = [
                lambda: words_equivalent(pres.one + pres.one, pres.one, congruence_close(pres, budget)),
                lambda: find_L(pres, budget, search_degree=1),
            ]
            if pres.relations:  # the free presentation is cancellative without a search
                queries.append(lambda: is_add_cancellative(pres, budget))
            for query in queries:
                refs.clear()
                query()
                assert refs, text
                assert all(ref() is None for ref in refs), text
    finally:
        gc.enable()


def test_oversized_exponent_list_fails_before_building():
    # n = 8, D = 8 is the largest list the defaults build; C(25, 8) is the
    # smallest eight-variable count over the limit
    assert len(semiring._bounded_exponents(8, 8)) == 12_870
    with pytest.raises(BudgetError, match="1,081,575 .* limit of 1,000,000"):
        semiring._bounded_exponents(8, 17)


def test_oversized_shift_list_fails_before_any_search():
    # the zero-side shift list depends only on n, the degree budget and the
    # relations, so the error comes before any member is found, and again on
    # every later query against the same closure
    pres = Presentation.from_text(8, "T1 = 0")
    cc = congruence_close(pres, Budget(max_degree=18))
    word = Polynomial.variable(8, 0, Domain.NAT)
    for _ in range(2):
        with pytest.raises(BudgetError, match=r"1,081,575 .*\(lower --deg or --nvars\)"):
            preorder_leq(word, word, cc)
        with pytest.raises(BudgetError):
            words_equivalent(word, word, cc)


def _failing_rewrites(after):
    # the one-step rewrites, with the draw after the first ``after`` raising
    def rewrites(word, pres, budget, *rest):
        for step, result in iter_rewrites(word, pres, budget, *rest):
            if counter[0] == after:
                raise RuntimeError("draw failed")
            counter[0] += 1
            yield step, result

    iter_rewrites, counter = semiring._iter_rewrites, [0]
    return rewrites


def test_search_resumed_after_a_failed_draw_answers_as_a_fresh_one(monkeypatch, successor_absorbed):
    budget = Budget(max_degree=3, max_coeff=4, max_steps=400)
    start = Polynomial.variable(1, 0, Domain.NAT)
    full = semiring._Exploration(start, successor_absorbed, budget)
    full.find(lambda _: False, 400)
    found = list(full.members)
    assert len(found) > 3
    # the draw right after the one that found the third member fails
    after = reference_explore(start, successor_absorbed, budget, target=found[2]).steps_used
    monkeypatch.setattr(semiring, "_iter_rewrites", _failing_rewrites(after))
    search = semiring._Exploration(start, successor_absorbed, budget)
    # the target is returned without drawing past it
    assert search.find(lambda w: w == found[2], 400) == found[2]
    for _ in range(2):
        with pytest.raises(RuntimeError, match="draw failed"):
            search.find(lambda w: w == found[3], 400)
        with pytest.raises(RuntimeError, match="draw failed"):
            search.complete
    assert search.find(lambda w: w == found[1], 400) == found[1]


def test_closure_preorder_rejects_another_budget(successor_absorbed):
    cc = congruence_close(successor_absorbed, Budget(max_degree=3, max_coeff=8, max_steps=2000))
    with pytest.raises(ValueError):
        preorder_leq(P1("T1"), P1("T1 + 1"), cc, Budget())


# -- the set L -------------------------------------------------------------


def test_absorbed_unit_generates_L(successor_absorbed):
    L = find_L(successor_absorbed)
    for text in ("T1", "T1 + 1", "2*T1", "T1^2"):
        assert P1(text) in L
    assert P1("1") not in L and P1("2") not in L


def test_L_is_stable_under_adding_elements(successor_absorbed):
    cc = congruence_close(successor_absorbed)
    L = find_L(successor_absorbed)
    one = P1("1")
    for ell in L[:6]:
        for probe in (P1("1"), P1("T1"), P1("T1^2 + 2")):
            bumped = ell + probe
            if cc.budget.admits(bumped + one):
                assert words_equivalent(bumped + one, bumped, cc).verdict is Tri.YES


def test_free_and_rational_L_are_empty(free1):
    assert find_L(free1) == ()
    assert find_L(EvalHom((Fraction(7, 3),))) == ()


def test_find_L_deterministic(successor_absorbed):
    assert find_L(successor_absorbed) == find_L(successor_absorbed)


# -- difference rings ------------------------------------------------------


def c0(k: int) -> Polynomial:
    return Polynomial.constant(0, k, Domain.NAT)


def test_difference_pairs_over_naturals():
    ring = DifferenceRing(Presentation.free(0))
    assert ring.equal(ring.pair(c0(3), c0(1)), ring.pair(c0(5), c0(3)))
    sq = ring.mul(ring.pair(c0(2), c0(1)), ring.pair(c0(2), c0(1)))
    assert (sq.minuend, sq.subtrahend) == (c0(5), c0(4))
    assert ring.equal(sq, ring.one())


def test_difference_ring_is_isomorphic_to_integers():
    ring = DifferenceRing(Presentation.free(0))
    rng = random.Random(SEED + 5)

    def lift(z: int) -> DifferencePair:
        return ring.pair(c0(max(z, 0)), c0(max(-z, 0)))

    def drop(pair: DifferencePair) -> int:
        return int(pair.minuend.evaluate([])) - int(pair.subtrahend.evaluate([]))

    for _ in range(300):
        x = rng.randint(-100, 100)
        y = rng.randint(-100, 100)
        assert drop(ring.add(lift(x), lift(y))) == x + y
        assert drop(ring.mul(lift(x), lift(y))) == x * y
        assert ring.equal(lift(x), lift(y)) == (x == y)
        assert drop(ring.neg(lift(x))) == -x


def test_embedding_respects_equality():
    ring = DifferenceRing(Presentation.free(1))
    s = P1("2*T1 + 1")
    t = P1("2*T1 + 1")
    assert ring.equal(ring.embed(s), ring.embed(t))
    assert not ring.equal(ring.embed(s), ring.embed(P1("2*T1")))


def test_construction_refused_for_non_cancellative_input(successor_absorbed):
    with pytest.raises(NotCancellativeError) as exc_info:
        DifferenceRing(successor_absorbed)
    assert exc_info.value.witness == (P1("1"), P1("0"), P1("T1"))
    with pytest.raises(NotCancellativeError):
        difference_embed(P1("T1"), P1("1"), successor_absorbed)


def test_difference_embed_over_free_structure(free1):
    pair = difference_embed(P1("T1 + 2"), P1("T1"), free1)
    assert pair == DifferencePair(P1("T1 + 2"), P1("T1"))
