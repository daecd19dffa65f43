"""Groebner engine: canonical bases, certificates, elimination, budgets."""

import dataclasses
import hashlib
import math
import random
import time
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction

import pytest
import sympy

from semiring_lab import groebner
from semiring_lab.abhyankar import AbhyankarContext
from semiring_lab.polynomials import (
    ArityError,
    Domain,
    GRLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    elimination,
    format_poly,
    mono_div,
    mono_mul,
    parse_poly,
    t_names,
    x_names,
)
from semiring_lab.groebner import (
    BudgetExceededError,
    GroebnerBasis,
    GroebnerBudget,
    MembershipStatus,
    buchberger,
    ideal_membership,
    normal_form,
    relation_ideal,
    subalgebra_membership,
    tag_ring_generators,
)
from tests.oracles import (
    add_product,
    closed_form_generator,
    ideal_membership_by_linear_algebra,
    ideal_memberships_by_linear_algebra,
    jacobian_determinant,
    random_poly,
    reference_cofactors,
    reference_combo_update,
    reference_substitute,
)

T = t_names(2)
SEED = 48203


def p2(text: str) -> Polynomial:
    return parse_poly(text, T, Domain.RAT)


@pytest.fixture(scope="module")
def gens():
    return {n: closed_form_generator(n) for n in range(2, 7)}


# -- basis construction ----------------------------------------------------


def test_already_reduced_inputs_pass_through():
    t1 = p2("T1")
    t2 = p2("T2")
    gb = buchberger([t1, t2])
    assert set(gb.generators) == {t1, t2}
    assert gb.reduced
    gb_principal = buchberger([p2("T1 - 1")])
    assert gb_principal.generators == (p2("T1 - 1"),)


def test_output_is_monic_and_autoreduced():
    gb = buchberger([p2("2*T1^2 + T2"), p2("3*T1*T2 - 1")], GRLEX)
    for g in gb.generators:
        _, lc = g.leading_term(GRLEX)
        assert lc == 1
    for i, g in enumerate(gb.generators):
        others = [h for j, h in enumerate(gb.generators) if j != i]
        if others:
            sub_gb = buchberger(others, GRLEX)
            for exp, _ in g.terms():
                for h in gb.generators:
                    if h is not g:
                        lm, _ = h.leading_term(GRLEX)
                        assert any(a < b for a, b in zip(exp, lm)) or exp != lm


def test_every_spolynomial_of_output_reduces_to_zero():
    rng = random.Random(SEED)
    for _ in range(10):
        raw = [random_poly(rng, 2, Domain.INT, max_terms=3, max_exp=3) for _ in range(3)]
        raw = [g for g in raw if not g.is_zero]
        if not raw:
            continue
        gb = buchberger(raw, GRLEX)
        gens_list = list(gb.generators)
        for i in range(len(gens_list)):
            for j in range(i + 1, len(gens_list)):
                assert gb.normal_form(_s_polynomial(gens_list[i], gens_list[j], GRLEX)).is_zero


def test_reduced_basis_independent_of_input_order():
    rng = random.Random(SEED + 1)
    for _ in range(10):
        raw = [random_poly(rng, 2, Domain.INT, max_terms=3, max_exp=3) for _ in range(3)]
        raw = [g for g in raw if not g.is_zero]
        if len(raw) < 2:
            continue
        shuffled = list(raw)
        rng.shuffle(shuffled)
        assert buchberger(raw, GRLEX).generators == buchberger(shuffled, GRLEX).generators


def test_determinism_repeated_runs():
    gens_list = [p2("T1^2*T2 - 1"), p2("T1*T2^2 - T1")]
    a = buchberger(gens_list, LEX)
    b = buchberger(gens_list, LEX)
    assert a.generators == b.generators and a.steps_used == b.steps_used


@pytest.mark.parametrize("max_steps", [3, 10, 50_000])
@pytest.mark.parametrize("kind", ["lex", "grlex", "elim"])
def test_complete_and_partial_bases_are_interreduced_randomized(kind, max_steps):
    rng = random.Random(f"finalize:{kind}:{max_steps}")
    partial = 0
    for _ in range(30):
        nvars = rng.randint(2, 3)
        order = elimination(rng.randint(1, nvars - 1)) if kind == "elim" else MonomialOrder(kind)
        gens_list = [
            random_poly(rng, nvars, Domain.INT, max_terms=4, max_exp=2)
            for _ in range(rng.randint(2, 4))
        ]
        gens_list = [g for g in gens_list if not g.is_zero]
        if not gens_list:
            continue
        runs = []
        for track in (False, True):
            try:
                runs.append(buchberger(gens_list, order, GroebnerBudget(max_steps=max_steps), track))
            except BudgetExceededError as exc:
                runs.append(exc.partial)
        gb, tracked = runs
        assert gb.generators == tracked.generators and gb.steps_used == tracked.steps_used
        partial += not gb.reduced
        leading = [g.leading_term(order) for g in gb.generators]
        assert all(lc == 1 for _, lc in leading)
        keys = [order.key(lm) for lm, _ in leading]
        assert keys == sorted(set(keys))
        for i, g in enumerate(gb.generators):
            for u in g.support():
                for j, (lm, _) in enumerate(leading):
                    assert i == j or not all(a >= b for a, b in zip(u, lm)), (gens_list, g)
    if max_steps < 50_000:
        assert partial  # truncated bases were checked too


def _random_generators(
    rng: random.Random, nvars: tuple[int, int], count: int, max_exp: int = 2
) -> list[list[Polynomial]]:
    """``count`` lists of two or three random integer polynomials, zeros
    dropped and no list empty, each in a number of variables drawn from
    ``nvars``."""
    out = []
    while len(out) < count:
        n = rng.randint(*nvars)
        drawn = [random_poly(rng, n, Domain.INT, max_terms=3, max_exp=max_exp) for _ in range(rng.randint(2, 3))]
        if gens_list := [g for g in drawn if not g.is_zero]:
            out.append(gens_list)
    return out


def _sympy_ideal(gens: list[Polynomial], order: str):
    """sympy's reduced basis of the ideal in ``order``, and the map of a
    polynomial into sympy's ring."""
    syms = sympy.symbols(f"x0:{gens[0].nvars}")

    def to_sympy(p: Polynomial):
        return sympy.Poly.from_dict(dict(p.terms()), *syms, domain="QQ")

    return sympy.groebner([to_sympy(g) for g in gens], *syms, order=order, domain="QQ"), to_sympy


def _assert_in_sympy_ideal(basis: Sequence[Polynomial], gens: list[Polynomial], order: str = "grevlex") -> None:
    """Every element of ``basis`` reduces to zero on sympy's basis of (gens)."""
    ideal, to_sympy = _sympy_ideal(gens, order)
    assert all(ideal.contains(to_sympy(g)) for g in basis), gens


def _sympy_basis(gens: list[Polynomial], order: str) -> set[Polynomial]:
    """sympy's reduced basis of the ideal, each element rescaled to monic."""
    nvars = gens[0].nvars
    basis, _ = _sympy_ideal(gens, order)
    monic_order = LEX if order == "lex" else GRLEX
    out = set()
    for e in basis.exprs:
        poly = sympy.Poly(e, *basis.gens)
        terms = {tuple(mon): Fraction(*coeff.as_numer_denom()) for mon, coeff in poly.terms()}
        q = Polynomial(nvars, Domain.RAT, terms)
        # sympy normalizes to integer content; rescale to monic for comparison
        _, lc = q.leading_term(monic_order)
        out.add(q.scale(Fraction(1) / lc))
    return out


def test_agrees_with_sympy_on_fixed_ideals():
    cases = [
        ["T1^2 + T2^2 - 1", "T1*T2 - 1"],
        ["T1^3 - 2*T1*T2", "T1^2*T2 - 2*T2^2 + T1"],
        ["2*T1^2 + 3*T2", "T1*T2 - T1"],
    ]
    for texts in cases:
        gens_list = [p2(t) for t in texts]
        mine = buchberger(gens_list, GRLEX)
        assert set(mine.generators) == _sympy_basis(gens_list, "grlex"), texts


@pytest.mark.parametrize("order", [LEX, GRLEX], ids=["lex", "grlex"])
def test_agrees_with_sympy_on_random_ideals(order):
    # exponents up to 3 already give lex runs past the default degree cap
    for gens_list in _random_generators(random.Random(SEED + 7), (2, 3), 50):
        mine = buchberger(gens_list, order)
        assert set(mine.generators) == _sympy_basis(gens_list, order.kind), gens_list


@pytest.mark.parametrize("order", [LEX, GRLEX], ids=["lex", "grlex"])
def test_agrees_with_sympy_on_random_four_variable_ideals(order):
    complete = steps = 0
    for gens_list in _random_generators(random.Random(f"{SEED}:four:{order.kind}"), (4, 4), 40):
        try:
            mine = buchberger(gens_list, order)
        except BudgetExceededError:
            continue  # a lex draw passes the coefficient cap; partial bases have their own test
        assert set(mine.generators) == _sympy_basis(gens_list, order.kind), gens_list
        complete += 1
        steps += mine.steps_used
    assert complete >= 35 and steps > complete  # the draws reduce S-pairs, not only their inputs


def _s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """The S-polynomial of f and g over the lcm of their leading monomials,
    with both leading terms made monic."""
    (lm_f, lc_f), (lm_g, lc_g) = f.leading_term(order), g.leading_term(order)
    lcm = tuple(map(max, lm_f, lm_g))
    m_f = Polynomial.monomial(tuple(a - b for a, b in zip(lcm, lm_f)), Fraction(1) / lc_f, Domain.RAT)
    m_g = Polynomial.monomial(tuple(a - b for a, b in zip(lcm, lm_g)), Fraction(1) / lc_g, Domain.RAT)
    return m_f * f.as_domain(Domain.RAT) - m_g * g.as_domain(Domain.RAT)


def test_elimination_bases_agree_with_sympy():
    # sympy has no block order, so check the three facts that make the output
    # a Groebner basis of the input ideal in elimination(2): its S-pairs and
    # the inputs reduce to zero on it, and it lies in the ideal
    order = elimination(2)
    steps = 0
    for gens_list in _random_generators(random.Random(f"{SEED}:elimination"), (3, 4), 40):
        gb = buchberger(gens_list, order)
        basis = list(gb.generators)
        for i, f in enumerate(basis):
            for g in basis[i + 1 :]:
                assert not _reference_division(_s_polynomial(f, g, order), basis, order)[1], gens_list
        for g in gens_list:
            assert not _reference_division(g, basis, order)[1], gens_list
        _assert_in_sympy_ideal(basis, gens_list, "lex")
        steps += gb.steps_used
    assert steps > 40


@pytest.mark.parametrize("order", [LEX, GRLEX, elimination(2)], ids=["lex", "grlex", "elim"])
def test_budget_stopped_partial_bases_lie_in_the_sympy_ideal(order):
    # exponent-3 draws, stopped after at most four S-pair reductions
    rng = random.Random(f"{SEED}:partial:{order.kind}")
    stopped = 0
    for gens_list in _random_generators(rng, (3, 4), 40, max_exp=3):
        try:
            buchberger(gens_list, order, GroebnerBudget(max_steps=rng.randint(1, 4)))
            continue
        except BudgetExceededError as exc:
            _assert_in_sympy_ideal(exc.partial.generators, gens_list)
        stopped += 1
    assert stopped >= 10  # the draws do stop early


def test_zero_generators_are_tolerated():
    z = Polynomial.zero(2, Domain.RAT)
    gb = buchberger([z, p2("T1"), z])
    assert gb.generators == (p2("T1"),)
    gb_zero = buchberger([z, z])
    assert gb_zero.generators == ()
    assert gb_zero.normal_form(p2("T1 + 1")) == p2("T1 + 1")


def test_empty_generator_list_rejected():
    with pytest.raises(ValueError):
        buchberger([])


# -- normal form -----------------------------------------------------------


def test_normal_form_linear_reduction():
    gb = buchberger([p2("T1"), p2("T2")])
    assert normal_form(p2("T1 + T2 + 1"), gb) == p2("1")


def test_normal_form_substitution():
    gb = buchberger([p2("T1 - 1")])
    assert normal_form(p2("T1^2"), gb) == p2("1")


def test_normal_form_idempotent_randomized():
    rng = random.Random(SEED + 2)
    gb = buchberger([p2("T1^2 - T2"), p2("T2^2 - 1")], GRLEX)
    for _ in range(100):
        p = random_poly(rng, 2, Domain.RAT, max_terms=5, max_exp=5)
        nf = gb.normal_form(p)
        assert gb.normal_form(nf) == nf


def test_normal_form_no_term_divisible_by_leading_monomials():
    rng = random.Random(SEED + 3)
    gb = buchberger([p2("T1^2 - T2"), p2("T1*T2 - 1")], GRLEX)
    lms = [g.leading_term(GRLEX)[0] for g in gb.generators]
    for _ in range(100):
        p = random_poly(rng, 2, Domain.RAT, max_terms=5, max_exp=5)
        for exp in gb.normal_form(p).support():
            for lm in lms:
                assert any(a < b for a, b in zip(exp, lm))


def test_difference_to_normal_form_lies_in_ideal():
    rng = random.Random(SEED + 4)
    gens_list = [p2("T1^2 - T2"), p2("T2^3 - T1")]
    gb = buchberger(gens_list, GRLEX, track=True)
    for _ in range(30):
        p = random_poly(rng, 2, Domain.RAT, max_terms=4, max_exp=4)
        r, quotients = gb.normal_form_with_quotients(p)
        # p - r == sum q_i * generators[i] exactly
        total = Polynomial.zero(2, Domain.RAT)
        for q, g in zip(quotients, gb.generators):
            total = total + q * g
        assert total == p - r


def _reference_division(target, divisors, order, degree_cap=None):
    """Division straight from the definition: each step reduces the leading
    term by the first divisor, in list order, whose leading monomial divides
    it, comparing exponents one by one."""
    work = dict(target.terms())
    quotients = [{} for _ in divisors]
    remainder = {}
    while work:
        u = max(work, key=order.key)
        c = work[u]
        if degree_cap is not None and sum(u) > degree_cap:
            raise groebner._DegreeCapHit
        for q, d in zip(quotients, divisors):
            lm, lc = d.leading_term(order)
            if all(a >= b for a, b in zip(u, lm)):
                shift = tuple(a - b for a, b in zip(u, lm))
                factor = c / lc
                q[shift] = q.get(shift, 0) + factor
                for v, cv in d.terms():
                    w = tuple(a + b for a, b in zip(shift, v))
                    work[w] = work.get(w, 0) - factor * cv
                    if work[w] == 0:
                        del work[w]
                break
        else:
            remainder[u] = c
            del work[u]
    return quotients, remainder


def _is_rational(terms) -> bool:
    """Every coefficient is a Fraction: the RAT invariant, which equality
    would not check (``Fraction(2) == 2``)."""
    return all(type(c) is Fraction for c in terms.values())


def _rational(form) -> dict:
    """An integer form's terms with ``Fraction`` coefficients."""
    ints, den = form
    return {u: Fraction(c, den) for u, c in ints.items()}


def _as_reference(steps, remainder, pk, count):
    """The steps and the packed integer remainder of a division by ``count``
    divisors as the quotients and the remainder of ``_reference_division``;
    the ``Fraction``s are made here, once."""
    quotients = [_rational(q) for q in groebner._quotients(steps, count, pk)]
    return quotients, _rational(pk.unpack_form(remainder))


def _through_division(target, divisors):
    """The joint division of ``target`` by the divisor state ``divisors``."""
    (steps, remainder), pk = divisors.run(groebner._form(target), groebner._Width.divide)
    return _as_reference(steps, remainder, pk, len(divisors.entries))


def _through_capped_reduce(target, divisors, cap):
    """``_reduce`` of ``target`` under a degree cap, at the width that
    ``_Divisors.run`` picks for the degrees, widened to hold the cap."""
    degree = max(target.total_degree(), cap, divisors.degree)
    at = divisors.at(degree.bit_length())
    terms, den = groebner._form(target)
    steps, remainder = groebner._reduce((at.pk.pack_terms(terms), den), at.table, at.pk, cap, {})
    return _as_reference(steps, remainder, at.pk, len(divisors.entries))


_PRIMES = (65521, 65519, 65497, 65479, 65449, 65447, 65437, 65423, 65419)


@pytest.fixture
def cleared(monkeypatch):
    """(bit length of the denominator, content removed) per content removal."""
    removals = []
    real = groebner._clear_content

    def spy(work, den):
        out = real(work, den)
        removals.append((den.bit_length(), den // out[1]))
        return out

    monkeypatch.setattr(groebner, "_clear_content", spy)
    return removals


@pytest.mark.parametrize("kind", ["lex", "grlex", "elim"])
def test_divide_matches_reference_division(kind, cleared):
    rng = random.Random(f"divide:{kind}")
    raised = 0
    # 150 divisions by random monic divisors, then 60 by monic divisors whose
    # non-leading coefficients have denominators from distinct 16-bit primes,
    # which drive the common denominator of the integer work past
    # ``_CONTENT_BITS`` bits
    for case in range(210):
        nvars = rng.randint(2, 4)
        order = elimination(rng.randint(1, nvars - 1)) if kind == "elim" else MonomialOrder(kind)
        divisors = []
        for prime in rng.sample(_PRIMES, rng.randint(1, 5)) if case >= 150 else [1] * rng.randint(1, 5):
            d = random_poly(rng, nvars, Domain.RAT, max_terms=3, max_exp=2)
            if not d.is_zero:
                lm, lc = d.leading_term(order)
                terms = {u: c / lc / (1 if u == lm else prime) for u, c in d.terms()}
                divisors.append(Polynomial(nvars, Domain.RAT, terms))
        if not divisors:
            continue
        # a combination of the divisors plus noise, so that reductions happen
        target = random_poly(rng, nvars, Domain.RAT, max_terms=4, max_exp=3)
        for d in divisors:
            target = target + random_poly(rng, nvars, Domain.RAT, max_terms=2, max_exp=2) * d
        cap = rng.choice([None, None, 4])
        table = groebner._Divisors(order, nvars, divisors)
        try:
            expected = _reference_division(target, divisors, order, cap)
        except groebner._DegreeCapHit:
            with pytest.raises(groebner._DegreeCapHit):
                _through_capped_reduce(target, table, cap)
            raised += 1
            continue
        if cap is None:
            assert _through_division(target, table) == expected
        else:
            assert _through_capped_reduce(target, table, cap) == expected
    assert raised  # the degree cap was exercised too
    # the content removal ran past its size, and some removed a common factor
    assert cleared and all(bits > groebner._CONTENT_BITS for bits, _ in cleared)
    assert any(content > 1 for _, content in cleared)


@pytest.mark.parametrize("order", [LEX, GRLEX, elimination(1)], ids=["lex", "grlex", "elim"])
def test_results_keep_fraction_coefficients(order):
    # integer inputs, where a leaked int would still compare equal
    rng = random.Random(f"{SEED}:rational:{order.kind}")
    for _ in range(20):
        drawn = (random_poly(rng, 2, Domain.INT, max_terms=3, max_exp=2) for _ in range(3))
        gens_list = [g for g in drawn if not g.is_zero]
        if not gens_list:
            continue
        gb = buchberger(gens_list, order, track=True)
        query = random_poly(rng, 2, Domain.INT, max_terms=4, max_exp=3)
        remainder, quotients = gb.normal_form_with_quotients(query)
        member = ideal_membership(query * gens_list[0], gens_list, order)
        cofactors = [c for combo in gb.cofactors for c in combo]
        results = [*gb.generators, *cofactors, gb.normal_form(query), remainder, *quotients, *member.cofactors]
        assert all(_is_rational(dict(p.terms())) for p in results)


def _bounded_vectors(rng, nvars, limit, count):
    """Exponent vectors of total degree at most ``limit``: zero, each variable
    alone at ``limit``, and ``count`` random ones, half of degree ``limit``."""
    out = {(0,) * nvars} | {tuple(limit * (j == i) for j in range(nvars)) for i in range(nvars)}
    for n in range(count):
        total = limit if n % 2 else rng.randint(0, limit)
        cuts = sorted(rng.randint(0, total) for _ in range(nvars - 1))
        out.add(tuple(b - a for a, b in zip([0, *cuts], [*cuts, total])))
    return sorted(out)


@pytest.mark.parametrize("kind", ["lex", "grlex", "elim"])
def test_packing_keeps_order_identity_and_divisibility(kind):
    rng = random.Random(f"packing:{kind}")
    for nvars in range(1, 18):
        order = elimination(rng.randint(1, nvars)) if kind == "elim" else MonomialOrder(kind)
        width = rng.randint(1, 8)
        pk = groebner._packing(order, nvars, width)
        vectors = _bounded_vectors(rng, nvars, 2**width - 1, 30)
        packed = [pk.pack(u) for u in vectors]
        for u, pu in zip(vectors, packed):
            assert pk.unpack(pu) == u
            w = rng.choice(vectors)
            for v, pv in zip(vectors, packed):
                assert (pu < pv) == (order.key(u) < order.key(v))
                divides = ((pu | pk.guards) - pv) & pk.guards == pk.guards
                assert divides == (mono_div(u, v) is not None)
                # products of two such monomials compare without carries
                uw, vw = mono_mul(u, w), mono_mul(v, w)
                assert (pu + pk.pack(w) < pv + pk.pack(w)) == (order.key(uw) < order.key(vw))


@pytest.fixture
def redone(monkeypatch):
    """Widths at which an uncapped packed division overflowed and was redone."""
    widths = []
    real = groebner._reduce

    def spy(work, table, pk, degree_cap, *rest):
        try:
            return real(work, table, pk, degree_cap, *rest)
        except groebner._DegreeCapHit:
            if degree_cap is None:
                widths.append(pk.width)
            raise

    monkeypatch.setattr(groebner, "_reduce", spy)
    return widths


_WIDE_GENS = [p2("T1 - T2^5")]  # outside grlex, T1 -> T2^5 raises degrees fivefold


@pytest.mark.parametrize("order", [LEX, GRLEX, elimination(1)], ids=["lex", "grlex", "elim"])
def test_wide_normal_forms_match_reference_division(order, redone):
    gb = buchberger(_WIDE_GENS, order, track=True)
    for query in (p2("T1^40*T2"), p2("T1 + T2") ** 33, p2("T1^1000")):
        quotients, remainder = _reference_division(query, gb.generators, order)
        expected = Polynomial(2, Domain.RAT, remainder)
        assert gb.normal_form_with_quotients(query) == (
            expected, tuple(Polynomial(2, Domain.RAT, q) for q in quotients)
        )
        status = MembershipStatus.MEMBER if expected.is_zero else MembershipStatus.NON_MEMBER
        assert ideal_membership(query, _WIDE_GENS, order).status is status
        member = query - expected
        quotients, remainder = _reference_division(member, gb.generators, order)
        assert not remainder
        cofactor = sum(
            (Polynomial(2, Domain.RAT, q) * combo[0] for q, combo in zip(quotients, gb.cofactors)),
            Polynomial.zero(2, Domain.RAT),
        )
        assert ideal_membership(member, _WIDE_GENS, order).cofactors == (cofactor,)
    # the widen-and-redo path ran wherever degrees rise
    assert bool(redone) is (order != GRLEX)


def test_interreduction_past_the_completion_width(redone):
    # lex interreduction turns T1 - T2^5 into T1 - T4^125, past the 6-bit
    # fields that completion at the default degree budget packs in
    t4 = t_names(4)
    gens_list = [parse_poly(t, t4, Domain.INT) for t in ("T1 - T2^5", "T2 - T3^5", "T3 - T4^5")]
    gb = buchberger(gens_list, LEX)
    assert [format_poly(g, t4) for g in gb.generators] == ["-T4^5 + T3", "-T4^25 + T2", "-T4^125 + T1"]
    assert redone and gb._divisors.degree > 63
    assert gb.normal_form(parse_poly("T1*T4", t4, Domain.RAT)) == parse_poly("T4^126", t4, Domain.RAT)


def test_wide_subalgebra_representations_match_reference_division(redone):
    gens_list = (p2("T1 + T2^3"), p2("T2"))  # T1 -> X2 - X3^3 triples degrees
    _, gb = groebner._tag_elimination_basis(gens_list, GroebnerBudget())
    for h in (p2("T1^40*T2"), p2("T1 + T2") ** 33, p2("T1^12*T2^988")):
        _, remainder = _reference_division(h.embed(4, 0), gb.generators, gb.order)
        cert = subalgebra_membership(h, gens_list)
        assert cert.status is MembershipStatus.MEMBER
        assert cert.representation == Polynomial(4, Domain.RAT, remainder).project(2, 4)
    assert gb.reduced and redone


# -- the first-divisor memo ------------------------------------------------

T4 = t_names(4)
# a lex basis of five elements of degree up to 7, packed in 6-bit fields;
# T2^40 reduces through degrees past 63, so its division is redone at 12 bits
_MEMO_GENS = [parse_poly(t, T4, Domain.INT) for t in ("T1*T2 - T3^4", "T2^2 - T4^5 + T3", "T3*T4 - 1")]
_MEMO_WIDE = parse_poly("T2^40", T4, Domain.RAT)


def _memo_queries(label: str, count: int) -> list[Polynomial]:
    rng = random.Random(f"{SEED}:memo:{label}")
    return [random_poly(rng, 4, Domain.RAT, max_terms=4, max_exp=3) for _ in range(count)]


def _assert_reference_answers(gb: GroebnerBasis, queries: list[Polynomial]) -> None:
    for query in queries:
        quotients, remainder = _reference_division(query, gb.generators, gb.order)
        expected = Polynomial(gb.nvars, Domain.RAT, remainder)
        assert gb.normal_form_with_quotients(query) == (
            expected, tuple(Polynomial(gb.nvars, Domain.RAT, q) for q in quotients)
        )
        assert gb.normal_form(query) == expected  # the same query on a warm memo


def _memo_sizes(gb: GroebnerBasis) -> dict[int, int]:
    return {width: len(at.memo) for width, at in gb._divisors.widths.items()}


def test_warm_memo_answers_match_reference_division(redone):
    gb = buchberger(_MEMO_GENS, LEX)
    assert len(gb.generators) == 5
    before = _memo_sizes(gb)  # the interreduction's memos
    queries = _memo_queries("warm", 30) + [_MEMO_WIDE] + _memo_queries("wide", 30)
    _assert_reference_answers(gb, queries)
    _assert_reference_answers(gb, queries[::-1])
    # one memo per packing width, both in use: the queries grew each
    after = _memo_sizes(gb)
    assert 6 in redone and sorted(after) == [6, 12]
    assert all(size > before.get(width, 0) for width, size in after.items())


def test_partial_basis_memo_answers_match_reference_division():
    with pytest.raises(BudgetExceededError) as exc_info:
        buchberger(_MEMO_GENS, LEX, GroebnerBudget(max_steps=2))
    partial = exc_info.value.partial
    assert not partial.reduced and len(partial.generators) >= 3
    before = _memo_sizes(partial)
    _assert_reference_answers(partial, _memo_queries("partial", 40) + [_MEMO_WIDE])
    after = _memo_sizes(partial)
    assert sum(after.values()) > sum(before.values())  # the queries filled the memos


def test_memo_resumes_its_scan_after_the_table_grows():
    divisors = [p2("T1^2 - T2"), p2("T1*T2 - 1"), p2("T2^3 - 1/2*T1")]
    table = groebner._Divisors(GRLEX, 2)
    rng = random.Random(f"{SEED}:resume")
    targets = [random_poly(rng, 2, Domain.RAT, max_terms=5, max_exp=3) for _ in range(40)]
    for n in (1, 2, 3):  # the table grows by appending; the memo is kept
        table.append(divisors[n - 1])
        for target in targets:
            answer = _through_division(target, table)
            assert answer == _reference_division(target, divisors[:n], GRLEX)
            fresh = groebner._Divisors(GRLEX, 2, divisors[:n])  # a fresh memo
            assert answer == _through_division(target, fresh)
        found = [k for at in table.widths.values() for k in at.memo.values()]
        if n < 3:  # misses over the short table, which the next pass resumes
            assert ~n in found
    assert {1, 2} <= set(found)  # some resumed misses found an appended divisor


def test_basis_keeps_the_interreduction_memo():
    with pytest.raises(BudgetExceededError) as exc_info:
        buchberger(_MEMO_GENS, LEX, GroebnerBudget(max_steps=2))
    past = [parse_poly(t, T4, Domain.INT) for t in ("T1 - T2^5", "T2 - T3^5", "T3 - T4^5")]
    complete, partial, wide = buchberger(_MEMO_GENS, LEX), exc_info.value.partial, buchberger(past, LEX)
    assert complete.reduced and not partial.reduced and wide._divisors.degree > 63
    queries = _memo_queries("kept", 30) + [_MEMO_WIDE]
    for gb in (complete, partial, wide):
        # before any query, every width the interreduction divided at holds its memo
        assert all(_memo_sizes(gb).values())
        fresh = groebner._Divisors(gb.order, gb.nvars, gb.generators)
        count = len(gb.generators)
        for query in queries:
            form = groebner._form(query)
            (steps, remainder), pk = gb._divisors.run(form, groebner._Width.divide)
            (fresh_steps, fresh_remainder), fresh_pk = fresh.run(form, groebner._Width.divide)
            expected = _as_reference(fresh_steps, fresh_remainder, fresh_pk, count)
            assert _as_reference(steps, remainder, pk, count) == expected
            assert gb.normal_form(query) == Polynomial(gb.nvars, Domain.RAT, expected[1])


def test_memo_past_its_size_cap_is_cleared(monkeypatch):
    queries = _memo_queries("cap", 40) + [_MEMO_WIDE]
    uncapped = buchberger(_MEMO_GENS, LEX)
    _assert_reference_answers(uncapped, queries)
    monkeypatch.setattr(groebner, "_MEMO_SIZE", 16)
    capped = buchberger(_MEMO_GENS, LEX)
    assert capped.generators == uncapped.generators
    sizes = []
    for query in queries:
        _assert_reference_answers(capped, [query])
        sizes.append(max(_memo_sizes(capped).values()))
    # the uncapped memos outgrew the cap many times over, the capped ones never did
    assert min(_memo_sizes(uncapped).values()) > 4 * 16
    assert max(sizes) <= 16 and any(b < a for a, b in zip(sizes, sizes[1:]))


# -- the remainder table --------------------------------------------------


@pytest.fixture
def sightings(monkeypatch):
    """How often the remainder path met a monomial first or found its
    remainder stored; after each query, every monomial it met is stored."""
    counts = Counter()
    real = groebner._Width.remainder

    def spy(at, terms, den):
        for u in terms:
            counts["stored" if u in at.remainders else "first"] += 1
        out = real(at, terms, den)
        assert at.remainders.keys() >= terms.keys()
        return out

    monkeypatch.setattr(groebner._Width, "remainder", spy)
    return counts


@pytest.mark.parametrize("order", [LEX, GRLEX, elimination(1)], ids=["lex", "grlex", "elim"])
def test_remainder_table_matches_the_joint_division(order, sightings, redone):
    rng = random.Random(f"{SEED}:table:{order.kind}")
    bases = 0
    for _ in range(16):
        nvars, domain = rng.choice([2, 3]), rng.choice([Domain.INT, Domain.RAT])
        drawn = (random_poly(rng, nvars, domain, max_terms=3, max_exp=2) for _ in range(rng.randint(1, 3)))
        gens_list = [g for g in drawn if not g.is_zero]
        if not gens_list:
            continue
        gb = buchberger(gens_list, order)
        pool = [random_poly(rng, nvars, domain, max_terms=5, max_exp=3) for _ in range(8)]
        # each query three times at least: a first sighting, then stored hits
        for query in pool + rng.sample(pool, 8) + rng.sample(pool, 8):
            joint, _ = gb.normal_form_with_quotients(query)
            _, remainder = _reference_division(query, gb.generators, order)
            assert gb.normal_form(query) == joint == Polynomial(nvars, Domain.RAT, remainder)
        bases += 1
    # T1 - T2^5 raises degrees fivefold outside grlex: T1^40*T2 redoes its division
    # at twice the width, where the basis then answers every later query
    gb = buchberger(_WIDE_GENS, order)
    for query in [p2("T1^40*T2"), p2("T1^3 + T2"), p2("T1^40*T2"), p2("T1^3 - T1^40*T2"), p2("T1^3 + T2")]:
        _, remainder = _reference_division(query, gb.generators, order)
        assert gb.normal_form(query) == Polynomial(2, Domain.RAT, remainder)
    assert bases >= 12 and min(sightings["first"], sightings["stored"]) > 0
    assert bool(redone) is (order != GRLEX) and len(gb._divisors.widths) == 1 + (order != GRLEX)


def test_truncated_basis_never_fills_the_table():
    with pytest.raises(BudgetExceededError) as exc_info:
        buchberger(_MEMO_GENS, LEX, GroebnerBudget(max_steps=2))
    partial = exc_info.value.partial
    k6 = tuple(closed_form_generator(n) for n in range(2, 7))
    # the cached basis that subalgebra_membership divides by, made afresh here
    groebner._tag_elimination_basis.cache_clear()
    cut = groebner._tag_elimination_basis(k6, GroebnerBudget(max_steps=2))[1]
    assert not cut.reduced
    before = [sum(_memo_sizes(gb).values()) for gb in (partial, cut)]
    queries = _memo_queries("truncated", 10)
    for query in queries * 3:
        _, remainder = _reference_division(query, partial.generators, partial.order)
        assert partial.normal_form(query) == Polynomial(4, Domain.RAT, remainder)
    for _ in range(3):
        cert = subalgebra_membership(k6[0] * k6[1], k6, GroebnerBudget(max_steps=2))
        assert cert.status is not MembershipStatus.NON_MEMBER
    assert groebner._tag_elimination_basis(k6, GroebnerBudget(max_steps=2))[1] is cut
    for gb, size in zip((partial, cut), before):
        widths = gb._divisors.widths.values()
        # the queries went through this basis, and stored nothing in its table
        assert sum(_memo_sizes(gb).values()) > size
        assert all(not at.remainders for at in widths)


def test_table_stores_a_remainder_at_the_first_sighting():
    gb = buchberger(_MEMO_GENS, LEX)
    query = parse_poly("T1^2*T3 - 2*T2*T4 + 1/3*T4^2", T4, Domain.RAT)
    _, remainder = _reference_division(query, gb.generators, gb.order)
    assert gb.normal_form(query) == Polynomial(4, Domain.RAT, remainder)
    (at,) = gb._divisors.widths.values()
    packed = set(at.pk.pack_terms(groebner._form(query)[0]))
    assert at.remainders.keys() == packed  # a first sighting stores each monomial's remainder
    stored = dict(at.remainders)
    assert gb.normal_form(query) == Polynomial(4, Domain.RAT, remainder)
    assert at.remainders == stored  # a second sighting only reads
    for u, form in stored.items():  # each stored remainder is the monomial's own
        _, remainder = _reference_division(
            Polynomial(4, Domain.RAT, {at.pk.unpack(u): 1}), gb.generators, gb.order
        )
        assert _rational(at.pk.unpack_form(form)) == remainder


def test_second_asking_divides_nothing(monkeypatch):
    gb = buchberger(_MEMO_GENS, LEX)
    query = parse_poly("T1^3*T2 - 2*T2*T4^2 + 1/3*T3*T4 + 5", T4, Domain.RAT)
    _, remainder = _reference_division(query, gb.generators, gb.order)
    expected = Polynomial(4, Domain.RAT, remainder)
    divided = []
    real = groebner._reduce

    def spy(work, *rest):
        divided.append(dict(work[0]))
        return real(work, *rest)

    monkeypatch.setattr(groebner, "_reduce", spy)
    assert gb.normal_form(query) == expected
    # the first asking divides each of the query's monomials once, alone
    (at,) = gb._divisors.widths.values()
    packed = at.pk.pack_terms(groebner._form(query)[0])
    assert sorted(divided, key=sorted) == sorted(({u: 1} for u in packed), key=sorted)
    divided.clear()
    assert gb.normal_form(query) == expected
    assert divided == []  # the second asking only reads the table


def test_table_past_its_size_cap_is_cleared(monkeypatch):
    monkeypatch.setattr(groebner, "_TABLE_SIZE", 16)
    gb = buchberger(_MEMO_GENS, LEX)
    queries = _memo_queries("table-cap", 30)
    sizes = []
    for query in queries:
        _, remainder = _reference_division(query, gb.generators, gb.order)
        assert gb.normal_form(query) == Polynomial(4, Domain.RAT, remainder)
        (at,) = gb._divisors.widths.values()
        sizes.append(len(at.remainders))
    # filled up to the cap and cleared there, more than once
    assert max(sizes) == 16 and sum(b < a for a, b in zip(sizes, sizes[1:])) >= 2


def test_image_table_past_its_size_cap_is_cleared(monkeypatch, gens):
    g = tuple(gens[n] for n in range(2, 7))
    rng = random.Random(f"{SEED}:images")
    exprs = [random_poly(rng, 5, Domain.INT, max_terms=3, max_exp=2, max_coeff=4) for _ in range(30)]
    queries = [e.substitute([f.as_domain(Domain.RAT) for f in g]) for e in exprs]
    groebner._tag_elimination_basis.cache_clear()
    expected = [subalgebra_membership(h, g) for h in queries]  # uncapped
    assert all(cert.status is MembershipStatus.MEMBER for cert in expected)
    monkeypatch.setattr(groebner, "_TABLE_SIZE", 16)
    groebner._tag_elimination_basis.cache_clear()
    _, gb = groebner._tag_elimination_basis(g, GroebnerBudget())
    sizes = []
    for h, cert in zip(queries * 2, expected * 2):
        assert subalgebra_membership(h, g) == cert
        (at,) = gb._divisors.widths.values()
        sizes.append(len(at.images))
    # filled up to the cap, cleared there more than once, and refilled
    assert 8 < max(sizes) <= 16 and sum(b < a for a, b in zip(sizes, sizes[1:])) >= 2
    groebner._tag_elimination_basis.cache_clear()


# -- ideal membership ------------------------------------------------------


def test_unit_in_phi_kernel_extension(gens):
    # 1 is a combination of 2*f2 - 1 and 3*f3 - 1
    one = Polynomial.one(2, Domain.RAT)
    g1 = gens[2].as_domain(Domain.RAT) * 2 - one
    g2 = gens[3].as_domain(Domain.RAT) * 3 - one
    cert = ideal_membership(one, [g1, g2])
    assert cert.status is MembershipStatus.MEMBER
    expansion = cert.cofactors[0] * g1 + cert.cofactors[1] * g2
    assert expansion == one


def test_monomial_non_membership():
    cert = ideal_membership(p2("T1"), [p2("T2")])
    assert cert.status is MembershipStatus.NON_MEMBER


def test_zero_is_member_with_zero_cofactors():
    z = Polynomial.zero(2, Domain.RAT)
    cert = ideal_membership(z, [p2("T1*T2 - 1"), p2("T1^3")])
    assert cert.status is MembershipStatus.MEMBER
    assert all(c.is_zero for c in cert.cofactors)
    expansion = cert.cofactors[0] * p2("T1*T2 - 1") + cert.cofactors[1] * p2("T1^3")
    assert expansion.is_zero


def test_membership_cofactors_expand_to_query_randomized():
    rng = random.Random(SEED + 5)
    checked = 0
    while checked < 30:
        gens_list = [random_poly(rng, 2, Domain.INT, max_terms=3, max_exp=2) for _ in range(2)]
        gens_list = [g for g in gens_list if not g.is_zero]
        if not gens_list:
            continue
        # build a guaranteed member
        c0 = random_poly(rng, 2, Domain.INT, max_terms=2, max_exp=2)
        member = Polynomial.zero(2, Domain.INT)
        for g in gens_list:
            member = member + c0 * g
        cert = ideal_membership(member, gens_list)
        assert cert.status is MembershipStatus.MEMBER
        expansion = Polynomial.zero(2, Domain.RAT)
        for c, g in zip(cert.cofactors, gens_list):
            expansion = expansion + c * g.as_domain(Domain.RAT)
        assert expansion == member.as_domain(Domain.RAT)
        checked += 1


def _random_ideals(rng: random.Random, count: int) -> list[tuple[list[Polynomial], MonomialOrder]]:
    out = []
    while len(out) < count:
        nvars = rng.randint(2, 3)
        domain = rng.choice([Domain.INT, Domain.RAT])
        gens_list = [
            random_poly(rng, nvars, domain, max_terms=3, max_exp=3, max_coeff=6) for _ in range(rng.randint(1, 3))
        ]
        if any(gens_list):
            out.append((gens_list, rng.choice([GRLEX, LEX, elimination(1)])))
    return out


def test_tracked_cofactors_match_reference_loop(gens, monkeypatch):
    kernel = groebner._combo_update
    seen = {"calls": 0, "quotients": 0, "scaled": 0, "nvars": 0}

    def sum_of(pairs):
        out = {}
        for a, b in pairs:
            add_product(out, _rational(a), _rational(b))
        return out

    def checked(base, quotients, combos, scale=(1, 1)):
        result = kernel(base, quotients, combos, scale)
        nvars = seen["nvars"]
        poly = lambda form: Polynomial(nvars, Domain.RAT, _rational(form))  # noqa: E731
        sums = [Polynomial(nvars, Domain.RAT, sum_of(pairs)) for pairs in base]
        rational = [_rational(q) for q in quotients]
        expected = reference_combo_update(sums, rational, [tuple(map(poly, combo)) for combo in combos])
        assert tuple(map(poly, result)) == tuple(e.scale(Fraction(*scale)) for e in expected)
        assert all(math.gcd(den, *ints.values()) == 1 for ints, den in result)
        seen["calls"] += 1
        seen["quotients"] += any(rational)
        seen["scaled"] += Fraction(*scale) != 1
        return result

    monkeypatch.setattr(groebner, "_combo_update", checked)
    budget = GroebnerBudget(max_degree=12, max_steps=40)
    tags = tag_ring_generators([gens[n].as_domain(Domain.RAT) for n in range(2, 6)])
    ideals = [(list(tags), elimination(2)), *_random_ideals(random.Random(f"{SEED}:combos"), 150)]
    for gens_list, order in ideals:
        seen["nvars"] = gens_list[0].nvars
        try:
            gb = buchberger(gens_list, order, budget, track=True)
        except BudgetExceededError as exc:
            gb = exc.partial
        source = [g.as_domain(Domain.RAT) for g in gens_list]
        for g, combo in zip(gb.generators, gb.cofactors):
            assert sum((c * s for c, s in zip(combo, source)), Polynomial.zero(g.nvars, Domain.RAT)) == g
    assert seen["calls"] >= 300 and seen["quotients"] >= 60 and seen["scaled"] >= 100


def _packed_tables(gb: GroebnerBasis) -> dict[int, list]:
    """The basis's packed divisor table at each width."""
    return {width: at.table for width, at in gb._divisors.widths.items()}


@pytest.mark.parametrize("max_steps", [3, 40])
def test_tracking_changes_nothing_but_cofactors(max_steps):
    budget = GroebnerBudget(max_degree=12, max_steps=max_steps)
    partial = 0
    for gens_list, order in _random_ideals(random.Random(f"{SEED}:tracking:{max_steps}"), 60):
        runs = []
        for track in (False, True):
            try:
                runs.append(buchberger(gens_list, order, budget, track))
            except BudgetExceededError as exc:
                runs.append(exc.partial)
        plain, tracked = runs
        assert (plain.generators, plain.steps_used, plain.reduced) == (
            tracked.generators, tracked.steps_used, tracked.reduced
        )
        assert _packed_tables(plain) == _packed_tables(tracked)
        assert plain.cofactors is None and len(tracked.cofactors) == len(tracked.generators)
        partial += not plain.reduced
    assert 0 < partial < 60  # both partial and complete bases were compared


def test_membership_cofactors_match_reference_loop():
    rng = random.Random(f"{SEED}:cofactors")
    budget = GroebnerBudget(max_degree=12, max_steps=40)
    members = 0
    for gens_list, order in _random_ideals(rng, 40):
        gb = groebner._tracked_basis(tuple(gens_list), order, budget)
        nvars = gens_list[0].nvars
        for _ in range(3):
            target = Polynomial.zero(nvars, Domain.RAT)
            for g in gens_list:
                target = target + random_poly(rng, nvars, Domain.RAT, max_terms=2, max_exp=2, max_coeff=4) * g.as_domain(Domain.RAT)
            cert = ideal_membership(target, gens_list, order, budget)
            if cert.status is not MembershipStatus.MEMBER or not gb.generators:
                continue
            _, quotients = gb.normal_form_with_quotients(target)
            assert cert.cofactors == reference_cofactors(quotients, gb.cofactors, nvars)
            members += not target.is_zero
    assert members >= 60


def test_zero_ideal_checks_the_query_arity():
    zero2 = Polynomial.zero(2, Domain.INT)
    for query in (Polynomial.variable(3, 0, Domain.INT), Polynomial.zero(3, Domain.INT)):
        for gens_list in ([zero2], [zero2, zero2], [Polynomial.variable(2, 0, Domain.INT)]):
            with pytest.raises(ArityError, match="polynomial has 3 variables, basis has 2"):
                ideal_membership(query, gens_list)


def test_zero_ideal_answers_with_certificates():
    zero2 = Polynomial.zero(2, Domain.INT)
    for gens_list in ([zero2], [zero2, zero2]):
        cofactors = tuple(Polynomial.zero(2, Domain.RAT) for _ in gens_list)
        assert ideal_membership(zero2, gens_list) == groebner.MembershipCertificate(
            MembershipStatus.MEMBER, cofactors=cofactors, basis_complete=True
        )
        assert ideal_membership(p2("T1*T2 - 1"), gens_list) == groebner.MembershipCertificate(
            MembershipStatus.NON_MEMBER, basis_complete=True
        )


def _plus(form, u):
    """``form`` plus the packed monomial ``u``."""
    terms, den = form
    return {**terms, u: terms.get(u, 0) + den}, den


def _plus_last_tag(pk, form):
    """``form`` with a tag-only, so T-free, term too many: + X_last."""
    return _plus(form, pk.units[-1])


def test_substitution_mismatch_is_caught(gens, monkeypatch):
    g = tuple(gens[n] for n in range(2, 5))
    h = gens[2] * gens[3]
    groebner._tag_elimination_basis.cache_clear()
    _, gb = groebner._tag_elimination_basis(g, GroebnerBudget())
    real = groebner._reduce

    def corrupted(work, table, pk, degree_cap, *rest):
        steps, remainder = real(work, table, pk, degree_cap, *rest)
        return steps, _plus_last_tag(pk, remainder)

    # a cold asking: every monomial of h is new to the basis, and divided
    with monkeypatch.context() as patch:
        patch.setattr(groebner, "_reduce", corrupted)
        with pytest.raises(RuntimeError, match="substitution mismatch"):
            subalgebra_membership(h, g)
    # a warm asking reads the remainders the corrupted division stored
    (at,) = gb._divisors.widths.values()
    assert at.remainders.keys() >= set(at.pk.pack_terms(groebner._form(h)[0]))
    with pytest.raises(RuntimeError, match="substitution mismatch"):
        subalgebra_membership(h, g)
    # the remainder table of a fresh basis: h stores its monomials' remainders, then reads them
    groebner._tag_elimination_basis.cache_clear()
    _, gb = groebner._tag_elimination_basis(g, GroebnerBudget())
    for _ in range(2):
        assert subalgebra_membership(h, g).status is MembershipStatus.MEMBER
    (at,) = gb._divisors.widths.values()
    packed = at.pk.pack_terms(groebner._form(h)[0])
    assert all(u in at.remainders for u in packed)
    u = next(iter(packed))
    at.remainders[u] = _plus_last_tag(at.pk, at.remainders[u])
    with pytest.raises(RuntimeError, match="substitution mismatch"):
        subalgebra_membership(h, g)
    groebner._tag_elimination_basis.cache_clear()


def test_cofactor_expansion_mismatch_is_caught(monkeypatch):
    gens_list = [p2("T1*T2 - 1"), p2("T1^3")]
    gb = groebner._tracked_basis(tuple(gens_list), GRLEX, GroebnerBudget())
    assert ideal_membership(p2("T2"), gens_list).status is MembershipStatus.MEMBER
    (first, *rest), *others = gb.cofactors
    corrupt = dataclasses.replace(gb, cofactors=((first + p2("T1"), *rest), *others))
    monkeypatch.setattr(groebner, "_tracked_basis", lambda *args: corrupt)
    with pytest.raises(RuntimeError, match="cofactor expansion mismatch"):
        ideal_membership(p2("T2"), gens_list)


def test_corrupted_image_is_caught(gens):
    g = tuple(gens[n] for n in range(2, 5))
    h = gens[2] * gens[3]
    groebner._tag_elimination_basis.cache_clear()
    _, gb = groebner._tag_elimination_basis(g, GroebnerBudget())
    cert = subalgebra_membership(h, g)
    assert cert.representation == parse_poly("X2*X3", x_names(4), Domain.RAT)
    (at,) = gb._divisors.widths.values()
    m = at.pk.pack((0, 0, 1, 1))  # X2*X3, whose image the check just stored
    assert m in at.images
    at.images[m] = _plus(at.images[m], at.pk.units[0])
    with pytest.raises(RuntimeError, match="substitution mismatch"):
        subalgebra_membership(h, g)
    groebner._tag_elimination_basis.cache_clear()


def test_corrupted_packed_combo_is_caught():
    gens_list = [p2("T1*T2 - 1"), p2("T1^3")]
    groebner._tracked_basis.cache_clear()
    gb = groebner._tracked_basis(tuple(gens_list), GRLEX, GroebnerBudget())
    assert ideal_membership(p2("T2"), gens_list).status is MembershipStatus.MEMBER
    (at,) = gb._divisors.widths.values()
    combos, _ = at.combos  # packed by the first query, read by the second
    assert len(gb.generators) == 1 and combos[0][0][0]
    combos[0][0] = _plus(combos[0][0], at.pk.units[0])
    with pytest.raises(RuntimeError, match="cofactor expansion mismatch"):
        ideal_membership(p2("T2"), gens_list)
    groebner._tracked_basis.cache_clear()


def test_image_past_the_query_width_redoes_the_check(redone):
    gens_list = (p2("T1 + T2^5"), p2("T2^5"))
    groebner._tag_elimination_basis.cache_clear()
    _, gb = groebner._tag_elimination_basis(gens_list, GroebnerBudget())
    assert sorted(gb._divisors.widths) == [6]
    # T1^13 = (X2 - X3)^13 divides within 6-bit fields, but X3^13 |-> T2^65 does not
    h = p2("T1^13")
    cert = subalgebra_membership(h, gens_list)
    assert cert == _reference_subalgebra_membership(h, gens_list)
    assert reference_substitute(cert.representation, list(gens_list)) == h
    assert cert.representation.coefficient((0, 13)) == -1
    # no division overflowed: the check widened, and ran again at 12 bits
    assert not redone and sorted(gb._divisors.widths) == [6, 12]
    assert gb._divisors.widths[12].images


@pytest.mark.parametrize("power", [22, 23])
def test_cofactors_past_the_width_redo_the_check(power, redone):
    gens_list = [p2("T1*T2^2 - 1"), p2(f"T1^{power}")]
    groebner._tracked_basis.cache_clear()
    gb = groebner._tracked_basis(tuple(gens_list), GRLEX, GroebnerBudget())
    assert sorted(gb._divisors.widths) == [6]
    one = Polynomial.one(2, Domain.RAT)
    cert = ideal_membership(one, gens_list)
    # at T1^22 the cofactors fit the 6-bit fields and only their products with
    # the generators leave them; at T1^23 the cofactors leave them too
    degrees = [c.total_degree() for c in cert.cofactors]
    assert (max(degrees) <= 63) is (power == 22)
    assert max(d + g.total_degree() for d, g in zip(degrees, gens_list)) > 63
    _, quotients = gb.normal_form_with_quotients(one)
    assert cert.cofactors == reference_cofactors(quotients, gb.cofactors, 2)
    assert cert.cofactors[0] * gens_list[0] + cert.cofactors[1] * gens_list[1] == one
    assert not redone and sorted(gb._divisors.widths) == [6, 12]
    # packed at 6 bits and widened by a product, or widened by the packing
    assert (gb._divisors.widths[6].combos is not None) is (power == 22)


def test_membership_basis_is_computed_once_per_generators(monkeypatch):
    calls = []
    real = groebner.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counting)
    groebner._tracked_basis.cache_clear()
    cases = ((GroebnerBudget(), MembershipStatus.NON_MEMBER), (GroebnerBudget(max_steps=1), MembershipStatus.UNKNOWN))
    for budget, status in cases:
        for _ in range(3):
            # equal generators built afresh hit the same cached basis
            gens_list = [p2("T1^2 - T2"), p2("T1*T2^3 - T1")]
            assert ideal_membership(p2("T1"), gens_list, GRLEX, budget).status is status
            cert = ideal_membership(p2("T1^2 - T2"), gens_list, GRLEX, budget)
            assert cert.status is MembershipStatus.MEMBER
            assert cert.basis_complete is (status is MembershipStatus.NON_MEMBER)
            expansion = cert.cofactors[0] * gens_list[0] + cert.cofactors[1] * gens_list[1]
            assert expansion == p2("T1^2 - T2")
    # one complete basis and one truncated basis, each computed once
    assert len(calls) == 2


def test_membership_agrees_with_linear_algebra_oracle():
    rng = random.Random(SEED + 6)
    agreements = 0
    for _ in range(40):
        k = rng.randint(1, 3)
        gens_list = [random_poly(rng, 2, Domain.INT, max_terms=3, max_exp=3) for _ in range(k)]
        gens_list = [g for g in gens_list if not g.is_zero]
        if not gens_list:
            continue
        p = random_poly(rng, 2, Domain.INT, max_terms=3, max_exp=3)
        cert = ideal_membership(p, gens_list)
        oracle = ideal_membership_by_linear_algebra(p, gens_list, cofactor_degree=3)
        if oracle is not None:
            # oracle found explicit degree-<=3 cofactors: definitely a member
            assert cert.status is MembershipStatus.MEMBER
            agreements += 1
        elif cert.status is MembershipStatus.MEMBER:
            # member with cofactors beyond oracle degree: verify by expansion
            expansion = Polynomial.zero(2, Domain.RAT)
            for c, g in zip(cert.cofactors, gens_list):
                expansion = expansion + c * g.as_domain(Domain.RAT)
            assert expansion == p.as_domain(Domain.RAT)
            assert all(c.total_degree() > 3 or c.is_zero for c in cert.cofactors) or True
    assert agreements >= 5  # the comparison actually exercised both routes


# -- relation ideals -------------------------------------------------------


def test_independent_pair_has_zero_relation_ideal(gens):
    # Jacobian oracle first: det = 2*T1*T2^2 - T2 != 0, so independence holds
    det = jacobian_determinant(gens[2], gens[3])
    assert det == gens[3]
    result = relation_ideal((gens[2], gens[3]))
    assert result.relations == () and result.complete


def test_duplicate_generators_yield_tag_difference():
    result = relation_ideal((p2("T1"), p2("T1")))
    assert result.complete
    diff = parse_poly("X2 - X3", x_names(3), Domain.RAT)
    assert any(r == diff or r == -diff or r.scale(-1) == diff for r in result.relations)


def test_three_generator_relation_contains_known_element(gens):
    result = relation_ideal((gens[2], gens[3], gens[4]))
    assert result.complete and result.relations
    known = parse_poly("2*X2*X4 - X4 - 3*X3^2 + X3", x_names(4), Domain.RAT)
    # substitution oracle: the known relation vanishes on (f2, f3, f4)
    substituted = known.substitute([gens[n].as_domain(Domain.RAT) for n in (2, 3, 4)])
    assert substituted.is_zero
    # and it lies in the computed relation ideal
    rel_gb = buchberger(list(result.relations), GRLEX)
    assert rel_gb.normal_form(known).is_zero


def test_relations_vanish_under_substitution(gens):
    images = [gens[n].as_domain(Domain.RAT) for n in range(2, 7)]
    result = relation_ideal(tuple(images))
    assert result.complete
    assert result.relations  # five dependent generators must have relations
    for r in result.relations:
        assert r.substitute(images).is_zero


def test_relation_tag_count_and_variable_layout(gens):
    result = relation_ideal((gens[2], gens[3], gens[4], gens[5]))
    assert result.tag_count == 4
    for r in result.relations:
        assert r.nvars == 4


def test_generators_in_different_rings_are_rejected(monkeypatch):
    # T1 in Z[T1, T2] and T3 in Z[T1, T2, T3]: embedded at offset 0 into four
    # variables, T3 would land on the first tag variable
    calls = []
    monkeypatch.setattr(groebner, "buchberger", lambda *args, **kwargs: calls.append(args))
    g1, g2 = Polynomial.variable(2, 0, Domain.INT), Polynomial.variable(3, 2, Domain.INT)
    for gens_list in ([g1, g2], [g2, g1]):
        for attempt in (
            lambda: tag_ring_generators(gens_list),
            lambda: relation_ideal(gens_list),
            lambda: subalgebra_membership(gens_list[0], gens_list),
        ):
            with pytest.raises(ArityError, match="generators live in different rings"):
                attempt()
    assert not calls  # rejected before any basis work


# -- subalgebra membership -------------------------------------------------


def test_generator_is_member_with_tag_representation(gens):
    g = tuple(gens[n] for n in range(2, 6))
    cert = subalgebra_membership(gens[2], g)
    assert cert.status is MembershipStatus.MEMBER
    assert format_poly(cert.representation, x_names(5)) == "X2"
    assert cert.integral is True
    assert cert.truncation_level == 5


def test_second_generator_representation(gens):
    g = tuple(gens[n] for n in range(2, 6))
    cert = subalgebra_membership(gens[3], g)
    assert cert.status is MembershipStatus.MEMBER
    assert format_poly(cert.representation, x_names(5)) == "X3"
    assert cert.integral is True


def test_ambient_variable_is_not_a_member(gens):
    g = tuple(gens[n] for n in range(2, 6))
    cert = subalgebra_membership(p2("T2"), g)
    assert cert.status is MembershipStatus.NON_MEMBER


def test_member_representation_substitutes_back_randomized(gens):
    rng = random.Random(SEED + 7)
    g = tuple(gens[n].as_domain(Domain.RAT) for n in range(2, 6))
    for _ in range(20):
        # random element of the subalgebra: polynomial in the generators
        expr = random_poly(rng, 4, Domain.INT, max_terms=3, max_exp=2, max_coeff=4)
        h = expr.substitute(list(g))
        cert = subalgebra_membership(h, g)
        assert cert.status is MembershipStatus.MEMBER
        assert cert.representation.substitute(list(g)) == h


def test_integrality_flag_tracks_denominators(gens):
    g = tuple(gens[n] for n in range(2, 6))
    third = gens[2].as_domain(Domain.RAT).scale(Fraction(1, 3))
    cert = subalgebra_membership(third, g)
    assert cert.status is MembershipStatus.MEMBER
    assert cert.integral is False
    cert_int = subalgebra_membership(gens[2] * 7, g)
    assert cert_int.integral is True


def _reference_subalgebra_membership(h, gens_list, budget=GroebnerBudget()):
    """The certificate from the definition, on ``Fraction`` polynomials: the
    reference division of h, embedded in the combined ring, by the
    elimination basis; a T-free remainder, projected to the tags, is the
    representation, and it must substitute back to h."""
    _, gb = groebner._tag_elimination_basis(tuple(gens_list), budget)
    nvars, count = gens_list[0].nvars, len(gens_list)
    query = h.as_domain(Domain.RAT).embed(nvars + count, 0)
    _, remainder = _reference_division(query, gb.generators, gb.order)
    level = count + 1
    if all(not any(u[:nvars]) for u in remainder):
        rep = Polynomial(count, Domain.RAT, {u[nvars:]: c for u, c in remainder.items()})
        assert rep.substitute([g.as_domain(Domain.RAT) for g in gens_list]) == h.as_domain(Domain.RAT)
        integral = all(c.denominator == 1 for c in remainder.values())
        return groebner.MembershipCertificate(
            MembershipStatus.MEMBER, rep, None, integral, level, gb.reduced
        )
    if gb.reduced:
        return groebner.MembershipCertificate(MembershipStatus.NON_MEMBER, truncation_level=level)
    return groebner.MembershipCertificate(
        MembershipStatus.UNKNOWN, truncation_level=level, basis_complete=False
    )


def _assert_parity(h, gens_list, budget=GroebnerBudget()) -> MembershipStatus:
    cert = subalgebra_membership(h, gens_list, budget)
    assert cert == _reference_subalgebra_membership(h, gens_list, budget)
    if cert.representation is not None:
        assert _is_rational(cert.representation._terms)
    return cert.status


def test_subalgebra_membership_matches_the_fraction_path(redone):
    k8 = [closed_form_generator(n) for n in range(2, 9)]
    one = Polynomial.one(2, Domain.INT)
    statuses = []
    # every product f_i * f_j minus a constant, at k = 8
    for i in range(2, 9):
        for j in range(i, 9):
            product = k8[i - 2] * k8[j - 2]
            for c in (0, 3):
                statuses.append(_assert_parity(product - one * c, k8))
    # non-members, and queries over N, Z and Q, the zero query among them
    t = t_names(2)
    queries = [
        *(parse_poly(text, t, Domain.NAT) for text in ("T1*T2", "T1^3*T2^3 + T1*T2", "T1", "T1*T2 + T2", "0")),
        *(parse_poly(text, t, Domain.INT) for text in ("T1*T2 - T2^2", "-T2", "T1^2", "0")),
        *(parse_poly(text, t, Domain.RAT) for text in ("1/3*T1*T2", "1/2*T1*T2^2 - 1/4*T2", "1/5*T1 + 1", "0")),
        k8[2].as_domain(Domain.RAT).scale(Fraction(1, 3)) * k8[5].as_domain(Domain.RAT),
    ]
    statuses += [_assert_parity(h, k8) for h in queries]
    assert {MembershipStatus.MEMBER, MembershipStatus.NON_MEMBER} <= set(statuses)
    # a budget-truncated basis: members stay sound, the rest is unknown
    truncated = GroebnerBudget(max_steps=2)
    cut = [_assert_parity(h, k8[:4], truncated) for h in [*queries, k8[1] * 5, k8[3] - one]]
    assert {MembershipStatus.MEMBER, MembershipStatus.UNKNOWN} <= set(cut)
    assert not groebner._tag_elimination_basis(tuple(k8[:4]), truncated)[1].reduced
    # a wide query redoes its division at twice the width, on a fresh basis
    groebner._tag_elimination_basis.cache_clear()
    assert not redone
    assert _assert_parity(p2("T1 + T2") ** 33, (p2("T1 + T2^3"), p2("T2"))) is MembershipStatus.MEMBER
    assert redone


# -- budgets ---------------------------------------------------------------


def test_step_budget_raises_with_partial_basis():
    gens_list = [p2("T1^3 - 2*T1*T2"), p2("T1^2*T2 - 2*T2^2 + T1")]
    with pytest.raises(BudgetExceededError) as exc_info:
        buchberger(gens_list, GRLEX, GroebnerBudget(max_steps=1))
    partial = exc_info.value.partial
    assert partial.generators and not partial.reduced
    # partial basis elements are genuine ideal members
    full = buchberger(gens_list, GRLEX)
    for g in partial.generators:
        assert full.normal_form(g).is_zero


def test_coefficient_budget_stops_runaway_ideal():
    # with no cap on coefficients this ideal passes 38,000 bits by step 34
    # and then runs for minutes
    t3 = t_names(3)
    gens_list = [
        parse_poly(text, t3, Domain.INT)
        for text in (
            "-2*T1^3*T2^3*T3^3 + 2*T1*T3^3",
            "T1^2*T2*T3^2 - 4*T2^3*T3^2 - 7*T2*T3^2",
            "-8*T2^3*T3^2 - 9*T1*T2^2*T3 + 3*T1^2",
        )
    ]
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="coefficient budget 2048 bits") as exc_info:
        buchberger(gens_list, elimination(2))
    assert time.perf_counter() - start < 1.0
    partial = exc_info.value.partial
    assert partial.generators and not partial.reduced and partial.steps_used < 50


def test_degree_budget_raises():
    gens_list = [p2("T1^5 - T2"), p2("T1*T2^5 - 1")]
    with pytest.raises(BudgetExceededError):
        buchberger(gens_list, LEX, GroebnerBudget(max_degree=3))


def test_budget_exhaustion_gives_unknown_not_wrong_answer(gens):
    g = tuple(gens[n] for n in range(2, 6))
    cert = subalgebra_membership(p2("T2"), g, GroebnerBudget(max_steps=2))
    assert cert.status is MembershipStatus.UNKNOWN
    assert cert.basis_complete is False


def test_truncated_basis_can_still_certify_membership():
    # query equals an input generator: even a heavily truncated basis proves it
    gens_list = [p2("T1^2 - T2"), p2("T1*T2^3 - T1")]
    cert = ideal_membership(p2("T1^2 - T2"), gens_list, GRLEX, GroebnerBudget(max_steps=1))
    assert cert.status is MembershipStatus.MEMBER
    expansion = cert.cofactors[0] * gens_list[0] + cert.cofactors[1] * gens_list[1]
    assert expansion == p2("T1^2 - T2")


def test_elimination_basis_cache_is_deterministic(gens):
    g = tuple(gens[n] for n in range(2, 6))
    first = relation_ideal(g)
    second = relation_ideal(g)
    assert first == second


def test_budget_exhausted_elimination_basis_is_computed_once(monkeypatch):
    calls = []
    real = groebner.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counting)
    groebner._tag_elimination_basis.cache_clear()
    budget = GroebnerBudget(max_degree=8)
    ctx = AbhyankarContext.build(10, budget)
    assert not ctx.report.relations_complete
    for n in (2, 5, 10):
        h = ctx.generator_poly(n) * ctx.generator_poly(3)
        cert = subalgebra_membership(h, ctx.generators, budget)
        assert not cert.basis_complete
    assert len(calls) == 1


# relation_ideal of f_2..f_k: S-pairs reduced, number of relations, and the
# SHA-256 prefix of the relations printed one per line in X2..Xk
_RELATION_PINS = {
    4: (10, 1, "27690855f0bc46b3"),
    5: (23, 3, "099c991b7771d655"),
    6: (45, 6, "793fe372279ab3ad"),
    7: (78, 10, "6a009f6a0d8800b5"),
    8: (124, 15, "c9ee97faf08a80e5"),
    9: (185, 21, "d62c3128b0879d5d"),
    10: (263, 28, "07a1b4130a9cddfb"),
    11: (360, 36, "0531244252500a4a"),
    12: (478, 45, "f2528751dce53f73"),
    13: (619, 55, "9e8f29a3bb210c89"),
    14: (785, 66, "6af48b1f9f991a9f"),
    15: (978, 78, "d3229a398b251996"),
    16: (1200, 91, "89f08ad60f11d67b"),
}


@pytest.mark.parametrize("k", sorted(_RELATION_PINS))
def test_relation_ideal_is_pinned(k):
    result = relation_ideal(tuple(closed_form_generator(n) for n in range(2, k + 1)))
    text = "\n".join(format_poly(r, x_names(k)) for r in result.relations)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert result.complete
    assert (result.steps_used, len(result.relations), digest) == _RELATION_PINS[k]


def _closed_form_quadratics(k: int) -> list[Polynomial]:
    """X_{n+1}(m X_m - 1) - X_{m+1}(n X_n - 1) for 2 <= n < m <= k - 1, in
    X2..Xk: each vanishes at X_i = f_i, since f_{n+1} = (n f_n - 1) T2."""
    x = {i: Polynomial.variable(k - 1, i - 2, Domain.RAT) for i in range(2, k + 1)}
    one = Polynomial.one(k - 1, Domain.RAT)
    return [
        x[n + 1] * (m * x[m] - one) - x[m + 1] * (n * x[n] - one)
        for n in range(2, k)
        for m in range(n + 1, k)
    ]


@pytest.mark.parametrize("k", range(4, 13))
def test_relation_ideal_is_generated_by_the_closed_form_quadratics(k):
    result = relation_ideal(tuple(closed_form_generator(n) for n in range(2, k + 1)))
    quadratics = _closed_form_quadratics(k)
    assert result.complete and len(quadratics) == math.comb(k - 2, 2)
    # the relations are a Groebner basis in the tag block's order, graded lex
    for q in quadratics:
        _, remainder = _reference_division(q, result.relations, GRLEX)
        assert not remainder
    # and each relation is a Q-combination of the quadratics, found without Groebner bases
    zero = Polynomial.zero(k - 1, Domain.RAT)
    solved = ideal_memberships_by_linear_algebra(list(result.relations), quadratics, 0)
    for r, cofactors in zip(result.relations, solved, strict=True):
        assert cofactors is not None
        assert sum((c * q for c, q in zip(cofactors, quadratics)), zero) == r
