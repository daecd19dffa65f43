"""Groebner engine: canonical bases, certificates, elimination, budgets."""

import hashlib
import random
import time
from fractions import Fraction

import pytest
import sympy

from semiring_lab import groebner
from semiring_lab.abhyankar import AbhyankarContext
from semiring_lab.polynomials import (
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
    closed_form_generator,
    ideal_membership_by_linear_algebra,
    jacobian_determinant,
    random_poly,
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
                gi, gj = gens_list[i], gens_list[j]
                lm_i, lc_i = gi.leading_term(GRLEX)
                lm_j, lc_j = gj.leading_term(GRLEX)
                lcm = tuple(max(a, b) for a, b in zip(lm_i, lm_j))
                mi = Polynomial.monomial(tuple(a - b for a, b in zip(lcm, lm_i)), Fraction(1) / lc_i, Domain.RAT)
                mj = Polynomial.monomial(tuple(a - b for a, b in zip(lcm, lm_j)), Fraction(1) / lc_j, Domain.RAT)
                spoly = mi * gi - mj * gj
                assert gb.normal_form(spoly).is_zero


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


def _sympy_basis(gens: list[Polynomial], order: str) -> set[Polynomial]:
    """sympy's reduced basis of the ideal, each element rescaled to monic."""
    nvars = gens[0].nvars
    syms = sympy.symbols(f"x0:{nvars}")
    polys = [sympy.Poly.from_dict(dict(g.terms()), *syms, domain="QQ") for g in gens]
    monic_order = LEX if order == "lex" else GRLEX
    out = set()
    for e in sympy.groebner(polys, *syms, order=order).exprs:
        poly = sympy.Poly(e, *syms)
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
    rng = random.Random(SEED + 7)
    checked = 0
    while checked < 50:
        nvars = rng.randint(2, 3)
        # exponents up to 3 already give lex runs past the default degree cap
        gens_list = [
            random_poly(rng, nvars, Domain.INT, max_terms=3, max_exp=2)
            for _ in range(rng.randint(2, 3))
        ]
        gens_list = [g for g in gens_list if not g.is_zero]
        if not gens_list:
            continue
        mine = buchberger(gens_list, order)
        assert set(mine.generators) == _sympy_basis(gens_list, order.kind), gens_list
        checked += 1


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


def _reference_divide(target, divisors, order, degree_cap=None):
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
        table = [groebner._entry(d, order) for d in divisors]
        try:
            expected = _reference_divide(target, divisors, order, cap)
        except groebner._DegreeCapHit:
            with pytest.raises(groebner._DegreeCapHit):
                groebner._divide(dict(target.terms()), table, order, cap)
            raised += 1
            continue
        quotients, remainder = groebner._divide(dict(target.terms()), table, order, cap)
        assert (quotients, remainder) == expected
        assert all(map(_is_rational, [*quotients, remainder]))
        assert groebner._divide(dict(target.terms()), table, order, cap, track=False) == (None, remainder)
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

    def spy(work, table, pk, degree_cap):
        try:
            return real(work, table, pk, degree_cap)
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
        quotients, remainder = _reference_divide(query, gb.generators, order)
        expected = Polynomial(2, Domain.RAT, remainder)
        assert gb.normal_form_with_quotients(query) == (
            expected, tuple(Polynomial(2, Domain.RAT, q) for q in quotients)
        )
        assert ideal_membership(query, _WIDE_GENS, order).member is expected.is_zero
        member = query - expected
        quotients, remainder = _reference_divide(member, gb.generators, order)
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
    assert redone and max(e.degree for e in gb._divisors) > 63
    assert gb.normal_form(parse_poly("T1*T4", t4, Domain.RAT)) == parse_poly("T4^126", t4, Domain.RAT)


def test_wide_subalgebra_representations_match_reference_division(redone):
    gens_list = (p2("T1 + T2^3"), p2("T2"))  # T1 -> X2 - X3^3 triples degrees
    _, gb, complete = groebner._tag_elimination_basis(gens_list, GroebnerBudget())
    for h in (p2("T1^40*T2"), p2("T1 + T2") ** 33, p2("T1^12*T2^988")):
        _, remainder = _reference_divide(h.embed(4, 0), gb.generators, gb.order)
        cert = subalgebra_membership(h, gens_list)
        assert cert.status is MembershipStatus.MEMBER
        assert cert.representation == Polynomial(4, Domain.RAT, remainder).project(2, 4)
    assert complete and redone


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
    assert cert.member is False


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
    assert cert.member is False


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
    assert cert.member is None


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
    8: (125, 15, "c9ee97faf08a80e5"),
    9: (188, 21, "d62c3128b0879d5d"),
    10: (270, 28, "07a1b4130a9cddfb"),
    11: (373, 36, "0531244252500a4a"),
    12: (500, 45, "f2528751dce53f73"),
}


@pytest.mark.parametrize("k", sorted(_RELATION_PINS))
def test_relation_ideal_is_pinned(k):
    result = relation_ideal(tuple(closed_form_generator(n) for n in range(2, k + 1)))
    text = "\n".join(format_poly(r, x_names(k)) for r in result.relations)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert result.complete
    assert (result.steps_used, len(result.relations), digest) == _RELATION_PINS[k]
