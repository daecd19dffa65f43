"""Tests for the recurrence subring of Z[T1,T2], its surjection onto Q,
and the attached certificates (unit-ideal, fraction-field, non-extendability,
and annihilators with coefficients outside the kernel)."""

import random
from fractions import Fraction

import pytest

from semiring_lab import abhyankar, groebner
from semiring_lab.abhyankar import (
    AbhyankarContext,
    AnnihilatorWitness,
    NotInSubringError,
    SubringElement,
    UnitIdealWitness,
    UnivarOverSubring,
    UnverifiedContextError,
    WellDefinednessReport,
    fraction_field_witnesses,
    generator,
    non_extendability_certificate,
    non_kernel_annihilator,
    unit_ideal_witness,
    univar_in_kernel,
)
from semiring_lab.groebner import GroebnerBudget
from semiring_lab.polynomials import (
    Domain,
    Polynomial,
    format_poly,
    parse_poly,
    t_names,
    x_names,
)
from tests.oracles import closed_form_generator, random_poly

SEED = 57511

T1 = Polynomial.variable(2, 0, Domain.INT)
T2 = Polynomial.variable(2, 1, Domain.INT)
ONE = Polynomial.one(2, Domain.INT)


def tp(text: str, domain: Domain = Domain.INT) -> Polynomial:
    return parse_poly(text, t_names(2), domain)


@pytest.fixture(scope="module")
def ctx():
    return AbhyankarContext.build(6)


@pytest.fixture(scope="module")
def ctx10():
    return AbhyankarContext.build(10)


# -- generators -------------------------------------------------------------


def test_first_generators_exactly():
    assert generator(2) == tp("T1*T2")
    assert generator(3) == tp("2*T1*T2^2 - T2")
    assert generator(4) == tp("6*T1*T2^3 - 3*T2^2 - T2")


def test_generators_match_closed_form_oracle():
    for n in range(2, 10):
        assert generator(n) == closed_form_generator(n), n


def test_generator_recurrence():
    for n in range(2, 9):
        assert generator(n + 1) == (generator(n) * n - ONE) * T2


def test_generator_rejects_small_index():
    with pytest.raises(ValueError):
        generator(1)
    with pytest.raises(ValueError):
        generator(0)


# -- context construction and well-definedness ------------------------------


def test_build_default_is_verified(ctx):
    assert ctx.truncation == 6
    assert ctx.verified
    assert ctx.report.relations_complete
    assert ctx.report.all_vanish
    assert len(ctx.generators) == 5
    assert ctx.point == tuple(Fraction(1, n) for n in range(2, 7))


def test_verification_is_computed_once(monkeypatch):
    checks = []
    real = WellDefinednessReport.all_vanish.fget
    monkeypatch.setattr(WellDefinednessReport, "all_vanish", property(lambda r: checks.append(r) or real(r)))
    ctx = AbhyankarContext.build(5)
    for n in range(2, 6):
        element = ctx.generator_element(n)
        assert element.rational_image == Fraction(1, n) and not element.in_kernel
    assert ctx.verified and ctx.report.verified
    assert checks == [ctx.report]


def test_truncation_three_has_no_relations():
    ctx3 = AbhyankarContext.build(3)
    assert ctx3.report.relations == ()
    assert ctx3.verified


def test_truncation_four_relation_vanishes_at_point():
    ctx4 = AbhyankarContext.build(4)
    assert len(ctx4.report.relations) == 1
    rel = ctx4.report.relations[0]
    # twice the canonical relation has integer coefficients:
    # 2*X2*X4 - 3*X3^2 + X3 - X4
    doubled = parse_poly(
        "2*X2*X4 - 3*X3^2 + X3 - X4", x_names(4), Domain.RAT
    )
    assert rel.scale(2) == doubled
    assert rel.evaluate([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]) == 0
    assert ctx4.verified


def test_every_cached_relation_vanishes_at_point(ctx, ctx10):
    for c in (ctx, ctx10):
        point = list(c.point)
        for rel, value in zip(c.report.relations, c.report.values_at_point):
            assert rel.evaluate(point) == 0
            assert value == 0


def test_budget_exhaustion_flags_partial_and_blocks_evaluation():
    ctx5 = AbhyankarContext.build(5, GroebnerBudget(max_degree=30, max_steps=3))
    assert not ctx5.report.relations_complete
    assert not ctx5.verified
    e = ctx5.generator_element(2)
    with pytest.raises(UnverifiedContextError):
        ctx5.rational_image(e)
    with pytest.raises(UnverifiedContextError):
        _ = e.in_kernel


def test_build_rejects_truncation_below_two():
    with pytest.raises(ValueError):
        AbhyankarContext.build(1)


def test_build_is_deterministic(ctx):
    again = AbhyankarContext.build(6)
    assert again.report == ctx.report
    assert again.generators == ctx.generators


# -- subring elements -------------------------------------------------------


def test_element_substitution_invariant(ctx):
    rep = parse_poly("3*X2*X4 - X6 + 5", x_names(6), Domain.INT)
    e = ctx.element(rep)
    assert e.representation.substitute(list(ctx.generators)) == e.ambient


def test_ambient_form_is_derived_once_on_demand(ctx, monkeypatch):
    calls = []
    substitute = Polynomial.substitute

    def counting(self, images):
        calls.append(self)
        return substitute(self, images)

    monkeypatch.setattr(Polynomial, "substitute", counting)
    rep = parse_poly("3*X2*X4 - X6 + 5", x_names(6), Domain.INT)
    e = ctx.element(rep)
    assert e.rational_image == ctx.element(rep).rational_image
    assert calls == []
    assert e.ambient == e.ambient
    assert calls == [rep]
    p = (generator(2) * generator(3) - generator(4) * 3 + ONE * 7).as_domain(Domain.RAT)
    assert ctx.lift(p).ambient == p.as_domain(Domain.INT)


def test_element_arithmetic_tracks_ambient(ctx):
    f2 = ctx.generator_element(2)
    f3 = ctx.generator_element(3)
    combo = (f2 + f3) ** 2 - f3 * 4 + ctx.constant(9)
    expected = (generator(2) + generator(3)) ** 2 - generator(3) * 4 + ONE * 9
    assert combo.ambient == expected
    assert combo.representation.substitute(list(ctx.generators)) == expected
    assert (-f2).ambient == -generator(2)
    assert (3 * f2).ambient == generator(2) * 3


def test_cross_context_arithmetic_rejected(ctx):
    other = AbhyankarContext.build(4)
    with pytest.raises(ValueError):
        ctx.generator_element(2) + other.generator_element(2)


def test_element_rejects_wrong_tag_arity(ctx):
    with pytest.raises(ValueError):
        ctx.element(parse_poly("X2", x_names(4), Domain.INT))


def test_lift_recovers_generators(ctx):
    for n in range(2, 7):
        lifted = ctx.lift(generator(n))
        assert lifted.ambient == generator(n)
        assert lifted.representation == Polynomial.variable(5, n - 2, Domain.INT)


def test_lift_of_product(ctx):
    lifted = ctx.lift(generator(2) * generator(3))
    assert lifted.representation == parse_poly("X2*X3", x_names(6), Domain.INT)


def test_lift_rejects_ambient_variable(ctx):
    with pytest.raises(NotInSubringError):
        ctx.lift(T2)


def test_lift_rejects_non_integer_representation(ctx):
    with pytest.raises(NotInSubringError):
        ctx.lift(generator(2).as_domain(Domain.RAT).scale(Fraction(1, 3)))


def test_lift_round_trips_random_linear_elements(ctx):
    # linear tag polynomials are already in normal form (no relation among
    # the generators has a degree-one leading monomial), so lift recovers
    # them exactly
    rng = random.Random(SEED)
    gens = list(ctx.generators)
    for _ in range(15):
        rep = Polynomial.constant(5, rng.randint(-4, 4), Domain.INT)
        for i in range(5):
            rep = rep + Polynomial.variable(5, i, Domain.INT) * rng.randint(-4, 4)
        e = ctx.element(rep)
        lifted = ctx.lift(e.ambient)
        assert lifted.ambient == e.ambient
        assert lifted.representation == e.representation
        assert lifted.representation.substitute(gens) == e.ambient


def test_lift_refuses_conservatively_on_non_integral_canonical_form(ctx):
    # f_3 * f_5 is an integer combination of generators by construction, but
    # its canonical representation picks up thirds; lift must refuse rather
    # than guess, and the refusal names the certificate problem
    e = ctx.generator_element(3) * ctx.generator_element(5)
    with pytest.raises(NotInSubringError, match="no integer certificate"):
        ctx.lift(e.ambient)



def test_lift_on_a_truncated_context_is_undecided():
    # f_5 * f_6 is in B_6, but the degree-4 budget stops the elimination
    # basis before membership can be decided either way
    small = AbhyankarContext.build(6, GroebnerBudget(max_degree=4))
    assert not small.report.relations_complete
    product = generator(5) * generator(6)
    with pytest.raises(NotInSubringError, match="undecided within budget"):
        small.lift(product)

# -- the surjection onto Q --------------------------------------------------


def test_generator_images(ctx, ctx10):
    for c in (ctx, ctx10):
        for n in range(2, c.truncation + 1):
            assert c.generator_element(n).rational_image == Fraction(1, n)


def test_image_examples(ctx):
    f2, f3 = ctx.generator_element(2), ctx.generator_element(3)
    one = ctx.constant(1)
    assert (f2 * 2 - one).rational_image == 0
    assert (f2 * f3 + ctx.constant(7)).rational_image == Fraction(43, 6)
    assert ctx.generator_element(4).rational_image == Fraction(1, 4)


def test_image_is_ring_homomorphism(ctx):
    rng = random.Random(SEED + 1)
    for _ in range(120):
        a = ctx.element(random_poly(rng, 5, Domain.INT, max_terms=3, max_exp=2, max_coeff=5))
        b = ctx.element(random_poly(rng, 5, Domain.INT, max_terms=3, max_exp=2, max_coeff=5))
        assert (a + b).rational_image == a.rational_image + b.rational_image
        assert (a * b).rational_image == a.rational_image * b.rational_image


def test_image_is_representation_independent():
    ctx4 = AbhyankarContext.build(4)
    rel_doubled = ctx4.report.relations[0].scale(2)
    rel_int = Polynomial(3, Domain.INT, {e: int(c) for e, c in rel_doubled.terms()})
    rep = parse_poly("X2*X3 + 2*X4", x_names(4), Domain.INT)
    e = ctx4.element(rep)
    shifted = SubringElement(ctx4, rep + rel_int * 3)
    assert shifted.representation != e.representation
    assert shifted.ambient == e.ambient
    assert shifted.rational_image == e.rational_image


def test_kernel_membership(ctx):
    one = ctx.constant(1)
    for n in range(2, 7):
        assert (ctx.generator_element(n) * n - one).in_kernel
    assert not ctx.generator_element(2).in_kernel
    assert not one.in_kernel


def test_cross_context_image_rejected(ctx):
    other = AbhyankarContext.build(4)
    with pytest.raises(ValueError):
        ctx.rational_image(other.generator_element(2))


# -- unit-ideal certificates ------------------------------------------------


def test_unit_witness_level_two(ctx):
    w = unit_ideal_witness(ctx, 2)
    assert isinstance(w, UnitIdealWitness)
    assert w.multiplier == T2 * 3
    assert w.identity_holds
    assert w.factors_in_kernel == (True, True)
    # independent expansion from raw polynomial arithmetic
    assert T2 * 3 * (generator(2) * 2 - ONE) - (generator(3) * 3 - ONE) == ONE


def test_unit_witness_matches_direct_expansion(ctx, ctx10):
    for c, n in ((ctx, 3), (ctx10, 9)):
        w = unit_ideal_witness(c, n)
        assert w.identity_holds
        assert w.factors_in_kernel == (True, True)
        direct = T2 * (n + 1) * (generator(n) * n - ONE) - (
            generator(n + 1) * (n + 1) - ONE
        )
        assert direct == ONE


def test_unit_witness_requires_room(ctx):
    with pytest.raises(ValueError):
        unit_ideal_witness(ctx, 6)
    with pytest.raises(ValueError):
        unit_ideal_witness(ctx, 1)


# -- fraction-field certificates --------------------------------------------


def test_fraction_witnesses(ctx):
    t2w, t1w = fraction_field_witnesses(ctx)
    assert t2w.exact and t2w.denominator_nonzero
    assert t1w.exact and t1w.denominator_nonzero
    assert t2w.target == T2 and t1w.target == T1
    # the same identities from raw polynomial arithmetic
    den = generator(2) * 2 - ONE
    assert T2 * den - generator(3) == Polynomial.zero(2, Domain.INT)
    assert T1 * generator(3) - generator(2) * den == Polynomial.zero(2, Domain.INT)


def test_fraction_witnesses_need_truncation_three():
    with pytest.raises(ValueError):
        fraction_field_witnesses(AbhyankarContext.build(2))


# -- non-extendability ------------------------------------------------------


def test_non_extendability_certificate():
    cert = non_extendability_certificate(6)
    assert cert.first_n == 2
    assert [row.n for row in cert.rows] == [2, 3, 4, 5, 6]
    for row in cert.rows:
        assert row.coefficient == 0
        assert row.required_value == Fraction(1, row.n + 1)
    assert len(cert.derivation) == 4
    assert "contradiction" in cert.derivation[-1]


def test_non_extendability_rejects_small_bound():
    with pytest.raises(ValueError):
        non_extendability_certificate(1)


# -- univariate polynomials over the subring --------------------------------


def test_univar_kernel_examples(ctx):
    one = ctx.constant(1)
    f2 = ctx.generator_element(2)
    kernel_elt = f2 * 2 - one
    h_in = UnivarOverSubring((-(kernel_elt * f2), kernel_elt))
    assert univar_in_kernel(h_in)
    h_out = UnivarOverSubring((-f2, one))
    assert not univar_in_kernel(h_out)
    assert univar_in_kernel(UnivarOverSubring(()))
    assert univar_in_kernel(UnivarOverSubring((ctx.constant(0),)))


def test_univar_evaluation(ctx):
    one = ctx.constant(1)
    f2 = ctx.generator_element(2)
    h = UnivarOverSubring((-f2, one))  # X - f_2
    assert h.evaluate_ambient(generator(2)).is_zero
    assert h.evaluate_ambient(T1) == T1 - generator(2)
    sq = UnivarOverSubring((f2 * f2, -(f2 * 2), one))  # (X - f_2)^2
    assert sq.evaluate_ambient(generator(2)).is_zero


def test_univar_rejects_mixed_contexts(ctx):
    other = AbhyankarContext.build(4)
    with pytest.raises(ValueError):
        UnivarOverSubring((ctx.constant(1), other.constant(1)))
    # same truncation, but only the first context is verified
    unverified = AbhyankarContext.build(6, GroebnerBudget(max_degree=3))
    with pytest.raises(ValueError):
        UnivarOverSubring((ctx.constant(1), unverified.constant(1)))


# -- annihilators outside the kernel ----------------------------------------


def assert_witness_checks(w):
    """h(base + shift) = 0, recomputed here, with a coefficient outside the kernel."""
    assert w.residual.is_zero
    assert not univar_in_kernel(w.h)
    assert w.h.evaluate_ambient((w.base + w.shift).as_domain(Domain.INT)).is_zero


def test_falsifier_on_first_generator(ctx):
    result = non_kernel_annihilator(ctx, tp("T1*T2", Domain.NAT))
    assert result.found
    w = result.witness
    assert_witness_checks(w)
    assert w.shift.is_zero
    assert w.base.as_domain(Domain.INT) == generator(2)
    # h is exactly X - f_2
    assert len(w.h.coeffs) == 2
    assert w.h.coeffs[1].ambient == ONE
    assert w.h.coeffs[0].ambient == -generator(2)


def test_falsifier_on_generator_square(ctx):
    result = non_kernel_annihilator(ctx, tp("T1^2*T2^2", Domain.NAT))
    assert result.found
    w = result.witness
    assert_witness_checks(w)
    assert w.shift.is_zero
    assert w.h.coeffs[1].ambient == ONE
    assert w.h.coeffs[0].ambient == -(generator(2) ** 2)


def test_falsifier_on_ambient_variables(ctx):
    den = generator(2) * 2 - ONE
    r2 = non_kernel_annihilator(ctx, tp("T2", Domain.NAT))
    assert r2.found
    assert_witness_checks(r2.witness)
    assert r2.witness.h.coeffs[1].ambient == den
    assert r2.witness.h.coeffs[0].ambient == -generator(3)
    r1 = non_kernel_annihilator(ctx, tp("T1", Domain.NAT))
    assert r1.found
    assert_witness_checks(r1.witness)
    assert r1.witness.h.coeffs[1].ambient == generator(3)
    assert r1.witness.h.coeffs[0].ambient == -(generator(2) * den)


def test_falsifier_skips_an_annihilator_with_kernel_coefficients(ctx, monkeypatch):
    # with 2*f_2 - 1 (image 0) tried first, h = (2*f_2 - 1)*X - (2*f_2 - 1)*f_2
    # annihilates T1*T2 yet has every coefficient in the kernel: the search
    # must pass over it, or condition c would fail on a witness that is none
    real = abhyankar._denominator_pool

    def kernel_first(context):
        pool = real(context)
        return [pool[1], pool[0], *pool[2:]]

    monkeypatch.setattr(abhyankar, "_denominator_pool", kernel_first)
    result = non_kernel_annihilator(ctx, tp("T1*T2", Domain.NAT))
    assert result.found and result.attempts == 2
    assert_witness_checks(result.witness)
    assert result.witness.h.describe() == "(1)*X + (-T1*T2)"


def test_falsifier_witnesses_replay(ctx):
    rng = random.Random(SEED + 2)
    found = 0
    for _ in range(10):
        base = random_poly(rng, 2, Domain.NAT, max_terms=2, max_exp=2, max_coeff=3)
        result = non_kernel_annihilator(ctx, base)
        if result.found:
            found += 1
            assert_witness_checks(result.witness)
    assert found >= 5


def test_falsifier_exhausts_honestly(ctx):
    result = non_kernel_annihilator(ctx, tp("T1^3", Domain.NAT))
    assert not result.found
    assert result.witness is None
    assert result.attempts > 50


def test_falsifier_is_deterministic(ctx):
    a = non_kernel_annihilator(ctx, tp("T2 + 1", Domain.NAT))
    b = non_kernel_annihilator(ctx, tp("T2 + 1", Domain.NAT))
    assert a.found == b.found and a.attempts == b.attempts
    if a.found:
        assert a.witness.h.describe() == b.witness.h.describe()
        assert a.witness.shift == b.witness.shift


def test_falsifier_reads_the_context_elimination_basis(monkeypatch):
    # the search lifts under the budget the context was built with, so it
    # reduces against the basis the build cached instead of building another
    calls = []
    real = groebner.buchberger

    def counting(gens, order, *args, **kwargs):
        calls.append(order.kind)
        return real(gens, order, *args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counting)
    groebner._tag_elimination_basis.cache_clear()
    ctx = AbhyankarContext.build(6, GroebnerBudget(max_degree=8))
    assert ctx.verified and ctx.budget == GroebnerBudget(max_degree=8)
    assert non_kernel_annihilator(ctx, tp("T1*T2", Domain.NAT)).found
    assert calls.count("elim") == 1


def test_falsifier_rejects_bad_input(ctx):
    with pytest.raises(ValueError):
        non_kernel_annihilator(ctx, tp("T1 - 1", Domain.INT))
    with pytest.raises(ValueError):
        non_kernel_annihilator(AbhyankarContext.build(2), tp("T1", Domain.NAT))
