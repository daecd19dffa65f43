"""Polynomial core: exactness, domain rules, orders, text format."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semiring_lab.polynomials import (
    ArityError,
    Domain,
    DomainError,
    GRLEX,
    LEX,
    ParseError,
    Polynomial,
    ZeroPolynomialError,
    elimination,
    format_coeff,
    format_poly,
    mono_div,
    mono_mul,
    parse_poly,
    t_names,
    x_names,
)
from tests.oracles import random_point, random_poly

T = t_names(2)


def p_int(text: str) -> Polynomial:
    return parse_poly(text, T, Domain.INT)


def p_nat(text: str) -> Polynomial:
    return parse_poly(text, T, Domain.NAT)


# -- construction and normalization ---------------------------------------


def test_zero_is_empty_and_prints_as_zero():
    z = Polynomial.zero(2, Domain.NAT)
    assert z.is_zero and len(z) == 0
    assert format_poly(z) == "0"
    assert z.total_degree() == 0


def test_zero_coefficients_are_dropped():
    p = Polynomial(2, Domain.INT, {(1, 0): 1, (0, 1): 0})
    assert p.support() == {(1, 0)}


def test_cancellation_normalizes_to_zero():
    p = p_int("T1*T2")
    assert (p - p).is_zero
    assert p + (-p) == Polynomial.zero(2, Domain.INT)


def test_duplicate_exponents_in_constructor_accumulate():
    p = Polynomial(2, Domain.INT, [((1, 0), 2), ((1, 0), 3)])
    assert p.coefficient((1, 0)) == 5


def test_nat_rejects_negative_coefficients():
    with pytest.raises(DomainError):
        Polynomial(2, Domain.NAT, {(1, 0): -1})


def test_int_rejects_fractional_coefficients():
    with pytest.raises(DomainError):
        Polynomial(2, Domain.INT, {(1, 0): Fraction(1, 2)})


def test_rat_coefficients_are_fractions():
    p = Polynomial(1, Domain.RAT, {(1,): Fraction(2, 4)})
    assert p.coefficient((1,)) == Fraction(1, 2)


def test_coerce_keeps_its_answers_off_the_plain_int_path():
    # bool and Fraction do not take the plain-int shortcut
    assert Domain.NAT.coerce(True) == 1 and type(Domain.NAT.coerce(True)) is int
    assert Domain.INT.coerce(True) == 1 and type(Domain.INT.coerce(True)) is int
    assert Domain.RAT.coerce(True) == Fraction(1) and type(Domain.RAT.coerce(True)) is Fraction
    assert Domain.NAT.coerce(Fraction(3, 1)) == 3 and type(Domain.NAT.coerce(Fraction(3, 1))) is int
    assert Domain.INT.coerce(Fraction(-3, 1)) == -3
    with pytest.raises(DomainError, match=r"^negative coefficient -1 not allowed in natural-number domain$"):
        Domain.NAT.coerce(-1)
    with pytest.raises(DomainError, match=r"^Fraction\(1, 2\) is not an integer, cannot live in integer coefficients$"):
        Domain.INT.coerce(Fraction(1, 2))
    for value in (0, 7, -7, 10**30):
        assert type(Domain.INT.coerce(value)) is int and Domain.INT.coerce(value) == value
        assert type(Domain.RAT.coerce(value)) is Fraction and Domain.RAT.coerce(value) == value
    assert type(Domain.NAT.coerce(7)) is int and Domain.NAT.coerce(7) == 7


def test_arity_mismatch_rejected():
    with pytest.raises(ArityError):
        Polynomial(2, Domain.INT, {(1,): 1})
    with pytest.raises(ArityError):
        p_int("T1") + parse_poly("T1", ("T1",), Domain.INT)


def test_domain_mixing_rejected():
    with pytest.raises(DomainError):
        p_int("T1") + p_nat("T1")


# -- arithmetic -----------------------------------------------------------


def test_product_expands_exactly():
    # (T1 + T2)^2 = T1^2 + 2*T1*T2 + T2^2
    s = p_int("T1 + T2")
    assert s * s == p_int("T1^2 + 2*T1*T2 + T2^2")
    assert s**2 == s * s
    assert s**0 == Polynomial.one(2, Domain.INT)


def test_scalar_multiplication():
    p = p_int("T1 - T2")
    assert p * 3 == p_int("3*T1 - 3*T2")
    assert 0 * p == Polynomial.zero(2, Domain.INT)


def test_nat_negation_is_undefined_except_zero():
    with pytest.raises(DomainError):
        -p_nat("T1")
    assert (-Polynomial.zero(2, Domain.NAT)).is_zero


def test_checked_sub_defined_exactly_on_termwise_dominance():
    big = p_nat("3*T1*T2 + 2*T2")
    small = p_nat("T1*T2 + 2*T2")
    assert big.checked_sub(small) == p_nat("2*T1*T2")
    assert small.checked_sub(big) is None
    # recombining restores: (big - small) + small == big
    assert big.checked_sub(small) + small == big


def test_nat_sub_operator_matches_checked_sub():
    assert p_nat("2*T1") - p_nat("T1") == p_nat("T1")
    with pytest.raises(DomainError):
        p_nat("T1") - p_nat("T2")


SEMIRING_SEED = 20260822


def test_semiring_axioms_randomized_int():
    rng = random.Random(SEMIRING_SEED)
    zero = Polynomial.zero(2, Domain.INT)
    one = Polynomial.one(2, Domain.INT)
    for _ in range(300):
        a = random_poly(rng, 2, Domain.INT)
        b = random_poly(rng, 2, Domain.INT)
        c = random_poly(rng, 2, Domain.INT)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a and a * zero == zero


def _assert_valid(r: Polynomial) -> None:
    """What the trusted constructor must keep: nothing re-validation would
    change, no stored zero, coefficients of the domain's exact type."""
    assert r == Polynomial(r.nvars, r.domain, r._terms)
    assert all(len(u) == r.nvars for u in r._terms)
    assert all(c != 0 for c in r._terms.values())
    if r.domain is Domain.RAT:
        assert all(type(c) is Fraction for c in r._terms.values())
    else:
        assert all(type(c) is int for c in r._terms.values())
    if r.domain is Domain.NAT:
        assert all(c > 0 for c in r._terms.values())


def test_raw_constructor_takes_the_dict_over():
    store = {(1, 0): 2}
    p = Polynomial._raw(2, Domain.NAT, store)
    assert p._terms is store and p == p_nat("2*T1") and hash(p) == hash(p_nat("2*T1"))


def test_arithmetic_results_stay_valid_randomized():
    rng = random.Random(SEMIRING_SEED + 2)
    # scalars of every type each domain accepts
    scalars = {
        Domain.NAT: (0, 2, Fraction(3), True),
        Domain.INT: (0, -2, Fraction(-3), True),
        Domain.RAT: (0, -2, Fraction(3, 4), True),
    }
    for domain in (Domain.NAT, Domain.INT, Domain.RAT):
        for _ in range(60):
            # coefficients up to 3 make cancellations in sums and products common
            p, q = (random_poly(rng, 2, domain, max_terms=4, max_exp=2, max_coeff=3) for _ in range(2))
            results = [p + q, p * q, p**2, p.embed(4, 1)]
            results += [p.scale(c) for c in scalars[domain]] + [c * p for c in scalars[domain]]
            if domain is not Domain.NAT:
                results += [-p, p - q, p + (-p)]
            for a, b in ((p, q), (p + q, q), (p * q + p, p)):
                diff = a.checked_sub(b)
                if diff is not None:
                    results.append(diff)
            for r in results:
                _assert_valid(r)


# -- evaluation and substitution ------------------------------------------


def test_evaluation_is_exact_rational():
    p = p_int("2*T1*T2^2 - T2")
    assert p.evaluate([Fraction(1, 2), Fraction(1, 3)]) == Fraction(2, 18) - Fraction(1, 3)
    assert p.evaluate([0, 0]) == 0


def test_evaluation_is_ring_homomorphism_randomized():
    rng = random.Random(SEMIRING_SEED + 1)
    for _ in range(200):
        a = random_poly(rng, 2, Domain.INT)
        b = random_poly(rng, 2, Domain.INT)
        pt = random_point(rng, 2)
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)


def test_substitution_composes_with_evaluation():
    rng = random.Random(SEMIRING_SEED + 2)
    g1 = p_int("T1 + T2^2")
    g2 = p_int("T1*T2 - 1")
    for _ in range(50):
        p = random_poly(rng, 2, Domain.INT, max_terms=4, max_exp=3)
        pt = random_point(rng, 2, max_abs=3)
        composed = p.substitute([g1, g2])
        assert composed.evaluate(pt) == p.evaluate([g1.evaluate(pt), g2.evaluate(pt)])


def test_substitution_can_change_ambient_ring():
    # tag variable X2 |-> a 2-variable polynomial
    p = parse_poly("X2^2 + 1", x_names(2), Domain.INT)
    image = p_int("T1*T2")
    assert p.substitute([image]) == p_int("T1^2*T2^2 + 1")


def test_differentiate():
    p = p_int("2*T1*T2^2 - T2")
    assert p.differentiate(0) == p_int("2*T2^2")
    assert p.differentiate(1) == p_int("4*T1*T2 - 1")
    assert Polynomial.one(2, Domain.INT).differentiate(0).is_zero


# -- domain conversion and embeddings -------------------------------------


def test_as_domain_roundtrip_and_failure():
    p = p_nat("2*T1 + T2")
    q = p.as_domain(Domain.INT)
    assert q.domain is Domain.INT and q.as_domain(Domain.NAT) == p
    with pytest.raises(DomainError):
        p_int("T1 - T2").as_domain(Domain.NAT)
    r = p_int("T1").as_domain(Domain.RAT)
    assert r.coefficient((1, 0)) == Fraction(1)


def test_embed_and_project_are_inverse_on_block():
    p = p_int("T1*T2^2 - 3*T2")
    wide = p.embed(5, offset=3)
    assert wide.nvars == 5
    assert wide.project(3, 5) == p
    with pytest.raises(ArityError):
        wide.project(0, 2)  # support lies outside that block


# -- monomial helpers and orders ------------------------------------------


def test_mono_helpers():
    assert mono_mul((1, 2), (0, 3)) == (1, 5)
    assert mono_div((1, 5), (0, 3)) == (1, 2)
    assert mono_div((1, 2), (2, 0)) is None


def test_lex_versus_grlex_leading_terms():
    p = p_int("T1^2 + T2^3")
    assert p.leading_term(LEX) == ((2, 0), 1)
    assert p.leading_term(GRLEX) == ((0, 3), 1)


def test_elimination_order_dominates_first_block():
    # under elim(1), any T1-containing monomial beats any T2-pure monomial
    order = elimination(1)
    assert order.key((1, 0)) > order.key((0, 99))
    assert order.key((0, 5)) > order.key((0, 4))
    with pytest.raises(ValueError):
        elimination(0)


def test_orders_are_multiplicative_and_total_randomized():
    rng = random.Random(SEMIRING_SEED + 3)
    orders = [LEX, GRLEX, elimination(2)]
    for _ in range(300):
        u = tuple(rng.randint(0, 6) for _ in range(3))
        v = tuple(rng.randint(0, 6) for _ in range(3))
        w = tuple(rng.randint(0, 6) for _ in range(3))
        for order in orders:
            # totality
            assert (order.key(u) > order.key(v)) or (order.key(v) > order.key(u)) or u == v
            # multiplicativity: u > v implies u+w > v+w
            if order.key(u) > order.key(v):
                assert order.key(mono_mul(u, w)) > order.key(mono_mul(v, w))
            # well-foundedness floor: 1 is minimal
            if u != (0, 0, 0):
                assert order.key(u) > order.key((0, 0, 0))


def test_leading_term_of_zero_raises():
    with pytest.raises(ZeroPolynomialError):
        Polynomial.zero(2, Domain.INT).leading_term(GRLEX)


# -- text format ----------------------------------------------------------


def test_format_examples():
    assert format_poly(p_int("2*T1*T2^2 - T2")) == "2*T1*T2^2 - T2"
    assert format_poly(p_int("-T1 + 1")) == "-T1 + 1"
    assert format_poly(Polynomial.constant(2, -7, Domain.INT)) == "-7"


def test_parse_rejects_garbage_with_position():
    with pytest.raises(ParseError):
        parse_poly("T1 + ", T, Domain.INT)
    with pytest.raises(ParseError):
        parse_poly("T3", T, Domain.INT)
    with pytest.raises(ParseError):
        parse_poly("", T, Domain.INT)
    with pytest.raises(ParseError):
        parse_poly("1/0", T, Domain.RAT)
    err = None
    try:
        parse_poly("T1 ? T2", T, Domain.INT)
    except ParseError as exc:
        err = exc
    assert err is not None and err.position == 3


def test_parse_respects_domain():
    with pytest.raises(ParseError):
        parse_poly("T1 - 2*T2", T, Domain.NAT)
    with pytest.raises(ParseError):
        parse_poly("1/2*T1", T, Domain.INT)
    assert parse_poly("1/2*T1", T, Domain.RAT).coefficient((1, 0)) == Fraction(1, 2)


def test_parse_merges_repeated_variables_and_terms():
    assert parse_poly("T1*T1*T2 + T1^2*T2", T, Domain.INT) == p_int("2*T1^2*T2")
    assert parse_poly("T1 - T1", T, Domain.INT).is_zero


@st.composite
def polynomials(draw):
    domain = draw(st.sampled_from([Domain.NAT, Domain.INT, Domain.RAT]))
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        exp = (draw(st.integers(0, 5)), draw(st.integers(0, 5)))
        if domain is Domain.NAT:
            coeff = draw(st.integers(0, 50))
        elif domain is Domain.INT:
            coeff = draw(st.integers(-50, 50))
        else:
            coeff = Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 20)))
        terms[exp] = coeff
    return Polynomial(2, domain, terms)


@settings(max_examples=200, derandomize=True)
@given(polynomials())
def test_format_parse_roundtrip(p):
    assert parse_poly(format_poly(p), T, p.domain) == p


@settings(max_examples=100, derandomize=True)
@given(polynomials(), polynomials())
def test_hash_consistent_with_equality(p, q):
    if p.domain is q.domain and p == q:
        assert hash(p) == hash(q)
    # same polynomial built two ways hashes identically
    rebuilt = Polynomial(p.nvars, p.domain, dict(p.terms()))
    assert rebuilt == p and hash(rebuilt) == hash(p)


@st.composite
def same_domain_triples(draw):
    domain = draw(st.sampled_from([Domain.NAT, Domain.INT, Domain.RAT]))

    def one():
        terms = {}
        for _ in range(draw(st.integers(0, 5))):
            exp = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
            if domain is Domain.NAT:
                terms[exp] = draw(st.integers(0, 30))
            elif domain is Domain.INT:
                terms[exp] = draw(st.integers(-30, 30))
            else:
                terms[exp] = Fraction(
                    draw(st.integers(-30, 30)), draw(st.integers(1, 12))
                )
        return Polynomial(2, domain, terms)

    return one(), one(), one()


@settings(max_examples=200, derandomize=True)
@given(same_domain_triples())
def test_ring_axioms_hold_exactly(triple):
    p, q, r = triple
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    zero = Polynomial.zero(2, p.domain)
    one = Polynomial.one(2, p.domain)
    assert p + zero == p and p * one == p and p * zero == zero


@settings(max_examples=200, derandomize=True)
@given(same_domain_triples(), st.integers(0, 6), st.integers(0, 6))
def test_evaluation_is_a_homomorphism(triple, x_num, y_num):
    p, q, _ = triple
    point = [Fraction(x_num, 7), Fraction(y_num, 5)]
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


@settings(max_examples=200, derandomize=True)
@given(same_domain_triples())
def test_natural_domain_is_closed_under_sum_and_product(triple):
    p, q, _ = triple
    if p.domain is Domain.NAT:
        assert (p + q).domain is Domain.NAT
        assert (p * q).domain is Domain.NAT
        assert all(c >= 0 for _, c in (p + q).terms())
        assert all(c >= 0 for _, c in (p * q).terms())


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="Python prints integers of any length"
)
def test_format_coeff_past_the_digit_limit_raises_overflow():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert format_coeff(10**4299) == "1" + "0" * 4299
        for c in (10**4300, -(10**4300), Fraction(1, 10**4300)):
            with pytest.raises(OverflowError, match="more than 4,300 digits"):
                format_coeff(c)
    finally:
        sys.set_int_max_str_digits(saved)
