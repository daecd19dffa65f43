"""Acceptance gate: ten end-to-end checks over the whole package.

Each test prints one ``[criterion n] PASS`` / ``[criterion n] FAIL`` line on
the real terminal (bypassing capture) so a full run shows exactly ten verdict
lines.  The checks pin hand-computed expansions, well-definedness of the
rational image, invertibility and fraction-field witnesses, the
non-extendability contradiction, the annihilator falsifier, subalgebra
membership both ways, six randomized batteries of at least a thousand cases
each, the presented-semiring classifications, and determinism of the
reports.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from semiring_lab.abhyankar import (
    AbhyankarContext,
    fraction_field_witnesses,
    generator,
    non_extendability_certificate,
    non_kernel_annihilator,
    unit_ideal_witness,
    univar_in_kernel,
)
from semiring_lab.cli import main
from semiring_lab.conjectures import (
    RecurrenceCandidate,
    Verdict,
    purity_check,
    verify_conditions,
)
from semiring_lab.groebner import (
    GroebnerBudget,
    MembershipStatus,
    buchberger,
    ideal_membership,
    normal_form,
    relation_ideal,
    subalgebra_membership,
)
from semiring_lab.polynomials import Domain, Polynomial, format_poly, parse_poly, t_names
from semiring_lab.semiring import (
    EvalHom,
    Presentation,
    Tri,
    find_L,
    is_add_cancellative,
    is_add_idempotent,
    preorder_leq,
)

from .oracles import ideal_membership_by_linear_algebra, purity_violations, random_poly

SEED = 83047
_T0 = time.perf_counter()


@contextmanager
def criterion(n: int, capsys):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {n}] FAIL")
        raise
    else:
        with capsys.disabled():
            print(f"[criterion {n}] PASS")


def M(exp, coeff, domain=Domain.INT) -> Polynomial:
    return Polynomial.monomial(exp, coeff, domain)


def nat(text: str) -> Polynomial:
    return parse_poly(text, t_names(2), Domain.NAT)


# -- criterion 1: recurrence expansions match hand computation --------------


def test_criterion_01_generator_expansions(capsys):
    with criterion(1, capsys):
        start = time.perf_counter()
        by_hand = {
            3: M((1, 2), 2) + M((0, 1), -1),
            4: M((1, 3), 6) + M((0, 2), -3) + M((0, 1), -1),
            5: M((1, 4), 24) + M((0, 3), -12) + M((0, 2), -4) + M((0, 1), -1),
        }
        for n, expected in by_hand.items():
            assert generator(n) == expected, f"generator {n} deviates"
        assert time.perf_counter() - start < 1.0


# -- criterion 2: the rational image is well defined at truncation 5 --------


def test_criterion_02_well_definedness_truncation_5(capsys):
    with criterion(2, capsys):
        start = time.perf_counter()
        gens = [generator(n) for n in range(2, 6)]
        rel = relation_ideal(gens, GroebnerBudget())
        assert rel.complete, "relation computation must finish for this check"
        point = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)]
        for r in rel.relations:
            assert r.evaluate(point) == 0, format_poly(r)
        # the degree-2 relation between the second, third, and fourth
        # generators, written in the tag variables X2..X5
        pinned_relation = (
            M((1, 0, 1, 0), 2, Domain.RAT)
            + M((0, 0, 1, 0), -1, Domain.RAT)
            + M((0, 2, 0, 0), -3, Domain.RAT)
            + M((0, 1, 0, 0), 1, Domain.RAT)
        )
        gb = buchberger(rel.relations)
        assert normal_form(pinned_relation, gb).is_zero
        assert AbhyankarContext.build(5).verified
        assert time.perf_counter() - start < 60.0


# -- criterion 3: invertibility witnesses for n = 2..9 ----------------------


def test_criterion_03_unit_ideal_witnesses(capsys):
    with criterion(3, capsys):
        ctx = AbhyankarContext.build(10)
        one = Polynomial.one(2, Domain.INT)
        t2 = M((0, 1), 1)
        for n in range(2, 10):
            w = unit_ideal_witness(ctx, n)
            assert w.identity_holds and w.factors_in_kernel, f"n = {n}"
            # re-derive the identity from raw polynomials, off to the side
            raw = (n + 1) * t2 * (n * generator(n) - one) - (
                (n + 1) * generator(n + 1) - one
            )
            assert raw == one, f"n = {n}"


# -- criterion 4: fraction-field witnesses have residual exactly zero -------


def test_criterion_04_fraction_witnesses(capsys):
    with criterion(4, capsys):
        ctx = AbhyankarContext.build(6)
        witnesses = fraction_field_witnesses(ctx)
        assert len(witnesses) == 2
        for w in witnesses:
            assert w.exact and w.denominator_nonzero
            assert w.residual.is_zero
            raw = w.target * w.denominator.ambient - w.numerator.ambient
            assert raw.is_zero


# -- criterion 5: the map cannot extend to the ambient ring -----------------


def test_criterion_05_non_extendability(capsys):
    with criterion(5, capsys):
        cert = non_extendability_certificate(2)
        assert cert.first_n == 2
        assert len(cert.rows) == 1
        row = cert.rows[0]
        assert row.n == 2
        assert row.coefficient == 0
        assert row.required_value == Fraction(1, 3)


# -- criterion 6: falsifier for the annihilator condition, plus the ---------
# -- aggregate condition report ---------------------------------------------


def test_criterion_06_falsifier_and_condition_report(capsys):
    with criterion(6, capsys):
        ctx = AbhyankarContext.build(6)
        base = nat("T1*T2")
        search = non_kernel_annihilator(ctx, base)
        assert search.found
        w = search.witness
        assert w.residual.is_zero
        assert not univar_in_kernel(w.h)
        assert w.h.evaluate_ambient((w.base + w.shift).as_domain(Domain.INT)).is_zero
        assert w.shift.is_zero  # the shift a = 0
        # h = X - f_2: linear, leading coefficient 1, constant term -f_2
        assert len(w.h.coeffs) == 2
        assert w.h.coeffs[1].ambient == Polynomial.one(2, Domain.INT)
        assert w.h.coeffs[0].ambient == -generator(2)

        report = verify_conditions(RecurrenceCandidate(ctx, (base,)))
        statuses = {k: v.status for k, v in report.as_mapping().items()}
        assert statuses == {
            "a": Verdict.HOLDS,
            "b": Verdict.HOLDS,
            "c": Verdict.FAILS,
            "d": Verdict.HOLDS,
        }
        assert report.evidence_level == 20


# -- criterion 7: subalgebra membership, both directions --------------------


def test_criterion_07_subalgebra_membership(capsys):
    with criterion(7, capsys):
        start = time.perf_counter()
        gens = [generator(n) for n in range(2, 6)]
        budget = GroebnerBudget(max_degree=8)

        inside = subalgebra_membership(nat("T1*T2").as_domain(Domain.INT), gens, budget)
        assert inside.status is MembershipStatus.MEMBER
        assert format_poly(inside.representation, ("X2", "X3", "X4", "X5")) == "X2"

        third = subalgebra_membership(generator(3), gens, budget)
        assert third.status is MembershipStatus.MEMBER
        assert format_poly(third.representation, ("X2", "X3", "X4", "X5")) == "X3"

        outside = subalgebra_membership(M((0, 1), 1), gens, budget)
        assert outside.status is MembershipStatus.NON_MEMBER
        assert outside.basis_complete

        # cross-check by the rational image: f_3 = (2 f_2 - 1) T2 exactly,
        # the first factor maps to 0, and f_3 maps to 1/3 != 0 -- so no
        # element of the subring can equal T2
        f2, f3 = generator(2), generator(3)
        one = Polynomial.one(2, Domain.INT)
        assert f3 == (2 * f2 - one) * M((0, 1), 1)
        ctx = AbhyankarContext.build(5)
        factor = ctx.element(
            parse_poly("2*X2 - 1", ("X2", "X3", "X4", "X5"), Domain.INT)
        )
        image_of_f3 = ctx.generator_element(3).rational_image
        assert factor.rational_image == 0
        assert image_of_f3 == Fraction(1, 3)
        assert image_of_f3 != 0
        assert time.perf_counter() - start < 60.0


# -- criterion 8: randomized batteries, >= 1000 cases each ------------------


def test_criterion_08_randomized_batteries(capsys):
    with criterion(8, capsys):
        rng = random.Random(SEED)

        # (a) semiring axioms on random natural words
        zero = Polynomial.zero(2, Domain.NAT)
        one = Polynomial.one(2, Domain.NAT)
        for _ in range(1000):
            a = random_poly(rng, 2, Domain.NAT, max_terms=4, max_exp=3, max_coeff=6)
            b = random_poly(rng, 2, Domain.NAT, max_terms=4, max_exp=3, max_coeff=6)
            c = random_poly(rng, 2, Domain.NAT, max_terms=4, max_exp=3, max_coeff=6)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + zero == a and a * one == a and a * zero == zero

        # (b) normal forms are idempotent and linear
        pool = []
        for texts in (
            ("T1^2 - T2", "T1*T2 - 1"),
            ("2*T1*T2 - 1", "6*T1*T2^2 - 3*T2 - 1"),
            ("T1^3 - T2^2",),
            ("T1^2 + T2^2 - 1", "T1 - T2"),
        ):
            gens = [parse_poly(t, t_names(2), Domain.RAT) for t in texts]
            pool.append(buchberger(gens))
        for _ in range(1000):
            gb = pool[rng.randrange(len(pool))]
            p = random_poly(rng, 2, Domain.RAT, max_terms=4, max_exp=3, max_coeff=5)
            q = random_poly(rng, 2, Domain.RAT, max_terms=4, max_exp=3, max_coeff=5)
            np_, nq = gb.normal_form(p), gb.normal_form(q)
            assert gb.normal_form(np_) == np_
            assert gb.normal_form(p + q) == np_ + nq

        # (c) ideal membership agrees with an independent linear-algebra
        # solve; member certificates re-expand exactly
        ideal_pool = [
            [parse_poly(t, t_names(2), Domain.RAT) for t in texts]
            for texts in (
                ("T1^2", "T2^2"),
                ("T1*T2 - 1", "T1^2"),
                ("2*T1*T2 - 1", "6*T1*T2^2 - 3*T2 - 1"),
                ("T1^2 - T2", "T2^2 - T1"),
            )
        ]
        members = non_members = 0
        for _ in range(1000):
            gens = ideal_pool[rng.randrange(len(ideal_pool))]
            if rng.random() < 0.5:
                c1 = random_poly(rng, 2, Domain.RAT, max_terms=2, max_exp=1, max_coeff=3)
                c2 = random_poly(rng, 2, Domain.RAT, max_terms=2, max_exp=1, max_coeff=3)
                p = c1 * gens[0] + (c2 * gens[1] if len(gens) > 1 else zero.as_domain(Domain.RAT))
            else:
                p = random_poly(rng, 2, Domain.RAT, max_terms=3, max_exp=3, max_coeff=4)
            cert = ideal_membership(p, gens)
            if cert.status is MembershipStatus.MEMBER:
                members += 1
                recombined = sum(
                    (c * g for c, g in zip(cert.cofactors, gens)),
                    Polynomial.zero(2, Domain.RAT),
                )
                assert recombined == p.as_domain(Domain.RAT)
                degree = max(c.total_degree() for c in cert.cofactors)
                solved = ideal_membership_by_linear_algebra(p, gens, degree)
                assert solved is not None
            else:
                assert cert.status is MembershipStatus.NON_MEMBER
                non_members += 1
                assert ideal_membership_by_linear_algebra(p, gens, 3) is None
        assert members >= 100 and non_members >= 100

        # (d) purity agrees with brute-force violation search
        impure_seen = 0
        for _ in range(1000):
            nvars = rng.randint(1, 2)
            gens = []
            for _g in range(rng.randint(1, 3)):
                vec = tuple(rng.randint(0, 3) for _ in range(nvars))
                if any(vec):
                    gens.append(vec)
            result = purity_check(gens, 4, nvars=nvars)
            violations = purity_violations(gens, 4, nvars=nvars)
            assert result.pure == (not violations)
            if not result.pure:
                impure_seen += 1
                member, k, quotient = result.witness
                assert member in result.members
                assert tuple(e * k for e in quotient) == tuple(member)
                assert quotient not in result.members
        assert impure_seen >= 100

        # (e) the natural preorder on a positive-rational target is the
        # strict order on values
        yes_seen = no_seen = 0
        for _ in range(1000):
            point = (
                Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                Fraction(rng.randint(1, 9), rng.randint(1, 9)),
            )
            hom = EvalHom(point)
            a = random_poly(rng, 2, Domain.NAT, max_terms=3, max_exp=2, max_coeff=5)
            b = random_poly(rng, 2, Domain.NAT, max_terms=3, max_exp=2, max_coeff=5)
            answer = preorder_leq(hom.apply(a), hom.apply(b), hom)
            expected = hom.apply(a) < hom.apply(b)
            assert (answer.verdict is Tri.YES) == expected
            if expected:
                yes_seen += 1
            else:
                assert answer.verdict is Tri.NO
                no_seen += 1
        assert yes_seen >= 100 and no_seen >= 100


# -- criterion 9: presented-semiring classifications ------------------------


def test_criterion_09_presented_semiring_results(capsys):
    with criterion(9, capsys):
        one_var = t_names(1)
        idem = Presentation.from_text(1, "1 + 1 = 1")
        assert is_add_idempotent(idem).verdict is Tri.YES

        assert is_add_idempotent(Presentation.free(1)).verdict is Tri.NO

        absorbing = Presentation.from_text(1, "T1 + 1 = T1")
        report = is_add_cancellative(absorbing)
        assert report.verdict is Tri.NO
        expected_witness = (
            Polynomial.one(1, Domain.NAT),
            Polynomial.zero(1, Domain.NAT),
            parse_poly("T1", one_var, Domain.NAT),
        )
        assert report.witness == expected_witness

        members = find_L(absorbing)
        assert members and members[0] == parse_poly("T1", one_var, Domain.NAT)

        assert find_L(EvalHom((Fraction(2),))) == ()


# -- criterion 10: the suite is fast and its reports are deterministic ------


def test_criterion_10_timing_and_determinism(capsys):
    with criterion(10, capsys):
        ctx = AbhyankarContext.build(5)
        first = verify_conditions(RecurrenceCandidate(ctx))
        second = verify_conditions(RecurrenceCandidate(ctx))
        assert first.to_dict() == second.to_dict()
        assert first.summary_lines() == second.summary_lines()

        def run_json():
            code = main(["abhyankar", "verify", "--k", "5", "--json"])
            out = capsys.readouterr().out
            envelope = json.loads(out)
            envelope.pop("timing_seconds")
            return code, envelope

        assert run_json() == run_json()

        assert time.perf_counter() - _T0 < 300.0
