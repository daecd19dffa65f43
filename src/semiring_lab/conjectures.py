"""Bounded-subset predicates, cone dimension, purity and fraction
witnesses, and the aggregate four-condition verifier.

Over a concrete commutative semiring target -- either a strictly positive
rational evaluation or a finitely presented quotient of N[T1..Tn] -- three
subsets are distinguished by the natural preorder (a <= b iff b = a + c):

  * bounded-above: elements under some positive rational constant;
  * bounded-two-sided: elements squeezed between two positive rational
    constants (these form the cancellative core of the target);
  * one-absorbing: elements l with l + 1 = l.

The cone of a target collects the exponent vectors u (inside a coordinate
box) whose monomial T^u is bounded above; ``semiring.cone_enumerate``
sweeps it, and this module re-exports it.  Cones carry finite member sets,
so dimension (rank of the members), purity of a generated subsemigroup,
interior points (u with every u + e_i still in the cone), and the fraction
witnesses T_i = T^(u+e_i) / T^u are all checked by direct enumeration.

``verify_conditions`` aggregates four certified checks on a subring/ideal
candidate: (a) every ambient variable is a ratio of subring elements,
(b) the ideal generates the unit ideal of the ambient ring, (c) some
supplied base element admits only annihilators with all coefficients in
the ideal -- reported Fails when a non-ideal annihilator is exhibited --
and (d) the quotient contains the rationals, certified by finite preimage
evidence.  Every Holds carries a certificate, every Fails a replayable
witness, and budget exhaustion yields Unknown, never a guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .abhyankar import (
    AbhyankarContext,
    UnverifiedContextError,
    fraction_field_witnesses,
    non_kernel_annihilator,
    unit_ideal_witness,
)
from .groebner import MembershipStatus, ideal_membership
from .polynomials import (
    Domain,
    DomainError,
    Exponent,
    Polynomial,
    format_poly,
    mono_deg,
)
from .semiring import (
    Budget,
    BudgetError,
    Cone,
    CongruenceClosure,
    EvalHom,
    Presentation,
    Tri,
    _MAX_BOX_CELLS,
    _check_box_cells,
    cone_enumerate,
    congruence_close,
    preorder_leq,
    structure_nvars,
    words_equivalent,
)


# -- bounded-subset predicates ----------------------------------------------


class BoundClass(Enum):
    """The three distinguished subsets of a semiring target."""

    TWO_SIDED = "bounded-two-sided"
    ABOVE = "bounded-above"
    ABSORBING = "one-absorbing"


@dataclass(frozen=True)
class BoundVerdict:
    """Three-valued membership with the bounds that certify it."""

    answer: Tri
    lower: Fraction | None = None
    upper: Fraction | None = None


@dataclass(frozen=True)
class BoundedSubsetPredicate:
    """Membership test for one bound class over one target.

    Exact on evaluation targets (the positive rationals are totally
    ordered, so every value bounds itself up to a nudge); bounded search on
    presentation targets, where upper bounds are scanned over the integer
    constants 1..max_bound and absence within the scan yields Unknown --
    an upper bound might always exist further out.

    A presentation target is queried through one congruence closure, built
    at construction (which explores nothing); ``closure`` is None for an
    evaluation target.  ``cone_enumerate`` reaches the ABOVE verdicts of a
    whole box by one sweep over the constants instead.
    """

    kind: BoundClass
    structure: "EvalHom | Presentation"
    budget: Budget = Budget()
    max_bound: int = 16
    closure: CongruenceClosure | None = field(default=None, init=False)

    def __post_init__(self):
        if isinstance(self.structure, Presentation):
            object.__setattr__(
                self, "closure", congruence_close(self.structure, self.budget)
            )

    @property
    def nvars(self) -> int:
        return structure_nvars(self.structure)

    def classify(self, s: Polynomial) -> BoundVerdict:
        if s.domain is not Domain.NAT:
            raise DomainError("bound predicates apply to natural-domain words")
        if s.nvars != self.nvars:
            raise ValueError(
                f"word has {s.nvars} variables, target has {self.nvars}"
            )
        if isinstance(self.structure, EvalHom):
            return self._classify_evaluation(s)
        return self._classify_presentation(s)

    def _classify_evaluation(self, s: Polynomial) -> BoundVerdict:
        v = self.structure.apply(s)
        if self.kind is BoundClass.ABSORBING:
            return BoundVerdict(Tri.NO)  # v + 1 > v in the rationals
        if self.kind is BoundClass.ABOVE:
            return BoundVerdict(Tri.YES, upper=v + 1)
        if v == 0:
            return BoundVerdict(Tri.NO)  # value 0 admits no positive rational lower bound
        return BoundVerdict(Tri.YES, lower=v / 2, upper=v + 1)

    def _classify_presentation(self, s: Polynomial) -> BoundVerdict:
        if self.kind is BoundClass.ABSORBING:
            answer = words_equivalent(s + self.structure.one, s, self.closure)
            return BoundVerdict(answer.verdict)
        if self.kind is BoundClass.ABOVE:
            upper = self._upper_bound(s)
            return BoundVerdict(Tri.YES if upper is not None else Tri.UNKNOWN, upper=upper)
        lower_answer = preorder_leq(self.structure.one, s, self.closure)
        if lower_answer.verdict is Tri.NO:
            # the word's component is fully explored and no member has a constant term
            return BoundVerdict(Tri.NO)
        upper = self._upper_bound(s)
        if lower_answer.verdict is Tri.YES and upper is not None:
            return BoundVerdict(Tri.YES, lower=Fraction(1), upper=upper)
        return BoundVerdict(Tri.UNKNOWN, upper=upper)

    def _upper_bound(self, s: Polynomial) -> Fraction | None:
        """The least constant q <= min(max_bound, max_coeff) with s <= q
        derived, or None."""
        for q in range(1, min(self.max_bound, self.budget.max_coeff) + 1):
            bound = Polynomial.constant(self.nvars, q, Domain.NAT)
            if preorder_leq(s, bound, self.closure).verdict is Tri.YES:
                return Fraction(q)
            # No and Unknown both leave larger constants untested
        return None


# -- cones ------------------------------------------------------------------


def cone_dim(c: Cone) -> int:
    """Rank over Q of the member vectors (dimension of the smallest linear
    subspace containing the cone)."""
    rows = [[Fraction(x) for x in u] for u in c.sorted_members()]
    rank = 0
    col = 0
    while rows and col < c.nvars:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


@dataclass(frozen=True)
class PurityResult:
    """Purity of the box-bounded subsemigroup generated by the given
    vectors: pure means every member a with a/k integral has a/k a member
    too.  Impure carries the first witness (a, k, a/k) in graded order."""

    pure: bool
    witness: tuple | None
    members: frozenset


def _divisors_above_one(g: int) -> list[int]:
    """The divisors k >= 2 of ``g`` in increasing order; none for g < 2."""
    low = [k for k in range(2, math.isqrt(g) + 1) if g % k == 0]
    high = [g // k for k in reversed(low) if k * k != g]
    return low + high + [g] if g > 1 else []


def purity_check(generators, box: int, nvars: int | None = None) -> PurityResult:
    """Brute-force purity of the subsemigroup generated within [0, box]^n.
    Raises BudgetError when the box holds more than ``_MAX_BOX_CELLS`` vectors."""
    gens = [tuple(g) for g in generators]
    if nvars is None:
        nvars = len(gens[0]) if gens else 0
    for g in gens:
        if len(g) != nvars:
            raise ValueError(f"generator {g} does not have {nvars} coordinates")
        if any(x < 0 for x in g):
            raise ValueError(f"generator {g} has a negative coordinate")
    _check_box_cells(nvars, box)
    zero = (0,) * nvars
    members = {zero}
    frontier = [zero]
    while frontier:
        base = frontier.pop()
        for g in gens:
            nxt = tuple(a + b for a, b in zip(base, g))
            if max(nxt, default=0) <= box and nxt not in members:
                members.add(nxt)
                frontier.append(nxt)
    for a in sorted(members, key=lambda u: (mono_deg(u), u)):
        # k divides every coordinate iff it divides their gcd
        for k in _divisors_above_one(math.gcd(*a)):
            quotient = tuple(x // k for x in a)
            if quotient not in members:
                return PurityResult(False, (a, k, quotient), frozenset(members))
    return PurityResult(True, None, frozenset(members))


def find_interior_u(c: Cone) -> Exponent | None:
    """Smallest (graded, then lexicographic) member u with every u + e_i
    also a member; None when no such u lies within the box."""
    for u in c.sorted_members():
        if all(
            tuple(x + (1 if i == j else 0) for j, x in enumerate(u)) in c.members
            for i in range(c.nvars)
        ):
            return u
    return None


@dataclass(frozen=True)
class QfWitness:
    """T_i = T^(u+e_i) / T^u for an interior cone point u, so both exponents
    are cone members (v is a member when 1 + T^v is a subring generator)."""

    variable_index: int
    numerator_exp: Exponent
    denominator_exp: Exponent


def qf_from_cone(c: Cone) -> tuple[QfWitness, ...] | None:
    """Fraction witnesses for every ambient variable from an interior cone
    point u (:func:`find_interior_u`): T_i = T^(u+e_i) / T^u.  None when the
    cone has no interior point within its box; with no ambient variable,
    u = () and there is nothing to witness.
    """
    u = find_interior_u(c)
    if u is None:
        return None
    return tuple(
        QfWitness(i, tuple(x + (1 if i == j else 0) for j, x in enumerate(u)), u)
        for i in range(c.nvars)
    )


# -- the aggregate condition verifier ---------------------------------------


class Verdict(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ConditionVerdict:
    """One condition's outcome: a Holds with its certificate lines, a Fails
    with a replayable witness, or an Unknown with the reason."""

    status: Verdict
    statement: str
    certificate: tuple
    witness: object | None = None


@dataclass(frozen=True)
class ConditionReport:
    """Deterministic aggregate of the four condition verdicts."""

    candidate: str
    truncation: int
    a: ConditionVerdict
    b: ConditionVerdict
    c: ConditionVerdict
    d: ConditionVerdict
    evidence_level: int
    budget_note: str

    def as_mapping(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}

    def to_dict(self) -> dict:
        return {
            "candidate": self.candidate,
            "truncation": self.truncation,
            "conditions": {
                letter: {
                    "verdict": v.status.value,
                    "statement": v.statement,
                    "certificate": list(v.certificate),
                }
                for letter, v in self.as_mapping().items()
            },
            "evidence_level": self.evidence_level,
            "budget": self.budget_note,
        }

    def summary_lines(self) -> tuple:
        lines = [f"candidate: {self.candidate}", f"truncation: {self.truncation}"]
        for letter, v in self.as_mapping().items():
            lines.append(f"{letter}) {v.status.value.upper():<8} {v.statement}")
            for cert_line in v.certificate:
                lines.append(f"     {cert_line}")
        lines.append(f"evidence level: denominators up to {self.evidence_level}")
        return tuple(lines)


@dataclass(frozen=True)
class RecurrenceCandidate:
    """The recurrence subring with the kernel of its surjection onto Q,
    plus the base elements to probe for condition c."""

    context: AbhyankarContext
    annihilator_bases: tuple = ()


STATEMENTS = {
    "a": "every ambient variable is a ratio of subring elements",
    "b": "the ideal generates the unit ideal of the ambient ring",
    "c": "some supplied base element admits only annihilators with all "
    "coefficients in the ideal",
    "d": "the quotient by the ideal contains the rationals",
}


def _condition_a_recurrence(ctx: AbhyankarContext) -> ConditionVerdict:
    try:
        t2w, t1w = fraction_field_witnesses(ctx)
    except ValueError as exc:
        return ConditionVerdict(Verdict.UNKNOWN, STATEMENTS["a"], (str(exc),))
    ok = t2w.exact and t1w.exact and t2w.denominator_nonzero and t1w.denominator_nonzero
    cert = tuple(
        f"{format_poly(w.target)} = ({format_poly(w.numerator.ambient)}) / "
        f"({format_poly(w.denominator.ambient)}); cross-multiplied residual "
        f"{format_poly(w.residual)}"
        for w in (t1w, t2w)
    )
    status = Verdict.HOLDS if ok else Verdict.UNKNOWN
    return ConditionVerdict(status, STATEMENTS["a"], cert, witness=(t1w, t2w))


def _condition_b_recurrence(ctx: AbhyankarContext) -> ConditionVerdict:
    try:
        identity = unit_ideal_witness(ctx, 2)
    except (ValueError, UnverifiedContextError) as exc:
        return ConditionVerdict(Verdict.UNKNOWN, STATEMENTS["b"], (str(exc),))
    one = Polynomial.one(2, Domain.INT)
    membership = ideal_membership(
        one,
        [identity.kernel_factor_low.ambient, identity.kernel_factor_high.ambient],
        budget=ctx.budget,
    )
    if membership.status is MembershipStatus.NON_MEMBER:
        raise RuntimeError(
            "certificate inconsistency: the unit identity holds but ideal "
            "membership of 1 was refuted"
        )
    cert = [
        f"1 = ({format_poly(identity.multiplier)}) * "
        f"({format_poly(identity.kernel_factor_low.ambient)}) - "
        f"({format_poly(identity.kernel_factor_high.ambient)})",
        f"both factors have image 0: {identity.factors_in_kernel}",
        f"independent route: ideal membership of 1 in the two factors is "
        f"{membership.status.value}",
    ]
    if membership.status is MembershipStatus.MEMBER and membership.cofactors:
        combo = " + ".join(
            f"({format_poly(cf)})*({format_poly(g)})"
            for cf, g in zip(
                membership.cofactors,
                (
                    identity.kernel_factor_low.ambient,
                    identity.kernel_factor_high.ambient,
                ),
            )
        )
        cert.append(f"cofactor expansion: 1 = {combo}")
    ok = identity.identity_holds and all(identity.factors_in_kernel)
    status = Verdict.HOLDS if ok else Verdict.UNKNOWN
    return ConditionVerdict(status, STATEMENTS["b"], tuple(cert), witness=identity)


def _condition_c_recurrence(ctx: AbhyankarContext, bases) -> ConditionVerdict:
    if not bases:
        return ConditionVerdict(
            Verdict.UNKNOWN,
            STATEMENTS["c"],
            ("no base elements supplied; nothing was searched",),
        )
    cert = []
    witnesses = []
    unresolved = 0
    for base in bases:
        try:
            result = non_kernel_annihilator(ctx, base)
        except (ValueError, UnverifiedContextError) as exc:
            return ConditionVerdict(Verdict.UNKNOWN, STATEMENTS["c"], (str(exc),))
        if result.found:
            w = result.witness
            witnesses.append(w)
            cert.append(
                f"base {format_poly(base)}: shift {format_poly(w.shift)}, "
                f"annihilator h = {w.h.describe()} with a coefficient outside "
                f"the kernel; h(base + shift) expands to 0"
            )
        else:
            unresolved += 1
            cert.append(
                f"base {format_poly(base)}: no witness within the search bounds "
                f"({result.attempts} attempts)"
            )
    if unresolved == 0:
        return ConditionVerdict(
            Verdict.FAILS, STATEMENTS["c"], tuple(cert), witness=tuple(witnesses)
        )
    return ConditionVerdict(
        Verdict.UNKNOWN, STATEMENTS["c"], tuple(cert), witness=tuple(witnesses)
    )


def _condition_d_recurrence(
    ctx: AbhyankarContext, evidence_bound: int
) -> ConditionVerdict:
    # generator m is X_m, whose image at the point (1/2, ..., 1/k) is 1/m;
    # an unverified context refuses the evaluation
    try:
        ctx.generator_element(2).rational_image
    except UnverifiedContextError as exc:
        return ConditionVerdict(Verdict.UNKNOWN, STATEMENTS["d"], (str(exc),))
    cert = [
        f"generator {m} is a preimage of 1/{m} (relation-checked at this truncation)"
        for m in range(2, ctx.truncation + 1)
    ]
    for m in range(ctx.truncation + 1, evidence_bound + 1):
        cert.append(
            f"generator {m} is the designated preimage of 1/{m} at "
            f"truncation {m} (beyond the relation-checked level)"
        )
    denominator = math.lcm(*range(2, ctx.truncation + 1))
    cert.append(
        f"the image is a ring, so the relation-checked part alone contains "
        f"every rational whose denominator divides a power of {denominator}"
    )
    return ConditionVerdict(Verdict.HOLDS, STATEMENTS["d"], tuple(cert))


def verify_conditions(candidate, evidence_bound: int = 20) -> ConditionReport:
    """Aggregate verifier over a recurrence-subring candidate.

    Runs the four condition checks, each certified or witnessed, and
    merges them into a deterministic report.  Every Groebner computation
    runs under the candidate context's budget, which the report's
    ``budget_note`` names.  Budget exhaustion in any
    check surfaces as Unknown for that condition only.  ``evidence_bound``
    sets how far the finite preimage evidence for condition d reaches;
    preimages beyond the context's relation-checked truncation are
    designated by the recurrence and marked as such.
    """
    if not isinstance(candidate, RecurrenceCandidate):
        raise TypeError(f"expected RecurrenceCandidate, got {type(candidate).__name__}")
    ctx = candidate.context
    return ConditionReport(
        candidate=f"recurrence subring at truncation {ctx.truncation}",
        truncation=ctx.truncation,
        a=_condition_a_recurrence(ctx),
        b=_condition_b_recurrence(ctx),
        c=_condition_c_recurrence(ctx, candidate.annihilator_bases),
        d=_condition_d_recurrence(ctx, evidence_bound),
        evidence_level=max(evidence_bound, ctx.truncation),
        budget_note=f"groebner budget ({ctx.budget.max_degree}, {ctx.budget.max_steps})",
    )
