"""The subring of Z[T1,T2] generated by the recurrence

    f_2 = T1*T2,        f_{n+1} = (n*f_n - 1)*T2,

together with its surjection onto Q sending f_n to 1/n.

Everything here is truncated at a level k (default 6): the subring in play is
B_k = Z[f_2, ..., f_k], and every report names its truncation.  The map onto
Q is realized by evaluating tag representations at the point
(1/2, 1/3, ..., 1/k); that is well defined exactly when every relation among
the generators vanishes at the point, which the context verifies on
construction by computing the relation ideal and evaluating its generators.
A context whose verification did not complete refuses to evaluate.

On top of the verified context:

  * kernel membership (image zero) for subring elements;
  * the explicit unit certificates 1 = (n+1)*T2*(n*f_n - 1) - ((n+1)*f_{n+1} - 1),
    whose two kernel factors show the kernel generates the unit ideal in the
    ambient polynomial ring;
  * fraction certificates writing T2 = f_3/(2*f_2 - 1) and
    T1 = f_2*(2*f_2 - 1)/f_3, so the fraction field of the subring is all of
    Q(T1, T2);
  * the non-extendability contradiction: any extension of the map to the
    full polynomial ring would force 1/(n+1) = (n * 1/n - 1) * t = 0;
  * a search for elements l = l0 + a annihilated by a univariate polynomial
    over the subring with some coefficient outside the kernel.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .groebner import (
    GroebnerBudget,
    MembershipStatus,
    relation_ideal,
    subalgebra_membership,
)
from .polynomials import (
    Domain,
    Polynomial,
    format_poly,
    x_names,
)


class UnverifiedContextError(RuntimeError):
    """Evaluation against Q refused: the context's well-definedness was not
    established (relation computation incomplete or a relation failed to
    vanish at the evaluation point)."""


class NotInSubringError(ValueError):
    """The polynomial could not be certified as a subring element."""


def _recurrence(n: int) -> Iterator[Polynomial]:
    """Yield f_2, ..., f_n, fully expanded over Z[T1,T2], from one pass of
    the recurrence; a caller that keeps only the last holds one at a time."""
    t2 = Polynomial.variable(2, 1, Domain.INT)
    one = Polynomial.one(2, Domain.INT)
    f = Polynomial.variable(2, 0, Domain.INT) * t2
    yield f
    for m in range(2, n):
        f = (f * m - one) * t2
        yield f


def generator(n: int) -> Polynomial:
    """The n-th subring generator, fully expanded over Z[T1,T2].

    Defined by f_2 = T1*T2 and f_{n+1} = (n*f_n - 1)*T2.
    """
    if n < 2:
        raise ValueError(f"generators start at n = 2, got {n}")
    for f in _recurrence(n):
        pass
    return f


@dataclass(frozen=True)
class WellDefinednessReport:
    """Outcome of verifying that evaluation at (1/2, ..., 1/k) is well
    defined on tag representations.

    ``relations`` are the computed generators of the relation ideal of
    f_2..f_k (tag variables X2..Xk); ``values_at_point`` are their exact
    values at the evaluation point.  ``verified`` requires both a complete
    relation computation and all values zero, and is computed once; with
    ``relations_complete`` False the check is only partial and the context
    must refuse evaluation.
    """

    truncation: int
    relations: tuple[Polynomial, ...]
    values_at_point: tuple[Fraction, ...]
    relations_complete: bool

    @property
    def all_vanish(self) -> bool:
        return all(v == 0 for v in self.values_at_point)

    @cached_property
    def verified(self) -> bool:
        return self.relations_complete and self.all_vanish


@dataclass(frozen=True)
class AbhyankarContext:
    """Immutable bundle: truncation k, generators f_2..f_k, the evaluation
    point (1/2, ..., 1/k), the verification report, and the Groebner budget
    the report was computed under.

    Built via :meth:`build`, which computes the relation ideal of the
    generators and checks every relation vanishes at the point.  All
    evaluation-based operations refuse to run on an unverified context.
    ``budget`` governs every Groebner computation run on the context
    (:meth:`lift`, the annihilator search, ``verify_conditions``), so every
    lift reduces against the elimination basis the build cached; it takes
    no part in equality.
    """

    truncation: int
    generators: tuple[Polynomial, ...]
    point: tuple[Fraction, ...]
    report: WellDefinednessReport
    budget: GroebnerBudget = field(compare=False)

    @staticmethod
    def build(k: int = 6, budget: GroebnerBudget = GroebnerBudget()) -> "AbhyankarContext":
        if k < 2:
            raise ValueError(f"truncation must be at least 2, got {k}")
        gens = tuple(_recurrence(k))
        point = tuple(Fraction(1, n) for n in range(2, k + 1))
        result = relation_ideal(gens, budget)
        report = WellDefinednessReport(
            truncation=k,
            relations=result.relations,
            values_at_point=tuple(r.evaluate(list(point)) for r in result.relations),
            relations_complete=result.complete,
        )
        return AbhyankarContext(k, gens, point, report, budget)

    @property
    def verified(self) -> bool:
        return self.report.verified

    def _require_verified(self) -> None:
        if not self.verified:
            raise UnverifiedContextError(
                f"context at truncation {self.truncation} is not verified: "
                + (
                    "relation computation incomplete"
                    if not self.report.relations_complete
                    else "a relation does not vanish at the evaluation point"
                )
            )

    @property
    def tag_count(self) -> int:
        return self.truncation - 1

    def generator_poly(self, n: int) -> Polynomial:
        if not 2 <= n <= self.truncation:
            raise ValueError(f"generator index {n} outside 2..{self.truncation}")
        return self.generators[n - 2]

    # -- subring elements --------------------------------------------------

    def element(self, representation: Polynomial) -> "SubringElement":
        """Subring element from an integer-coefficient tag polynomial."""
        rep = representation.as_domain(Domain.INT)
        if rep.nvars != self.tag_count:
            raise ValueError(
                f"representation has {rep.nvars} tag variables, context has {self.tag_count}"
            )
        return SubringElement(self, rep)

    def constant(self, c: int) -> "SubringElement":
        return self.element(Polynomial.constant(self.tag_count, c, Domain.INT))

    def generator_element(self, n: int) -> "SubringElement":
        if not 2 <= n <= self.truncation:
            raise ValueError(f"generator index {n} outside 2..{self.truncation}")
        return self.element(Polynomial.variable(self.tag_count, n - 2, Domain.INT))

    def lift(self, ambient: Polynomial) -> "SubringElement":
        """Certify an ambient polynomial as a subring element.

        Uses canonical subalgebra membership under the context's budget, so
        it reduces against the elimination basis the build computed, and
        accepts only when the canonical representation has integer
        coefficients; membership itself checks that the representation
        substitutes back to ``ambient``.
        This is a conservative certificate for the Z-subalgebra: the canonical coset
        representative can pick up rational coefficients from the relations
        even when an integer representation exists (f_3*f_5 is an example),
        and in that case lift refuses rather than guessing.
        """
        cert = subalgebra_membership(ambient, self.generators, self.budget)
        if cert.status is MembershipStatus.UNKNOWN:
            raise NotInSubringError(
                f"membership of {format_poly(ambient)} undecided within budget"
            )
        if cert.status is MembershipStatus.NON_MEMBER:
            raise NotInSubringError(
                f"{format_poly(ambient)} is not in the subring at truncation {self.truncation}"
            )
        if not cert.integral:
            raise NotInSubringError(
                f"no integer certificate found for {format_poly(ambient)}: the "
                f"canonical representation "
                f"{format_poly(cert.representation, x_names(self.truncation))} "
                f"has non-integer coefficients"
            )
        return SubringElement(self, cert.representation.as_domain(Domain.INT))

    # -- the surjection onto Q ---------------------------------------------

    def rational_image(self, e: "SubringElement") -> Fraction:
        """The image of a subring element under f_n |-> 1/n.

        Representation-independent because every relation among the
        generators vanishes at the evaluation point (verified at build);
        refuses on an unverified context.
        """
        self._require_verified()
        if e.context is not self and e.context != self:
            raise ValueError("element belongs to a different context")
        return e.representation.evaluate(list(self.point))

    def in_kernel(self, e: "SubringElement") -> bool:
        """Membership in the kernel of the surjection onto Q."""
        return self.rational_image(e) == 0


@dataclass(frozen=True)
class SubringElement:
    """An element of the truncated subring, stored as its integer tag
    representation.  Its expanded form in Z[T1,T2], ``ambient``, is the
    representation with the generators substituted, computed on first read
    and kept; arithmetic acts on the representation alone."""

    context: AbhyankarContext
    representation: Polynomial

    @cached_property
    def ambient(self) -> Polynomial:
        return self.representation.substitute(list(self.context.generators))

    def _check(self, other: "SubringElement") -> None:
        if not isinstance(other, SubringElement):
            raise TypeError(f"expected SubringElement, got {type(other).__name__}")
        if other.context != self.context:
            raise ValueError("elements belong to different contexts")

    def __add__(self, other: "SubringElement") -> "SubringElement":
        self._check(other)
        return SubringElement(self.context, self.representation + other.representation)

    def __sub__(self, other: "SubringElement") -> "SubringElement":
        self._check(other)
        return SubringElement(self.context, self.representation - other.representation)

    def __mul__(self, other: "SubringElement | int") -> "SubringElement":
        if isinstance(other, int):
            return SubringElement(self.context, self.representation * other)
        self._check(other)
        return SubringElement(self.context, self.representation * other.representation)

    __rmul__ = __mul__

    def __neg__(self) -> "SubringElement":
        return SubringElement(self.context, -self.representation)

    def __pow__(self, n: int) -> "SubringElement":
        return SubringElement(self.context, self.representation**n)

    @property
    def rational_image(self) -> Fraction:
        return self.context.rational_image(self)

    @property
    def in_kernel(self) -> bool:
        return self.context.in_kernel(self)

    def __str__(self) -> str:
        return format_poly(self.ambient)


# -- the unit-ideal certificates -------------------------------------------


@dataclass(frozen=True)
class UnitIdealWitness:
    """The identity 1 = (n+1)*T2*(n*f_n - 1) - ((n+1)*f_{n+1} - 1).

    Both bracketed factors lie in the kernel of the surjection onto Q, and
    the multiplier (n+1)*T2 lives in the ambient ring -- so the kernel
    generates the unit ideal there.  ``identity_holds`` records the exact
    symbolic expansion check; the kernel flags are certified through
    evaluation.
    """

    n: int
    multiplier: Polynomial
    kernel_factor_low: SubringElement
    kernel_factor_high: SubringElement
    identity_holds: bool
    factors_in_kernel: tuple[bool, bool]


def unit_ideal_witness(ctx: AbhyankarContext, n: int) -> UnitIdealWitness:
    """Certificate that 1 is an ambient-ring combination of kernel elements,
    at level n (requires n + 1 within the truncation)."""
    if not 2 <= n <= ctx.truncation - 1:
        raise ValueError(f"level {n} needs truncation at least {n + 1}, have {ctx.truncation}")
    one = ctx.constant(1)
    f_n = ctx.generator_element(n)
    f_n1 = ctx.generator_element(n + 1)
    low = f_n * n - one
    high = f_n1 * (n + 1) - one
    t2 = Polynomial.variable(2, 1, Domain.INT)
    multiplier = t2 * (n + 1)
    expansion = multiplier * low.ambient - high.ambient
    return UnitIdealWitness(
        n=n,
        multiplier=multiplier,
        kernel_factor_low=low,
        kernel_factor_high=high,
        identity_holds=(expansion == Polynomial.one(2, Domain.INT)),
        factors_in_kernel=(low.in_kernel, high.in_kernel),
    )


# -- fraction-field certificates -------------------------------------------


@dataclass(frozen=True)
class FractionWitness:
    """target = numerator / denominator with numerator and denominator in
    the subring; ``residual`` is target*denominator - numerator, which must
    be exactly 0."""

    target: Polynomial
    numerator: SubringElement
    denominator: SubringElement
    residual: Polynomial

    @property
    def exact(self) -> bool:
        return self.residual.is_zero

    @property
    def denominator_nonzero(self) -> bool:
        return not self.denominator.ambient.is_zero


def fraction_field_witnesses(ctx: AbhyankarContext) -> tuple[FractionWitness, FractionWitness]:
    """Both ambient variables as fractions of subring elements:

        T2 = f_3 / (2*f_2 - 1)        T1 = f_2*(2*f_2 - 1) / f_3

    so the fraction field of the subring is the full rational function
    field.  Cross-multiplied residuals are returned and must vanish.
    Requires truncation >= 3.
    """
    if ctx.truncation < 3:
        raise ValueError("fraction certificates need truncation at least 3")
    t1 = Polynomial.variable(2, 0, Domain.INT)
    t2 = Polynomial.variable(2, 1, Domain.INT)
    one = ctx.constant(1)
    f2 = ctx.generator_element(2)
    f3 = ctx.generator_element(3)
    den2 = f2 * 2 - one
    t2_witness = FractionWitness(
        target=t2,
        numerator=f3,
        denominator=den2,
        residual=t2 * den2.ambient - f3.ambient,
    )
    t1_witness = FractionWitness(
        target=t1,
        numerator=f2 * den2,
        denominator=f3,
        residual=t1 * f3.ambient - (f2 * den2).ambient,
    )
    return t2_witness, t1_witness


# -- non-extendability ------------------------------------------------------


@dataclass(frozen=True)
class ContradictionRow:
    """One level of the extension contradiction: any multiplicative
    extension sending T2 to a value t would force

        1/(n+1)  =  image(f_{n+1})  =  image(n*f_n - 1) * t  =  (n*(1/n) - 1) * t,

    whose coefficient is exactly 0 -- independent of t."""

    n: int
    coefficient: Fraction
    required_value: Fraction


@dataclass(frozen=True)
class NonExtendabilityCertificate:
    first_n: int
    rows: tuple[ContradictionRow, ...]
    derivation: tuple[str, ...]


def non_extendability_certificate(n_max: int = 2) -> NonExtendabilityCertificate:
    """Why the surjection onto Q admits no extension to all of Z[T1,T2].

    An extension would assign T2 some rational value t; multiplicativity on
    f_{n+1} = (n*f_n - 1)*T2 then pins image(f_{n+1}) = (n*(1/n) - 1)*t = 0,
    contradicting the required value 1/(n+1).  The contradiction appears at
    every level; rows cover n = 2..n_max and the derivation spells out the
    first one.
    """
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    rows = tuple(
        ContradictionRow(
            n=n,
            coefficient=Fraction(n, 1) * Fraction(1, n) - 1,
            required_value=Fraction(1, n + 1),
        )
        for n in range(2, n_max + 1)
    )
    first = rows[0]
    derivation = (
        f"suppose the map extends, sending T2 to some rational t",
        f"f_{first.n + 1} = ({first.n}*f_{first.n} - 1)*T2, so the image of "
        f"f_{first.n + 1} equals ({first.n}*(1/{first.n}) - 1) * t",
        f"{first.n}*(1/{first.n}) - 1 = {first.coefficient}, so the image is 0 "
        f"for every t",
        f"but the image of f_{first.n + 1} must be {first.required_value}, "
        f"which is nonzero -- contradiction",
    )
    return NonExtendabilityCertificate(first_n=first.n, rows=rows, derivation=derivation)


# -- univariate polynomials over the subring --------------------------------


@dataclass(frozen=True)
class UnivarOverSubring:
    """h(X) = sum coeffs[i] * X^i with coefficients in one context's subring."""

    coeffs: tuple[SubringElement, ...]

    def __post_init__(self):
        if any(c.context != self.coeffs[0].context for c in self.coeffs):
            raise ValueError("coefficients come from different contexts")

    def evaluate_ambient(self, point: Polynomial) -> Polynomial:
        """h(point) expanded in the ambient ring Z[T1,T2]."""
        total = Polynomial.zero(2, Domain.INT)
        power = Polynomial.one(2, Domain.INT)
        for coeff in self.coeffs:
            total = total + coeff.ambient * power
            power = power * point
        return total

    def describe(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(reversed(self.coeffs)):
            deg = len(self.coeffs) - 1 - i
            if c.ambient.is_zero:
                continue
            x_part = "X" if deg == 1 else (f"X^{deg}" if deg else "")
            body = f"({format_poly(c.ambient)})"
            parts.append(f"{body}*{x_part}" if x_part else body)
        return " + ".join(parts) if parts else "0"


def univar_in_kernel(h: UnivarOverSubring) -> bool:
    """True iff every coefficient lies in the kernel of the surjection
    (vacuously true for the zero polynomial)."""
    return all(c.ambient.is_zero or c.in_kernel for c in h.coeffs)


# -- falsifying the kernel-coefficient condition ----------------------------


@dataclass(frozen=True)
class AnnihilatorWitness:
    """An element l = base + shift of the ambient semiring together with a
    nonzero annihilating polynomial h over the subring that has a
    coefficient outside the kernel: h(l) = 0 exactly, yet h is not a
    kernel-coefficient polynomial."""

    base: Polynomial
    shift: Polynomial
    h: UnivarOverSubring
    residual: Polynomial


@dataclass(frozen=True)
class AnnihilatorSearchResult:
    found: bool
    witness: AnnihilatorWitness | None
    attempts: int


def _shift_candidates() -> list[Polynomial]:
    """Natural-domain shift candidates a of degree and coefficients at most 2,
    graded small-first: 0, constants, then multiples of single monomials."""
    out = [Polynomial.zero(2, Domain.NAT)]
    for c in (1, 2):
        out.append(Polynomial.constant(2, c, Domain.NAT))
    for u in ((0, 1), (1, 0), (0, 2), (1, 1), (2, 0)):
        for c in (1, 2):
            out.append(Polynomial.monomial(u, c, Domain.NAT))
    return out


def _denominator_pool(ctx: AbhyankarContext) -> list[SubringElement]:
    one = ctx.constant(1)
    f2 = ctx.generator_element(2)
    f3 = ctx.generator_element(3)
    den = f2 * 2 - one
    pool = [one, den, f3, f2, den * den, den * f3, f2 * den, f3 * f3]
    return pool


def non_kernel_annihilator(ctx: AbhyankarContext, base: Polynomial) -> AnnihilatorSearchResult:
    """Search for a shift a and a linear h(X) = c*X - d over the subring with
    h(base + a) = 0 and some coefficient of h outside the kernel.

    Strategy: for each small shift a (0 first, then degree and coefficient
    at most 2) and each denominator c from a fixed pool of subring elements,
    test whether c*(base+a) is itself a certified subring element d, lifted
    under the context's budget; then h = c*X - d annihilates base + a by
    construction, and the witness stands whenever c or d has nonzero image.
    Exhausting the search space yields found=False (never a false claim).
    """
    if base.domain is not Domain.NAT:
        raise ValueError("base element must be natural-domain (an element of the ambient semiring)")
    if ctx.truncation < 3:
        raise ValueError("search needs truncation at least 3")
    pool = _denominator_pool(ctx)
    attempts = 0
    for shift in _shift_candidates():
        ell = (base + shift).as_domain(Domain.INT)
        for c in pool:
            attempts += 1
            candidate = c.ambient * ell
            try:
                d = ctx.lift(candidate)
            except NotInSubringError:
                continue
            h = UnivarOverSubring((-d, c))
            if univar_in_kernel(h):
                continue
            witness = AnnihilatorWitness(base, shift, h, h.evaluate_ambient(ell))
            return AnnihilatorSearchResult(True, witness, attempts)
    return AnnihilatorSearchResult(False, None, attempts)
