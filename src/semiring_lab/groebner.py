"""Groebner bases over Q with membership certificates.

The engine behind three questions asked elsewhere in the package:

  * ideal membership with cofactors -- is p in (g_1, ..., g_m), and if so,
    which combination proves it?
  * relation ideals -- the kernel of the tag map X_i |-> g_i, computed by
    elimination (tag variables are X2..X_{m+1}, mirroring generator numbering
    that starts at 2);
  * subalgebra membership -- is h a polynomial in g_1, ..., g_m over Q, with
    the canonical representation and an integer-coefficient flag.

Everything is exact (Fraction arithmetic), deterministic (reduced bases are
unique for a fixed monomial order, and pair selection is a fixed normal
strategy), and budgeted: degree/step caps are explicit, and running out of
budget yields an explicit Unknown or an incomplete-flagged partial result,
never a silently truncated answer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .polynomials import (
    ArityError,
    Domain,
    Exponent,
    MonomialOrder,
    Polynomial,
    elimination,
    mono_deg,
    mono_div,
    mono_lcm,
    mono_mul,
)


@dataclass(frozen=True)
class GroebnerBudget:
    """Degree and step caps for basis completion.

    ``max_degree`` bounds the total degree of any intermediate polynomial;
    ``max_steps`` bounds the number of S-pair reductions.  Exceeding either
    raises :class:`BudgetExceededError` carrying the partial basis.
    """

    max_degree: int = 30
    max_steps: int = 50_000


class BudgetExceededError(RuntimeError):
    """Basis completion hit a resource cap.

    ``partial`` holds the basis built so far.  Its elements all lie in the
    input ideal (with valid certificates when tracking was on), so reductions
    to zero against it still prove membership -- but nonzero normal forms
    prove nothing, and callers must surface Unknown / incomplete.
    """

    def __init__(self, message: str, partial: "GroebnerBasis"):
        super().__init__(message)
        self.partial = partial


class MembershipStatus(Enum):
    MEMBER = "member"
    NON_MEMBER = "non_member"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of a membership question, with its supporting evidence.

    For ideal membership, ``cofactors`` aligns with the queried generators
    and expands exactly to the query.  For subalgebra membership,
    ``representation`` is the canonical polynomial in the tag variables
    X2..X_{k} with ``representation.substitute(generators) == query``;
    ``integral`` reports whether all its coefficients are integers, and
    ``truncation_level`` records how many generators were available (the
    subalgebra was truncated there).  ``basis_complete`` is False when the
    verdict was reached with a budget-truncated basis (possible only for
    MEMBER, which stays sound, or UNKNOWN).
    """

    status: MembershipStatus
    representation: Polynomial | None = None
    cofactors: tuple[Polynomial, ...] | None = None
    integral: bool | None = None
    truncation_level: int | None = None
    basis_complete: bool = True

    @property
    def member(self) -> bool | None:
        """True / False when decided, None when Unknown."""
        if self.status is MembershipStatus.UNKNOWN:
            return None
        return self.status is MembershipStatus.MEMBER


@dataclass(frozen=True)
class RelationIdealResult:
    """Generators of the kernel of X_i |-> g_i, in the tag variables only.

    ``complete`` is False when the elimination basis hit its budget: the
    listed relations are then still genuine (each vanishes under
    substitution) but possibly not generating.
    """

    relations: tuple[Polynomial, ...]
    complete: bool
    tag_count: int
    steps_used: int


# -- internal sparse-dict plumbing ----------------------------------------

_Terms = dict  # Exponent -> Fraction, zero values never stored

# One divisor-table entry per monic basis element: its leading monomial, the
# support mask of that monomial (bit i set iff variable i occurs), and its
# terms.  ``lm_mask & ~u_mask`` nonzero proves lm does not divide u, which
# skips most candidate divisors without building a quotient exponent (the
# "short exponent vector" test, one bit per variable).
_Entry = tuple  # (Exponent, int, _Terms)

_ZERO = Fraction(0)


class _DegreeCapHit(Exception):
    pass


def _to_rat(p: Polynomial) -> Polynomial:
    return p.as_domain(Domain.RAT)


def _poly(nvars: int, terms: _Terms) -> Polynomial:
    return Polynomial._raw(nvars, Domain.RAT, terms)


def _mask(u: Exponent) -> int:
    m = 0
    for i, e in enumerate(u):
        if e:
            m |= 1 << i
    return m


def _entry(p: Polynomial, order: MonomialOrder) -> _Entry:
    """Divisor-table entry of a nonzero monic polynomial, sharing its dict."""
    lm, _ = p.leading_term(order)
    return lm, _mask(lm), p._terms


def _monic_entry(terms: _Terms, order: MonomialOrder) -> tuple[_Entry, Fraction]:
    """Divisor-table entry of ``terms`` divided by its leading coefficient,
    and the factor 1/lc that was applied."""
    lm = max(terms, key=order.key)
    inv = 1 / terms[lm]
    return (lm, _mask(lm), {u: c * inv for u, c in terms.items()}), inv


def _divides(lm: Exponent, lm_mask: int, u: Exponent, u_mask: int) -> bool:
    return not lm_mask & ~u_mask and mono_div(u, lm) is not None


def _divide(
    target: _Terms,
    divisors: Sequence[_Entry],
    order: MonomialOrder,
    degree_cap: int | None = None,
) -> tuple[list[_Terms], _Terms]:
    """Multivariate division: target = sum(quotient_i * divisor_i) + remainder.

    Divisors are monic divisor-table entries; each step reduces by the first
    divisor, in table order, whose leading monomial divides the current
    leading term.  No remainder term is divisible by any divisor's leading
    monomial.  With a degree cap, intermediate blowup past the cap raises
    _DegreeCapHit.
    """
    work = dict(target)
    quotients: list[_Terms] = [{} for _ in divisors]
    remainder: _Terms = {}
    key = order.key
    while work:
        u = max(work, key=key)
        c = work[u]
        if degree_cap is not None and mono_deg(u) > degree_cap:
            raise _DegreeCapHit
        u_mask = _mask(u)
        for qi, (lm, lm_mask, terms) in zip(quotients, divisors):
            if lm_mask & ~u_mask:
                continue
            shift = mono_div(u, lm)
            if shift is not None:
                # the leading term strictly decreases, so no shift repeats
                qi[shift] = c
                for v, cv in terms.items():
                    w = mono_mul(shift, v)
                    s = work.get(w, _ZERO) - c * cv
                    if s == 0:
                        work.pop(w, None)
                    else:
                        work[w] = s
                break
        else:
            remainder[u] = c
            del work[u]
    return quotients, remainder


def _combo_update(
    base: tuple[Polynomial, ...],
    quotients: Sequence[_Terms],
    combos: Sequence[tuple[Polynomial, ...]],
    nvars: int,
) -> tuple[Polynomial, ...]:
    """combo of (poly - sum q_i * basis_i) given the basis elements' combos."""
    out = list(base)
    for q, combo in zip(quotients, combos):
        if not q:
            continue
        q_poly = _poly(nvars, q)
        out = [a - q_poly * b for a, b in zip(out, combo)]
    return tuple(out)


@dataclass(frozen=True)
class GroebnerBasis:
    """A Groebner basis; when ``reduced``, it is the canonical one.

    ``generators`` are monic and sorted by leading monomial (ascending in
    ``order``).  ``source`` keeps the original input generators (coerced to
    Q); when certificate tracking was on, ``cofactors[i]`` expresses
    ``generators[i]`` as a combination of ``source``.  The divisor table
    that reductions scan (leading monomial, its support mask and the terms
    of each generator) is built on the first reduction and kept; its term
    dicts are the generators' own, shared and never copied, which is safe
    because polynomials are immutable and division only reads its divisors.
    """

    generators: tuple[Polynomial, ...]
    order: MonomialOrder
    reduced: bool
    source: tuple[Polynomial, ...]
    cofactors: tuple[tuple[Polynomial, ...], ...] | None
    steps_used: int

    @property
    def nvars(self) -> int:
        if self.generators:
            return self.generators[0].nvars
        return self.source[0].nvars

    @cached_property
    def _divisors(self) -> tuple[_Entry, ...]:
        return tuple(_entry(g, self.order) for g in self.generators)

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Complete reduction of p: no remainder term is divisible by any
        leading monomial of the basis."""
        r, _ = self.normal_form_with_quotients(p)
        return r

    def normal_form_with_quotients(self, p: Polynomial) -> tuple[Polynomial, tuple[Polynomial, ...]]:
        """Remainder plus the quotients: p = sum(q_i * generators[i]) + r.

        Every empty quotient is the same zero polynomial object.
        """
        p = _to_rat(p)
        if p.nvars != self.nvars:
            raise ArityError(f"polynomial has {p.nvars} variables, basis has {self.nvars}")
        quotients, remainder = _divide(p._terms, self._divisors, self.order)
        n = p.nvars
        zero = Polynomial.zero(n, Domain.RAT)
        return _poly(n, remainder), tuple(_poly(n, q) if q else zero for q in quotients)

    def contains(self, p: Polynomial) -> bool:
        """Ideal membership via normal form (sound and complete when reduced)."""
        return self.normal_form(p).is_zero


def _spair_key(order: MonomialOrder, lm_i: Exponent, lm_j: Exponent, i: int, j: int):
    lcm = mono_lcm(lm_i, lm_j)
    return (mono_deg(lcm), order.key(lcm), i, j)


def buchberger(
    gens: Sequence[Polynomial],
    order: MonomialOrder = MonomialOrder("grlex"),
    budget: GroebnerBudget = GroebnerBudget(),
    track: bool = False,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Deterministic for fixed input and order: pairs are processed smallest
    lcm-degree first (ties broken by the monomial order, then indices), the
    coprimality and chain criteria prune useless pairs, and the final basis
    is interreduced and monic -- the canonical reduced basis, independent of
    generator input order.

    While it runs, the basis is its divisor table and nothing else: one
    entry per monic element, added once, holding its leading monomial, that
    monomial's support mask and the element's term dict.  Every S-polynomial
    reduction scans this table, and the support masks reject most
    non-divisors in the chain criterion, the reductions and the final
    minimalisation before any exponent is compared.  The term dicts become
    ``Polynomial`` generators once, in the finalisation.

    With ``track=True`` every basis element carries cofactors expressing it
    in terms of the input generators (certificate bookkeeping for
    ideal_membership).  Budgets are enforced; exceeding one raises
    :class:`BudgetExceededError` with the partial basis attached.
    """
    if not gens:
        raise ValueError("generator list must be nonempty")
    source = tuple(_to_rat(g) for g in gens)
    nvars = source[0].nvars
    for g in source:
        if g.nvars != nvars:
            raise ArityError("generators live in different rings")

    table: list[_Entry] = []
    combos: list[tuple[Polynomial, ...]] = []
    zero = Polynomial.zero(nvars, Domain.RAT)
    steps = 0

    def partial_basis() -> GroebnerBasis:
        return _finalize(table, combos, order, source, steps, track, reduced=False)

    for idx, g in enumerate(source):
        if g.is_zero:
            continue
        entry, inv = _monic_entry(g._terms, order)
        table.append(entry)
        if track:
            combos.append(tuple(
                Polynomial.constant(nvars, inv, Domain.RAT) if j == idx else zero
                for j in range(len(source))
            ))

    if not table:
        return GroebnerBasis((), order, True, source, () if track else None, 0)

    # every pair is pushed exactly once; ``pending`` holds those not yet
    # popped, which the chain criterion reads
    heap: list[tuple] = []
    pending: set[tuple[int, int]] = set()
    for j in range(len(table)):
        for i in range(j):
            heapq.heappush(heap, _spair_key(order, table[i][0], table[j][0], i, j))
            pending.add((i, j))

    while heap:
        _, _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        (lm_i, mask_i, terms_i), (lm_j, mask_j, terms_j) = table[i], table[j]
        lcm = mono_lcm(lm_i, lm_j)
        # coprimality criterion: coprime leading monomials reduce to zero
        if not mask_i & mask_j:
            continue
        # chain criterion: a third element dividing the lcm, both side pairs done
        lcm_mask = mask_i | mask_j
        skip = False
        for k, (lm_k, mask_k, _) in enumerate(table):
            if k in (i, j) or not _divides(lm_k, mask_k, lcm, lcm_mask):
                continue
            if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
                skip = True
                break
        if skip:
            continue

        steps += 1
        if steps > budget.max_steps:
            raise BudgetExceededError(
                f"step budget {budget.max_steps} exceeded", partial_basis()
            )

        shift_i = mono_div(lcm, lm_i)
        shift_j = mono_div(lcm, lm_j)
        spoly: _Terms = {mono_mul(shift_i, v): c for v, c in terms_i.items()}
        for v, c in terms_j.items():
            w = mono_mul(shift_j, v)
            s = spoly.get(w, _ZERO) - c
            if s == 0:
                spoly.pop(w, None)
            else:
                spoly[w] = s

        # every remainder term was once the leading term of the work and
        # passed the degree cap there, so the remainder needs no check
        try:
            quotients, remainder = _divide(spoly, table, order, budget.max_degree)
        except _DegreeCapHit:
            raise BudgetExceededError(
                f"degree budget {budget.max_degree} exceeded", partial_basis()
            ) from None
        if not remainder:
            continue

        entry, inv = _monic_entry(remainder, order)
        if track:
            mono_i = Polynomial.monomial(shift_i, 1, Domain.RAT)
            mono_j = Polynomial.monomial(shift_j, 1, Domain.RAT)
            base = tuple(
                mono_i * a - mono_j * b for a, b in zip(combos[i], combos[j])
            )
            combo = _combo_update(base, quotients, combos, nvars)
            combos.append(tuple(c * inv for c in combo))
        new_index = len(table)
        table.append(entry)
        for t in range(new_index):
            heapq.heappush(heap, _spair_key(order, table[t][0], entry[0], t, new_index))
            pending.add((t, new_index))

    return _finalize(table, combos, order, source, steps, track, reduced=True)


def _finalize(
    table: list[_Entry],
    combos: list[tuple[Polynomial, ...]],
    order: MonomialOrder,
    source: tuple[Polynomial, ...],
    steps: int,
    track: bool,
    reduced: bool,
) -> GroebnerBasis:
    """Minimalize and interreduce, in ascending leading-monomial order.

    After minimalisation no kept leading monomial divides another, so
    reducing an element leaves its monic leading term in place and only
    elements with a smaller leading monomial can divide its other terms.
    One ascending pass, each element reduced by the already reduced ones
    below it, therefore yields the interreduced basis: no remainder is zero,
    none needs rescaling, and the order stays sorted.
    """
    nvars = source[0].nvars
    kept: list[int] = []
    for t in sorted(range(len(table)), key=lambda t: order.key(table[t][0])):
        lm, mask, _ = table[t]
        if not any(_divides(table[s][0], table[s][1], lm, mask) for s in kept):
            kept.append(t)

    entries: list[_Entry] = []
    kept_combos: list[tuple[Polynomial, ...]] = []
    for t in kept:
        lm, mask, terms = table[t]
        quotients, remainder = _divide(terms, entries, order)
        entries.append((lm, mask, remainder))
        if track:
            kept_combos.append(_combo_update(combos[t], quotients, kept_combos, nvars))
    return GroebnerBasis(
        generators=tuple(_poly(nvars, terms) for _, _, terms in entries),
        order=order,
        reduced=reduced,
        source=source,
        cofactors=tuple(kept_combos) if track else None,
        steps_used=steps,
    )


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Complete reduction of p modulo the basis (remainder only)."""
    return gb.normal_form(p)


def ideal_membership(
    p: Polynomial,
    gens: Sequence[Polynomial],
    order: MonomialOrder = MonomialOrder("grlex"),
    budget: GroebnerBudget = GroebnerBudget(),
) -> MembershipCertificate:
    """Decide p in (gens) over Q, with cofactors on a positive answer.

    Member iff the normal form modulo the (reduced) basis vanishes; the
    returned cofactors align with ``gens`` and are re-expanded here as a
    self-check.  A budget-truncated basis can still certify MEMBER (its
    elements are genuine ideal members); it cannot certify NON_MEMBER, so
    that collapses to UNKNOWN with ``basis_complete=False``.
    """
    p = _to_rat(p)
    complete = True
    try:
        gb = buchberger(gens, order, budget, track=True)
    except BudgetExceededError as exc:
        gb = exc.partial
        complete = False
    if not gb.generators:
        # zero ideal: only the zero polynomial belongs
        if p.is_zero:
            return MembershipCertificate(
                MembershipStatus.MEMBER,
                cofactors=tuple(Polynomial.zero(p.nvars, Domain.RAT) for _ in gens),
                basis_complete=complete,
            )
        return MembershipCertificate(MembershipStatus.NON_MEMBER, basis_complete=complete)
    remainder, quotients = gb.normal_form_with_quotients(p)
    if remainder.is_zero:
        cof = [Polynomial.zero(p.nvars, Domain.RAT) for _ in gens]
        for q, combo in zip(quotients, gb.cofactors):
            if q.is_zero:
                continue
            cof = [a + q * b for a, b in zip(cof, combo)]
        check = Polynomial.zero(p.nvars, Domain.RAT)
        for c, g in zip(cof, gb.source):
            check = check + c * g
        if check != p:
            raise RuntimeError("internal certificate check failed: cofactor expansion mismatch")
        return MembershipCertificate(
            MembershipStatus.MEMBER, cofactors=tuple(cof), basis_complete=complete
        )
    if complete:
        return MembershipCertificate(MembershipStatus.NON_MEMBER)
    return MembershipCertificate(MembershipStatus.UNKNOWN, basis_complete=False)


# -- tag-variable elimination ---------------------------------------------


def tag_ring_generators(gens: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
    """The polynomials X_i - g_i in the combined ring Q[T-block, X-block]."""
    nvars = gens[0].nvars
    total = nvars + len(gens)
    out = []
    for i, g in enumerate(gens):
        xi = Polynomial.variable(total, nvars + i, Domain.RAT)
        out.append(xi - _to_rat(g).embed(total, 0))
    return tuple(out)


@lru_cache(maxsize=64)
def _tag_elimination_basis(
    gens: tuple[Polynomial, ...], budget: GroebnerBudget
) -> tuple[tuple[Polynomial, ...], GroebnerBasis, bool]:
    """Cached elimination basis of {X_i - g_i} with the T-block dominant.

    Keyed by the caller's generators as given, whose hashes the polynomials
    keep, so a repeated query converts nothing.  Returns the generators over
    Q, the basis and whether it is complete; a budget-truncated basis is
    cached with ``complete=False`` like a complete one.
    """
    source = tuple(_to_rat(g) for g in gens)
    order = elimination(source[0].nvars)
    try:
        return source, buchberger(tag_ring_generators(source), order, budget), True
    except BudgetExceededError as exc:
        return source, exc.partial, False


def _tag_free_part(gb: GroebnerBasis, nvars: int, tag_count: int) -> tuple[Polynomial, ...]:
    """Basis elements supported entirely on the tag block, projected to it."""
    out = []
    for g in gb.generators:
        lm, _ = g.leading_term(gb.order)
        if any(lm[:nvars]):
            continue
        # elimination order: a tag-only leading monomial forces tag-only support
        out.append(g.project(nvars, nvars + tag_count))
    out.sort(key=lambda p: p.sort_key())
    return tuple(out)


def relation_ideal(
    gens: Sequence[Polynomial],
    budget: GroebnerBudget = GroebnerBudget(),
) -> RelationIdealResult:
    """Generators of the kernel of the tag map X_i |-> g_i.

    Computed as the tag-only part of the elimination basis of {X_i - g_i}
    (T-block dominant).  On budget exhaustion the partial basis still yields
    genuine relations, returned with ``complete=False``.
    """
    if not gens:
        raise ValueError("generator list must be nonempty")
    source, gb, complete = _tag_elimination_basis(tuple(gens), budget)
    relations = _tag_free_part(gb, source[0].nvars, len(source))
    return RelationIdealResult(
        relations=relations,
        complete=complete,
        tag_count=len(source),
        steps_used=gb.steps_used,
    )


def subalgebra_membership(
    h: Polynomial,
    gens: Sequence[Polynomial],
    budget: GroebnerBudget = GroebnerBudget(),
) -> MembershipCertificate:
    """Decide h in Q[g_1, ..., g_m], with the canonical tag representation.

    Member iff the normal form of h modulo the elimination basis of
    {X_i - g_i} (T-block dominant) involves only tag variables; that normal
    form, projected to the tags, is the representation, and substituting the
    generators back is checked to reproduce h exactly.  ``integral`` reports
    whether the representation has integer coefficients -- the certificate
    for membership in the Z-subalgebra is Q-membership plus integrality of
    the canonical representation.  A truncated basis keeps MEMBER sound
    (substitution is re-verified) but turns failed reductions into UNKNOWN.
    """
    if not gens:
        raise ValueError("generator list must be nonempty")
    h = _to_rat(h)
    nvars = gens[0].nvars
    if h.nvars != nvars:
        raise ArityError(f"query has {h.nvars} variables, generators have {nvars}")
    source, gb, complete = _tag_elimination_basis(tuple(gens), budget)
    tag_count = len(source)
    truncation = tag_count + 1  # generators are numbered 2..k
    total = nvars + tag_count
    remainder = gb.normal_form(h.embed(total, 0))
    t_free = not any(any(u[:nvars]) for u in remainder.support())
    if t_free:
        representation = remainder.project(nvars, total)
        if representation.substitute(list(source)) != h:
            raise RuntimeError("internal certificate check failed: substitution mismatch")
        integral = all(Fraction(c).denominator == 1 for _, c in representation.terms())
        return MembershipCertificate(
            MembershipStatus.MEMBER,
            representation=representation,
            integral=integral,
            truncation_level=truncation,
            basis_complete=complete,
        )
    if complete:
        return MembershipCertificate(
            MembershipStatus.NON_MEMBER, truncation_level=truncation
        )
    return MembershipCertificate(
        MembershipStatus.UNKNOWN, truncation_level=truncation, basis_complete=False
    )
