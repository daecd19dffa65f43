"""Groebner bases over Q with membership certificates.

The engine behind three questions asked elsewhere in the package:

  * ideal membership with cofactors -- is p in (g_1, ..., g_m), and if so,
    which combination proves it?
  * relation ideals -- the kernel of the tag map X_i |-> g_i, computed by
    elimination (tag variables are X2..X_{m+1}, mirroring generator numbering
    that starts at 2);
  * subalgebra membership -- is h a polynomial in g_1, ..., g_m over Q, with
    the canonical representation and an integer-coefficient flag.

Everything is exact (a fraction-free integer division loop inside, Fraction
coefficients in every result), deterministic (reduced bases are unique for a
fixed monomial order, and pair selection is a fixed normal strategy), and
budgeted: degree/step caps are explicit, and running out of budget yields an
explicit Unknown or an incomplete-flagged partial result, never a silently
truncated answer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Sequence

from .polynomials import (
    ArityError,
    Domain,
    Exponent,
    MonomialOrder,
    Polynomial,
    _Form,
    _form,
    _from_form,
    _integral,
    _sum_of_products,
    elimination,
    mono_deg,
)


_MAX_COEFF_BITS = 2048  # per numerator/denominator of a new basis element
_CONTENT_BITS = 64  # a division's common denominator past this many bits sheds its content
_MEMO_SIZE = 1 << 13  # a first-divisor memo of _reduce past this many entries is cleared
_TABLE_SIZE = 1 << 12  # a remainder or image table of a basis past this many entries is cleared


@dataclass(frozen=True)
class GroebnerBudget:
    """Degree and step caps for basis completion.

    ``max_degree`` bounds the total degree of any intermediate polynomial;
    ``max_steps`` bounds the number of S-pair reductions.  Exceeding either, or
    ``_MAX_COEFF_BITS``, raises :class:`BudgetExceededError` with the partial basis.
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

_Terms = dict  # Exponent or packed int -> Fraction (int in integer forms), zero values never stored


class _DegreeCapHit(Exception):
    pass


def _to_rat(p: Polynomial) -> Polynomial:
    return p.as_domain(Domain.RAT)


class _Packing:
    """Exponent vectors of one (order, nvars) as ints, laid out as in :func:`buchberger`."""

    def __init__(self, order: MonomialOrder, nvars: int, width: int):
        every = tuple(range(nvars))
        head, tail = every[: order.split], every[order.split :]  # split is None unless elim
        fields = {"lex": [*every], "grlex": [every, *every], "elim": [head, *head, tail, *tail]}
        units, shifts, self.guards = [0] * nvars, [0] * nvars, 0
        for pos, field in enumerate(reversed([*fields[order.kind], every])):
            shift = pos * (width + 1)
            self.guards |= 1 << (shift + width)
            if isinstance(field, int):
                shifts[field], field = shift, (field,)
            for i in field:
                units[i] += 1 << shift
        self.order, self.nvars, self.width = order, nvars, width
        self.units, self.shifts = tuple(units), tuple(shifts)
        self.limit = (1 << width) - 1  # largest degree with every guard bit clear
        self.low = (1 << (width + 1)) - 1  # the bottom field: total degree

    def pack(self, u: Iterable[int]) -> int:
        return sum(map(mul, u, self.units))

    def unpack(self, m: int) -> Exponent:
        return tuple(m >> s & self.limit for s in self.shifts)

    def pack_terms(self, terms: _Terms) -> _Terms:
        """``terms`` on packed monomials; a shorter exponent vector embeds at offset 0."""
        return {sum(map(mul, u, self.units)): c for u, c in terms.items()}

    def unpack_form(self, form: _Form) -> _Form:
        terms, den = form
        return {self.unpack(m): c for m, c in terms.items()}, den


_packing = lru_cache(maxsize=256)(_Packing)  # one per (order, nvars, width)


def _primitive(ints: _Terms) -> _Terms:
    """The primitive part of packed integer terms: the rational multiple with
    coprime integer coefficients and a positive leading one."""
    content = gcd(*ints.values())
    if ints[max(ints)] < 0:
        content = -content
    return {u: c // content for u, c in ints.items()}


def _same(a: _Form, b: _Form) -> bool:
    """Whether two integer forms are the same polynomial (zero terms are never stored)."""
    (ta, da), (tb, db) = a, b
    return ta.keys() == tb.keys() and all(c * db == tb[u] * da for u, c in ta.items())


def _clear_content(work: _Terms, den: int) -> tuple[_Terms, int]:
    """``work`` and ``den`` divided by their common content."""
    g = gcd(den, *work.values())
    if g == 1:
        return work, den
    return {u: c // g for u, c in work.items()}, den // g


def _reduce(
    work: _Form, table: list, pk: _Packing, degree_cap: int | None, memo: dict[int, int],
    known: dict[int, _Form] | None = None,
) -> tuple[list, _Form]:
    """The division loop, fraction-free on packed monomials; consumes ``work``.

    ``work`` is an integer term dict W over a positive denominator D, and each
    table entry ``(lm, G, a, ...)`` is the monic divisor G/a.  A step with
    leading coefficient c and g = gcd(a, c) multiplies W and D by a/g when that
    is not 1 and subtracts (c/g)*shift*G, so W/D stays the exact work; once D
    passes ``_CONTENT_BITS`` bits, a step that grew it removes the common
    content of W and D.  Returns the steps ``(k, shift, c, D)``, each the
    quotient term c/D of divisor k, and the remainder as an integer form on
    packed monomials: a leading term that no divisor divides leaves the work
    as c/D, and the remainder is these terms over the lcm of their D's.  A
    leading term of degree above ``degree_cap`` (at most ``pk.limit``) or,
    uncapped, ``pk.limit`` raises _DegreeCapHit.

    ``memo`` maps a packed monomial u to the first divisor of u in table
    order: ``k >= 0`` is the index of that entry, ``~n`` says that none of
    the first n entries divides u.  It is valid only for this table at this
    packing, and only while the table grows by appending: then a hit never
    changes and a miss resumes its scan at entry n.  A memo past
    ``_MEMO_SIZE`` entries is cleared, which only costs rescans.

    ``known``, given only on a reduced basis, whose remainder is unique and
    linear, maps packed monomials to their remainders as integer forms: a
    leading term c*u with u there leaves the work as c/D times that
    remainder, which is added to the result, and takes no step.  The steps
    then no longer give the quotients.
    """
    guards, low = pk.guards, pk.low
    limit = pk.limit if degree_cap is None else degree_cap
    lms = [entry[0] for entry in table]
    n = len(lms)
    steps: list[tuple[int, int, int, int]] = []
    work, den = work
    remainder: list[tuple[int, int, int]] = []
    hits: list[tuple[int, _Form]] = []
    while work:
        u = max(work)
        c = work[u]
        if u & low > limit:
            raise _DegreeCapHit
        if known is not None:
            r = known.get(u)
            if r is not None:
                hits.append((c, 0, (r[0], r[1] * den)))
                del work[u]
                continue
        k = memo.get(u, ~0)
        if ~n < k < 0:  # unseen, or a miss over fewer entries than the table now has
            ug = u | guards
            for k in range(~k, n):
                if (ug - lms[k]) & guards == guards:
                    break
            else:
                k = ~n
            if len(memo) >= _MEMO_SIZE:
                memo.clear()
            memo[u] = k
        if k >= 0:
            entry = table[k]
            shift, a = u - entry[0], entry[2]
            # the leading term strictly decreases, so no shift repeats
            steps.append((k, shift, c, den))
            g = gcd(a, c)
            if g != a:
                f = a // g
                work = {v: cv * f for v, cv in work.items()}
                den *= f
            m = c // g
            for v, cv in entry[1].items():
                w = shift + v
                s = work.get(w, 0) - m * cv
                if s:
                    work[w] = s
                else:
                    del work[w]
            if g != a and den.bit_length() > _CONTENT_BITS:
                work, den = _clear_content(work, den)
        else:
            remainder.append((u, c, den))
            del work[u]
    if hits:
        return steps, _combination([(1, 0, _over_lcm(remainder)), *hits], guards)
    return steps, _over_lcm(remainder)


def _over_lcm(terms: list) -> _Form:
    """Terms ``(u, c, den)``, each c/den at monomial u, as one integer form
    over the lcm of their denominators."""
    common = lcm(*(den for _, _, den in terms))
    return {u: c * (common // den) for u, c, den in terms}, common


def _quotients(steps: list, count: int, pk: _Packing) -> list[_Form]:
    """The quotient of each of ``count`` divisors from :func:`_reduce`'s steps,
    as an unpacked integer form over the lcm of its steps' denominators."""
    quotients: list[list] = [[] for _ in range(count)]
    for k, shift, c, den in steps:
        quotients[k].append((pk.unpack(shift), c, den))
    return [_over_lcm(terms) for terms in quotients]


def _combination(parts: Sequence[tuple[int, int, _Form]], guards: int) -> _Form:
    """The sum of c * X^shift * form over ``parts`` of packed integer forms, as
    one integer form over the lcm of their denominators; the forms are only
    read.  With a nonzero shift, a product monomial that sets a bit of
    ``guards`` has left the packing and raises _DegreeCapHit, even if it
    would cancel; an unshifted form is in the packing already."""
    common = lcm(*(den for _, _, (_, den) in parts))
    out: _Terms = {}
    for c, shift, (terms, den) in parts:
        f = c * (common // den)
        for v, cv in terms.items():
            if shift:
                v += shift
                if v & guards:
                    raise _DegreeCapHit
            s = out.get(v, 0) + f * cv
            if s:
                out[v] = s
            else:
                del out[v]
    return out, common


class _Width:
    """The divisor table at one packing width: the packing, the packed table
    of :class:`_Divisors`, which catches up with its list on use,
    :func:`_reduce`'s first-divisor memo, and for :meth:`remainder` the
    remainders of single monomials.  For the certificate checks it keeps the
    images of tag monomials (:meth:`image`) with the packed generator forms
    they come from, and a tracked basis's packed cofactor and source forms
    (``combos``).  The remainders and the images are each cleared past
    ``_TABLE_SIZE`` entries, which only costs recomputation.  Every method
    takes packed monomials."""

    def __init__(self, pk: _Packing):
        self.pk = pk
        self.table: list[tuple[int, _Terms, int]] = []  # packed lm, primitive G, a = lc(G) > 0
        self.memo: dict[int, int] = {}
        self.remainders: dict[int, _Form] = {}
        self.images: dict[int, _Form] = {}
        self.gens: list[_Form] | None = None
        self.combos: tuple[list[list[_Form]], list[_Form]] | None = None

    def fit(self, forms: Iterable[_Form]) -> list[_Form]:
        """Unpacked integer forms packed here; a monomial past the width
        raises _DegreeCapHit."""
        pk, out = self.pk, []
        for terms, den in forms:
            if any(mono_deg(u) > pk.limit for u in terms):
                raise _DegreeCapHit
            out.append((pk.pack_terms(terms), den))
        return out

    def divide(self, terms: _Terms, den: int) -> tuple[list, _Form]:
        """:func:`_reduce` of the integer form ``terms``/``den``, which it
        consumes: the joint division."""
        return _reduce((terms, den), self.table, self.pk, None, self.memo)

    def remainder(self, terms: _Terms, den: int) -> _Form:
        """The remainder of ``terms``/``den`` by linearity; exact only on a
        reduced basis, whose remainder is unique, and only while the table
        stays as it is.  The query is only read.

        Each monomial contributes its coefficient times its stored remainder.
        A monomial without one gets it now, from a division of the monomial
        alone, which takes a work term whose monomial has a stored remainder
        from the table instead of dividing it (``known`` of :func:`_reduce`).
        """
        pk, remainders = self.pk, self.remainders
        parts: list[tuple[int, int, _Form]] = []
        for u, c in terms.items():
            r = remainders.get(u)
            if r is None:
                if len(remainders) >= _TABLE_SIZE:
                    remainders.clear()
                _, alone = _reduce(({u: 1}, 1), self.table, pk, None, self.memo, remainders)
                r = remainders[u] = _clear_content(*alone)
            parts.append((c, 0, r))
        out, common = _combination(parts, pk.guards)
        return out, common * den

    def image(self, m: int, forms: Sequence[_Form], nvars: int) -> _Form:
        """The image of the tag monomial ``m`` (the variables after the first
        ``nvars``) under X_i |-> ``forms[i]``, integer forms in the first
        ``nvars`` variables.  An image not stored is the image of m over its
        last tag variable times that variable's form, and each is stored."""
        images, pk, chain = self.images, self.pk, []
        while m and m not in images:  # down to a stored image or to 1
            i = next(j for j in reversed(range(nvars, pk.nvars)) if m >> pk.shifts[j] & pk.limit)
            chain.append((m, i))
            m -= pk.units[i]
        if chain and self.gens is None:
            self.gens = self.fit(forms)
        image = images[m] if m else ({0: 1}, 1)
        for m, i in reversed(chain):
            terms, den = self.gens[i - nvars]
            out, common = _combination([(c, v, image) for v, c in terms.items()], pk.guards)
            image = out, common * den
            if len(images) >= _TABLE_SIZE:
                images.clear()
            images[m] = image
        return image


class _Divisors:
    """The divisor table of monic polynomials in ``nvars`` variables under
    ``order``: the list of their leading monomials and terms (shared with the
    polynomials), which only grows by appending, their largest total degree,
    and one :class:`_Width` per packing width made so far.  A table entry is
    ``(lm, G, a)`` packed, where G is the primitive integer form of the monic
    g = G/a and a = lc(G) > 0; a width packs each entry once, when it first
    divides after the entry was appended.  Since the list only appends, every
    width's memo stays valid as it grows: a remembered divisor stays the
    first, and a miss resumes its scan at the entries added since.
    """

    def __init__(self, order: MonomialOrder, nvars: int, polys: Iterable[Polynomial] = ()):
        self.order, self.nvars = order, nvars
        self.entries: list[tuple[Exponent, _Terms]] = []
        self.degree = 0
        self.widths: dict[int, _Width] = {}
        for p in polys:
            self.append(p)

    def append(self, p: Polynomial) -> None:
        """Add the nonzero monic ``p`` as the last divisor."""
        self.entries.append((p.leading_term(self.order)[0], p._terms))
        self.degree = max(self.degree, p.total_degree())

    def at(self, width: int) -> _Width:
        """The :class:`_Width` at ``width``, its table caught up with the list;
        every entry must fit there."""
        at = self.widths.get(width)
        if at is None:
            at = self.widths[width] = _Width(_packing(self.order, self.nvars, width))
        pk, table = at.pk, at.table
        for lm, terms in self.entries[len(table):]:
            form, lm = _primitive(_integral(pk.pack_terms(terms))[0]), pk.pack(lm)
            table.append((lm, form, form[lm]))
        return at

    def run(self, form: _Form, method: Callable) -> tuple:
        """``method(at, terms, den)`` of the integer form ``form`` (a shorter
        exponent vector embeds at offset 0), its terms packed fresh on the
        :class:`_Width` ``at``, with no degree cap; returns its result and the
        packing.  It runs as wide as the degrees need, and at least as wide
        as any width made so far; a monomial at a guard bit, in a division or
        a certificate check, redoes it at twice the width, so no answer is
        truncated."""
        terms, den = form
        degree = max(self.degree, *map(mono_deg, terms)) if terms else self.degree
        width = max(degree.bit_length(), 1, *self.widths)
        while True:
            at = self.at(width)
            try:
                return method(at, at.pk.pack_terms(terms), den), at.pk
            except _DegreeCapHit:
                width *= 2


def _combo_update(
    base: Sequence[list[tuple[_Form, _Form]]],
    quotients: Sequence[_Form],
    combos: Sequence[tuple[_Form, ...]],
    scale: tuple[int, int] = (1, 1),
) -> tuple[_Form, ...]:
    """The combo of scale * (b - sum q_i * basis_i), given the basis elements' combos.

    A combo holds one integer form per source generator, ``base[j]`` lists
    the pairs whose products sum to b's j-th cofactor, the quotients are the
    integer forms of :func:`_quotients`, and ``scale`` is a numerator over a
    positive denominator.  Each cofactor of the result is one
    :func:`_sum_of_products` of those pairs and the pairs (-q_i, combo_i[j]),
    scaled, with the content it shares with its denominator divided out.
    """
    negated = [({u: -c for u, c in ints.items()}, den) for ints, den in quotients]
    out = []
    for j, pairs in enumerate(base):
        terms, den = _sum_of_products(
            [*pairs, *((q, combo[j]) for q, combo in zip(negated, combos) if q[0] and combo[j][0])]
        )
        if scale != (1, 1):
            terms, den = {u: c * scale[0] for u, c in terms.items()}, den * scale[1]
        out.append(_clear_content(terms, den))
    return tuple(out)


@dataclass(frozen=True)
class GroebnerBasis:
    """A Groebner basis; when ``reduced``, it is the canonical one.

    ``generators`` are monic over Q, with Fraction coefficients, and sorted by
    leading monomial (ascending in ``order``).  ``source`` keeps the original
    input generators (coerced to Q); when certificate tracking was on,
    ``cofactors[i]`` expresses ``generators[i]`` as a combination of
    ``source``.

    The basis divides by its generators' :class:`_Divisors`, which packs
    their primitive integer forms once per field width (layout and guard bits
    as in :func:`buchberger`) and keeps, per width (:class:`_Width`),
    :func:`_reduce`'s first-divisor memo across queries; a basis from
    :func:`buchberger` holds the divisor state its interreduction built.  A
    query goes in as an integer form, packed at the widest width made so far
    or the one its degrees need, and a monomial at a guard bit redoes it at
    twice the width (:meth:`_Divisors.run`), so no answer is truncated.
    :meth:`_Width.divide` is the joint division, with its steps, for
    :meth:`normal_form_with_quotients` and :func:`ideal_membership`.
    :meth:`_remainder` gives the remainder alone, for :meth:`normal_form` and
    :func:`subalgebra_membership`.  On a reduced basis the remainder is
    unique (Cox, Little & O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2
    §6), so p |-> NF(p) is linear, and per width the basis keeps a table from
    packed monomial to its remainder, stored the first time a query meets
    the monomial: a query adds up the stored remainders.  A truncated basis
    (``reduced=False``) has no unique remainder and never fills the table.

    Both membership certificates are checked at the query's width, on
    packed monomials (:func:`_combination`).  Per width the basis keeps the
    images of the tag monomials that :func:`subalgebra_membership` met, and,
    with cofactors, their packed forms and the source generators', packed on
    first use.  Each table is cleared past ``_TABLE_SIZE`` entries, which
    only costs recomputation.  Monomials are unpacked, and ``Fraction``
    coefficients made, only for returned polynomials.
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
    def _divisors(self) -> _Divisors:
        return _Divisors(self.order, self.nvars, self.generators)

    def _query(self, p: Polynomial) -> _Form:
        if p.nvars != self.nvars:
            raise ArityError(f"polynomial has {p.nvars} variables, basis has {self.nvars}")
        return _form(p)

    def _remainder(self, at: _Width, terms: _Terms, den: int) -> _Form:
        """The remainder of the packed integer form ``terms``/``den`` at the
        width ``at``, as an integer form; the query is only read.

        On a reduced basis the remainder is unique, so p |-> NF(p) is linear
        and NF(p) is the sum of c * NF(u) over p's terms c*u, whatever steps
        a division takes: this reads the remainder table
        (:meth:`_Width.remainder`).  On a truncated basis (``reduced=False``)
        two divisions can leave different remainders, so this is the joint
        division's.
        """
        if self.reduced:
            return at.remainder(terms, den)
        return at.divide(dict(terms), den)[1]

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Complete reduction of p: no remainder term is divisible by any
        leading monomial of the basis."""
        remainder, pk = self._divisors.run(self._query(p), self._remainder)
        return _from_form(p.nvars, Domain.RAT, pk.unpack_form(remainder))

    def normal_form_with_quotients(self, p: Polynomial) -> tuple[Polynomial, tuple[Polynomial, ...]]:
        """Remainder plus the quotients: p = sum(q_i * generators[i]) + r.

        Every empty quotient is the same zero polynomial object.
        """
        (steps, remainder), pk = self._divisors.run(self._query(p), _Width.divide)
        n = p.nvars
        zero = Polynomial.zero(n, Domain.RAT)
        quotients = _quotients(steps, len(self.generators), pk)
        return (
            _from_form(n, Domain.RAT, pk.unpack_form(remainder)),
            tuple(_from_form(n, Domain.RAT, q) if q[0] else zero for q in quotients),
        )


def buchberger(
    gens: Sequence[Polynomial],
    order: MonomialOrder = MonomialOrder("grlex"),
    budget: GroebnerBudget = GroebnerBudget(),
    track: bool = False,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Deterministic for fixed input and order: pairs are processed smallest
    lcm-degree first (ties broken by the monomial order, then indices), and
    the final basis is interreduced and monic -- the canonical reduced basis,
    independent of generator input order.  Useless pairs are pruned once,
    when an element is added, by Gebauer and Moeller's update (J. Symb.
    Comp. 6, 1988): criterion B drops the queued pairs that the new element
    chains, and the new element is paired only with the live elements (those
    whose leading monomial no later one divides), keeping one pair per
    minimal lcm (criteria M and F) and none whose class holds a coprime pair.
    Elements that stop being live stay in the divisor table, and the
    finalisation drops them.

    While it runs, the basis is its divisor table: one entry ``(lm, G, a,
    lm unpacked)`` per monic element g = G/a, where G is g's primitive
    integer form (coprime integer coefficients) and a = lc(G) > 0.  S-pairs
    are formed from the integer forms over the lcm of the two a's, the
    division loop :func:`_reduce` is fraction-free, and a new element is the
    primitive part of its integer remainder, taken without ``Fraction``s;
    the coefficient cap still measures the monic coefficients c/a, as the
    bit lengths of c/g and a/g with g = gcd(c, a).  Each
    exponent vector is packed into one int whose order is the monomial
    order.  Fields, high bits first: lex ``[x1..xn | deg]``, grlex ``[deg |
    x1..xn | deg]``, elim ``[deg(head) | head | deg(tail) | tail | deg]``,
    each ``w`` value bits under a guard bit; a variable's unit also bumps its
    degree fields.  So a product is ``+``, v divides u iff ``((u | guards) -
    v) & guards == guards``, a pair is coprime iff ``lcm == lm_i + lm_j``,
    the leading term is ``max``, and monomials of degree below ``2**w`` add
    without carry.  ``w`` is the bit length of twice ``max(max_degree, input
    degrees)``: lcms pack clean and the degree cap fires before a field
    overflows.

    :func:`_reduce` runs here at one width and under the degree cap; every
    other division runs with no cap and redoes a division that reaches a
    guard bit at twice the width (:meth:`_Divisors.run`): the finalisation
    (:func:`_finalize`) interreduces that way, since interreduction can raise
    degrees, returns the generators monic over Q, and hands its divisor state
    to the finished basis, which answers queries by it.  ``Fraction`` appears
    only in the returned polynomials.

    The table only grows by appending, so one first-divisor memo (see
    :func:`_reduce`) serves every reduction of the run: a remembered divisor
    stays the first, and a monomial that no element divided resumes its scan
    at the elements added since.

    With ``track=True`` every basis element carries cofactors expressing it
    in terms of the input generators (certificate bookkeeping for
    ideal_membership).  The run keeps each cofactor as an integer form (see
    :func:`~semiring_lab.polynomials._sum_of_products`) with its content
    divided out.  Each cofactor of a new element is one integer sum of
    products, over the S-pair's two monomial multiples and the reduction's
    integer quotients (:func:`_quotients`, :func:`_combo_update`); the
    interreduction's quotients take the same update, and the cofactors
    become ``Fraction`` polynomials once, in :func:`_finalize`.  Budgets are
    enforced, the coefficient cap once per new element; exceeding one raises
    :class:`BudgetExceededError` with the partial basis attached.
    """
    if not gens:
        raise ValueError("generator list must be nonempty")
    source = tuple(_to_rat(g) for g in gens)
    nvars = source[0].nvars
    for g in source:
        if g.nvars != nvars:
            raise ArityError("generators live in different rings")
    degree = max(budget.max_degree, *(g.total_degree() for g in source))
    pk = _packing(order, nvars, (2 * degree).bit_length())
    guards, units = pk.guards, pk.units

    table: list[tuple[int, _Terms, int, Exponent]] = []  # packed lm, packed G, a, lm unpacked
    combos: list[tuple[_Form, ...]] = []
    memo: dict[int, int] = {}  # first divisors in ``table``, kept for the whole run
    const = (0,) * nvars
    steps = 0

    def partial_basis() -> GroebnerBasis:
        return _finalize(table, combos, pk, source, steps, track, reduced=False)

    def add(form: _Terms) -> None:
        # the Gebauer-Moeller update for the new element j with leading monomial u
        j, u = len(table), max(form)
        t_u = pk.unpack(u)
        support = [(k, e, units[k]) for k, e in enumerate(t_u) if e]
        lcms = []  # lcm(i, j): lm_i raised to u's exponents on u's support, no full-width pack
        for lcm, _, _, t in table:
            for k, e, unit in support:
                if e > t[k]:
                    lcm += (e - t[k]) * unit
            lcms.append(lcm)
        # criterion B: u chains a queued pair whose lcm it divides, unless a side lcm equals it
        for (i, k), lcm in list(queued.items()):
            if ((lcm | guards) - u) & guards == guards and lcms[i] != lcm and lcms[k] != lcm:
                del queued[i, k]
        classes: dict[int, list[int]] = {}  # the live elements by their lcm with u, ascending
        for i in live:
            classes.setdefault(lcms[i], []).append(i)
        minimal: list[int] = []
        for lcm in sorted(classes):  # a proper divisor sorts first in every monomial order
            lcm_g = lcm | guards
            if any((lcm_g - m) & guards == guards for m in minimal):
                continue  # criterion M: a smaller new lcm divides this one
            minimal.append(lcm)
            # criterion F: one pair per lcm, the smallest i, and none if one is coprime
            if all(lcm != table[i][0] + u for i in classes[lcm]):
                i = classes[lcm][0]
                queued[i, j] = lcm
                heapq.heappush(heap, (lcm & pk.low, lcm, i, j))
        live[:] = [i for i in live if ((table[i][0] | guards) - u) & guards != guards]
        live.append(j)
        table.append((u, form, form[u], t_u))

    heap: list[tuple[int, int, int, int]] = []  # (lcm degree, lcm, i, j), possibly dropped since
    queued: dict[tuple[int, int], int] = {}  # the pairs in ``heap`` not yet dropped, to their lcm
    live: list[int] = []  # ascending; elements whose leading monomial no later one divides
    for idx, g in enumerate(source):
        if g.is_zero:
            continue
        terms = pk.pack_terms(g._terms)
        add(_primitive(_integral(terms)[0]))
        if track:
            inv = 1 / terms[table[-1][0]]
            combos.append(tuple(
                ({const: inv.numerator}, inv.denominator) if j == idx else ({}, 1)
                for j in range(len(source))
            ))

    if not table:
        return GroebnerBasis((), order, True, source, () if track else None, 0)

    while heap:
        _, lcm, i, j = heapq.heappop(heap)
        if queued.pop((i, j), None) is None:
            continue  # criterion B dropped it after it was queued
        (lm_i, form_i, a_i, _), (lm_j, form_j, a_j, _) = table[i], table[j]

        steps += 1
        if steps > budget.max_steps:
            raise BudgetExceededError(
                f"step budget {budget.max_steps} exceeded", partial_basis()
            )

        # the monic S-polynomial over the lcm of a_i and a_j
        shift_i, shift_j = lcm - lm_i, lcm - lm_j
        g = gcd(a_i, a_j)
        f_i, f_j = a_j // g, a_i // g
        spoly: _Terms = {shift_i + v: f_i * c for v, c in form_i.items()}
        for v, c in form_j.items():
            w = shift_j + v
            s = spoly.get(w, 0) - f_j * c
            if s:
                spoly[w] = s
            else:
                del spoly[w]

        # every remainder term was once the leading term of the work and
        # passed the degree cap there, so the remainder needs no check
        try:
            reduction, (remainder, rden) = _reduce((spoly, f_i * a_i), table, pk, budget.max_degree, memo)
        except _DegreeCapHit:
            raise BudgetExceededError(
                f"degree budget {budget.max_degree} exceeded", partial_basis()
            ) from None
        if not remainder:
            continue

        form = _primitive(remainder)
        lm = max(form)
        a = form[lm]
        bits = 0  # the largest numerator or denominator of a monic coefficient c/a
        for c in form.values():
            g = gcd(c, a)
            bits = max(bits, (c // g).bit_length(), (a // g).bit_length())
        if bits > _MAX_COEFF_BITS:
            message = f"coefficient budget {_MAX_COEFF_BITS} bits exceeded ({bits} bits)"
            raise BudgetExceededError(message, partial_basis())
        if track:
            mono_i, mono_j = ({pk.unpack(shift_i): 1}, 1), ({pk.unpack(shift_j): -1}, 1)
            base = [[(mono_i, a), (mono_j, b)] for a, b in zip(combos[i], combos[j])]
            quotients = _quotients(reduction, len(table), pk)
            lc = remainder[lm]  # the cofactors of the monic element remainder / lc
            combos.append(_combo_update(base, quotients, combos, (rden, lc) if lc > 0 else (-rden, -lc)))
        add(form)

    return _finalize(table, combos, pk, source, steps, track, reduced=True)


def _finalize(
    table: list[tuple[int, _Terms, int, Exponent]],
    combos: list[tuple[_Form, ...]],
    pk: _Packing,
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
    none needs rescaling, and the order stays sorted.  Each element is
    divided by the ones before it as its primitive integer form G over
    a = lc(G), through one :class:`_Divisors` that starts at the completion
    packing and takes each monic generator as it is made; its remainder
    takes ``Fraction`` coefficients once, as the monic generator, and with
    tracking the integer quotients feed :func:`_combo_update`.  The basis
    keeps that divisor state, memos included, since its list only grew by
    appending.
    """
    order, nvars, guards = pk.order, pk.nvars, pk.guards
    kept: list[int] = []
    for t in sorted(range(len(table)), key=lambda t: table[t][0]):
        lm_g = table[t][0] | guards
        if not any((lm_g - table[s][0]) & guards == guards for s in kept):
            kept.append(t)

    generators: list[Polynomial] = []
    divisors = _Divisors(order, nvars)
    divisors.at(pk.width)  # no division runs narrower than the completion
    kept_combos: list[tuple[_Form, ...]] = []
    one = ({(0,) * nvars: 1}, 1)
    for t in kept:
        _, form, a, _ = table[t]
        (reduction, remainder), rpk = divisors.run(pk.unpack_form((form, a)), _Width.divide)
        g = _from_form(nvars, Domain.RAT, rpk.unpack_form(remainder))
        if track:
            quotients = _quotients(reduction, len(divisors.entries), rpk)
            kept_combos.append(_combo_update([[(c, one)] for c in combos[t]], quotients, kept_combos))
        generators.append(g)
        divisors.append(g)
    cofactors = tuple(tuple(_from_form(nvars, Domain.RAT, c) for c in combo) for combo in kept_combos)
    basis = GroebnerBasis(tuple(generators), order, reduced, source, cofactors if track else None, steps)
    basis.__dict__["_divisors"] = divisors  # the cached property, with the interreduction's state
    return basis


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Complete reduction of p modulo the basis (remainder only)."""
    return gb.normal_form(p)


@lru_cache(maxsize=64)
def _tracked_basis(
    gens: tuple[Polynomial, ...], order: MonomialOrder, budget: GroebnerBudget
) -> GroebnerBasis:
    """Cached basis of (gens) with cofactors.

    Keyed by the caller's generators as given, like
    :func:`_tag_elimination_basis`; a budget-truncated basis is cached like a
    complete one, with ``reduced=False``.
    """
    try:
        return buchberger(gens, order, budget, track=True)
    except BudgetExceededError as exc:
        return exc.partial


def ideal_membership(
    p: Polynomial,
    gens: Sequence[Polynomial],
    order: MonomialOrder = MonomialOrder("grlex"),
    budget: GroebnerBudget = GroebnerBudget(),
) -> MembershipCertificate:
    """Decide p in (gens) over Q, with cofactors on a positive answer.

    Member iff the normal form modulo the (reduced) basis vanishes; the
    returned cofactors align with ``gens`` and are re-expanded as a
    self-check on every call.  A budget-truncated basis can still certify
    MEMBER (its elements are genuine ideal members); it cannot certify
    NON_MEMBER, so that collapses to UNKNOWN with ``basis_complete=False``.
    The basis is computed once per generators, order and budget.  The query
    is divided jointly on packed monomials.  Each cofactor is built straight
    from the division's steps, quotient terms c/D * X^shift of basis element
    k, against the basis's packed cofactors, and the re-expansion against
    the packed source generators is compared exactly with the packed query;
    a product at a guard bit redoes all of it at twice the width.  Against
    the zero ideal the cofactors are zero.  A query whose variable count
    differs from the generators' raises ArityError.
    """
    gb = _tracked_basis(tuple(gens), order, budget)

    def certified(at: _Width, terms: _Terms, den: int) -> list[_Form] | None:
        steps, (remainder, _) = at.divide(dict(terms), den)
        if remainder:
            return None
        if at.combos is None:
            at.combos = [at.fit(map(_form, combo)) for combo in gb.cofactors], at.fit(map(_form, gb.source))
        combos, sources = at.combos
        parts: list[list] = [[] for _ in sources]
        for k, shift, c, d in steps:  # the quotient term c/d * X^shift of basis element k
            for part, (terms_kj, den_kj) in zip(parts, combos[k]):
                if terms_kj:
                    part.append((c, shift, (terms_kj, den_kj * d)))
        cofactors = [_combination(part, at.pk.guards) for part in parts]
        expansion = _combination([
            (c, v, (cterms, cden * sden))
            for (cterms, cden), (sterms, sden) in zip(cofactors, sources) for v, c in sterms.items()
        ], at.pk.guards)
        if not _same(expansion, (terms, den)):
            raise RuntimeError("internal certificate check failed: cofactor expansion mismatch")
        return cofactors

    cofactors, pk = gb._divisors.run(gb._query(p), certified)
    if cofactors is not None:
        return MembershipCertificate(
            MembershipStatus.MEMBER,
            cofactors=tuple(_from_form(p.nvars, Domain.RAT, pk.unpack_form(c)) for c in cofactors),
            basis_complete=gb.reduced,
        )
    if gb.reduced:
        return MembershipCertificate(MembershipStatus.NON_MEMBER)
    return MembershipCertificate(MembershipStatus.UNKNOWN, basis_complete=False)


# -- tag-variable elimination ---------------------------------------------


def tag_ring_generators(gens: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
    """The polynomials X_i - g_i in the combined ring Q[T-block, X-block];
    generators with different variable counts raise ArityError."""
    nvars = gens[0].nvars
    if any(g.nvars != nvars for g in gens):
        raise ArityError("generators live in different rings")
    total = nvars + len(gens)
    out = []
    for i, g in enumerate(gens):
        xi = Polynomial.variable(total, nvars + i, Domain.RAT)
        out.append(xi - _to_rat(g).embed(total, 0))
    return tuple(out)


@lru_cache(maxsize=64)
def _tag_elimination_basis(
    gens: tuple[Polynomial, ...], budget: GroebnerBudget
) -> tuple[tuple[_Form, ...], GroebnerBasis]:
    """Cached elimination basis of {X_i - g_i} with the T-block dominant.

    Keyed by the caller's generators as given, whose hashes the polynomials
    keep, so a repeated query converts nothing.  Returns the generators as
    integer forms and the basis; a budget-truncated basis is cached like a
    complete one, with ``reduced=False``.
    """
    nvars = gens[0].nvars  # with no ambient variable, grlex on the tags is the elimination order
    order = elimination(nvars) if nvars else MonomialOrder("grlex")
    tagged = tag_ring_generators(gens)
    forms = tuple(map(_form, gens))
    try:
        return forms, buchberger(tagged, order, budget)
    except BudgetExceededError as exc:
        return forms, exc.partial


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
    _, gb = _tag_elimination_basis(tuple(gens), budget)
    relations = _tag_free_part(gb, gens[0].nvars, len(gens))
    return RelationIdealResult(
        relations=relations,
        complete=gb.reduced,
        tag_count=len(gens),
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

    The query is packed straight into the elimination packing, and the
    T-freeness test, the projection and the integrality test read the
    integer remainder: the sum of stored monomial remainders on a complete,
    so reduced, basis (see :class:`GroebnerBasis`), a joint division on a
    truncated one.  The substitution check adds up the images of the
    remainder's tag monomials, which the basis keeps per width
    (:meth:`_Width.image`), and compares the sum exactly with the packed
    query; an image at a guard bit redoes all of it at twice the width.
    ``Fraction`` appears only in the returned representation.
    """
    if not gens:
        raise ValueError("generator list must be nonempty")
    nvars = gens[0].nvars
    if h.nvars != nvars:
        raise ArityError(f"query has {h.nvars} variables, generators have {nvars}")
    forms, gb = _tag_elimination_basis(tuple(gens), budget)
    tag_count = len(gens)
    truncation = tag_count + 1  # generators are numbered 2..k

    def certified(at: _Width, terms: _Terms, den: int) -> _Form | None:
        remainder, rden = gb._remainder(at, terms, den)
        # the T-block's degree is the top field, so a T-free monomial packs below
        # every T-variable's unit, and the leading monomial is the largest; with
        # no T-variable, every monomial is T-free
        if remainder and nvars and max(remainder) >= min(at.pk.units[:nvars]):
            return None
        parts = [(c, 0, at.image(m, forms, nvars)) for m, c in remainder.items()]
        expansion, common = _combination(parts, at.pk.guards)
        if not _same((expansion, common * rden), (terms, den)):
            raise RuntimeError("internal certificate check failed: substitution mismatch")
        return remainder, rden

    found, pk = gb._divisors.run(_form(h), certified)
    if found is not None:
        remainder, den = found
        rep = {pk.unpack(m)[nvars:]: c for m, c in remainder.items()}
        return MembershipCertificate(
            MembershipStatus.MEMBER,
            representation=_from_form(tag_count, Domain.RAT, (rep, den)),
            integral=all(c % den == 0 for c in rep.values()),
            truncation_level=truncation,
            basis_complete=gb.reduced,
        )
    if gb.reduced:
        return MembershipCertificate(
            MembershipStatus.NON_MEMBER, truncation_level=truncation
        )
    return MembershipCertificate(
        MembershipStatus.UNKNOWN, truncation_level=truncation, basis_complete=False
    )
