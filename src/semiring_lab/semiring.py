"""Finitely presented commutative semirings N[T1..Tn]/~ at desk scale.

A presentation is a finite list of relations (p, q) between natural-domain
polynomials.  The congruence it generates is the reflexive-symmetric-
transitive closure of one-step rewrites

    h  -->  h - c*T^u*l + c*T^u*r      whenever c*T^u*l <= h termwise,

for a relation (l, r) read in either direction and a monomial multiplier
c*T^u (polynomial multipliers decompose into monomial steps, and additive
context is the untouched remainder of h -- so these steps generate the full
semiring congruence).

The word problem is semi-decided under an explicit budget (max degree, max
coefficient, max derivation steps):

  * Yes answers carry a replayable derivation trace;
  * No answers carry a separating certificate -- either the fully explored
    finite congruence component of one side (the other side is not in it),
    or a strictly positive rational evaluation that satisfies every relation
    yet distinguishes the two words;
  * everything else is Unknown.  Exhausting a budget is never treated as
    evidence.

On top of the word problem: additive idempotence (via 1+1 ~ 1, which forces
a+a = a*(1+1) = a for every a), additive cancellativity with explicit
counterexample triples, the natural preorder a <= b iff b = a + c, the set
L of elements with phi(l) + 1 = phi(l), and the formal-difference ring S - S
of a certified cancellative semiring.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, islice, product
from typing import Callable, Iterator, Sequence

from .polynomials import (
    Domain,
    DomainError,
    Exponent,
    GRLEX,
    Polynomial,
    format_poly,
    mono_deg,
    mono_div,
    mono_mul,
    parse_poly,
    t_names,
)


class BudgetError(ValueError):
    """Input lies outside the active budget box, or the budget would make a
    search build an over-limit list; the message names the flags to change."""


class TraceError(RuntimeError):
    """A derivation trace failed to replay."""


class NotCancellativeError(RuntimeError):
    """Difference-ring construction refused; carries the witness triple
    (a, b, c) with a + c ~ b + c but a and b provably inequivalent, or None
    when cancellativity was merely undetermined."""

    def __init__(self, message: str, witness: tuple[Polynomial, Polynomial, Polynomial] | None):
        super().__init__(message)
        self.witness = witness


class Tri(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Budget:
    """Derivation budget: total degree cap (at least 0), coefficient cap and
    cap on the rewrites a search may perform (both at least 1)."""

    max_degree: int = 6
    max_coeff: int = 64
    max_steps: int = 100_000

    def __post_init__(self):
        for name, low in (("max_degree", 0), ("max_coeff", 1), ("max_steps", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"budget {name} must be at least {low}, got {getattr(self, name)}")

    def admits(self, p: Polynomial) -> bool:
        return p.total_degree() <= self.max_degree and p.max_coeff_abs() <= self.max_coeff


@dataclass(frozen=True)
class Presentation:
    """A finitely presented commutative semiring N[T1..Tn] / (relations)."""

    nvars: int
    relations: tuple[tuple[Polynomial, Polynomial], ...]

    def __post_init__(self):
        for lhs, rhs in self.relations:
            for side in (lhs, rhs):
                if side.domain is not Domain.NAT:
                    raise DomainError("relation sides must be natural-domain polynomials")
                if side.nvars != self.nvars:
                    raise ValueError(
                        f"relation side has {side.nvars} variables, presentation has {self.nvars}"
                    )

    @staticmethod
    def free(nvars: int) -> "Presentation":
        return Presentation(nvars, ())

    @staticmethod
    def from_text(nvars: int, text: str) -> "Presentation":
        """One relation per line, ``lhs = rhs``, in the polynomial text syntax
        with variables T1..Tn."""
        names = t_names(nvars)
        relations = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.count("=") != 1:
                raise ValueError(f"line {lineno}: expected exactly one '=' in {line!r}")
            lhs_text, rhs_text = line.split("=")
            lhs = parse_poly(lhs_text, names, Domain.NAT)
            rhs = parse_poly(rhs_text, names, Domain.NAT)
            relations.append((lhs, rhs))
        return Presentation(nvars, tuple(relations))

    def to_text(self) -> str:
        names = t_names(self.nvars)
        return "\n".join(
            f"{format_poly(lhs, names)} = {format_poly(rhs, names)}" for lhs, rhs in self.relations
        )

    @property
    def one(self) -> Polynomial:
        return Polynomial.one(self.nvars, Domain.NAT)

    @property
    def zero(self) -> Polynomial:
        return Polynomial.zero(self.nvars, Domain.NAT)


@dataclass(frozen=True)
class Step:
    """One rewrite: relation ``rel_index`` applied left-to-right when
    ``forward`` (right-to-left otherwise), multiplied by ``mult * T^shift``."""

    rel_index: int
    forward: bool
    shift: Exponent
    mult: int

    def apply(self, word: Polynomial, pres: Presentation) -> Polynomial:
        lhs, rhs = pres.relations[self.rel_index]
        src, dst = (lhs, rhs) if self.forward else (rhs, lhs)
        factor = Polynomial.monomial(self.shift, self.mult, Domain.NAT)
        removed = word.checked_sub(factor * src)
        if removed is None:
            raise TraceError(
                f"step {self} does not apply to {format_poly(word)}: source side does not fit"
            )
        return removed + factor * dst


def replay_trace(start: Polynomial, trace: Sequence[Step], pres: Presentation) -> Polynomial:
    """Re-run a derivation step by step; returns the final word."""
    word = start
    for step in trace:
        word = step.apply(word, pres)
    return word


@dataclass(frozen=True)
class Separator:
    """A certificate that two words are genuinely inequivalent.

    ``kind`` is ``"exhausted-component"`` (the congruence component of one
    word was explored in full and does not contain the other) or
    ``"evaluation"`` (a strictly positive rational assignment satisfying
    every relation gives the words different values).
    """

    kind: str
    component_size: int | None = None
    assignment: tuple[Fraction, ...] | None = None
    values: tuple[Fraction, Fraction] | None = None


@dataclass(frozen=True)
class EquivalenceAnswer:
    verdict: Tri
    trace: tuple[Step, ...] | None = None
    separator: Separator | None = None
    steps_used: int = 0


_CANCELLATIVE_SIDE_STEPS = 4000
# above the largest exponent list any default builds (12,870 at n = 8, D = 8)
_MAX_EXPONENTS = 10**6
# find_L tries each candidate with a full equivalence search (about 1 ms each
# at two variables, far more on harder presentations); two variables at the
# default search box make 729 candidates, three make 59,049
_MAX_FIND_L_CANDIDATES = 10**4


@dataclass(frozen=True)
class CongruenceClosure:
    """Congruence data for a presentation under one budget, grown on demand.

    The closure memoises one resumable search (``_Exploration``) per start
    word.  ``preorder_leq``, the bound predicates and ``cone_enumerate``
    advance it through ``explore`` only as far as each query needs, so no
    start word is searched twice per closure; answers, witnesses and member
    order do not depend on what was asked before.  Words of one component
    still get a search each, but an ended search from a word inside the
    budget box stands for the search from any of its members
    (``_Exploration.ended``); ``cone_enumerate`` skips those.
    ``words_equivalent`` does not use the memo; all searches share the
    closure's ``_RewriteTable``.  Equality compares presentation and budget."""

    presentation: Presentation
    budget: Budget
    _explored: dict[Polynomial, _Exploration] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @cached_property
    def _table(self) -> _RewriteTable:
        return _RewriteTable(self.presentation, self.budget)

    def explore(self, start: Polynomial) -> _Exploration:
        """The memoised search of ``start``'s component under the closure's budget."""
        if start not in self._explored:
            self._explored[start] = _Exploration(start, self.presentation, self.budget, self._table)
        return self._explored[start]


# -- the rewrite engine ----------------------------------------------------


@lru_cache(maxsize=None)
def _bounded_exponents(nvars: int, max_degree: int) -> tuple[Exponent, ...]:
    """Exponent vectors in ``nvars`` variables of total degree at most
    ``max_degree``, in ascending tuple order.  Raises BudgetError, before
    building anything, when there would be more than ``_MAX_EXPONENTS``."""
    if max_degree < 0:
        return ()
    count = math.comb(nvars + max_degree, nvars)
    if count > _MAX_EXPONENTS:
        raise BudgetError(
            f"{count:,} exponent vectors of degree <= {max_degree} in {nvars} variables "
            f"exceed the limit of {_MAX_EXPONENTS:,} (lower --deg or --nvars)"
        )
    if nvars == 0:
        return ((),)
    return tuple(
        (e,) + rest
        for e in range(max_degree + 1)
        for rest in _bounded_exponents(nvars - 1, max_degree - e)
    )


class _RewriteTable:
    """Rewrite data shared by the searches of one closure: ``sides`` (built
    on the first draw) lists each relation direction that rewrites, with a
    nonzero source's GRLEX anchor or a zero source's shifts; ``moves`` maps
    (rel_index, forward, shift) to the shifted source and destination terms,
    whether the destination fits the degree cap, the steps so far by
    multiplier and the key change ``delta``.  A key packs an in-box word's
    coefficients into ``width`` + 1-bit fields, one per monomial in
    first-seen order.  ``width`` holds max_coeff * (1 + the largest relation
    coefficient), so each field of ``key + mult * delta`` is in range, and
    one above max_coeff sets its guard bit (``guards``) in ``key + spread``."""

    def __init__(self, pres: Presentation, budget: Budget):
        self.pres, self.budget = pres, budget
        self.moves, self.fields = {}, {}
        self.spread = self.guards = 0

    @cached_property
    def sides(self) -> list[tuple]:
        n, relations, max_degree = self.pres.nvars, self.pres.relations, self.budget.max_degree
        largest = max((c for rel in relations for side in rel for _, c in side.terms()), default=0)
        self.width = (self.budget.max_coeff * (1 + largest)).bit_length()
        sides = []
        for rel_index, (lhs, rhs) in enumerate(relations):
            for forward in (True, False):
                src, dst = (lhs, rhs) if forward else (rhs, lhs)
                if src == dst:
                    continue
                anchor = None if src.is_zero else src.leading_term(GRLEX)[0]
                # a zero source adds c*T^u*dst to any word: the box bounds its shifts
                shifts = anchor is None and _bounded_exponents(n, max_degree - dst.total_degree())
                sides.append((rel_index, forward, src, dst, anchor, shifts))
        return sides

    def encode(self, terms) -> int:
        """The key of (monomial, coefficient) pairs; lays out new fields."""
        key = 0
        for w, c in terms:
            offset = self.fields.get(w)
            if offset is None:
                offset = self.fields[w] = len(self.fields) * (self.width + 1)
                self.spread |= ((1 << self.width) - 1 - self.budget.max_coeff) << offset
                self.guards |= 1 << (offset + self.width)
            key += c << offset
        return key


def _iter_rewrites(
    word: Polynomial, pres: Presentation, budget: Budget,
    table=None, key=None, known=None, queue=None,
) -> Iterator[tuple[Step, Polynomial | None]]:
    """All one-step rewrites of ``word``, deterministically ordered.

    Yields (step, result); result is None when the rewritten word violates
    the budget box (the caller records clipping).  Results are computed on
    the term dicts, and only for words not known to the search.

    ``table`` is the closure's ``_RewriteTable`` (a fresh one when None).
    Given a search's member keys ``known`` and ``queue``, an in-box word
    (``key``, or None to key it on its first rewrite) keys its results as
    ``key + mult * delta``; a start word outside the box keys its admitted
    results from scratch.  A known result is yielded as ``_KNOWN``, unbuilt;
    a new one's key goes into ``known`` and (result, key) onto ``queue``.
    """
    table = table or _RewriteTable(pres, budget)
    n, max_coeff, moves = pres.nvars, budget.max_coeff, table.moves
    terms = word._terms
    for rel_index, forward, src, dst, anchor, shifts in table.sides:
        if anchor is not None:
            shifts = sorted({shift for w in terms if (shift := mono_div(w, anchor)) is not None})
        for shift in shifts:
            moved = moves.get((rel_index, forward, shift))
            if moved is None:
                moved_dst = [(mono_mul(shift, v), c) for v, c in dst._terms.items()]
                moved_src = [(mono_mul(shift, v), c) for v, c in src._terms.items()]
                fits = all(mono_deg(w) <= budget.max_degree for w, _ in moved_dst)
                moved = moves[rel_index, forward, shift] = [moved_src, moved_dst, fits, [], None]
            moved_src, moved_dst, fits_degree, steps, delta = moved
            # a zero source fits any word: the coefficient cap bounds mult
            top = min(terms.get(w, 0) // c for w, c in moved_src) if moved_src else max_coeff
            if top == 0:
                continue
            for mult in range(len(steps) + 1, top + 1):
                steps.append(Step(rel_index, forward, shift, mult))
            if not fits_degree:
                yield from ((step, None) for step in steps[:top])
                continue
            if known is not None and (key is not None or budget.admits(word)):
                if key is None:
                    known.add(key := table.encode(terms.items()))
                if delta is None:
                    delta = moved[4] = table.encode(moved_dst) - table.encode(moved_src)
                spread, guards = table.spread, table.guards
            for mult in range(1, top + 1):
                step = steps[mult - 1]
                if key is not None:
                    r = key + mult * delta
                    clipped = (r + spread) & guards
                    if clipped or r in known:
                        yield step, None if clipped else _KNOWN
                        continue
                out = dict(terms)
                for w, c in moved_src:
                    left = out[w] - mult * c
                    if left:
                        out[w] = left
                    else:
                        del out[w]
                for w, c in moved_dst:
                    out[w] = out.get(w, 0) + mult * c
                result = Polynomial._raw(n, Domain.NAT, out)
                if key is None and not budget.admits(result):
                    yield step, None
                    continue
                if known is not None:
                    if key is None and (r := table.encode(out.items())) in known:
                        yield step, _KNOWN
                        continue
                    known.add(r)
                    queue.append((result, r))
                yield step, result


def _rewrites(start: Polynomial, pres: Presentation, budget: Budget, table) -> Iterator[tuple]:
    """(word, step, result) for each rewrite of the breadth-first search from
    ``start``.  Holds no reference to the search, so the two form no cycle."""
    queue, known = deque([(start, None)]), set()
    while queue:
        word, key = queue.popleft()
        for step, result in _iter_rewrites(word, pres, budget, table, key, known, queue):
            yield word, step, result


_UNDRAWN = object()
_KNOWN = object()  # a rewrite result that the search has found before


class _Exploration:
    """A resumable, deterministic breadth-first search of ``start``'s
    congruence component.  ``members`` maps each word found to (parent,
    step) in discovery order, however the search was advanced, and
    ``rewrites_used`` counts the rewrites taken.  The next rewrite is drawn
    only to go on or to tell whether a search stopped at its cap had ended;
    ``steps_used`` counts it (c + 1 at cap c).  ``ended``: no rewrite is
    left.  ``complete``: the search ended and no rewrite left the budget
    box, so the component is finite and fully known.  An over-limit
    zero-side shift list raises BudgetError at construction, not partway; a
    draw that raised raises again on resume.  Rewrites share ``table`` (a new
    one when None) and test results by key; a search drawing none keys nothing."""

    def __init__(self, start: Polynomial, pres: Presentation, budget: Budget, table=None):
        for lhs, rhs in pres.relations:
            if lhs.is_zero != rhs.is_zero:  # rewrites add every shift of the other side
                _bounded_exponents(pres.nvars, budget.max_degree - (lhs + rhs).total_degree())
        self.members: dict[Polynomial, tuple] = {start: (None, None)}
        self._rewrites = _rewrites(start, pres, budget, table or _RewriteTable(pres, budget))
        self._next = _UNDRAWN
        self.rewrites_used = 0
        self._clipped = False

    def _peek(self) -> tuple | None:
        """The next rewrite, drawn on first need; None once the search ended."""
        if self._next is _UNDRAWN:
            try:
                self._next = next(self._rewrites, None)
            except BaseException as error:
                self._next = error
        if isinstance(self._next, BaseException):
            raise self._next
        return self._next

    @property
    def ended(self) -> bool:
        """No rewrite is left.  If the start word lies in the budget box,
        the members are then its whole in-box component: rewrites are
        reversible inside the box, so a search from any member finds the
        same set with the same number of rewrites.  Rewrites that left the
        box (``complete`` is then False) do not change that."""
        return self._peek() is None

    @property
    def complete(self) -> bool:
        return self.ended and not self._clipped

    @property
    def steps_used(self) -> int:
        return self.rewrites_used + (self._peek() is not None)

    def find(self, wanted: Callable[[Polynomial], bool], cap: int) -> Polynomial | None:
        """The first member, in discovery order, that ``wanted`` accepts, or
        None.  Searches on only until that member appears, the search ends,
        or ``cap`` rewrites in total are used."""
        if (member := next(filter(wanted, self.members), None)) is not None:
            return member
        while self.rewrites_used < cap and (rewrite := self._peek()) is not None:
            word, step, result = rewrite
            self._next = _UNDRAWN
            self.rewrites_used += 1
            if result is None:
                self._clipped = True
            elif result is not _KNOWN:
                self.members[result] = (word, step)
                if wanted(result):
                    return result
        return None

    def trace_to(self, target: Polynomial) -> tuple[Step, ...]:
        """The derivation from ``start`` to the member ``target``."""
        steps: list[Step] = []
        parent, step = self.members[target]
        while parent is not None:
            steps.append(step)
            parent, step = self.members[parent]
        return tuple(reversed(steps))


# -- separating evaluations ------------------------------------------------


@dataclass(frozen=True)
class EvalHom:
    """A strictly positive rational point, i.e. a semiring homomorphism
    N[T1..Tn] -> Q>=0 landing in Q+ on nonzero words."""

    assignment: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "assignment", tuple(Fraction(v) for v in self.assignment)
        )
        if any(v <= 0 for v in self.assignment):
            raise ValueError("evaluation images must be strictly positive")

    def apply(self, p: Polynomial) -> Fraction:
        return p.evaluate(list(self.assignment))

    def consistent_with(self, pres: Presentation) -> bool:
        return all(self.apply(lhs) == self.apply(rhs) for lhs, rhs in pres.relations)


_GRID_VALUES = tuple(
    Fraction(a, b) for a, b in ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3), (4, 1), (1, 4))
)
_GRID_LIMIT = 2000


def _separating_evaluation(p: Polynomial, q: Polynomial, pres: Presentation) -> EvalHom | None:
    """First EvalHom among the first ``_GRID_LIMIT`` grid points that is
    consistent with all relations and tells p from q."""
    for values in islice(product(_GRID_VALUES, repeat=pres.nvars), _GRID_LIMIT):
        hom = EvalHom(values)
        if hom.consistent_with(pres) and hom.apply(p) != hom.apply(q):
            return hom
    return None


# -- public operations -----------------------------------------------------


def congruence_close(pres: Presentation, budget: Budget = Budget()) -> CongruenceClosure:
    """The congruence closure of a presentation under a budget.

    Construction explores nothing.  Queries against the closure search with
    the full budget; ``preorder_leq`` and the bound predicates resume its
    memoised searches, while ``words_equivalent`` runs fresh searches that
    end with the call.  Deterministic for a fixed budget.
    """
    return CongruenceClosure(pres, budget)


def words_equivalent(
    p: Polynomial, q: Polynomial, cc: CongruenceClosure
) -> EquivalenceAnswer:
    """Semi-decide p ~ q under the closure's presentation and budget.

    Yes carries a replayable trace from p to q.  No carries a separating
    certificate: the fully explored finite component of p (or q), or a
    relation-consistent positive evaluation distinguishing them.  Otherwise
    Unknown.  Words outside the budget box are rejected.
    """
    pres, budget = cc.presentation, cc.budget
    for word in (p, q):
        if word.domain is not Domain.NAT:
            raise DomainError("words must be natural-domain polynomials")
        if word.nvars != pres.nvars:
            raise ValueError(f"word has {word.nvars} variables, presentation has {pres.nvars}")
        if not budget.admits(word):
            raise BudgetError(
                f"word {format_poly(word)} exceeds the budget box "
                f"(degree <= {budget.max_degree}, coefficients <= {budget.max_coeff}; "
                "raise --deg/--coeff)"
            )
    total = 0
    for source, target, backwards in ((p, q, False), (q, p, True)):
        exploration = _Exploration(source, pres, budget, cc._table)
        if exploration.find(lambda word: word == target, budget.max_steps) is not None:
            trace = exploration.trace_to(target)
            if backwards:
                # the search from p was cut off before this path; derivable after all
                trace = tuple(
                    Step(s.rel_index, not s.forward, s.shift, s.mult) for s in reversed(trace)
                )
            steps_used = total + exploration.rewrites_used
            return EquivalenceAnswer(Tri.YES, trace=trace, steps_used=steps_used)
        total += exploration.steps_used
        if exploration.complete:
            size = len(exploration.members)
            separator = Separator("exhausted-component", component_size=size)
            return EquivalenceAnswer(Tri.NO, separator=separator, steps_used=total)
    hom = _separating_evaluation(p, q, pres)
    if hom is None:
        return EquivalenceAnswer(Tri.UNKNOWN, steps_used=total)
    values = (hom.apply(p), hom.apply(q))
    separator = Separator("evaluation", assignment=hom.assignment, values=values)
    return EquivalenceAnswer(Tri.NO, separator=separator, steps_used=total)


def is_add_idempotent(pres: Presentation, budget: Budget = Budget()) -> EquivalenceAnswer:
    """Additive idempotence of the presented semiring.

    Decided through 1+1 ~ 1: in a commutative unital semiring,
    a + a = a * (1+1), so additive idempotence is exactly 1+1 ~ 1.
    """
    cc = congruence_close(pres, budget)
    one = pres.one
    return words_equivalent(one + one, one, cc)


@dataclass(frozen=True)
class CancellativityReport:
    verdict: Tri
    witness: tuple[Polynomial, Polynomial, Polynomial] | None = None
    reason: str = ""


def is_add_cancellative(
    structure: "Presentation | EvalHom", budget: Budget = Budget()
) -> CancellativityReport:
    """Additive cancellativity: does a + c ~ b + c force a ~ b?

    EvalHom targets are cancellative by rational arithmetic.  The free
    presentation is cancellative (polynomial addition over N cancels).  For
    presented semirings the answer is No exactly when a witness triple
    (a, b, c) is found -- a + c ~ b + c derivable, a ~ b refuted by a
    separating certificate -- and Unknown otherwise.  Candidates pair the
    first 50 members of each relation side's component, searched through
    the closure's memo for at most ``_CANCELLATIVE_SIDE_STEPS`` rewrites.
    """
    if isinstance(structure, EvalHom):
        return CancellativityReport(Tri.YES, reason="rational addition cancels")
    pres = structure
    if not pres.relations:
        return CancellativityReport(
            Tri.YES, reason="free semiring: polynomial addition over N cancels"
        )
    cc = congruence_close(pres, budget)
    cap = min(budget.max_steps, _CANCELLATIVE_SIDE_STEPS)
    attempts = 0
    seen: set[Polynomial] = set()
    for side in (side for relation in pres.relations for side in relation):
        if side in seen:
            continue
        exploration = cc.explore(side)
        exploration.find(lambda _: False, cap)
        seen.update(exploration.members)
        for x, y in combinations(islice(exploration.members, 50), 2):
            if attempts >= 40:
                return CancellativityReport(
                    Tri.UNKNOWN, reason="witness search attempt cap reached"
                )
            common = x.support() & y.support()
            shared = Polynomial(
                pres.nvars, Domain.NAT, {u: min(x.coefficient(u), y.coefficient(u)) for u in common}
            )
            if shared.is_zero:
                continue
            a = x.checked_sub(shared)
            b = y.checked_sub(shared)
            if a == b:
                continue
            attempts += 1
            answer = words_equivalent(a, b, cc)
            if answer.verdict is Tri.NO:
                return CancellativityReport(
                    Tri.NO,
                    witness=(a, b, shared),
                    reason="a + c ~ b + c derivable yet a and b separated",
                )
    return CancellativityReport(Tri.UNKNOWN, reason="no witness found within budget")


@dataclass(frozen=True)
class PreorderAnswer:
    verdict: Tri
    witness: "Polynomial | Fraction | None" = None


def preorder_leq(
    a,
    b,
    structure: "Presentation | CongruenceClosure | EvalHom",
    budget: Budget | None = None,
) -> PreorderAnswer:
    """The natural preorder: a <= b iff b = a + c for some c in the structure.

    On an EvalHom target (positive rationals) this is the strict order:
    c must be strictly positive, so a <= b iff a < b.  On a presentation
    (where 0 is an element, making the preorder reflexive) the search is
    bounded: Yes when some member of b's component termwise dominates a,
    No when b's component is fully explored and none does, else Unknown.

    Given a CongruenceClosure, b's memoised search is advanced only until
    its first member, in discovery order, that dominates a (the witness is
    that member minus a), under the closure's budget; an explicit
    ``budget`` must then equal it.  A bare Presentation is searched through
    a fresh closure under ``budget`` (default ``Budget()``).
    """
    if isinstance(structure, EvalHom):
        fa, fb = Fraction(a), Fraction(b)
        if fa < fb:
            return PreorderAnswer(Tri.YES, witness=fb - fa)
        return PreorderAnswer(Tri.NO)
    if isinstance(structure, CongruenceClosure):
        closure = structure
        if budget is not None and budget != closure.budget:
            raise ValueError(
                f"budget {budget} differs from the closure's budget {closure.budget}"
            )
    else:
        closure = CongruenceClosure(structure, Budget() if budget is None else budget)
    exploration = closure.explore(b)
    member = exploration.find(lambda w: w.checked_sub(a) is not None, closure.budget.max_steps)
    if member is not None:
        return PreorderAnswer(Tri.YES, witness=member.checked_sub(a))
    return PreorderAnswer(Tri.NO if exploration.complete else Tri.UNKNOWN)


def find_L(
    structure: "Presentation | EvalHom",
    budget: Budget = Budget(),
    search_degree: int = 2,
    search_coeff: int = 2,
) -> tuple[Polynomial, ...]:
    """Elements l with phi(l) + 1 = phi(l), enumerated over the search box
    (total degree <= search_degree, coefficients <= search_coeff).

    On an EvalHom target the result is always empty: x + 1 = x has no
    rational solution.  On a presentation, a word l is returned exactly when
    l + 1 ~ l is derivable within the budget; the sum of any two returned
    members stays in L (and more generally L + A+ lies in L), which the test
    suite spot-checks.  Raises BudgetError, before trying any, when the box
    holds more than ``_MAX_FIND_L_CANDIDATES`` candidates.
    """
    if isinstance(structure, EvalHom):
        return ()
    pres = structure
    monomials = _bounded_exponents(pres.nvars, search_degree)
    count = (search_coeff + 1) ** len(monomials)
    if count > _MAX_FIND_L_CANDIDATES:
        raise BudgetError(
            f"{search_coeff + 1}^{len(monomials)} find-l candidates (coefficients <= {search_coeff} on "
            f"{len(monomials)} monomials of degree <= {search_degree} in {pres.nvars} "
            f"variables) exceed the limit of {_MAX_FIND_L_CANDIDATES:,} (lower --nvars)"
        )
    cc = congruence_close(pres, budget)
    one = pres.one
    found: list[Polynomial] = []
    for coeffs in product(range(search_coeff + 1), repeat=len(monomials)):
        candidate = Polynomial(
            pres.nvars, Domain.NAT, {u: c for u, c in zip(monomials, coeffs) if c}
        )
        if candidate.is_zero:
            continue
        if words_equivalent(candidate + one, candidate, cc).verdict is Tri.YES:
            found.append(candidate)
    found.sort(key=lambda p: p.sort_key())
    return tuple(found)


# -- formal differences ----------------------------------------------------


@dataclass(frozen=True)
class DifferencePair:
    """A formal difference minuend - subtrahend; equality is
    (a, b) ~ (c, d) iff a + d = b + c."""

    minuend: Polynomial
    subtrahend: Polynomial


class DifferenceRing:
    """The ring S - S of formal differences of a cancellative semiring S.

    Here S is N[T1..Tn] (a free presentation); the construction must be
    refused for non-cancellative inputs, because the defining equivalence
    is not transitive without cancellation.
    """

    def __init__(self, presentation: Presentation, budget: Budget = Budget()):
        report = is_add_cancellative(presentation, budget)
        if report.verdict is Tri.NO:
            witness = report.witness
            raise NotCancellativeError(
                "additive cancellation fails: "
                f"({format_poly(witness[0])}, {format_poly(witness[1])}, {format_poly(witness[2])})",
                witness,
            )
        if report.verdict is Tri.UNKNOWN:
            raise NotCancellativeError(
                "cancellativity could not be certified within budget", None
            )
        self.presentation = presentation
        self.nvars = presentation.nvars

    def pair(self, minuend: Polynomial, subtrahend: Polynomial) -> DifferencePair:
        for side in (minuend, subtrahend):
            if side.domain is not Domain.NAT or side.nvars != self.nvars:
                raise DomainError("difference parts must be natural-domain words of the structure")
        return DifferencePair(minuend, subtrahend)

    def embed(self, s: Polynomial) -> DifferencePair:
        """s |-> (s + e, e) with e = 0; equality-respecting by cancellation."""
        return self.pair(s, Polynomial.zero(self.nvars, Domain.NAT))

    def add(self, x: DifferencePair, y: DifferencePair) -> DifferencePair:
        return DifferencePair(x.minuend + y.minuend, x.subtrahend + y.subtrahend)

    def mul(self, x: DifferencePair, y: DifferencePair) -> DifferencePair:
        return DifferencePair(
            x.minuend * y.minuend + x.subtrahend * y.subtrahend,
            x.minuend * y.subtrahend + x.subtrahend * y.minuend,
        )

    def neg(self, x: DifferencePair) -> DifferencePair:
        return DifferencePair(x.subtrahend, x.minuend)

    def equal(self, x: DifferencePair, y: DifferencePair) -> bool:
        return x.minuend + y.subtrahend == x.subtrahend + y.minuend

    def zero(self) -> DifferencePair:
        z = Polynomial.zero(self.nvars, Domain.NAT)
        return DifferencePair(z, z)

    def one(self) -> DifferencePair:
        return self.embed(Polynomial.one(self.nvars, Domain.NAT))


def difference_embed(
    a: Polynomial, b: Polynomial, structure: Presentation, budget: Budget = Budget()
) -> DifferencePair:
    """The formal difference a - b in the difference ring of the structure.

    Refuses (with a witness) when the structure is not certified
    additively cancellative.
    """
    return DifferenceRing(structure, budget).pair(a, b)
