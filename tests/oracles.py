"""Independent oracles used across the test suite.

Everything here is computed by a route different from the code under test:
closed-form formulas, exact linear algebra, brute-force enumeration.  Tests
freeze expected values by comparing against these, never by re-running the
implementation.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from semiring_lab import semiring
from semiring_lab.polynomials import ArityError, Domain, DomainError, Exponent, Polynomial, mono_mul
from semiring_lab.semiring import Budget, EquivalenceAnswer, Presentation, Separator, Step, Tri


def closed_form_generator(n: int) -> Polynomial:
    """The n-th subring generator in closed form (no recurrence):

        (n-1)! * T1 * T2^(n-1)  -  sum_{i=1}^{n-2} [(n-1)!/(n-i)!] * T2^i

    Derived by unrolling the recurrence f_2 = T1*T2,
    f_{m+1} = (m*f_m - 1)*T2 and verified by hand for n <= 6.
    """
    if n < 2:
        raise ValueError("generators start at n = 2")
    terms: dict[Exponent, int] = {(1, n - 1): math.factorial(n - 1)}
    for i in range(1, n - 1):
        terms[(0, i)] = -(math.factorial(n - 1) // math.factorial(n - i))
    return Polynomial(2, Domain.INT, terms)


def random_poly(
    rng: random.Random,
    nvars: int,
    domain: Domain,
    max_terms: int = 5,
    max_exp: int = 4,
    max_coeff: int = 9,
) -> Polynomial:
    """Seeded random sparse polynomial (zero polynomial possible)."""
    n_terms = rng.randint(0, max_terms)
    terms: dict[Exponent, int | Fraction] = {}
    for _ in range(n_terms):
        exp = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        if domain is Domain.NAT:
            coeff: int | Fraction = rng.randint(0, max_coeff)
        elif domain is Domain.INT:
            coeff = rng.randint(-max_coeff, max_coeff)
        else:
            coeff = Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, max_coeff))
        terms[exp] = terms.get(exp, 0) + coeff
    return Polynomial(nvars, domain, {u: c for u, c in terms.items() if c != 0})


def random_point(rng: random.Random, nvars: int, max_abs: int = 5) -> list[Fraction]:
    return [Fraction(rng.randint(-max_abs, max_abs), rng.randint(1, max_abs)) for _ in range(nvars)]


def solve_linear_system(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """One exact solution of rows * x = rhs over Q, or None if inconsistent.

    Plain Gaussian elimination with Fraction arithmetic; free variables are
    set to zero.  Used as the independent route for ideal membership.
    """
    return solve_linear_systems(rows, [rhs])[0]


def solve_linear_systems(
    rows: list[list[Fraction]], rhss: list[list[Fraction]]
) -> list[list[Fraction] | None]:
    """:func:`solve_linear_system` for each right-hand side in ``rhss``, all
    carried through one elimination of ``rows``."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [list(row) + [b[i] for b in rhss] for i, row in enumerate(rows)]
    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = Fraction(1) / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    solutions: list[list[Fraction] | None] = []
    for t in range(n, n + len(rhss)):
        if any(aug[i][t] != 0 for i in range(r, m)):
            solutions.append(None)
            continue
        x = [Fraction(0)] * n
        for i, c in enumerate(pivot_cols):
            x[c] = aug[i][t]
        solutions.append(x)
    return solutions


def monomials_up_to_degree(nvars: int, degree: int) -> list[Exponent]:
    """All exponent tuples of total degree <= degree, sorted."""
    out = [u for u in product(range(degree + 1), repeat=nvars) if sum(u) <= degree]
    out.sort()
    return out


def ideal_membership_by_linear_algebra(
    target: Polynomial, generators: list[Polynomial], cofactor_degree: int
) -> list[Polynomial] | None:
    """Cofactors c_i of degree <= cofactor_degree with sum c_i * g_i = target,
    found by solving an exact linear system over Q -- or None if no such
    cofactors exist at this degree.  Completely independent of any Groebner
    machinery.
    """
    return ideal_memberships_by_linear_algebra([target], generators, cofactor_degree)[0]


def ideal_memberships_by_linear_algebra(
    targets: list[Polynomial], generators: list[Polynomial], cofactor_degree: int
) -> list[list[Polynomial] | None]:
    """:func:`ideal_membership_by_linear_algebra` for each of ``targets``,
    from one elimination."""
    nvars = targets[0].nvars
    gens = [g.as_domain(Domain.RAT) for g in generators]
    tgts = [t.as_domain(Domain.RAT) for t in targets]
    basis = monomials_up_to_degree(nvars, cofactor_degree)
    # unknowns: one coefficient per (generator, basis monomial)
    columns: list[dict[Exponent, Fraction]] = []
    for g in gens:
        for u in basis:
            col: dict[Exponent, Fraction] = {}
            for v, c in g.terms():
                w = mono_mul(u, v)
                col[w] = col.get(w, Fraction(0)) + Fraction(c)
            columns.append(col)
    support = set().union(*(t.support() for t in tgts))
    for col in columns:
        support |= set(col)
    support_list = sorted(support)
    rows = [[col.get(w, Fraction(0)) for col in columns] for w in support_list]
    rhss = [[Fraction(t.coefficient(w)) for w in support_list] for t in tgts]
    out: list[list[Polynomial] | None] = []
    for solution in solve_linear_systems(rows, rhss):
        if solution is None:
            out.append(None)
            continue
        cofactors = []
        idx = 0
        for _ in gens:
            terms = {}
            for u in basis:
                if solution[idx] != 0:
                    terms[u] = solution[idx]
                idx += 1
            cofactors.append(Polynomial(nvars, Domain.RAT, terms))
        out.append(cofactors)
    return out


def jacobian_determinant(p: Polynomial, q: Polynomial) -> Polynomial:
    """det of the 2x2 Jacobian of (p, q) in two variables; nonzero iff the
    pair is algebraically independent over Q (characteristic zero)."""
    if p.nvars != 2 or q.nvars != 2:
        raise ValueError("jacobian oracle is for two variables")
    return p.differentiate(0) * q.differentiate(1) - p.differentiate(1) * q.differentiate(0)


def add_product(out: dict, p: dict, q: dict, sign: int = 1) -> dict:
    """out += sign * p * q on term dicts, term by term in the coefficients'
    own arithmetic, dropping each sum that cancels to zero."""
    for u, a in p.items():
        for v, b in q.items():
            w = mono_mul(u, v)
            s = out.get(w, 0) + sign * a * b
            if s == 0:
                out.pop(w, None)
            else:
                out[w] = s
    return out


def reference_substitute(p: Polynomial, images: list[Polynomial]) -> Polynomial:
    """``p.substitute(images)`` as a term-by-term loop: each term of p is
    built as its coefficient times the image powers (each power by repeated
    multiplication) and added to the running sum, all on ``Fraction`` term
    dicts.  The argument checks, their order and their messages are those
    of the library method."""
    if len(images) != p.nvars:
        raise ArityError(f"{len(images)} images supplied for {p.nvars} variables")
    if not images:
        raise ArityError("substitution needs at least one variable")
    nvars, domain = images[0].nvars, images[0].domain
    for g in images:
        if g.nvars != nvars or g.domain is not domain:
            raise DomainError("images do not share a common ambient ring")
    one = {(0,) * nvars: Fraction(1)}
    total: dict = {}
    for exp, coeff in sorted(p._terms.items()):
        term = {(0,) * nvars: Fraction(domain.coerce(coeff))}
        for g, e in zip(images, exp):
            power = one
            for _ in range(e):
                power = add_product({}, power, g._terms)
            term = add_product({}, term, power)
        add_product(total, term, one)
    return Polynomial(nvars, domain, total)


def reference_combo_update(
    base: list[Polynomial], quotients: list[dict], combos: list[tuple[Polynomial, ...]]
) -> tuple[Polynomial, ...]:
    """The cofactors of b - sum q_i * basis_i, given b's cofactors ``base``
    and the basis elements' ``combos``: each nonzero quotient q_i (a
    ``Fraction`` term dict) subtracts q_i * combo_i from every cofactor, one
    quotient after the other, on ``Fraction`` term dicts."""
    out = [dict(b._terms) for b in base]
    for q, combo in zip(quotients, combos):
        if q:
            out = [add_product(dict(a), q, b._terms, -1) for a, b in zip(out, combo)]
    return tuple(Polynomial(b.nvars, Domain.RAT, a) for a, b in zip(out, base))


def reference_cofactors(
    quotients: tuple[Polynomial, ...], combos: tuple[tuple[Polynomial, ...], ...], nvars: int
) -> tuple[Polynomial, ...]:
    """The cofactors sum q_i * combo_i of an ideal member with basis quotients
    q_i, on ``Fraction`` term dicts, one quotient after the other."""
    zero = Polynomial.zero(nvars, Domain.RAT)
    base = [zero for _ in (combos[0] if combos else ())]
    negated = [{u: -c for u, c in q._terms.items()} for q in quotients]
    return reference_combo_update(base, negated, combos)


def semigroup_within_box(generators, box: int, nvars: int | None = None) -> set:
    """All generator sums with every coordinate within [0, box], including
    the empty sum, by fixpoint iteration (no frontier bookkeeping)."""
    gens = [tuple(g) for g in generators]
    n = nvars if nvars is not None else (len(gens[0]) if gens else 0)
    members = {(0,) * n}
    while True:
        new = {
            tuple(a + b for a, b in zip(m, g))
            for m in members
            for g in gens
            if all(a + b <= box for a, b in zip(m, g))
        } - members
        if not new:
            return members
        members |= new


def purity_violations(generators, box: int, nvars: int | None = None) -> list:
    """Every (member, divisor) pair witnessing impurity of the box-bounded
    semigroup: member/divisor is integral but not itself a member."""
    members = semigroup_within_box(generators, box, nvars)
    out = []
    for a in sorted(members):
        for k in range(2, max(a, default=0) + 1):
            if all(x % k == 0 for x in a) and tuple(x // k for x in a) not in members:
                out.append((a, k))
    return out


@dataclass
class ReferenceExploration:
    members: dict
    complete: bool
    steps_used: int
    found_target: bool


def reference_explore(
    start: Polynomial,
    pres: Presentation,
    budget: Budget,
    target: Polynomial | None = None,
) -> ReferenceExploration:
    """Breadth-first search of ``start``'s congruence component, stopping
    early at ``target``, as one self-contained loop that restarts from
    scratch on every call.  It shares only the one-step rewrites
    (``semiring._iter_rewrites``, on a rewrite table of its own) with the
    resumable search it checks.

    ``members`` maps each word to (parent, step).  A search stopped at the
    step cap reports cap + 1 steps, counting the rewrite it drew past the
    cap; one that reached ``target`` reports the steps used until then.
    """
    members = {start: (None, None)}
    if target is not None and target == start:
        return ReferenceExploration(members, True, 0, True)
    queue = deque([start])
    table = semiring._RewriteTable(pres, budget)
    clipped = False
    steps_used = 0
    while queue:
        word = queue.popleft()
        for step, result in semiring._iter_rewrites(word, table):
            steps_used += 1
            if steps_used > budget.max_steps:
                return ReferenceExploration(members, False, steps_used, False)
            if result is None:
                clipped = True
                continue
            if result in members:
                continue
            members[result] = (word, step)
            if target is not None and result == target:
                return ReferenceExploration(members, not clipped, steps_used, True)
            queue.append(result)
    return ReferenceExploration(members, not clipped, steps_used, False)


def _reference_trace(exploration: ReferenceExploration, target: Polynomial) -> tuple:
    steps = []
    word = target
    while exploration.members[word][0] is not None:
        word, step = exploration.members[word]
        steps.append(step)
    return tuple(reversed(steps))


def reference_words_equivalent(
    p: Polynomial, q: Polynomial, pres: Presentation, budget: Budget
) -> EquivalenceAnswer:
    """``semiring.words_equivalent`` built on ``reference_explore``: a
    targeted search from p, then, unless it settled the question, one from
    q, then a separating evaluation."""
    forward = reference_explore(p, pres, budget, target=q)
    if forward.found_target:
        return EquivalenceAnswer(
            Tri.YES, trace=_reference_trace(forward, q), steps_used=forward.steps_used
        )
    if forward.complete:
        separator = Separator("exhausted-component", component_size=len(forward.members))
        return EquivalenceAnswer(Tri.NO, separator=separator, steps_used=forward.steps_used)
    back = reference_explore(q, pres, budget, target=p)
    total = forward.steps_used + back.steps_used
    if back.found_target:
        trace = tuple(
            Step(s.rel_index, not s.forward, s.shift, s.mult)
            for s in reversed(_reference_trace(back, p))
        )
        return EquivalenceAnswer(Tri.YES, trace=trace, steps_used=total)
    if back.complete:
        separator = Separator("exhausted-component", component_size=len(back.members))
        return EquivalenceAnswer(Tri.NO, separator=separator, steps_used=total)
    hom = semiring._separating_evaluation(p, q, pres)
    if hom is not None:
        separator = Separator(
            "evaluation", assignment=hom.assignment, values=(hom.apply(p), hom.apply(q))
        )
        return EquivalenceAnswer(Tri.NO, separator=separator, steps_used=total)
    return EquivalenceAnswer(Tri.UNKNOWN, steps_used=total)
