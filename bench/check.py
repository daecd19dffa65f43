"""Independent re-checks of the library's verdicts.

Nothing here trusts a verdict the library returns.  Polynomials are plain
``{exponent tuple: coefficient}`` dicts with arithmetic written in this
file; the library's objects are only read (``terms()``, dataclass fields)
and converted.  A verdict passes when its certificate checks out under this
arithmetic:

  * ideal membership: the cofactors re-expand to the query;
  * subalgebra membership: the representation, substituted into generators
    computed here from the recurrence, gives back the query;
  * subalgebra non-membership: ``h(T1, 0)`` is nonconstant, which rules out
    membership because every generator is divisible by ``T2``;
  * word equivalence: the rewrite trace replays step by step;
  * evaluation separators: the point satisfies every relation and tells the
    words apart;
  * component separators and preorder refutations: the component, explored
    here, is closed under every rewrite and excludes the other word.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import product
from math import comb

# -- arithmetic on term dicts ------------------------------------------------


def terms(p) -> dict:
    """Term dict of a library Polynomial."""
    return dict(p.terms())


def add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for u, c in q.items():
        s = out.get(u, 0) + sign * c
        if s:
            out[u] = s
        else:
            out.pop(u, None)
    return out


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for u, a in p.items():
        for v, b in q.items():
            w = tuple(x + y for x, y in zip(u, v))
            s = out.get(w, 0) + a * b
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def scale(p: dict, c) -> dict:
    return {u: a * c for u, a in p.items()} if c else {}


def const(nvars: int, c) -> dict:
    return {(0,) * nvars: c} if c else {}


def var(nvars: int, i: int) -> dict:
    return {tuple(1 if j == i else 0 for j in range(nvars)): 1}


def evaluate(p: dict, point) -> Fraction:
    total = Fraction(0)
    for u, c in p.items():
        term = Fraction(c)
        for e, x in zip(u, point):
            term *= Fraction(x) ** e
        total += term
    return total


def substitute(p: dict, images: list, nvars: int) -> dict:
    """p(images[0], images[1], ...), expanded in ``nvars`` variables."""
    powers: dict = {}
    out: dict = {}
    for u, c in p.items():
        term = const(nvars, c)
        for i, e in enumerate(u):
            if e:
                if (i, e) not in powers:
                    acc = const(nvars, 1)
                    for _ in range(e):
                        acc = mul(acc, images[i])
                    powers[i, e] = acc
                term = mul(term, powers[i, e])
        out = add(out, term)
    return out


def recurrence_generators(k: int) -> list:
    """f_2..f_k over Z[T1, T2]: f_2 = T1*T2, f_{n+1} = (n*f_n - 1)*T2."""
    t2 = var(2, 1)
    f = mul(var(2, 0), t2)
    out = [f]
    for n in range(2, k):
        f = mul(add(scale(f, n), const(2, 1), -1), t2)
        out.append(f)
    return out


# -- the recurrence subring -------------------------------------------------


def relations_ok(k: int, relations: list, gens: list) -> str | None:
    """C(k-2, 2) relations, each vanishing at (1/2..1/k) and under f_2..f_k."""
    if len(relations) != comb(k - 2, 2):
        return f"k={k}: {len(relations)} relations, expected {comb(k - 2, 2)}"
    point = [Fraction(1, n) for n in range(2, k + 1)]
    for r in relations:
        if evaluate(r, point) != 0:
            return f"k={k}: a relation does not vanish at (1/2, ..., 1/{k})"
        if substitute(r, gens, 2):
            return f"k={k}: a relation does not vanish under the generators"
    return None


def provably_outside(h: dict) -> bool:
    """h(T1, 0) nonconstant; every f_n is divisible by T2, so h is no member."""
    return any(u[0] > 0 and u[1] == 0 for u in h)


def cofactors_ok(p: dict, cofactors: list, gens: list) -> bool:
    total: dict = {}
    for c, g in zip(cofactors, gens):
        total = add(total, mul(c, g))
    return len(cofactors) == len(gens) and total == p


# -- presented semirings ----------------------------------------------------


def _leq(p: dict, q: dict) -> bool:
    return all(q.get(u, 0) >= c for u, c in p.items())


def _apply(word: dict, src: dict, dst: dict, shift: tuple, mult: int) -> dict | None:
    factor = {shift: mult}
    removed = add(word, mul(factor, src), -1)
    if any(c < 0 for c in removed.values()):
        return None
    return add(removed, mul(factor, dst))


def replay_ok(p: dict, q: dict, trace, relations: list) -> bool:
    """Replay a derivation trace (library Step records) from p; must end at q."""
    word = p
    for step in trace:
        lhs, rhs = relations[step.rel_index]
        src, dst = (lhs, rhs) if step.forward else (rhs, lhs)
        if step.mult < 1:
            return False
        word = _apply(word, src, dst, tuple(step.shift), step.mult)
        if word is None:
            return False
    return word == q


def evaluation_separates(p: dict, q: dict, assignment, relations: list) -> bool:
    point = [Fraction(v) for v in assignment]
    if any(v <= 0 for v in point):
        return False
    if any(evaluate(lhs, point) != evaluate(rhs, point) for lhs, rhs in relations):
        return False
    return evaluate(p, point) != evaluate(q, point)


def _rewrites(word: dict, relations: list, nvars: int, max_degree: int):
    """Every one-step rewrite of word; a zero source yields an endless family,
    reported as a single None (the component is then not closed)."""
    for lhs, rhs in relations:
        for src, dst in ((lhs, rhs), (rhs, lhs)):
            if src == dst:
                continue
            if not src:
                yield None
                return
            for shift in product(range(max_degree + 1), repeat=nvars):
                prod = mul({shift: 1}, src)
                if not all(u in word for u in prod):
                    continue
                top = min(word[u] // c for u, c in prod.items())
                for mult in range(1, top + 1):
                    yield _apply(word, src, dst, shift, mult)


def closed_component(start: dict, relations: list, nvars: int, max_degree: int,
                     max_coeff: int, cap: int) -> list | None:
    """The congruence component of start when it is finite and stays inside
    the degree/coefficient box; None when a rewrite leaves the box, a zero
    side makes it infinite, or more than ``cap`` rewrites were needed."""
    key = lambda w: tuple(sorted(w.items()))  # noqa: E731
    seen = {key(start): start}
    queue = deque([start])
    spent = 0
    while queue:
        word = queue.popleft()
        for nxt in _rewrites(word, relations, nvars, max_degree):
            spent += 1
            if nxt is None or spent > cap:
                return None
            if any(sum(u) > max_degree for u in nxt) or any(c > max_coeff for c in nxt.values()):
                return None
            k = key(nxt)
            if k not in seen:
                seen[k] = nxt
                queue.append(nxt)
    return list(seen.values())


def component_excludes(p: dict, q: dict, relations, nvars, box, cap, size=None) -> bool:
    """Some side's closed component excludes the other side (and, when given,
    has the reported size)."""
    for a, b in ((p, q), (q, p)):
        comp = closed_component(a, relations, nvars, *box, cap)
        if comp is not None and b not in comp and (size is None or len(comp) == size):
            return True
    return False


def preorder_refuted(a: dict, b: dict, relations, nvars, box, cap) -> bool:
    """b's component is closed and no member of it dominates a termwise."""
    comp = closed_component(b, relations, nvars, *box, cap)
    return comp is not None and not any(_leq(a, m) for m in comp)
