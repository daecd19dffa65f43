"""The four workloads: seeded inputs, the timed operation, and its re-check.

Each workload is a class with

  * ``setup(sl, rng)`` -- builds the inputs from the seeded ``rng`` and any
    context or closure the operations share (this counts in ``setup_s``);
  * ``ops`` -- the fixed operation list of one pass;
  * ``run(op)`` -- one timed operation against the library's public API;
  * ``verdicts(op, result)`` -- the verdicts it reached, one per decision;
  * ``record(op, result)`` -- a canonical text of the outcome, hashed into
    the pass digest that must repeat exactly;
  * ``check(op, result)`` -- the independent re-check (``check.py``),
    returning an error text or None;
  * ``counts(results)`` -- deterministic work counts read from the results.

The library receives only the generated polynomials and presentations.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product

import check as ck

DECIDED = frozenset({"yes", "no", "member", "non_member", "holds", "fails", "value"})


def _poly_text(p) -> str:
    return repr(sorted(p.terms()))


class SubringSweep:
    """Cold ``AbhyankarContext.build(k)`` and ``verify_conditions`` for
    k = 4..13, in an order drawn from the seed."""

    name = "subring-sweep"
    expected = {"a": "holds", "b": "holds", "c": "fails", "d": "holds"}

    def setup(self, sl, rng):
        self.sl = sl
        self.base = sl.parse_poly("T1*T2", ("T1", "T2"), sl.Domain.NAT)
        self.ops = list(range(4, 14))
        rng.shuffle(self.ops)

    def run(self, k):
        sl = self.sl
        ctx = sl.AbhyankarContext.build(k)
        report = sl.verify_conditions(sl.RecurrenceCandidate(ctx, (self.base,)))
        return ctx, report

    def verdicts(self, k, result):
        return [v.status.value for v in result[1].as_mapping().values()]

    def record(self, k, result):
        ctx, report = result
        rels = ";".join(_poly_text(r) for r in ctx.report.relations)
        return f"{k}|{self.verdicts(k, result)}|{rels}"

    def check(self, k, result):
        ctx, report = result
        got = {letter: v.status.value for letter, v in report.as_mapping().items()}
        if got != self.expected:
            return f"k={k}: verdicts {got}, expected {self.expected}"
        if not ctx.verified:
            return f"k={k}: context not verified"
        gens = ck.recurrence_generators(k)
        if [ck.terms(g) for g in ctx.generators] != gens:
            return f"k={k}: generators differ from the recurrence"
        err = ck.relations_ok(k, [ck.terms(r) for r in ctx.report.relations], gens)
        if err:
            return err
        # condition c fails only with a witness: h(base + shift) = 0 and a
        # coefficient of h with nonzero image
        point = [Fraction(1, n) for n in range(2, k + 1)]
        for w in report.c.witness:
            ell = ck.add(ck.terms(w.base), ck.terms(w.shift))
            total, power, images = {}, ck.const(2, 1), []
            for coeff in w.h.coeffs:
                rep = ck.terms(coeff.representation)
                if ck.substitute(rep, gens, 2) != ck.terms(coeff.ambient):
                    return f"k={k}: annihilator coefficient does not expand"
                images.append(ck.evaluate(rep, point))
                total = ck.add(total, ck.mul(ck.terms(coeff.ambient), power))
                power = ck.mul(power, ell)
            if total or not any(images):
                return f"k={k}: annihilator witness does not check"
        return None

    def counts(self, results):
        sl = self.sl
        out = {}
        for ctx, _report in sorted(results, key=lambda r: r[0].truncation):
            # the relation ideal is cached by this pass's build; the search
            # repeats condition c's to read its attempt count
            rel = sl.relation_ideal(ctx.generators)
            found = sl.non_kernel_annihilator(ctx, self.base)
            out[f"k{ctx.truncation}"] = {
                "relations": len(ctx.report.relations),
                "spairs": rel.steps_used,
                "annihilator_attempts": found.attempts,
            }
        return out


class SubringQueries:
    """Read-path queries against one context at k = 12 built during set-up."""

    name = "subring-queries"
    k = 12
    per_kind = 100

    def setup(self, sl, rng):
        self.sl = sl
        D = sl.Domain
        self.ctx = ctx = sl.AbhyankarContext.build(self.k)
        self.gens = list(ctx.generators)
        one = sl.Polynomial.one(2, D.INT)
        t1 = sl.Polynomial.variable(2, 0, D.INT)

        def member():
            a, b = rng.randint(2, self.k), rng.randint(2, self.k)
            h = ctx.generator_poly(a) * ctx.generator_poly(b)
            return h - one * rng.randint(0, 5)

        ops = []
        for _ in range(self.per_kind):
            ops.append(("member", member()))
            ops.append(("non_member", member() + t1 ** rng.randint(1, 3)))
            n = rng.randint(2, self.k - 1)
            pair = (ctx.generator_poly(n) * n - one, ctx.generator_poly(n + 1) * (n + 1) - one)
            terms = {}
            for _ in range(3):
                terms[(rng.randint(0, 3), rng.randint(0, 3))] = rng.choice([-5, -3, -2, -1, 1, 2, 3, 5])
            ops.append(("ideal", (sl.Polynomial(2, D.INT, terms), pair, n)))
            rep = {}
            for _ in range(rng.randint(1, 4)):
                exp = [0] * ctx.tag_count
                for _ in range(rng.randint(0, 2)):
                    exp[rng.randrange(ctx.tag_count)] += 1
                rep[tuple(exp)] = rng.randint(-9, 9) or 1
            ops.append(("image", sl.Polynomial(ctx.tag_count, D.INT, rep)))
        rng.shuffle(ops)
        self.ops = ops

    def run(self, op):
        sl = self.sl
        kind, arg = op
        if kind == "ideal":
            p, pair, _n = arg
            return sl.ideal_membership(p, list(pair))
        if kind == "image":
            element = self.ctx.element(arg)
            return element, element.rational_image
        return sl.subalgebra_membership(arg, self.gens)

    def verdicts(self, op, result):
        return ["value" if op[0] == "image" else result.status.value]

    def record(self, op, result):
        kind = op[0]
        if kind == "image":
            return f"image|{result[1]}"
        if kind == "ideal":
            return f"ideal|{result.status.value}|{[_poly_text(c) for c in result.cofactors or ()]}"
        rep = _poly_text(result.representation) if result.representation is not None else ""
        return f"{kind}|{result.status.value}|{rep}"

    def check(self, op, result):
        kind, arg = op
        gens = ck.recurrence_generators(self.k)
        if kind == "image":
            element, value = result
            rep = ck.terms(arg)
            point = [Fraction(1, n) for n in range(2, self.k + 1)]
            if value != ck.evaluate(rep, point):
                return "rational image differs from the evaluation at (1/2, ..., 1/k)"
            if ck.terms(element.ambient) != ck.substitute(rep, gens, 2):
                return "element's ambient form differs from the substituted representation"
            return None
        status = result.status.value
        if status == "unknown":
            return None
        if kind == "ideal":
            p, _pair, n = arg
            own = [ck.add(ck.scale(gens[m - 2], m), ck.const(2, 1), -1) for m in (n, n + 1)]
            if status != "member" or not ck.cofactors_ok(
                ck.terms(p), [ck.terms(c) for c in result.cofactors], own
            ):
                return f"ideal membership {status} without a cofactor expansion"
            return None
        h = ck.terms(arg)
        if status == "member":
            rep = result.representation
            if rep is None or ck.substitute(ck.terms(rep), gens, 2) != h:
                return "member representation does not substitute back to the query"
            return None
        if not ck.provably_outside(h):
            return "non_member claimed but h(T1, 0) is constant"
        return None

    def counts(self, results):
        verdicts = Counter(f"{op[0]}:{v}" for op, r in zip(self.ops, results) for v in self.verdicts(op, r))
        return {
            "relations": len(self.ctx.report.relations),
            "spairs": self.sl.relation_ideal(self.gens).steps_used,
            "verdicts": dict(sorted(verdicts.items())),
        }


# the catalog of scripts/explore_idempotent_presentations.py plus four
# two-generator presentations
CATALOG = [
    (1, None),
    (1, "1 = 0"),
    (1, "1 + 1 = 1"),
    (1, "T1 + 1 = T1"),
    (1, "T1 = 1"),
    (1, "T1^2 = T1"),
    (1, "T1 + T1 = T1"),
    (1, "T1 + T1 = 1"),
    (2, "T1*T2 = 1"),
    (2, "T1 + T2 = T2"),
    (2, "T1^2 = T2"),
    (2, "T1 = 0"),
]


def _swap(sl, p):
    """The same polynomial with T1 and T2 exchanged."""
    return sl.Polynomial(2, p.domain, {(u[1], u[0]): c for u, c in p.terms()})


def _presentation(sl, nvars, text, swap):
    if text is None:
        return sl.Presentation.free(nvars)
    pres = sl.Presentation.from_text(nvars, text)
    if swap:
        pres = sl.Presentation(2, tuple((_swap(sl, l), _swap(sl, r)) for l, r in pres.relations))
    return pres


def _relations(pres):
    return [(ck.terms(l), ck.terms(r)) for l, r in pres.relations]


class WordQueries:
    """Independent word-problem and preorder queries over the catalog."""

    name = "word-queries"
    budget = (4, 8, 300)
    per_cell = 16  # queries per (presentation, query kind)

    def setup(self, sl, rng):
        self.sl = sl
        self.bud = sl.Budget(*self.budget)
        self.pres = []
        for nvars, text in CATALOG:
            self.pres.append(_presentation(sl, nvars, text, nvars == 2 and rng.random() < 0.5))
        self.closures = [sl.congruence_close(p, self.bud) for p in self.pres]

        def word(nvars):
            terms = {}
            while not terms:
                for _ in range(rng.randint(1, 2)):
                    exp = tuple(rng.randint(0, 2) for _ in range(nvars))
                    if sum(exp) <= 2:
                        terms[exp] = terms.get(exp, 0) + rng.randint(1, 2)
            return sl.Polynomial(nvars, sl.Domain.NAT, terms)

        ops = []
        for i, p in enumerate(self.pres):
            for kind in ("equal", "preorder"):
                for _ in range(self.per_cell):
                    ops.append((kind, i, word(p.nvars), word(p.nvars)))
        rng.shuffle(ops)
        self.ops = ops

    def run(self, op):
        kind, i, a, b = op
        if kind == "equal":
            return self.sl.words_equivalent(a, b, self.closures[i])
        return self.sl.preorder_leq(a, b, self.pres[i], self.bud)

    def verdicts(self, op, result):
        return [result.verdict.value]

    @staticmethod
    def _category(op, result):
        v = result.verdict.value
        if op[0] == "equal" and v == "no":
            return "no_evaluation" if result.separator.kind == "evaluation" else "no_component"
        return v

    def record(self, op, result):
        if op[0] == "preorder":
            w = result.witness
            return f"pre|{result.verdict.value}|{_poly_text(w) if w is not None else ''}"
        trace = [(s.rel_index, s.forward, s.shift, s.mult) for s in result.trace or ()]
        return f"eq|{self._category(op, result)}|{result.steps_used}|{trace}|{result.separator}"

    def check(self, op, result):
        kind, i, a, b = op
        pres = self.pres[i]
        rels = _relations(pres)
        pa, pb = ck.terms(a), ck.terms(b)
        box = self.budget[:2]
        cap = 4 * self.budget[2]
        v = result.verdict.value
        if v == "unknown":
            return None
        if kind == "equal":
            if v == "yes":
                return None if ck.replay_ok(pa, pb, result.trace, rels) else "trace does not replay"
            sep = result.separator
            if sep.kind == "evaluation":
                ok = ck.evaluation_separates(pa, pb, sep.assignment, rels)
                point = list(sep.assignment)
                ok = ok and tuple(sep.values) == (ck.evaluate(pa, point), ck.evaluate(pb, point))
                return None if ok else "evaluation separator does not separate"
            ok = ck.component_excludes(pa, pb, rels, pres.nvars, box, cap, sep.component_size)
            return None if ok else "component separator not confirmed"
        if v == "no":
            ok = ck.preorder_refuted(pa, pb, rels, pres.nvars, box, cap)
            return None if ok else "preorder refutation not confirmed"
        # yes: a + c ~ b; ask the library for a derivation and replay it here
        c = result.witness
        if any(coeff < 0 for _, coeff in c.terms()):
            return "preorder witness has a negative coefficient"
        start = a + c
        answer = self.sl.words_equivalent(start, b, self.closures[i])
        if answer.verdict.value != "yes" or not ck.replay_ok(ck.terms(start), pb, answer.trace, rels):
            return "preorder witness has no replayable derivation"
        return None

    def counts(self, results):
        verdicts = Counter(f"{op[0]}:{self._category(op, r)}" for op, r in zip(self.ops, results))
        rewrites = sum(r.steps_used for op, r in zip(self.ops, results) if op[0] == "equal")
        return {"verdicts": dict(sorted(verdicts.items())), "rewrites": rewrites}


class ConeScan:
    """Exponent cones of presentation and evaluation targets."""

    name = "cone-scan"
    budget = (5, 8, 5000)
    max_bound = 16
    targets = [
        (2, "T1*T2 = 1", 2),
        (2, "1 + 1 = 1", 3),
        (1, "T1 + T1 = 1", 4),
        (1, "1 = 0", 3),
        (1, "T1 = 1", 4),
        (2, "T1 + T2 = T2", 4),
        (2, "T1^2 = T2", 4),
        (2, "T1 + 1 = T1", 4),
    ]
    evaluations = 6

    def setup(self, sl, rng):
        self.sl = sl
        self.bud = sl.Budget(*self.budget)
        ops = []
        for nvars, text, box in self.targets:
            ops.append((_presentation(sl, nvars, text, nvars == 2 and rng.random() < 0.5), box))
        for _ in range(self.evaluations):
            point = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(2)]
            ops.append((sl.EvalHom(tuple(point)), 4))
        rng.shuffle(ops)
        self.ops = ops

    def run(self, op):
        target, box = op
        return self.sl.cone_enumerate(target, box, self.bud, self.max_bound)

    def verdicts(self, op, cone):
        box = list(product(range(op[1] + 1), repeat=cone.nvars))
        unknown = set(cone.unknown)
        return ["yes" if u in cone.members else "unknown" if u in unknown else "no" for u in box]

    def record(self, op, cone):
        return f"{sorted(cone.members)}|{sorted(cone.unknown)}"

    def check(self, op, cone):
        sl = self.sl
        target, box = op
        cells = set(product(range(box + 1), repeat=cone.nvars))
        members, unknown = set(cone.members), set(cone.unknown)
        if not members <= cells or not unknown <= cells or members & unknown:
            return "cone cells outside the box or both member and unknown"
        if isinstance(target, sl.EvalHom):
            # in the positive rationals every value v lies below v + 1
            return None if members == cells else "evaluation cone misses a box vector"
        if members | unknown != cells:
            return "presentation cone refutes a cell without a certificate"
        # each member u needs T^u + c ~ q for a constant q: ask the library for
        # the witness c and a derivation, and replay the derivation here
        rels = _relations(target)
        closure = sl.congruence_close(target, self.bud)
        cap = min(self.max_bound, self.budget[1])
        for u in sorted(members):
            word = sl.Polynomial.monomial(u, 1, sl.Domain.NAT)
            for q in range(1, cap + 1):
                bound = sl.Polynomial.constant(cone.nvars, q, sl.Domain.NAT)
                answer = sl.preorder_leq(word, bound, target, self.bud)
                if answer.verdict.value != "yes":
                    continue
                start = word + answer.witness
                derivation = sl.words_equivalent(start, bound, closure)
                if derivation.verdict.value == "yes" and ck.replay_ok(
                    ck.terms(start), ck.terms(bound), derivation.trace, rels
                ):
                    break
            else:
                return f"member {u} has no certified constant bound"
        return None

    def counts(self, cones):
        return {
            "cones": [
                {"members": len(c.members), "unknown": len(c.unknown)}
                for c in cones
            ]
        }


WORKLOADS = {w.name: w for w in (SubringSweep, SubringQueries, WordQueries, ConeScan)}
