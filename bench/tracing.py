"""Spans around the library's public entry points, installed from outside.

The tracer replaces each listed function or method with a wrapper, in every
module of the package that binds it by name (``relation_ideal`` inside
``abhyankar``, ``preorder_leq`` inside ``conjectures`` and so on), so calls
made between layers are caught as well as the benchmark's own calls.  A span
records its duration; its self time is that duration minus the time of the
spans it encloses.  Spans are aggregated per name in memory (calls, self
seconds), because the hot polynomial methods open millions of them.  Counts
are read from the objects the wrapped functions return or raise.

``Polynomial.__init__`` is counted but not timed: it is the hottest call in
the package, and timing it would distort the run more than it informs.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

_POLY_TIMED = ("__add__", "__sub__", "__mul__", "checked_sub", "substitute", "evaluate")


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list = []

    def span(self, name, fn, on_return=None, on_raise=None):
        stack, calls, self_s, counts = self._stack, self.calls, self.self_s, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_raise is not None:
                    on_raise(counts, exc)
                raise
            finally:
                elapsed = clock() - start
                calls[name] += 1
                self_s[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if on_return is not None:
                on_return(counts, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


# -- hooks reading counts from returned objects -------------------------------


def _basis_done(counts, gb):
    counts["groebner.bases"] += 1
    counts["groebner.complete"] += 1
    counts["groebner.spairs_reduced"] += gb.steps_used
    counts["groebner.basis_size"] += len(gb.generators)


def _basis_cut(counts, exc):
    partial = getattr(exc, "partial", None)
    if partial is not None:
        counts["groebner.bases"] += 1
        counts["groebner.spairs_reduced"] += partial.steps_used
        counts["groebner.basis_size"] += len(partial.generators)


def _built(counts, ctx):
    counts["abhyankar.relations"] += len(ctx.report.relations)


def _lifted(counts, _element):
    counts["abhyankar.lift.accepted"] += 1


def _annihilator(counts, result):
    counts["abhyankar.annihilator.attempts"] += result.attempts


def _answered(counts, answer):
    counts["semiring.rewrites"] += answer.steps_used
    verdict = answer.verdict.value
    if verdict == "no":
        sep = answer.separator
        verdict = "no_evaluation" if sep is not None and sep.kind == "evaluation" else "no_component"
    counts[f"semiring.verdicts.{verdict}"] += 1


def _cone(counts, cone):
    counts["conjectures.cone.members"] += len(cone.members)
    counts["conjectures.cone.unknown"] += len(cone.unknown)


def install(sl) -> Tracer:
    """Wrap the entry points of every layer of the imported package ``sl``."""
    tracer = Tracer()
    modules = [sl, sl.polynomials, sl.groebner, sl.semiring, sl.abhyankar, sl.conjectures]
    functions = [
        (sl.groebner, "buchberger", _basis_done, _basis_cut),
        (sl.groebner, "ideal_membership", None, None),
        (sl.groebner, "subalgebra_membership", None, None),
        (sl.groebner, "relation_ideal", None, None),
        (sl.groebner, "normal_form", None, None),
        (sl.semiring, "congruence_close", None, None),
        (sl.semiring, "words_equivalent", _answered, None),
        (sl.semiring, "preorder_leq", None, None),
        (sl.semiring, "is_add_idempotent", None, None),
        (sl.semiring, "is_add_cancellative", None, None),
        (sl.abhyankar, "generator", None, None),
        (sl.abhyankar, "non_kernel_annihilator", _annihilator, None),
        (sl.abhyankar, "unit_ideal_witness", None, None),
        (sl.abhyankar, "fraction_field_witnesses", None, None),
        (sl.conjectures, "cone_enumerate", _cone, None),
        (sl.conjectures, "verify_conditions", None, None),
    ]
    wrapped = {}
    for module, attr, on_return, on_raise in functions:
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        wrapped[id(fn)] = (fn, tracer.span(name, fn, on_return, on_raise))
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])

    poly = sl.polynomials.Polynomial
    methods = [(poly, "__init__", None, None, True)]
    methods += [(poly, attr, None, None, False) for attr in _POLY_TIMED]
    methods += [
        (sl.groebner.GroebnerBasis, "normal_form", None, None, False),
        (sl.groebner.GroebnerBasis, "normal_form_with_quotients", None, None, False),
        (sl.abhyankar.AbhyankarContext, "build", _built, None, False),
        (sl.abhyankar.AbhyankarContext, "element", None, None, False),
        (sl.abhyankar.AbhyankarContext, "lift", _lifted, None, False),
        (sl.abhyankar.AbhyankarContext, "rational_image", None, None, False),
        (sl.conjectures.BoundedSubsetPredicate, "classify", None, None, False),
    ]
    for cls, attr, on_return, on_raise, count_only in methods:
        raw = cls.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        name = f"{cls.__name__}.{attr}"
        w = tracer.counter(name, fn) if count_only else tracer.span(name, fn, on_return, on_raise)
        if isinstance(raw, staticmethod):
            w = staticmethod(w)
        # aliases such as Polynomial.__rmul__ = __mul__ share the wrapper
        for alias, value in list(vars(cls).items()):
            if value is raw:
                setattr(cls, alias, w)
    return tracer


def _self(snap, *names) -> float:
    return sum(snap["self_s"].get(n, 0.0) for n in names)


def _calls(snap, name) -> int:
    return snap["calls"].get(name, 0)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced pass."""
    c = snap["counts"]
    s = lambda *names: (_self(snap, *names), "s")  # noqa: E731
    n = lambda value: (value, "count")  # noqa: E731
    lifts = _calls(snap, "AbhyankarContext.lift")
    return {
        "polynomials.constructed": n(c.get("Polynomial.__init__", 0)),
        "polynomials.self_s": s(*(f"Polynomial.{a}" for a in _POLY_TIMED)),
        "groebner.spairs_reduced": n(c.get("groebner.spairs_reduced", 0)),
        "groebner.basis_size": n(c.get("groebner.basis_size", 0)),
        "groebner.complete_ratio": (
            _ratio(c.get("groebner.complete", 0), c.get("groebner.bases", 0)), "ratio"),
        "groebner.buchberger.self_s": s("groebner.buchberger"),
        "groebner.normal_form.calls": n(_calls(snap, "GroebnerBasis.normal_form_with_quotients")),
        "groebner.normal_form.self_s": s(
            "groebner.normal_form", "GroebnerBasis.normal_form",
            "GroebnerBasis.normal_form_with_quotients"),
        "groebner.subalgebra_membership.self_s": s("groebner.subalgebra_membership"),
        "groebner.ideal_membership.self_s": s("groebner.ideal_membership"),
        "abhyankar.build.self_s": s("AbhyankarContext.build"),
        "abhyankar.relations": n(c.get("abhyankar.relations", 0)),
        "abhyankar.lift.calls": n(lifts),
        "abhyankar.lift.accepted_ratio": (_ratio(c.get("abhyankar.lift.accepted", 0), lifts), "ratio"),
        "abhyankar.annihilator.attempts": n(c.get("abhyankar.annihilator.attempts", 0)),
        "abhyankar.element.self_s": s("AbhyankarContext.element"),
        "semiring.rewrites": n(c.get("semiring.rewrites", 0)),
        "semiring.words_equivalent.self_s": s("semiring.words_equivalent"),
        "semiring.congruence_close.self_s": s("semiring.congruence_close"),
        "semiring.verdicts.yes": n(c.get("semiring.verdicts.yes", 0)),
        "semiring.verdicts.no_component": n(c.get("semiring.verdicts.no_component", 0)),
        "semiring.verdicts.no_evaluation": n(c.get("semiring.verdicts.no_evaluation", 0)),
        "semiring.verdicts.unknown": n(c.get("semiring.verdicts.unknown", 0)),
        "semiring.preorder_leq.calls": n(_calls(snap, "semiring.preorder_leq")),
        "semiring.preorder_leq.self_s": s("semiring.preorder_leq"),
        "conjectures.classify.calls": n(_calls(snap, "BoundedSubsetPredicate.classify")),
        "conjectures.classify.self_s": s("BoundedSubsetPredicate.classify"),
        "conjectures.cone.members": n(c.get("conjectures.cone.members", 0)),
        "conjectures.cone.unknown": n(c.get("conjectures.cone.unknown", 0)),
        "conjectures.verify_conditions.self_s": s("conjectures.verify_conditions"),
    }
