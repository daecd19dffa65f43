"""Command-line entry point.

Subcommands expose every layer: polynomial arithmetic (``poly``), ideal and
subalgebra queries (``groebner``), presented-semiring word problems
(``presentation``), the recurrence-subring verification pipeline
(``abhyankar``), exponent-cone checks (``cone``), and the published JSON
schema (``report-schema``).

Each handler returns one ``HandlerResult`` (verdicts, certificates, JSON
result, text lines), and ``main`` alone turns it into output: text mode
prints the lines, ``--json`` prints a schema-valid envelope (version
``semiring-lab/report-v1``) carrying the same verdicts.  Timing goes to
stderr in text mode so stdout stays deterministic.

Exit codes are a function of the verdicts alone: 0 when every verdict matches
the subcommand's expectation (query subcommands expect nothing and always
exit 0), 1 when a verification subcommand's verdict deviates or, under
``--strict``, when any verdict is unknown, and 2 for usage errors (such as
a budget flag the subcommand does not read; malformed input is reported with
its position), for inputs over a size limit checked before the work they
size starts, and for coefficients too long to print.

Budgets come from flags (``--deg``, ``--coeff``, ``--steps``, ``--box``,
``--k``) alone, with defaults deg 8, coeff 64, steps 50000, box 6, k 6;
each flag's type checks its range while the arguments are parsed.  Each
subcommand takes only the budget flags its handler reads: ``--deg --steps``
for a Groebner budget, ``--deg --coeff --steps`` for a semiring budget,
``--box`` for a cone scan and ``--k`` for a context; any other budget flag
is a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .abhyankar import (
    AbhyankarContext,
    NotInSubringError,
    UnverifiedContextError,
    _recurrence,
    generator,
    non_extendability_certificate,
)
from .conjectures import (
    RecurrenceCandidate,
    cone_enumerate,
    find_interior_u,
    purity_check,
    qf_from_cone,
    verify_conditions,
)
from .groebner import (
    BudgetExceededError,
    GroebnerBudget,
    MembershipStatus,
    MonomialOrder,
    buchberger,
    ideal_membership,
    relation_ideal,
    subalgebra_membership,
)
from .polynomials import (
    Domain,
    DomainError,
    Polynomial,
    format_coeff,
    format_poly,
    parse_poly,
    t_names,
    x_names,
)
from .semiring import (
    Budget,
    BudgetError,
    EvalHom,
    Presentation,
    Tri,
    congruence_close,
    find_L,
    is_add_cancellative,
    is_add_idempotent,
    preorder_leq,
    replay_trace,
    words_equivalent,
)

SCHEMA_ID = "semiring-lab/report-v1"

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "$id": SCHEMA_ID,
    "title": "semiring-lab run report",
    "type": "object",
    "required": [
        "schema",
        "command",
        "verdicts",
        "certificates",
        "timing_seconds",
        "budget_exhausted",
        "result",
    ],
    "properties": {
        "schema": {"const": SCHEMA_ID},
        "command": {"type": "array", "items": {"type": "string"}},
        "verdicts": {
            "type": "object",
            "additionalProperties": {"type": "string", "pattern": "^[a-z][a-z-]*$"},
        },
        "certificates": {"type": "array", "items": {"type": "string"}},
        "timing_seconds": {"type": "number", "minimum": 0},
        "budget_exhausted": {"type": "boolean"},
        "result": {"type": "object"},
    },
    "additionalProperties": False,
}

_DEFAULTS = {"deg": 8, "coeff": 64, "steps": 50_000, "box": 6, "k": 6}
_BUDGET_HELP = {
    "deg": "degree budget",
    "coeff": "coefficient budget",
    "steps": "step budget",
    "box": "cone box bound",
    "k": "truncation level",
}
# the budget flags of each kind, as _groebner_budget and _semiring_budget read them
_GROEBNER = ("deg", "steps")
_SEMIRING = ("deg", "coeff", "steps")


class UsageError(Exception):
    """Bad flags, malformed input, unreadable files: exit code 2."""


@dataclass(frozen=True)
class HandlerResult:
    """What one subcommand reports; ``main`` wraps it in the envelope.

    Every verdict but ``unknown`` needs a certificate, and ``unknown`` needs
    a reason or the budget flag."""

    verdicts: dict
    certificates: list
    result: dict
    display: list
    budget_exhausted: bool = False
    expected: dict | None = None

    def __post_init__(self):
        for name, verdict in self.verdicts.items():
            if verdict == "unknown":
                if not self.certificates and not self.budget_exhausted:
                    raise RuntimeError(
                        f"verdict {name} is unknown without a reason or budget flag"
                    )
            elif not self.certificates:
                raise RuntimeError(f"verdict {name} lacks a certificate")


def _groebner_budget(args) -> GroebnerBudget:
    return GroebnerBudget(max_degree=args.deg, max_steps=args.steps)


def _semiring_budget(args) -> Budget:
    return Budget(max_degree=args.deg, max_coeff=args.coeff, max_steps=args.steps)


def _computed(certificate: str, text: str) -> HandlerResult:
    """A computation whose one result is the printed ``text``."""
    return HandlerResult({"computation": "ok"}, [certificate], {"value": text}, [text])


def _unknown(name: str, reason: str, display: str) -> HandlerResult:
    """An undecided verdict ``name`` because a budget ran out."""
    return HandlerResult({name: "unknown"}, [reason], {}, [display], budget_exhausted=True)


# -- input parsing helpers --------------------------------------------------


def _parse_word(text: str, names, domain: Domain) -> Polynomial:
    try:
        return parse_poly(text, names, domain)
    except ValueError as exc:
        raise UsageError(f"cannot parse {text!r}: {exc}") from exc


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: not UTF-8 text ({exc})") from exc


def _read_poly_file(path: str, nvars: int, domain: Domain) -> list:
    polys = []
    for number, line in enumerate(_read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            polys.append(parse_poly(stripped, t_names(nvars), domain))
        except ValueError as exc:
            raise UsageError(f"{path}:{number}: {exc}") from exc
    if not polys:
        raise UsageError(f"{path} contains no polynomials")
    return polys


def _read_presentation(path: str | None, nvars: int) -> Presentation:
    if path is None:
        return Presentation.free(nvars)
    text = _read_text(path)
    try:
        return Presentation.from_text(nvars, text)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _parse_vector(text: str) -> tuple:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    try:
        return tuple(int(part.strip()) for part in body.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"cannot parse exponent vector {text!r}") from exc


def _parse_assignment(text: str) -> EvalHom:
    try:
        values = tuple(Fraction(part.strip()) for part in text.split(",") if part.strip())
        return EvalHom(values)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse assignment {text!r}: {exc}") from exc


def _cone_from_args(args):
    """The cone of the --assign evaluation or the --relations presentation."""
    if args.assign and args.relations:
        raise UsageError("supply only one of --assign and --relations")
    if args.assign:
        structure = _parse_assignment(args.assign)
    elif args.relations:
        structure = _read_presentation(args.relations, args.nvars)
    else:
        raise UsageError(
            "supply --assign for an evaluation target or --relations for a presentation"
        )
    return cone_enumerate(structure, args.box, _semiring_budget(args))


_DOMAINS = {"nat": Domain.NAT, "int": Domain.INT, "rat": Domain.RAT}
_OPERATIONS = {"add": ("+", operator.add), "sub": ("-", operator.sub), "mul": ("*", operator.mul)}

# `abhyankar generator --n 1000` takes about 0.6 s, and its coefficients (up
# to 2,565 digits) still print; `abhyankar nonext --nmax 100000` about 0.5 s.
# `abhyankar verify --evidence` runs the same recurrence, so it shares the
# generator limit; `abhyankar verify --k 100` takes about 0.7 s at --deg 8
_MAX_GENERATOR_INDEX = 1000
_MAX_NONEXT_LEVEL = 10**5
_MAX_TRUNCATION = 100

# the largest power `poly pow` builds and the largest expansion `abhyankar
# image` prints, predicted before either starts: a 10,000-term result takes
# about a second, and 10,000-bit coefficients still print
_MAX_EXPANSION_TERMS = 10**4
_MAX_EXPANSION_COEFF_BITS = 10**4

# condition c of `abhyankar verify` lifts c*(base + shift) for up to 104 pairs
# of a shift and a pool element c per base, and a search that finds nothing
# lifts them all: at the limits (eight terms of degree 16) a whole run takes
# about 0.9 s on a 2-vCPU Linux host, eight terms of degree 20 about 1.4 s,
# and the single term T1^60*T2^60 about 2.4 s
_MAX_BASE_DEGREE = 16
_MAX_BASE_TERMS = 8


def _check_expansion_size(what: str, terms: int, bits: int, lower: str) -> None:
    """Raise BudgetError when a predicted expansion could pass either size limit."""
    if terms > _MAX_EXPANSION_TERMS or bits > _MAX_EXPANSION_COEFF_BITS:
        def size(n: int) -> str:  # past 64 bits a power of two: str() refuses huge ints
            return f"{n:,}" if n.bit_length() <= 64 else f"~2^{n.bit_length() - 1}"

        raise BudgetError(
            f"{what} may have {size(terms)} terms and {size(bits)}-bit coefficients, over the "
            f"limit of {_MAX_EXPANSION_TERMS:,} terms or {_MAX_EXPANSION_COEFF_BITS:,} bits ({lower})"
        )


def _check_pow_size(a: Polynomial, exponent: int) -> None:
    """Raise BudgetError when a**exponent could pass either size limit: its
    terms are at most the fewer of the base's multinomial count and the
    monomials of the degree reached, and its coefficients (over the common
    denominator L of the base's) at most (L * sum |numerators|) ** exponent,
    whose bit length is bounded in integers, so no exponent overflows a float."""
    if a.is_zero:
        return
    coeffs = [Fraction(c) for _, c in a.terms()]
    terms = min(
        math.comb(len(coeffs) + exponent - 1, exponent),
        math.comb(a.nvars + a.total_degree() * exponent, a.nvars),
    )
    height = math.lcm(*(c.denominator for c in coeffs)) * sum(abs(c.numerator) for c in coeffs)
    bits = exponent * (height - 1).bit_length()
    _check_expansion_size(f"({format_poly(a)})^{exponent}", terms, bits, "lower the exponent")


def _check_image_size(rep: Polynomial, gens: tuple, names) -> None:
    """Raise BudgetError when the integer tag polynomial ``rep`` with the
    integer generators substituted could pass either size limit, predicted
    as for a power: a term c*X^e expands to at most prod_i
    multinomial(len(g_i), e_i) terms, the sum to at most the monomials of
    the largest degree sum_i e_i*deg(g_i) reached, and its coefficients to
    at most sum |c| * prod_i H_i**e_i, with H_i the sum of |coefficients| of
    g_i, all bounded in bit lengths."""
    heights = [(sum(abs(c) for _, c in g.terms()) - 1).bit_length() for g in gens]
    degree = count = bits = 0
    for e, c in rep.terms():
        degree = max(degree, sum(k * g.total_degree() for k, g in zip(e, gens)))
        count += math.prod(math.comb(len(g) + k - 1, k) for k, g in zip(e, gens))
        bits = max(bits, abs(c).bit_length() + sum(k * h for k, h in zip(e, heights)))
    nvars = gens[0].nvars
    terms = min(count, math.comb(nvars + degree, nvars))
    bits += (len(rep) - 1).bit_length()  # a sum of len(rep) such terms
    what = f"the expansion of {format_poly(rep, names)}"
    _check_expansion_size(what, terms, bits, "lower the exponents")


def _check_bases(bases: tuple) -> None:
    """Raise BudgetError when a condition-c base passes the degree limit, or
    the bases together pass the term limit."""
    for base in bases:
        if base.total_degree() > _MAX_BASE_DEGREE:
            raise BudgetError(
                f"--bases: {format_poly(base)} has degree {base.total_degree():,}, over the "
                f"limit of {_MAX_BASE_DEGREE} (lower the degree)"
            )
    terms = sum(map(len, bases))
    if terms > _MAX_BASE_TERMS:
        raise BudgetError(
            f"--bases: {terms:,} terms in all, over the limit of {_MAX_BASE_TERMS} "
            f"(fewer terms or bases)"
        )


# -- subcommand handlers ----------------------------------------------------


def _handle_poly(args) -> HandlerResult:
    domain = _DOMAINS[args.domain]
    names = t_names(args.nvars)
    a = _parse_word(args.a, names, domain)
    if args.op == "eval":
        try:
            point = [Fraction(part.strip()) for part in args.b.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"cannot parse point {args.b!r}: {exc}") from exc
        if len(point) != args.nvars:
            raise UsageError(f"point has {len(point)} coordinates, need {args.nvars}")
        text = format_coeff(a.evaluate(point))
        return _computed(f"({format_poly(a)}) at ({args.b}) = {text}", text)
    if args.op == "pow":
        try:
            exponent = int(args.b)
        except ValueError as exc:
            raise UsageError(f"exponent must be an integer, got {args.b!r}") from exc
        if exponent < 0:
            raise UsageError("exponent must be nonnegative")
        _check_pow_size(a, exponent)
        try:
            text = format_poly(a**exponent)
        except DomainError as exc:
            raise UsageError(str(exc)) from exc
        return _computed(f"({format_poly(a)})^{exponent} = {text}", text)
    b = _parse_word(args.b, names, domain)
    symbol, operation = _OPERATIONS[args.op]
    try:
        text = format_poly(operation(a, b))
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    return _computed(f"({format_poly(a)}) {symbol} ({format_poly(b)}) = {text}", text)


def _handle_groebner_basis(args) -> HandlerResult:
    gens = _read_poly_file(args.ideal, args.nvars, Domain.RAT)
    try:
        gb = buchberger(gens, MonomialOrder(args.order), _groebner_budget(args))
        complete = True
    except BudgetExceededError as exc:
        gb = exc.partial
        complete = False
    basis_text = [format_poly(g) for g in gb.generators]
    verdict = "complete" if complete else "partial"
    cert = (
        [f"reduced basis with {len(basis_text)} elements; every S-polynomial reduces to 0"]
        if complete
        else [f"budget exhausted after {gb.steps_used} reductions; partial basis returned"]
    )
    return HandlerResult(
        {"basis": verdict},
        cert,
        {"basis": basis_text, "steps_used": gb.steps_used},
        basis_text,
        budget_exhausted=not complete,
    )


def _handle_groebner_member(args) -> HandlerResult:
    gens = _read_poly_file(args.ideal, args.nvars, Domain.RAT)
    target = _parse_word(args.poly, t_names(args.nvars), Domain.RAT)
    cert = ideal_membership(target, gens, budget=_groebner_budget(args))
    if cert.status is MembershipStatus.MEMBER:
        combo = " + ".join(
            f"({format_poly(c)})*({format_poly(g)})"
            for c, g in zip(cert.cofactors, gens)
        )
        lines = [f"{format_poly(target)} = {combo}"]
        return HandlerResult(
            {"membership": "member"},
            lines,
            {"cofactors": [format_poly(c) for c in cert.cofactors]},
            [f"member: {lines[0]}"],
        )
    if cert.status is MembershipStatus.NON_MEMBER:
        lines = ["normal form against the complete reduced basis is nonzero"]
        return HandlerResult(
            {"membership": "non-member"}, lines, {}, ["non-member"]
        )
    return _unknown(
        "membership",
        "budget exhausted before the basis was complete",
        "unknown (budget exhausted)",
    )


def _handle_groebner_relations(args) -> HandlerResult:
    gens = _read_poly_file(args.gens, args.nvars, Domain.INT)
    result = relation_ideal(gens, _groebner_budget(args))
    names = x_names(len(gens) + 1)
    lines = [format_poly(r, names) for r in result.relations]
    verdict = "complete" if result.complete else "partial"
    cert = [
        f"{len(lines)} relation generators among the {len(gens)} inputs "
        f"({verdict} within budget)"
    ]
    return HandlerResult(
        {"relations": verdict},
        cert,
        {"relations": lines},
        lines if lines else ["(no relations)"],
        budget_exhausted=not result.complete,
    )


def _handle_groebner_submember(args) -> HandlerResult:
    gens = _read_poly_file(args.gens, args.nvars, Domain.INT)
    target = _parse_word(args.poly, t_names(args.nvars), Domain.RAT)
    cert = subalgebra_membership(target, gens, _groebner_budget(args))
    names = x_names(len(gens) + 1)
    if cert.status is MembershipStatus.MEMBER:
        rep = format_poly(cert.representation, names)
        lines = [
            f"{format_poly(target)} = {rep} in the generators",
            f"integer coefficients: {'yes' if cert.integral else 'no'}",
        ]
        return HandlerResult(
            {"membership": "member"},
            lines,
            {"representation": rep, "integral": cert.integral},
            [f"member: {rep}"],
        )
    if cert.status is MembershipStatus.NON_MEMBER:
        lines = ["tag-elimination normal form keeps ambient variables"]
        return HandlerResult({"membership": "non-member"}, lines, {}, ["non-member"])
    return _unknown(
        "membership",
        "budget exhausted before the elimination basis was complete",
        "unknown (budget exhausted)",
    )


def _render_trace(trace, pres: Presentation) -> list:
    lines = []
    for step in trace:
        direction = "forward" if step.forward else "backward"
        shift = "*".join(
            f"T{i + 1}^{e}" for i, e in enumerate(step.shift) if e
        ) or "1"
        lines.append(
            f"apply relation {step.rel_index + 1} {direction}, multiplier "
            f"{step.mult}*{shift}"
        )
    return lines


def _tri_handler(name: str, answer, pres, lhs=None) -> HandlerResult:
    """Verdict ``name`` of an equivalence answer: a replayed derivation, a
    separator, or unknown."""
    verdict = answer.verdict.value
    if answer.verdict is Tri.YES and answer.trace is not None:
        cert = _render_trace(answer.trace, pres)
        if lhs is not None:
            replay_trace(lhs, answer.trace, pres)
        if not cert:
            cert = ["words are identical; empty derivation"]
        return HandlerResult(
            {name: verdict}, cert, {"trace_length": len(answer.trace)}, [f"yes ({len(answer.trace)} steps)"]
        )
    if answer.verdict is Tri.NO and answer.separator is not None:
        sep = answer.separator
        if sep.kind == "exhausted-component":
            cert = [
                f"separating invariant: a fully explored congruence component "
                f"of size {sep.component_size} contains one word but not the other"
            ]
        else:
            cert = [
                f"separating evaluation at {tuple(str(v) for v in sep.assignment)} "
                f"gives values {tuple(str(v) for v in sep.values)}"
            ]
        return HandlerResult({name: verdict}, cert, {"separator": sep.kind}, ["no"])
    return _unknown(name, "budget exhausted before a derivation or separator appeared", "unknown")


def _handle_presentation_equal(args) -> HandlerResult:
    pres = _read_presentation(args.relations, args.nvars)
    lhs = _parse_word(args.a, t_names(args.nvars), Domain.NAT)
    rhs = _parse_word(args.b, t_names(args.nvars), Domain.NAT)
    cc = congruence_close(pres, _semiring_budget(args))
    return _tri_handler("equivalent", words_equivalent(lhs, rhs, cc), pres, lhs)


def _handle_presentation_idempotent(args) -> HandlerResult:
    pres = _read_presentation(args.relations, args.nvars)
    answer = is_add_idempotent(pres, _semiring_budget(args))
    return _tri_handler("idempotent", answer, pres, pres.one + pres.one)


def _handle_presentation_cancellative(args) -> HandlerResult:
    pres = _read_presentation(args.relations, args.nvars)
    report = is_add_cancellative(pres, _semiring_budget(args))
    verdict = report.verdict.value
    if report.verdict is Tri.NO and report.witness is not None:
        a, b, c = report.witness
        cert = [
            f"witness: a = {format_poly(a)}, b = {format_poly(b)}, "
            f"c = {format_poly(c)}; a + c ~ b + c holds but a ~ b is refuted"
        ]
        return HandlerResult(
            {"cancellative": verdict},
            cert,
            {"witness": [format_poly(p) for p in (a, b, c)]},
            [f"no ({cert[0]})"],
        )
    cert = [report.reason] if report.reason else []
    return HandlerResult(
        {"cancellative": verdict},
        cert,
        {},
        [verdict],
        budget_exhausted=(report.verdict is Tri.UNKNOWN),
    )


def _handle_presentation_find_l(args) -> HandlerResult:
    pres = _read_presentation(args.relations, args.nvars)
    members = find_L(pres, _semiring_budget(args))
    lines = [format_poly(m, t_names(args.nvars)) for m in members]
    cert = [
        f"{len(lines)} one-absorbing words found in the search box "
        f"(each l satisfies l + 1 ~ l within budget)"
    ]
    return HandlerResult(
        {"search": "ok"},
        cert,
        {"members": lines},
        lines if lines else ["(none found)"],
    )


def _handle_presentation_preorder(args) -> HandlerResult:
    pres = _read_presentation(args.relations, args.nvars)
    a = _parse_word(args.a, t_names(args.nvars), Domain.NAT)
    b = _parse_word(args.b, t_names(args.nvars), Domain.NAT)
    answer = preorder_leq(a, b, pres, _semiring_budget(args))
    verdict = answer.verdict.value
    if answer.verdict is Tri.YES:
        cert = [f"difference witness c = {format_poly(answer.witness)}"]
        return HandlerResult(
            {"leq": verdict}, cert, {"witness": format_poly(answer.witness)}, ["yes"]
        )
    if answer.verdict is Tri.NO:
        cert = ["the bound's component is fully explored and never dominates"]
        return HandlerResult({"leq": verdict}, cert, {}, ["no"])
    return _unknown("leq", "budget exhausted", "unknown")


def _handle_abhyankar_verify(args) -> HandlerResult:
    bases = tuple(
        _parse_word(text, t_names(2), Domain.NAT)
        for text in (args.bases.split(";") if args.bases else ["T1*T2"])
        if text.strip()
    )
    _check_bases(bases)
    ctx = AbhyankarContext.build(args.k, _groebner_budget(args))
    report = verify_conditions(RecurrenceCandidate(ctx, bases), evidence_bound=args.evidence)
    verdicts = {
        letter: verdict.status.value for letter, verdict in report.as_mapping().items()
    }
    certificates = []
    for letter, verdict in report.as_mapping().items():
        certificates.extend(f"{letter}: {line}" for line in verdict.certificate)
    display = list(report.summary_lines())
    return HandlerResult(
        verdicts,
        certificates,
        report.to_dict(),
        display,
        budget_exhausted=any(v == "unknown" for v in verdicts.values()),
        expected={"a": "holds", "b": "holds", "c": "fails", "d": "holds"},
    )


def _handle_abhyankar_nonext(args) -> HandlerResult:
    if args.nmax < 2:
        raise UsageError(f"--nmax must be at least 2, got {args.nmax}")
    if args.nmax > _MAX_NONEXT_LEVEL:
        raise BudgetError(
            f"--nmax {args.nmax:,} levels exceed the limit of {_MAX_NONEXT_LEVEL:,} (lower --nmax)"
        )
    cert = non_extendability_certificate(args.nmax)
    verdict = "holds" if cert.holds else "fails"
    lines = list(cert.derivation)
    for row in cert.rows:
        lines.append(
            f"level {row.n}: coefficient {row.coefficient}, required value "
            f"{row.required_value} -- contradiction"
        )
    return HandlerResult(
        {"non-extendability": verdict},
        lines,
        {
            "first_level": cert.first_n,
            "levels": [row.n for row in cert.rows],
        },
        lines,
        expected={"non-extendability": "holds"},
    )


def _handle_abhyankar_generator(args) -> HandlerResult:
    if args.n < 2:
        raise UsageError(f"--n must be at least 2, got {args.n}")
    if args.n > _MAX_GENERATOR_INDEX:
        raise BudgetError(
            f"generator {args.n:,} is over the limit of {_MAX_GENERATOR_INDEX:,} (lower --n)"
        )
    text = format_poly(generator(args.n))
    return _computed(f"generator {args.n} = {text}", text)


def _handle_abhyankar_image(args) -> HandlerResult:
    names = x_names(args.k)
    rep = _parse_word(args.rep, names, Domain.INT)
    _check_image_size(rep, tuple(_recurrence(args.k)), names)
    ctx = AbhyankarContext.build(args.k, _groebner_budget(args))
    try:
        element = ctx.element(rep)
        value = element.rational_image
    except UnverifiedContextError as exc:
        return _unknown("image", str(exc), f"unknown: {exc}")
    text = format_coeff(value)
    cert = [
        f"representation {format_poly(rep, names)} expands to "
        f"{format_poly(element.ambient)}",
        f"image at (1/2..1/{args.k}) = {text}",
    ]
    return HandlerResult(
        {"image": "ok"}, cert, {"value": text, "kernel": value == 0}, [text]
    )


def _handle_cone_enumerate(args) -> HandlerResult:
    cone = _cone_from_args(args)
    members = [list(u) for u in cone.sorted_members()]
    verdict = "complete" if not cone.unknown else "partial"
    cert = [
        f"{len(members)} members in the box [0, {args.box}]^{cone.nvars}; "
        f"{len(cone.unknown)} undecided"
    ]
    display = [str(tuple(u)) for u in cone.sorted_members()]
    return HandlerResult(
        {"cone": verdict},
        cert,
        {"members": members, "unknown": [list(u) for u in cone.unknown]},
        display if display else ["(empty)"],
        budget_exhausted=bool(cone.unknown),
    )


def _handle_cone_purity(args) -> HandlerResult:
    gens = [_parse_vector(chunk) for chunk in args.gens.split(";") if chunk.strip()]
    try:
        result = purity_check(gens, args.box)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if result.pure:
        cert = [
            f"all {len(result.members)} members divide down inside the "
            f"generated set"
        ]
        return HandlerResult({"purity": "pure"}, cert, {}, ["pure"])
    a, k, quotient = result.witness
    cert = [
        f"witness: {tuple(a)} is generated, {tuple(a)}/{k} = {tuple(quotient)} "
        f"is integral but not generated"
    ]
    return HandlerResult(
        {"purity": "impure"},
        cert,
        {"witness": {"member": list(a), "divisor": k, "quotient": list(quotient)}},
        [f"impure ({cert[0]})"],
    )


def _handle_cone_interior(args) -> HandlerResult:
    cone = _cone_from_args(args)
    u = find_interior_u(cone)
    if u is None:
        return HandlerResult(
            {"interior": "not-found"},
            [f"no member has all unit shifts inside the cone (box {args.box})"],
            {},
            ["not-found"],
            budget_exhausted=bool(cone.unknown),
        )
    cert = [f"u = {tuple(u)}; every u + e_i is a cone member"]
    return HandlerResult({"interior": "found"}, cert, {"u": list(u)}, [str(tuple(u))])


def _handle_cone_qf(args) -> HandlerResult:
    cone = _cone_from_args(args)
    witnesses = qf_from_cone(cone)
    if witnesses is None:
        return HandlerResult(
            {"fractions": "not-found"},
            ["no interior point within the box"],
            {},
            ["not-found"],
            budget_exhausted=bool(cone.unknown),
        )
    cert = [
        f"T{w.variable_index + 1} = T^{tuple(w.numerator_exp)} / T^{tuple(w.denominator_exp)}; "
        "both exponents are cone members"
        for w in witnesses
    ] or ["no ambient variable to write as a fraction"]
    rows = [
        {
            "variable": w.variable_index + 1,
            "numerator": list(w.numerator_exp),
            "denominator": list(w.denominator_exp),
        }
        for w in witnesses
    ]
    return HandlerResult({"fractions": "found"}, cert, {"witnesses": rows}, cert)


def _handle_report_schema(args) -> HandlerResult:
    text = json.dumps(REPORT_SCHEMA, indent=2, sort_keys=True)
    return HandlerResult(
        {"schema": "ok"}, [f"schema id {SCHEMA_ID}"], {"value": REPORT_SCHEMA}, [text]
    )


# -- argument parser --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse errors through our exit path
        raise UsageError(message)


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _nvars(text: str) -> int:
    """The type of every --nvars flag: a nonnegative integer."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _budget_type(key: str):
    """The type of budget flag --key: an integer in the flag's range."""

    def parse(text: str) -> int:
        value = _int(text)
        if key == "box":
            if value < 0:
                raise UsageError(f"--box must be nonnegative, got {value}")
        elif value <= 0:
            raise UsageError(f"budget --{key} must be positive, got {value}")
        elif key == "k" and value < 2:
            raise UsageError(f"--k must be at least 2, got {value}")
        elif key == "k" and value > _MAX_TRUNCATION:
            raise UsageError(
                f"--k {value:,} is over the limit of {_MAX_TRUNCATION:,} (lower --k)"
            )
        return value

    return parse


def _evidence(text: str) -> int:
    """The type of --evidence: an integer up to the generator limit."""
    value = _int(text)
    if value > _MAX_GENERATOR_INDEX:
        raise UsageError(
            f"--evidence {value:,} is over the limit of {_MAX_GENERATOR_INDEX:,} (lower --evidence)"
        )
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="semiring-lab", description=__doc__.split("\n\n")[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the JSON report")
    common.add_argument(
        "--strict", action="store_true", help="treat unknown verdicts as failures"
    )

    def leaf(sub, name, handler, budgets=(), **kwargs):
        """A subcommand taking the common flags and the budget flags it reads."""
        p = sub.add_parser(name, parents=[common], **kwargs)
        for key in budgets:
            p.add_argument(
                f"--{key}", type=_budget_type(key), default=_DEFAULTS[key], help=_BUDGET_HELP[key]
            )
        p.set_defaults(handler=handler)
        return p

    sub = parser.add_subparsers(dest="subcommand", required=True)

    poly = leaf(sub, "poly", _handle_poly, help="polynomial arithmetic")
    poly.add_argument("op", choices=["add", "sub", "mul", "pow", "eval"])
    poly.add_argument("a")
    poly.add_argument("b")
    poly.add_argument("--nvars", type=_nvars, default=2)
    poly.add_argument("--domain", choices=sorted(_DOMAINS), default="int")

    groebner = sub.add_parser("groebner", help="ideal and subalgebra queries")
    gsub = groebner.add_subparsers(dest="gop", required=True)
    basis = leaf(gsub, "basis", _handle_groebner_basis, _GROEBNER)
    basis.add_argument("--ideal", required=True, help="file with one polynomial per line")
    basis.add_argument("--nvars", type=_nvars, default=2)
    basis.add_argument("--order", choices=["grlex", "lex"], default="grlex")
    member = leaf(gsub, "member", _handle_groebner_member, _GROEBNER)
    member.add_argument("--ideal", required=True)
    member.add_argument("--poly", required=True)
    member.add_argument("--nvars", type=_nvars, default=2)
    relations = leaf(gsub, "relations", _handle_groebner_relations, _GROEBNER)
    relations.add_argument("--gens", required=True)
    relations.add_argument("--nvars", type=_nvars, default=2)
    submember = leaf(gsub, "submember", _handle_groebner_submember, _GROEBNER)
    submember.add_argument("--gens", required=True)
    submember.add_argument("--poly", required=True)
    submember.add_argument("--nvars", type=_nvars, default=2)

    presentation = sub.add_parser("presentation", help="presented-semiring queries")
    psub = presentation.add_subparsers(dest="pop", required=True)
    for name, handler, extra in (
        ("equal", _handle_presentation_equal, ("a", "b")),
        ("idempotent", _handle_presentation_idempotent, ()),
        ("cancellative", _handle_presentation_cancellative, ()),
        ("find-l", _handle_presentation_find_l, ()),
    ):
        p = leaf(psub, name, handler, _SEMIRING)
        p.add_argument("--relations", default=None, help="file of lhs = rhs lines (omit for the free semiring)")
        p.add_argument("--nvars", type=_nvars, default=1)
        for positional in extra:
            p.add_argument(positional)
    preorder = leaf(psub, "preorder", _handle_presentation_preorder, _SEMIRING)
    preorder.add_argument("--relations", default=None)
    preorder.add_argument("--nvars", type=_nvars, default=1)
    preorder.add_argument("--a", required=True)
    preorder.add_argument("--b", required=True)

    abhyankar = sub.add_parser("abhyankar", help="recurrence-subring pipeline")
    asub = abhyankar.add_subparsers(dest="aop", required=True)
    verify = leaf(asub, "verify", _handle_abhyankar_verify, ("k", *_GROEBNER))
    verify.add_argument("--bases", default=None, help="semicolon-separated base elements for condition c")
    verify.add_argument("--evidence", type=_evidence, default=20, help="preimage evidence bound for condition d")
    nonext = leaf(asub, "nonext", _handle_abhyankar_nonext)
    nonext.add_argument("--nmax", type=int, default=2)
    gen = leaf(asub, "generator", _handle_abhyankar_generator)
    gen.add_argument("--n", type=int, required=True)
    image = leaf(asub, "image", _handle_abhyankar_image, ("k", *_GROEBNER))
    image.add_argument("--rep", required=True, help="integer polynomial in X2..Xk")

    cone = sub.add_parser("cone", help="exponent-cone checks")
    csub = cone.add_subparsers(dest="cop", required=True)
    # a --relations target reads the semiring budget, and argparse cannot
    # tell it from an --assign target, so every target scan takes it
    for name, handler in (
        ("enumerate", _handle_cone_enumerate),
        ("interior", _handle_cone_interior),
        ("qf", _handle_cone_qf),
    ):
        p = leaf(csub, name, handler, ("box", *_SEMIRING))
        p.add_argument("--assign", default=None, help="comma-separated positive rationals")
        p.add_argument("--relations", default=None)
        p.add_argument("--nvars", type=_nvars, default=1)
    purity = leaf(csub, "purity", _handle_cone_purity, ("box",))
    purity.add_argument("--gens", required=True, help='vectors like "(2,0);(0,1)"')

    leaf(sub, "report-schema", _handle_report_schema, help="print the JSON report schema")
    return parser


def _exit_code(verdicts: dict, expected: dict | None, strict: bool) -> int:
    for name, verdict in sorted(verdicts.items()):
        if verdict == "unknown":
            if strict:
                return 1
        elif expected is not None and name in expected and expected[name] != verdict:
            return 1
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
        start = time.perf_counter()
        outcome: HandlerResult = args.handler(args)
        elapsed = round(time.perf_counter() - start, 6)
    except (UsageError, BudgetError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotInSubringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        envelope = {
            "schema": SCHEMA_ID,
            "command": argv,
            "verdicts": outcome.verdicts,
            "certificates": outcome.certificates,
            "timing_seconds": elapsed,
            "budget_exhausted": outcome.budget_exhausted,
            "result": outcome.result,
        }
        print(json.dumps(envelope, indent=2, sort_keys=True))
    else:
        for line in outcome.display:
            print(line)
        print(f"timing: {elapsed}s", file=sys.stderr)
    return _exit_code(outcome.verdicts, outcome.expected, args.strict)


if __name__ == "__main__":
    sys.exit(main())
