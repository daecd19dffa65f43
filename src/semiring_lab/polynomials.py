"""Exact sparse multivariate polynomials over N, Z and Q.

A polynomial is a finite map from exponent tuples to nonzero coefficients,
tagged with one of three coefficient domains:

  * ``Domain.NAT`` -- natural numbers (0 included), the semiring N[T1..Tn]
  * ``Domain.INT`` -- integers, the ring Z[T1..Tn]
  * ``Domain.RAT`` -- rationals, the ring Q[T1..Tn]

All coefficients are exact: ``int`` for NAT/INT, ``fractions.Fraction``
(automatically in lowest terms, positive denominator) for RAT.  There is no
floating point anywhere; equality of polynomials is exact term-map equality.
The zero polynomial is the empty term map in every domain.

Conventions: ambient variables are named T1..Tn, tag variables X2..Xk
(tag variables label subring generators, whose numbering starts at 2).
The text format round-trips: ``parse_poly(format_poly(p), names, p.domain)``
returns ``p`` for every polynomial.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

Exponent = tuple[int, ...]
_Form = tuple[dict, int]  # integer form: integer terms over a positive denominator


class DomainError(ValueError):
    """Coefficient domain violated or mixed between operands."""


class ArityError(ValueError):
    """Variable counts of the operands do not match."""


class ZeroPolynomialError(ValueError):
    """Operation undefined on the zero polynomial."""


class ParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Domain(Enum):
    NAT = "natural"
    INT = "integer"
    RAT = "rational"

    def coerce(self, value: int | Fraction) -> int | Fraction:
        """Validate and normalize a scalar for this domain."""
        if type(value) is int:
            if self is Domain.RAT:
                return Fraction(value)
            if self is Domain.NAT and value < 0:
                raise DomainError(f"negative coefficient {value} not allowed in natural-number domain")
            return value
        if self is Domain.RAT:
            return Fraction(value)
        frac = Fraction(value)
        if frac.denominator != 1:
            raise DomainError(f"{value!r} is not an integer, cannot live in {self.value} coefficients")
        n = int(frac)
        if self is Domain.NAT and n < 0:
            raise DomainError(f"negative coefficient {n} not allowed in natural-number domain")
        return n


def mono_mul(u: Exponent, v: Exponent) -> Exponent:
    return tuple(a + b for a, b in zip(u, v))


def mono_div(u: Exponent, v: Exponent) -> Exponent | None:
    """u / v, or None when v does not divide u."""
    out = []
    for a, b in zip(u, v):
        if a < b:
            return None
        out.append(a - b)
    return tuple(out)


def mono_deg(u: Exponent) -> int:
    return sum(u)


def _integral(terms: dict) -> tuple[dict, int]:
    """Rational ``terms`` as integer terms over the lcm of their denominators."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {u: c.numerator * (den // c.denominator) for u, c in terms.items()}, den


def _sum_of_products(pairs: Iterable[tuple[_Form, _Form]]) -> _Form:
    """The sum of a_i * b_i over integer forms, as one integer form.

    An integer form ``(terms, den)`` is the polynomial terms/den.  The
    result's denominator D is the lcm of the products' denominators.  Each
    a_i term, scaled by D / (den(a_i) * den(b_i)), is multiplied by each b_i
    term into one dict, in place: no intermediate sum is built, and a
    coefficient that cancels to zero is dropped.  This is the package's one
    product loop on exponent tuples; the Groebner layer multiplies packed
    monomials instead.  The operands are only read.
    """
    pairs = list(pairs)
    den = lcm(*(da * db for (_, da), (_, db) in pairs))
    out: dict[Exponent, int] = {}
    for (p, dp), (q, dq) in pairs:
        f = den // (dp * dq)
        for u, a in p.items():
            if f != 1:
                a *= f
            for v, b in q.items():
                w = tuple(map(add, u, v))
                s = out.get(w, 0) + a * b
                if s:
                    out[w] = s
                else:
                    del out[w]
    return out, den


def _substitute(
    terms: Iterable[tuple[Exponent, int | Fraction]], forms: Sequence[_Form], nvars: int
) -> _Form:
    """The integer form of sum c * prod forms[i]^e_i over ``terms`` (pairs
    (e, c), c an int or a Fraction), in ``nvars`` variables.

    One :func:`_sum_of_products`: each power of a form that a term uses is
    made once per call, by squaring, and each term contributes the pair (c
    times all its powers but the last, the last power).
    """
    powers: list[dict[int, _Form]] = [{1: f} for f in forms]

    def power(i: int, e: int) -> _Form:
        cache = powers[i]
        if e not in cache:
            half = power(i, e >> 1)
            square = _sum_of_products([(half, half)])
            cache[e] = _sum_of_products([(square, forms[i])]) if e & 1 else square
        return cache[e]

    const = (0,) * nvars
    pairs = []
    for exp, c in terms:
        *factors, last = [power(i, e) for i, e in enumerate(exp) if e] or [({const: 1}, 1)]
        head = ({const: c.numerator}, c.denominator)
        for f in factors:
            head = _sum_of_products([(head, f)])
        pairs.append((head, last))
    return _sum_of_products(pairs)


def _form(p: Polynomial) -> _Form:
    """``p`` as an integer form; off Q it shares p's dict over denominator 1."""
    return _integral(p._terms) if p.domain is Domain.RAT else (p._terms, 1)


def _from_form(nvars: int, domain: Domain, form: _Form) -> Polynomial:
    """The polynomial of a fresh integer form whose value fits ``domain``;
    takes the dict over, like :meth:`Polynomial._raw`."""
    terms, den = form
    if domain is Domain.RAT:
        terms = {u: Fraction(c, den) for u, c in terms.items()}
    return Polynomial._raw(nvars, domain, terms)


@dataclass(frozen=True)
class MonomialOrder:
    """A total, multiplicative, well-founded order on exponent tuples.

    ``kind`` is one of ``lex``, ``grlex`` or ``elim``; an elimination order
    carries the split index: variables [0, split) form the dominating first
    block, so any monomial containing a first-block variable exceeds every
    monomial supported on the second block alone.
    """

    kind: str
    split: int | None = None

    def key(self, u: Exponent):
        """Sort key; larger key means larger monomial."""
        if self.kind == "lex":
            return u
        if self.kind == "grlex":
            return (mono_deg(u), u)
        head, tail = u[: self.split], u[self.split :]
        return (mono_deg(head), head, mono_deg(tail), tail)


LEX = MonomialOrder("lex")
GRLEX = MonomialOrder("grlex")


def elimination(split: int) -> MonomialOrder:
    """Block order eliminating the first ``split`` variables."""
    if split < 1:
        raise ValueError("elimination split must be >= 1")
    return MonomialOrder("elim", split)


class Polynomial:
    """Immutable sparse polynomial; zero coefficients are never stored.

    ``Polynomial(nvars, domain, terms)`` validates every exponent and
    coefficient.  ``Polynomial._raw(nvars, domain, store)`` skips that: only
    code that computed ``store`` from already-validated polynomials of the
    same ring may call it, and only with a fresh dict of exponent tuples of
    length ``nvars`` to nonzero coefficients of the domain's type (``int``,
    nonnegative in NAT; ``Fraction`` in RAT).  The dict is taken over, not
    copied, so the caller must not touch it afterwards.
    """

    __slots__ = ("nvars", "domain", "_terms", "_hash")

    def __init__(self, nvars: int, domain: Domain, terms: Mapping[Exponent, int | Fraction] | Iterable[tuple[Exponent, int | Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        store: dict[Exponent, int | Fraction] = {}
        for exp, coeff in items:
            exp = tuple(exp)
            if len(exp) != nvars:
                raise ArityError(f"exponent {exp} has length {len(exp)}, expected {nvars}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = domain.coerce(coeff)
            if c != 0:
                store[exp] = store.get(exp, 0) + c if exp in store else c
                if store[exp] == 0:
                    del store[exp]
        self.nvars = nvars
        self.domain = domain
        self._terms = store
        self._hash = None

    @classmethod
    def _raw(cls, nvars: int, domain: Domain, store: dict[Exponent, int | Fraction]) -> Polynomial:
        """Trusted constructor: takes over ``store`` without validation."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.domain = domain
        p._terms = store
        p._hash = None
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int, domain: Domain) -> Polynomial:
        return Polynomial(nvars, domain)

    @staticmethod
    def constant(nvars: int, value: int | Fraction, domain: Domain) -> Polynomial:
        return Polynomial(nvars, domain, {(0,) * nvars: value})

    @staticmethod
    def one(nvars: int, domain: Domain) -> Polynomial:
        return Polynomial.constant(nvars, 1, domain)

    @staticmethod
    def variable(nvars: int, index: int, domain: Domain) -> Polynomial:
        if not 0 <= index < nvars:
            raise ArityError(f"variable index {index} out of range for {nvars} variables")
        exp = [0] * nvars
        exp[index] = 1
        return Polynomial(nvars, domain, {tuple(exp): 1})

    @staticmethod
    def monomial(exp: Exponent, coeff: int | Fraction, domain: Domain) -> Polynomial:
        return Polynomial(len(exp), domain, {tuple(exp): coeff})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficient(self, exp: Exponent) -> int | Fraction:
        return self._terms.get(tuple(exp), 0)

    def terms(self) -> Iterator[tuple[Exponent, int | Fraction]]:
        """Terms sorted by graded-lex descending (canonical iteration order)."""
        yield from sorted(self._terms.items(), key=lambda t: GRLEX.key(t[0]), reverse=True)

    def support(self) -> set[Exponent]:
        return set(self._terms)

    def total_degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((mono_deg(u) for u in self._terms), default=0)

    def max_coeff_abs(self) -> int | Fraction:
        return max((abs(c) for c in self._terms.values()), default=0)

    def leading_term(self, order: MonomialOrder) -> tuple[Exponent, int | Fraction]:
        """Maximal term under ``order``; raises on the zero polynomial."""
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no leading term")
        exp = max(self._terms, key=order.key)
        return exp, self._terms[exp]

    def sort_key(self):
        """Canonical comparison key (used for deterministic orderings)."""
        return (self.total_degree(), len(self._terms), tuple(sorted(self._terms.items(), key=lambda t: GRLEX.key(t[0]), reverse=True)))

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: Polynomial) -> None:
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if self.nvars != other.nvars:
            raise ArityError(f"variable counts differ: {self.nvars} vs {other.nvars}")
        if self.domain is not other.domain:
            raise DomainError(f"coefficient domains differ: {self.domain.value} vs {other.domain.value}")

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check_compatible(other)
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            s = out.get(exp, 0) + coeff
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
        return Polynomial._raw(self.nvars, self.domain, out)

    def __neg__(self) -> Polynomial:
        if self.domain is Domain.NAT:
            if self.is_zero:
                return self
            raise DomainError("negation is not defined in the natural-number domain")
        return Polynomial._raw(self.nvars, self.domain, {u: -c for u, c in self._terms.items()})

    def __sub__(self, other: Polynomial) -> Polynomial:
        self._check_compatible(other)
        if self.domain is Domain.NAT:
            diff = self.checked_sub(other)
            if diff is None:
                raise DomainError("subtraction leaves the natural-number domain")
            return diff
        return self + (-other)

    def checked_sub(self, other: Polynomial) -> Polynomial | None:
        """Termwise self - other, or None if any coefficient would go negative.

        This is the subtraction available inside N[T]: defined exactly when
        other <= self termwise.
        """
        self._check_compatible(other)
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            s = out.get(exp, 0) - coeff
            if s < 0:
                return None
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
        return Polynomial._raw(self.nvars, self.domain, out)

    def __mul__(self, other: Polynomial | int | Fraction) -> Polynomial:
        """Product; a scalar operand scales.

        The product is :func:`_sum_of_products` of the one pair of integer
        forms: over Q each operand is taken as its integer numerators over
        the lcm of its denominators, dp and dq, and each nonzero coefficient
        of the integer product becomes a ``Fraction`` over dp*dq once, at the
        end.  A sum cancels exactly when its ``Fraction`` counterpart does,
        so the terms, and their order, are those of the same loop run on the
        ``Fraction``s.
        """
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        return _from_form(self.nvars, self.domain, _sum_of_products([(_form(self), _form(other))]))

    __rmul__ = __mul__

    def scale(self, c: int | Fraction) -> Polynomial:
        c = self.domain.coerce(c)
        if c == 0:
            return Polynomial.zero(self.nvars, self.domain)
        return Polynomial._raw(self.nvars, self.domain, {u: a * c for u, a in self._terms.items()})

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.one(self.nvars, self.domain)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.domain is other.domain and self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            # the domain is left out (equality still checks it): Enum.__hash__ runs in Python
            h = hash((self.nvars, frozenset(self._terms.items())))
            self._hash = h
        return h

    # -- evaluation and substitution --------------------------------------

    def evaluate(self, point: Sequence[int | Fraction]) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.nvars:
            raise ArityError(f"point has {len(point)} coordinates, expected {self.nvars}")
        vals = [Fraction(v) for v in point]
        total = Fraction(0)
        for exp, coeff in self._terms.items():
            term = Fraction(coeff)
            for e, v in zip(exp, vals):
                if e:
                    term *= v**e
            total += term
        return total

    def substitute(self, images: Sequence[Polynomial]) -> Polynomial:
        """Replace variable i by images[i]; fully expanded and normalized.

        The images must share one ambient ring; the result lives there, and
        the coefficients of self must fit the images' domain.  The expansion
        runs on integer forms (:func:`_substitute`).
        """
        if len(images) != self.nvars:
            raise ArityError(f"{len(images)} images supplied for {self.nvars} variables")
        if not images:
            raise ArityError("substitution needs at least one variable")
        ambient_nvars, ambient_domain = images[0].nvars, images[0].domain
        for g in images:
            if g.nvars != ambient_nvars or g.domain is not ambient_domain:
                raise DomainError("images do not share a common ambient ring")
        terms = ((exp, ambient_domain.coerce(c)) for exp, c in sorted(self._terms.items()))
        form = _substitute(terms, [_form(g) for g in images], ambient_nvars)
        return _from_form(ambient_nvars, ambient_domain, form)

    def differentiate(self, index: int) -> Polynomial:
        """Partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.nvars:
            raise ArityError(f"variable index {index} out of range")
        out = {}
        for exp, coeff in self._terms.items():
            e = exp[index]
            if e:
                new = list(exp)
                new[index] = e - 1
                out[tuple(new)] = coeff * e
        return Polynomial(self.nvars, self.domain, out)

    # -- domain changes and ring embeddings --------------------------------

    def as_domain(self, domain: Domain) -> Polynomial:
        """Re-tag the coefficients, checking they fit the target domain.

        Widening (NAT to INT, NAT or INT to RAT) cannot fail and takes the
        trusted constructor; narrowing validates every coefficient.
        """
        if domain is self.domain:
            return self
        if domain is Domain.RAT:
            return Polynomial._raw(self.nvars, domain, {u: Fraction(c) for u, c in self._terms.items()})
        if self.domain is Domain.NAT:
            return Polynomial._raw(self.nvars, domain, dict(self._terms))
        return Polynomial(self.nvars, domain, self._terms)

    def embed(self, nvars: int, offset: int = 0) -> Polynomial:
        """View this polynomial inside a larger ring, variables shifted by offset."""
        if offset < 0 or offset + self.nvars > nvars:
            raise ArityError(f"cannot embed {self.nvars} variables at offset {offset} into {nvars}")
        pre, post = (0,) * offset, (0,) * (nvars - offset - self.nvars)
        return Polynomial._raw(nvars, self.domain, {pre + u + post: c for u, c in self._terms.items()})

    def project(self, start: int, stop: int) -> Polynomial:
        """Restrict to the variable block [start, stop); support outside it must be empty."""
        out = {}
        for exp, coeff in self._terms.items():
            if any(exp[i] for i in range(self.nvars) if not start <= i < stop):
                raise ArityError(f"term {exp} uses variables outside block [{start}, {stop})")
            out[exp[start:stop]] = coeff
        return Polynomial(stop - start, self.domain, out)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)!r}, nvars={self.nvars}, domain={self.domain.value})"

    def __str__(self) -> str:
        return format_poly(self)


# -- variable naming -------------------------------------------------------


def t_names(n: int) -> tuple[str, ...]:
    """Ambient variable names T1..Tn."""
    return tuple(f"T{i}" for i in range(1, n + 1))


def x_names(k: int) -> tuple[str, ...]:
    """Tag variable names X2..Xk (one per subring generator f_2..f_k)."""
    return tuple(f"X{i}" for i in range(2, k + 1))


# -- text format -----------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^]))")


def format_coeff(c: int | Fraction) -> str:
    """Decimal text ``n`` or ``n/d``.  Raises OverflowError, naming the limit,
    when a part has more digits than Python converts to text."""
    try:
        if isinstance(c, Fraction) and c.denominator != 1:
            return f"{c.numerator}/{c.denominator}"
        return str(int(c))
    except ValueError:  # only raised past sys.get_int_max_str_digits()
        raise OverflowError(
            f"a coefficient has more than {sys.get_int_max_str_digits():,} digits, Python's "
            f"limit for printing an integer (PYTHONINTMAXSTRDIGITS raises it)"
        ) from None


def format_poly(p: Polynomial, names: Sequence[str] | None = None) -> str:
    """Canonical text form, e.g. ``2*T1*T2^2 - T2``; zero prints as ``0``."""
    if names is None:
        names = t_names(p.nvars)
    if len(names) != p.nvars:
        raise ArityError(f"{len(names)} names supplied for {p.nvars} variables")
    if p.is_zero:
        return "0"
    pieces = []
    for exp, coeff in p.terms():
        vars_part = "*".join(
            f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(exp) if e
        )
        mag = abs(coeff)
        if not vars_part:
            body = format_coeff(mag)
        elif mag == 1:
            body = vars_part
        else:
            body = f"{format_coeff(mag)}*{vars_part}"
        sign = "-" if coeff < 0 else "+"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    text = first_body if first_sign == "+" else f"-{first_body}"
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def parse_poly(text: str, names: Sequence[str], domain: Domain) -> Polynomial:
    """Parse the text format back into a polynomial over the named variables.

    Grammar: terms joined by + and -, a term is factors joined by *, a factor
    is an integer, a rational p/q, or a variable with optional ^exponent.
    """
    index = {name: i for i, name in enumerate(names)}
    nvars = len(names)
    pos = 0
    tokens: list[tuple[str, str, int]] = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad_at = pos + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))

    cursor = 0

    def peek():
        return tokens[cursor]

    def advance():
        nonlocal cursor
        tok = tokens[cursor]
        cursor += 1
        return tok

    def parse_factor() -> tuple[Fraction, dict[int, int]]:
        kind, value, at = advance()
        if kind == "num":
            coeff = Fraction(int(value))
            if peek()[0] == "op" and peek()[1] == "/":
                advance()
                dkind, dvalue, dat = advance()
                if dkind != "num":
                    raise ParseError("expected denominator after '/'", dat)
                if int(dvalue) == 0:
                    raise ParseError("zero denominator", dat)
                coeff /= int(dvalue)
            return coeff, {}
        if kind == "name":
            if value not in index:
                raise ParseError(f"unknown variable {value!r}", at)
            exp = 1
            if peek()[0] == "op" and peek()[1] == "^":
                advance()
                ekind, evalue, eat = advance()
                if ekind != "num":
                    raise ParseError("expected exponent after '^'", eat)
                exp = int(evalue)
            return Fraction(1), {index[value]: exp}
        raise ParseError(f"expected a number or variable, got {value!r}", at)

    def parse_term() -> tuple[Fraction, Exponent]:
        coeff, exps = parse_factor()
        while peek()[0] == "op" and peek()[1] == "*":
            advance()
            c2, e2 = parse_factor()
            coeff *= c2
            for i, e in e2.items():
                exps[i] = exps.get(i, 0) + e
        vec = [0] * nvars
        for i, e in exps.items():
            vec[i] = e
        return coeff, tuple(vec)

    terms: dict[Exponent, Fraction] = {}
    sign = Fraction(1)
    kind, value, at = peek()
    if kind == "op" and value in "+-":
        advance()
        sign = Fraction(-1) if value == "-" else Fraction(1)
    elif kind == "end":
        raise ParseError("empty polynomial text", at)
    while True:
        coeff, exp = parse_term()
        coeff *= sign
        acc = terms.get(exp, Fraction(0)) + coeff
        if acc == 0:
            terms.pop(exp, None)
        else:
            terms[exp] = acc
        kind, value, at = peek()
        if kind == "end":
            break
        if kind == "op" and value in "+-":
            advance()
            sign = Fraction(-1) if value == "-" else Fraction(1)
        else:
            raise ParseError(f"expected '+' or '-', got {value!r}", at)
    try:
        return Polynomial(nvars, domain, terms)
    except DomainError as exc:
        raise ParseError(str(exc), 0) from None
