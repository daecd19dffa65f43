"""Exact computer-algebra lab for commutative semirings and subrings of Z[T1..Tn].

Layers, bottom to top:

  * ``polynomials`` -- exact sparse arithmetic over N, Z, Q with monomial orders
  * ``groebner``    -- Groebner bases with cofactor certificates, ideal and
                       subalgebra membership, relation ideals
  * ``semiring``    -- finitely presented commutative semirings: bounded
                       congruence closure, idempotence, cancellativity,
                       exponent cones
  * ``abhyankar``   -- the subring of Z[T1,T2] generated by the recurrence
                       f_2 = T1*T2, f_{n+1} = (n*f_n - 1)*T2, and its
                       surjection onto Q sending f_n to 1/n
  * ``conjectures`` -- boundedness predicates, cone dimension, purity,
                       fraction witnesses, and aggregate condition reports
                       for ring candidates
  * ``cli``         -- command-line front end emitting certified reports

Importing the package loads no layer.  A public name loads its layer (and
what that layer imports) when it is first touched, so a cone caller loads
``polynomials`` and ``semiring`` only, and a subring caller ``polynomials``,
``groebner`` and ``abhyankar`` only.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the layer that defines it
_HOMES = {
    "ArityError": "polynomials",
    "Domain": "polynomials",
    "DomainError": "polynomials",
    "GRLEX": "polynomials",
    "LEX": "polynomials",
    "MonomialOrder": "polynomials",
    "ParseError": "polynomials",
    "Polynomial": "polynomials",
    "elimination": "polynomials",
    "format_poly": "polynomials",
    "parse_poly": "polynomials",
    "t_names": "polynomials",
    "x_names": "polynomials",
    "BudgetExceededError": "groebner",
    "GroebnerBudget": "groebner",
    "MembershipStatus": "groebner",
    "buchberger": "groebner",
    "ideal_membership": "groebner",
    "normal_form": "groebner",
    "relation_ideal": "groebner",
    "subalgebra_membership": "groebner",
    "Budget": "semiring",
    "BudgetError": "semiring",
    "Cone": "semiring",
    "EvalHom": "semiring",
    "Presentation": "semiring",
    "Tri": "semiring",
    "cone_enumerate": "semiring",
    "congruence_close": "semiring",
    "find_L": "semiring",
    "is_add_cancellative": "semiring",
    "is_add_idempotent": "semiring",
    "preorder_leq": "semiring",
    "words_equivalent": "semiring",
    "AbhyankarContext": "abhyankar",
    "NotInSubringError": "abhyankar",
    "SubringElement": "abhyankar",
    "UnverifiedContextError": "abhyankar",
    "fraction_field_witnesses": "abhyankar",
    "generator": "abhyankar",
    "non_extendability_certificate": "abhyankar",
    "non_kernel_annihilator": "abhyankar",
    "unit_ideal_witness": "abhyankar",
    "BoundClass": "conjectures",
    "BoundedSubsetPredicate": "conjectures",
    "ConditionReport": "conjectures",
    "RecurrenceCandidate": "conjectures",
    "Verdict": "conjectures",
    "cone_dim": "conjectures",
    "find_interior_u": "conjectures",
    "purity_check": "conjectures",
    "qf_from_cone": "conjectures",
    "verify_conditions": "conjectures",
}
_LAYERS = frozenset(_HOMES.values())

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """Import the layer that ``name`` is, or that defines it, and keep the
    name in the package namespace so later lookups skip this hook."""
    if name in _LAYERS:
        return import_module(f"{__name__}.{name}")
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
