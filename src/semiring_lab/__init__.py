"""Exact computer-algebra lab for commutative semirings and subrings of Z[T1..Tn].

Layers, bottom to top:

  * ``polynomials`` -- exact sparse arithmetic over N, Z, Q with monomial orders
  * ``groebner``    -- Groebner bases with cofactor certificates, ideal and
                       subalgebra membership, relation ideals
  * ``semiring``    -- finitely presented commutative semirings: bounded
                       congruence closure, idempotence, cancellativity
  * ``abhyankar``   -- the subring of Z[T1,T2] generated by the recurrence
                       f_2 = T1*T2, f_{n+1} = (n*f_n - 1)*T2, and its
                       surjection onto Q sending f_n to 1/n
  * ``conjectures`` -- boundedness predicates, exponent cones, and aggregate
                       condition reports for ring candidates
  * ``cli``         -- command-line front end emitting certified reports
"""

__version__ = "0.1.0"

from .abhyankar import (
    AbhyankarContext,
    NotInSubringError,
    SubringElement,
    UnverifiedContextError,
    fraction_field_witnesses,
    generator,
    non_extendability_certificate,
    non_kernel_annihilator,
    unit_ideal_witness,
)
from .conjectures import (
    BoundClass,
    BoundedSubsetPredicate,
    ConditionReport,
    Cone,
    RecurrenceCandidate,
    Verdict,
    cone_dim,
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
    buchberger,
    ideal_membership,
    normal_form,
    relation_ideal,
    subalgebra_membership,
)
from .polynomials import (
    ArityError,
    Domain,
    DomainError,
    GRLEX,
    LEX,
    MonomialOrder,
    ParseError,
    Polynomial,
    elimination,
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
    words_equivalent,
)

__all__ = [
    "AbhyankarContext",
    "ArityError",
    "BoundClass",
    "BoundedSubsetPredicate",
    "Budget",
    "BudgetError",
    "BudgetExceededError",
    "ConditionReport",
    "Cone",
    "Domain",
    "DomainError",
    "EvalHom",
    "GRLEX",
    "GroebnerBudget",
    "LEX",
    "MembershipStatus",
    "MonomialOrder",
    "NotInSubringError",
    "ParseError",
    "Polynomial",
    "Presentation",
    "RecurrenceCandidate",
    "SubringElement",
    "Tri",
    "UnverifiedContextError",
    "Verdict",
    "buchberger",
    "cone_dim",
    "cone_enumerate",
    "congruence_close",
    "elimination",
    "find_L",
    "find_interior_u",
    "format_poly",
    "fraction_field_witnesses",
    "generator",
    "ideal_membership",
    "is_add_cancellative",
    "is_add_idempotent",
    "non_extendability_certificate",
    "non_kernel_annihilator",
    "normal_form",
    "parse_poly",
    "preorder_leq",
    "purity_check",
    "qf_from_cone",
    "relation_ideal",
    "subalgebra_membership",
    "t_names",
    "unit_ideal_witness",
    "verify_conditions",
    "words_equivalent",
    "x_names",
]
