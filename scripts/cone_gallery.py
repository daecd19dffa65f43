#!/usr/bin/env python3
"""Enumerate exponent cones for a gallery of targets -- evaluation points
and presentations -- and, for each cone, report its size, dimension, an
interior point when one exists, and the fraction witnesses it induces.
Finishes with purity checks over a few generator sets."""

import argparse

from semiring_lab import (
    Budget,
    EvalHom,
    Presentation,
    cone_dim,
    cone_enumerate,
    find_interior_u,
    purity_check,
    qf_from_cone,
)

GALLERY = [
    ("evaluation at (2, 3)", EvalHom((2, 3))),
    ("evaluation at (1/2, 5)", EvalHom(("1/2", 5))),
    ("free on one generator", Presentation.free(1)),
    ("absorbing generator", Presentation.from_text(1, "T1 + 1 = T1")),
    ("generator is one", Presentation.from_text(1, "T1 = 1")),
]

PURITY_EXAMPLES = [
    [(1, 0), (0, 1)],
    [(2, 0), (0, 1)],
    [(2, 0), (3, 0)],
    [(1, 1), (2, 0), (0, 2)],
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--box", type=int, default=3, help="exponent box bound")
    ap.add_argument("--steps", type=int, default=4000, help="step budget")
    args = ap.parse_args()

    try:
        budget = Budget(max_degree=8, max_coeff=16, max_steps=args.steps)
    except ValueError as exc:
        ap.error(str(exc))
    for name, target in GALLERY:
        cone = cone_enumerate(target, args.box, budget)
        u = find_interior_u(cone)
        print(f"{name}")
        print(
            f"  members {len(cone.members)}, undecided {len(cone.unknown)}, "
            f"dimension {cone_dim(cone)}"
        )
        print(f"  interior point: {u if u is not None else '(none in box)'}")
        witnesses = qf_from_cone(cone)
        if witnesses:
            for w in witnesses:
                print(
                    f"  T{w.variable_index + 1} = "
                    f"T^{tuple(w.numerator_exp)} / T^{tuple(w.denominator_exp)}"
                )
        print()

    print("purity of generated exponent sets")
    for gens in PURITY_EXAMPLES:
        result = purity_check(gens, args.box + 2)
        if result.pure:
            print(f"  {gens}: pure ({len(result.members)} members)")
        else:
            member, k, quotient = result.witness
            print(
                f"  {gens}: impure -- {tuple(member)} is generated but "
                f"{tuple(member)}/{k} = {tuple(quotient)} is not"
            )


if __name__ == "__main__":
    main()
