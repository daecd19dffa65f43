#!/usr/bin/env python3
"""Build the recurrence subring at a chosen truncation and print every
certificate the package can produce for it: the well-definedness check for
the rational image, the aggregate condition report, unit-ideal and
fraction-field witnesses, the non-extendability derivation, and the
annihilator search over a few sample bases."""

import argparse

from semiring_lab import (
    AbhyankarContext,
    Domain,
    GroebnerBudget,
    RecurrenceCandidate,
    format_poly,
    fraction_field_witnesses,
    non_extendability_certificate,
    non_kernel_annihilator,
    parse_poly,
    t_names,
    unit_ideal_witness,
    verify_conditions,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=6, help="truncation level, at least 3")
    ap.add_argument("--deg", type=int, default=8, help="degree budget")
    ap.add_argument(
        "--bases",
        default="T1*T2;T1*T2*T1*T2;T2;T1",
        help="semicolon-separated base elements for the annihilator search",
    )
    args = ap.parse_args()
    if args.k < 3:
        # the fraction-field witnesses need f_2 and f_3
        ap.error(f"--k must be at least 3, got {args.k}")

    budget = GroebnerBudget(max_degree=args.deg)
    ctx = AbhyankarContext.build(args.k, budget)
    bases = tuple(
        parse_poly(text.strip(), t_names(2), Domain.NAT)
        for text in args.bases.split(";")
        if text.strip()
    )
    print(f"truncation {args.k}, degree budget {args.deg}")
    print(f"relation generators: {len(ctx.report.relations)}")
    print(f"relations complete:  {ctx.report.relations_complete}")
    print(f"context verified:    {ctx.verified}")
    print()

    report = verify_conditions(RecurrenceCandidate(ctx, bases))
    for line in report.summary_lines():
        print(line)
    print()

    # the unit-ideal witnesses and the annihilator search evaluate f_n -> 1/n,
    # which an unverified context refuses
    skipped = (
        f"  skipped: the context is not verified at degree budget {args.deg}, "
        f"so f_n -> 1/n cannot be evaluated"
    )

    print("unit-ideal witnesses")
    if not ctx.verified:
        print(skipped)
    else:
        for n in range(2, args.k):
            w = unit_ideal_witness(ctx, n)
            print(
                f"  n = {n}: multiplier {format_poly(w.multiplier)}, "
                f"identity holds: {w.identity_holds}, "
                f"factors in kernel: {w.factors_in_kernel}"
            )
    print()

    print("fraction-field witnesses")
    for w in fraction_field_witnesses(ctx):
        print(
            f"  {format_poly(w.target)} = "
            f"({format_poly(w.numerator.ambient)}) / "
            f"({format_poly(w.denominator.ambient)}), residual "
            f"{format_poly(w.residual)}"
        )
    print()

    print("non-extendability")
    cert = non_extendability_certificate(4)
    for line in cert.derivation:
        print(f"  {line}")
    for row in cert.rows:
        print(
            f"  level {row.n}: coefficient {row.coefficient}, "
            f"required {row.required_value}"
        )
    print()

    print("annihilator search")
    if not ctx.verified:
        print(skipped)
        return
    for base in bases:
        result = non_kernel_annihilator(ctx, base)
        if result.found:
            w = result.witness
            print(
                f"  base {format_poly(base)}: h = {w.h.describe()} "
                f"after {result.attempts} attempts, residual {format_poly(w.residual)}"
            )
        else:
            print(
                f"  base {format_poly(base)}: no witness in "
                f"{result.attempts} attempts"
            )


if __name__ == "__main__":
    main()
