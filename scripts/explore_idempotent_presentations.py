#!/usr/bin/env python3
"""Classify a catalog of small one-generator semiring presentations:
additive idempotence, additive cancellativity (with witness), and the set
of one-absorbing elements found inside the search box.  The catalog shows
every combination the bounded solver can separate at this size."""

import argparse

from semiring_lab import (
    Budget,
    EvalHom,
    Presentation,
    Tri,
    find_L,
    format_poly,
    is_add_cancellative,
    is_add_idempotent,
)

CATALOG = [
    ("free", None),
    ("collapse", "1 = 0"),
    ("boolean", "1 + 1 = 1"),
    ("absorbing generator", "T1 + 1 = T1"),
    ("generator is one", "T1 = 1"),
    ("multiplicative idempotent", "T1^2 = T1"),
    ("additive idempotent generator", "T1 + T1 = T1"),
    ("doubling", "T1 + T1 = 1"),
]


def verdict(tri: Tri) -> str:
    return {Tri.YES: "yes", Tri.NO: "no", Tri.UNKNOWN: "?"}[tri]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--deg", type=int, default=4, help="degree budget")
    ap.add_argument("--coeff", type=int, default=8, help="coefficient budget")
    ap.add_argument("--steps", type=int, default=4000, help="step budget")
    args = ap.parse_args()

    try:
        budget = Budget(max_degree=args.deg, max_coeff=args.coeff, max_steps=args.steps)
    except ValueError as exc:
        ap.error(str(exc))
    header = f"{'presentation':<32}{'idempotent':<12}{'cancellative':<14}one-absorbing"
    print(header)
    print("-" * len(header))
    for name, text in CATALOG:
        pres = Presentation.free(1) if text is None else Presentation.from_text(1, text)
        idem = is_add_idempotent(pres, budget)
        canc = is_add_cancellative(pres, budget)
        absorbing = find_L(pres, budget)
        shown = ", ".join(format_poly(m) for m in absorbing[:3])
        if len(absorbing) > 3:
            shown += f", ... ({len(absorbing)} total)"
        print(
            f"{name:<32}{verdict(idem.verdict):<12}"
            f"{verdict(canc.verdict):<14}{shown or '(none)'}"
        )
        if canc.verdict is Tri.NO and canc.witness is not None:
            a, b, c = canc.witness
            print(
                f"{'':<32}cancellation witness: a = {format_poly(a)}, "
                f"b = {format_poly(b)}, c = {format_poly(c)}"
            )

    print()
    hom = EvalHom((2,))
    absorbing = find_L(hom, budget)
    print(
        "positive-rational target: cancellative "
        f"{verdict(is_add_cancellative(hom, budget).verdict)}, "
        f"one-absorbing elements {', '.join(map(format_poly, absorbing)) or '(none)'}"
    )


if __name__ == "__main__":
    main()
