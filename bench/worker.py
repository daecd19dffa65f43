"""One cold pass of one workload, in a fresh interpreter.

Started by ``run.py`` once per pass, so the library's in-process caches
(``abhyankar._context_data``, ``groebner._tag_elimination_basis``) start
empty every time.  Prints one JSON object on its last stdout line.

``--t0`` is the parent's ``time.perf_counter()`` just before it started this
process.  On Linux that clock is CLOCK_MONOTONIC, shared by all processes,
so ``setup_s`` runs from process start (interpreter, import, input
generation, shared contexts) to the first timed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))


class _Raised:
    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import semiring_lab as sl

    if Path(sl.__file__).resolve().parent != src / "semiring_lab":
        print(f"error: imported semiring_lab from {sl.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracing
    from workloads import DECIDED, WORKLOADS

    tracer = tracing.install(sl) if args.trace else None
    wl = WORKLOADS[args.workload]()
    wl.setup(sl, random.Random(f"{args.workload}:{args.seed}"))

    results, op_s = [], []
    clock = time.perf_counter
    first = clock()
    for op in wl.ops:
        start = clock()
        try:
            result = wl.run(op)
        except Exception as exc:  # recorded as a failed operation
            traceback.print_exc()
            result = _Raised(exc)
        op_s.append(clock() - start)
        results.append(result)
    wall_s = clock() - first
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    snapshot = tracer.snapshot() if tracer else None

    raised = [r.text for r in results if isinstance(r, _Raised)]
    verdicts = []
    digest = hashlib.sha256()
    for op, r in zip(wl.ops, results):
        if isinstance(r, _Raised):
            verdicts.append("error")
            digest.update(f"error|{r.text}\n".encode())
        else:
            verdicts.extend(wl.verdicts(op, r))
            digest.update((wl.record(op, r) + "\n").encode())

    failures = list(raised)
    if args.check:
        for op, r in zip(wl.ops, results):
            if isinstance(r, _Raised):
                continue
            try:
                err = wl.check(op, r)
            except Exception as exc:
                err = f"re-check raised {type(exc).__name__}: {exc}"
            if err:
                failures.append(err)
    counts = None if raised else wl.counts(results)

    out = {
        "setup_s": first - args.t0,
        "wall_s": wall_s,
        "op_s": op_s,
        "ops": len(wl.ops),
        "verdicts": len(verdicts),
        "decided": sum(v in DECIDED for v in verdicts),
        "peak_rss_mb": rss_mb,
        "digest": digest.hexdigest(),
        "counts": counts,
        "checked": bool(args.check),
        "failures": failures,
        "trace": snapshot and {
            "metrics": tracing.layer_metrics(snapshot),
            "counts": snapshot["counts"],
            "calls": snapshot["calls"],
        },
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
