"""Time-to-certified-verdict benchmark for semiring-lab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the library is imported from its
``src`` directory.  The load is a closed loop with one caller: one process,
one thread, each operation starting after the previous one returns.

Every timed pass runs in a fresh interpreter (``worker.py``), so the
library's in-process caches start cold.  Passes repeat until ``--seconds``
have gone by (at least three untraced passes).  The first pass re-checks
every verdict with the benchmark's own arithmetic (``check.py``); every
pass must then reproduce the first pass's result digest and deterministic
counts exactly, and the counts are kept in ``bench/out`` so that later runs
of the same code and seed are compared with them too.  A mismatch is a
correctness alarm, not noise.  Each run also starts the CLI once as a
subprocess and validates its report.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over passes; per-operation percentiles pool the operations of all
passes).  With ``--trace 1`` untraced and traced passes alternate, and the
line carries the per-layer metrics of the traced passes (``tracing.py``),
the CLI floor and the tracing overhead.  Lines above it are a readable
table with units and sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
RUN_LIMIT_S = 165  # every subprocess is stopped by then, so a run ends within 180 s
CLI_COMMAND = ["-m", "semiring_lab.cli", "abhyankar", "verify", "--k", "6", "--json"]
CLI_EXPECTED = {"a": "holds", "b": "holds", "c": "fails", "d": "holds"}


class BenchError(RuntimeError):
    pass


def _timeout(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
    return left


def run_pass(workload: str, seed: int, traced: bool, check: bool, deadline: float) -> dict:
    t0 = time.perf_counter()
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(traced)), "--check", str(int(check)),
        "--t0", repr(t0),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=_timeout(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def cli_check(deadline: float) -> dict:
    """One ``abhyankar verify --k 6 --json`` subprocess, validated."""
    import jsonschema
    from semiring_lab.cli import REPORT_SCHEMA

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *CLI_COMMAND], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=_timeout(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s") from exc
    subprocess_s = time.perf_counter() - start
    errors = [] if proc.returncode == 0 else [f"CLI exit code {proc.returncode}"]
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        return {"errors": errors + ["CLI printed no JSON report"], "subprocess_s": subprocess_s,
                "report_s": 0.0}
    try:
        jsonschema.validate(report, REPORT_SCHEMA)
    except jsonschema.ValidationError as exc:
        errors.append(f"report fails report-schema: {exc.message}")
    if report.get("verdicts") != CLI_EXPECTED:
        errors.append(f"CLI verdicts {report.get('verdicts')}, expected {CLI_EXPECTED}")
    return {"errors": errors, "subprocess_s": subprocess_s,
            "report_s": float(report.get("timing_seconds", 0.0))}


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "semiring_lab").glob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_saved(workload: str, seed: int, record: dict) -> list:
    """Compare deterministic counts with an earlier run of the same code and
    seed, then save the union."""
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{workload}-seed{seed}-{source_hash()}.json"
    alarms = []
    saved = json.loads(path.read_text()) if path.exists() else {}
    for key, value in record.items():
        if key in saved and saved[key] != value:
            alarms.append(f"{key} differ from an earlier run of the same code and seed ({path.name})")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({**saved, **record}, sort_keys=True))
    os.replace(tmp, path)
    return alarms


def best_of(passes: list) -> list:
    """Each operation's fastest time over the passes.  Passes repeat the same
    operations, so this filters out the slow spells of a shared machine."""
    return [min(times) for times in zip(*(p["op_s"] for p in passes))]


def _percentile90(samples: list) -> float:
    return statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run stops its running pass too: subprocess.run kills and
    # waits for its child when an exception interrupts the wait
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "semiring_lab" / "__init__.py").is_file():
        print(f"error: no semiring_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    try:
        passes, durations = [], []
        start = time.perf_counter()
        deadline = start + RUN_LIMIT_S
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            began = time.perf_counter()
            passes.append((traced, run_pass(args.workload, args.seed, traced, not passes, deadline)))
            durations.append(time.perf_counter() - began)
            elapsed = time.perf_counter() - start
            plain = sum(not t for t, _ in passes)
            enough = plain >= (1 if args.trace else MIN_PASSES) and (
                not args.trace or plain < len(passes))
            # start another pass only if it should end within --seconds
            expected_end = elapsed + statistics.median(durations)
            if enough and expected_end > args.seconds:
                break
        cli = cli_check(deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = [p for t, p in passes if not t]
    traced = [p for t, p in passes if t]
    first = passes[0][1]
    alarms = list(first["failures"])
    failed = len(first["failures"])
    for _, p in passes[1:]:
        if p["digest"] != first["digest"] or p["counts"] != first["counts"]:
            alarms.append("a pass did not reproduce the first pass's results or counts")
            failed += p["ops"]
    layer_counts = [p["trace"]["counts"] for p in traced]
    if any(c != layer_counts[0] for c in layer_counts):
        alarms.append("traced passes disagree on their counts")
    record = {"counts": first["counts"], "digest": first["digest"]}
    if layer_counts:
        record["layer_counts"] = layer_counts[0]
    alarms += compare_saved(args.workload, args.seed, record)
    alarms += cli["errors"]
    failed += bool(cli["errors"])
    attempted = sum(p["ops"] for _, p in passes) + 1

    best = best_of(plain)
    n = len(plain)
    print(f"workload {args.workload}, seed {args.seed}: {n} untraced and "
          f"{len(traced)} traced cold passes of {first['ops']} operations")
    rows = {
        "setup_s": (statistics.median(p["setup_s"] for p in plain), "s",
                    f"median of {n} passes"),
        "wall_s": (sum(best), "s", f"sum of {len(best)} per-operation bests of {n} passes"),
        "op_s.p50": (statistics.median(best), "s", f"{len(best)} per-operation bests"),
        "op_s.p90": (_percentile90(best), "s", f"{len(best)} per-operation bests"),
        "decided_share": (first["decided"] / first["verdicts"], "ratio",
                          f"{first['decided']} of {first['verdicts']} verdicts"),
        "failed_share": (failed / attempted, "ratio",
                         f"{failed} of {attempted} operations, CLI included"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MiB",
                        f"median of {n} passes"),
    }
    if args.trace:
        metrics = {}
        for name, (value, unit) in traced[0]["trace"]["metrics"].items():
            if unit == "s":
                value = statistics.median(p["trace"]["metrics"][name][0] for p in traced)
            metrics[name] = (value, unit, "")
        metrics["cli.subprocess_s"] = (cli["subprocess_s"], "s", "one CLI run")
        metrics["cli.report_s"] = (cli["report_s"], "s", "timing_seconds of its report")
        metrics["cli.overhead_s"] = (cli["subprocess_s"] - cli["report_s"], "s", "")
        metrics["trace.overhead_s"] = (
            sum(best_of(traced)) - rows["wall_s"][0], "s", "traced minus untraced wall_s")
        rows = {**rows, **metrics}
    for name, (value, unit, note) in rows.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")
    print(f"  (median wall of a whole pass: {statistics.median(p['wall_s'] for p in plain):.6g} s)")
    for alarm in alarms:
        print(f"  ALARM: {alarm}")

    if args.trace:
        shown = {k: v for k, v in rows.items() if k in metrics}
    else:
        shown = {k: v for k, v in rows.items() if k != "failed_share"}
    print(json.dumps({
        "correct": not alarms,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
