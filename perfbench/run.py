"""Benchmark harness for pocover.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Rounds run until ``--seconds`` is used up.  Each round makes the seeded
inputs again (set-up: generate + serialize) and then makes one whole pass
over the workload's ops; every op's output is checked in every pass.  An
op's time is its fastest pass, and a pass time is the sum of those; set-up
is timed the same way over its repeats.  Host contention only ever adds
time, so this moves with it as little as it can.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``wall_s`` (pass time), ``max_op_s`` (slowest op), ``setup_s`` (set-up)
and ``peak_rss_mb``.  With ``--trace 1``, untraced and traced passes
alternate and the last line reports the per-layer metrics of
``tracer.LAYER_METRICS``; spans go to ``perfbench/out/``.
Lines before the last give the same figures for reading, the environment
and ``output_sha256``, a digest of every op's canonical output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# Set-up runs again before every pass, and at least this often.
SETUP_REPEATS = 3

END_TO_END = (("wall_s", "s"), ("max_op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pocover").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
    }


def timed_setup(workloads, workload: str, seed: int):
    """Build the ops once; return them with each one's build time."""
    gc.collect()
    ops, times = [], []
    start = time.perf_counter()
    for op in workloads.WORKLOADS[workload](seed):
        times.append(time.perf_counter() - start)
        ops.append(op)
        start = time.perf_counter()
    return ops, times


def _per_op(runs: list[list[float]]) -> list[float]:
    """Each op's fastest time over the runs.  Host contention only ever adds
    time, so the fastest run of an op is its least disturbed one."""
    return [min(ts) for ts in zip(*runs)]


def _sum_of_minima(runs: list[list[float]]) -> float:
    return sum(_per_op(runs))


def run_pass(workloads, ops, tracer=None) -> dict:
    """One pass over every op, outputs checked; times in seconds."""
    gc.collect()
    op_s = []
    digest = hashlib.sha256()
    failed = 0
    checks_failed = 0
    bytes_out = 0
    problems = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            line, bad = workloads.run_op(op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            line, bad = f"raised {type(exc).__name__}: {exc}", ["raised"]
        op_s.append(time.perf_counter() - t0)
        digest.update(line.encode() + b"\n")
        bytes_out += len(line.encode())
        if bad:
            failed += 1
            checks_failed += len(bad)
            problems.append(f"op {i} ({op.group}): {', '.join(bad)}")
    return {
        "op_s": op_s,
        "sha256": digest.hexdigest(),
        "failed": failed,
        "checks_failed": checks_failed,
        "bytes_out": bytes_out,
        "problems": problems,
    }


def _groups(ops, op_times) -> list[tuple[str, int, float, float]]:
    rows: dict[str, list[float]] = {}
    for op, t in zip(ops, op_times):
        rows.setdefault(op.group, []).append(t)
    return [(g, len(ts), sum(ts), max(ts)) for g, ts in rows.items()]


def _print_groups(title: str, rows) -> None:
    print(title)
    for group, count, total, longest in rows:
        print(f"  {group:<28} ops {count:>4}  total {total:10.4f} s  max {longest:10.4f} s")


def _print_span_groups(ops, spans) -> None:
    """Busy time of the busiest traced functions in each op group."""
    busy: dict[str, dict[str, int]] = {op.group: {} for op in ops}
    for s in spans:
        if 0 <= s.op < len(ops):
            row = busy[ops[s.op].group]
            row[s.name] = row.get(s.name, 0) + s.end_ns - s.start_ns
    print("per group, traced busy time of the busiest functions:")
    for group, row in busy.items():
        top = sorted(row.items(), key=lambda item: -item[1])[:6]
        print(f"  {group}: " + ", ".join(f"{name} {ns / 1e9:.4f} s" for name, ns in top))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import tracer as tracing
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed)
    ops, first_setup = timed_setup(workloads, args.workload, args.seed)
    setup_runs = [first_setup]
    setup_differs = False

    plain, traced = [], []
    tracer = tracing.Tracer() if args.trace else None
    setup_spans, setup_counts = [], None
    if tracer is not None:
        with tracing.patched(tracer):
            items = workloads.WORKLOADS[args.workload](args.seed)
            tracer.op = 0
            for _ in items:
                tracer.op += 1
        setup_spans, setup_counts = tracer.spans, tracer.counts
    layer_runs = []
    last_spans = []
    begin = time.perf_counter()
    while True:
        if plain:
            again, setup_time = timed_setup(workloads, args.workload, args.seed)
            setup_runs.append(setup_time)
            setup_differs |= again != ops
        plain.append(run_pass(workloads, ops))
        if tracer is not None:
            tracer.reset()
            with tracing.patched(tracer):
                traced.append(run_pass(workloads, ops, tracer))
            last_spans = tracer.spans
            layer_runs.append((tracer.spans, tracer.counts, traced[-1]))
        elapsed = time.perf_counter() - begin
        per_round = elapsed / len(plain)
        if len(setup_runs) >= SETUP_REPEATS and elapsed + per_round > args.seconds:
            break
    setup_s = _sum_of_minima(setup_runs)

    passes = plain + traced
    digests = {p["sha256"] for p in passes}
    attempted = len(ops) * len(passes)
    failed = sum(p["failed"] for p in passes)
    problems = sorted({msg for p in passes for msg in p["problems"]})
    op_times = _per_op([p["op_s"] for p in plain])
    wall_s = sum(op_times)

    missing = []
    if tracer is not None:
        fired = {s.name for s in setup_spans + last_spans}
        missing = [n for n in workloads.EXPECTED_SPANS[args.workload] if n not in fired]
        traced_wall = _sum_of_minima([p["op_s"] for p in traced])
        per_pass = []
        for spans, counts, result in layer_runs:
            extra = {
                "verify.checks_failed": result["checks_failed"],
                "serialize.bytes_out": result["bytes_out"],
                "trace.overhead_s": traced_wall - wall_s,
            }
            per_pass.append(
                tracing.layer_metrics(setup_spans + spans, setup_counts + counts, extra)
            )
        metrics = {
            name: {"value": statistics.median(m[name] for m in per_pass), "unit": unit}
            for name, unit in tracing.LAYER_METRICS
        }
        OUT_DIR.mkdir(exist_ok=True)
        tracer.spans = setup_spans + last_spans
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "wall_s": wall_s,
            "max_op_s": max(op_times),
            "setup_s": setup_s,
            "peak_rss_mb": peak_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    correct = failed == 0 and len(digests) == 1 and not missing and not setup_differs
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"passes {len(plain)} untraced, {len(traced)} traced; {len(ops)} ops per pass")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>16.6f} {m['unit']}")
    print(f"  {'ops_failed':<48} {failed:>9} of {attempted} count")
    _print_groups("per group, untraced op times:", _groups(ops, op_times))
    if traced:
        traced_times = _per_op([p["op_s"] for p in traced])
        _print_groups("per group, traced op times:", _groups(ops, traced_times))
        _print_span_groups(ops, setup_spans + last_spans)
    for msg in problems[:20]:
        print(f"FAILED {msg}")
    if len(digests) > 1:
        print("FAILED outputs differ between passes")
    if setup_differs:
        print("FAILED set-up made other inputs from the same seed")
    for name in missing:
        print(f"FAILED span {name} never fired")
    print(json.dumps({"env": env, "output_sha256": sorted(digests)[0], "ops_per_pass": len(ops)}))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
