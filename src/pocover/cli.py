"""Command-line surface.

Subcommands: ``gen`` (seeded instances), ``solve`` (approximate or exact),
``bounds`` (per-instance lower/upper bounds from a run trace), ``reduce``
(reduction artifacts), ``verify`` / ``roundtrip`` (the property harness), and
``bench`` (timing).  The exit code is 0 iff no assertion failed; verification
errors on individual instances (infeasible input, oracle guard) are reported
but do not fail the run.  Malformed input (``InputError``) and unsatisfiable
generator shapes (``GenerationError``) end the run with a one-line message on
stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import exact, reductions, serialize, treecover, verify
from .generate import GEN_KINDS, GenerationError, GenSpec, SplitMix64
from .generate import generate as generate_instance
from .model import CtInstance, DkshInstance, InputError, RcpInstance


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, GenerationError) as exc:
        print(f"pocover: error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pocover",
        description="Covering and packing of partially ordered items.",
    )
    sub = parser.add_subparsers(required=True)

    p_gen = sub.add_parser("gen", help="generate seeded instances")
    p_gen.add_argument("--kind", choices=GEN_KINDS, default="out_tree")
    p_gen.add_argument("--n", type=int, default=10)
    p_gen.add_argument("--k", type=int, default=8)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--out", type=Path, help="file (count=1) or directory")
    p_gen.add_argument("--shape", type=json.loads, default={}, help="JSON shape params")
    p_gen.add_argument("--emit-dot", type=Path, help="also write a DOT rendering")
    p_gen.set_defaults(handler=_cmd_gen)

    p_solve = sub.add_parser("solve", help="solve instance files")
    p_solve.add_argument("files", nargs="+", type=Path)
    p_solve.add_argument("--mode", choices=("approx", "exact"), default="approx")
    p_solve.add_argument("--out", type=Path, help="write results here (JSON lines)")
    p_solve.add_argument("--emit-dot", type=Path, help="write a DOT rendering of the first instance")
    p_solve.set_defaults(handler=_cmd_solve)

    p_bounds = sub.add_parser("bounds", help="trace-derived bounds for tree instances")
    p_bounds.add_argument("files", nargs="+", type=Path)
    p_bounds.add_argument("--out", type=Path, help="write results here (JSON lines)")
    p_bounds.set_defaults(handler=_cmd_bounds)

    p_reduce = sub.add_parser("reduce", help="construct a reduction artifact")
    p_reduce.add_argument("--kind", choices=reductions.REDUCTION_KINDS, required=True)
    p_reduce.add_argument("files", nargs="+", type=Path)
    p_reduce.add_argument("--m", type=int, default=1, help="copy multiplier for dks_to_urcp")
    p_reduce.add_argument("--k", type=int, help="budget for dks_to_urcp")
    p_reduce.add_argument("--out", type=Path)
    p_reduce.add_argument("--emit-dot", type=Path)
    p_reduce.set_defaults(handler=_cmd_reduce)

    p_verify = sub.add_parser("verify", help="property harness on tree instances")
    p_verify.add_argument("files", nargs="*", type=Path)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--count", type=int, default=100)
    p_verify.add_argument("--n-max", type=int, default=14)
    p_verify.add_argument("--k-max", type=int, default=12)
    p_verify.add_argument("--with-exact", action="store_true")
    p_verify.add_argument("--out", type=Path, help="write reports here (JSON lines)")
    p_verify.set_defaults(handler=_cmd_verify)

    p_round = sub.add_parser("roundtrip", help="reduction equivalence harness")
    p_round.add_argument(
        "--kind",
        choices=reductions.REDUCTION_KINDS + ("all",),
        default="all",
    )
    p_round.add_argument("--seed", type=int, default=0)
    p_round.add_argument("--count", type=int, default=25)
    p_round.add_argument("--out", type=Path)
    p_round.set_defaults(handler=_cmd_roundtrip)

    p_bench = sub.add_parser("bench", help="timing of approximate vs exact solving")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--count", type=int, default=50)
    p_bench.add_argument("--n-max", type=int, default=14)
    p_bench.add_argument("--k-max", type=int, default=12)
    p_bench.set_defaults(handler=_cmd_bench)

    return parser


def _emit(doc, out: Path | None) -> None:
    text = json.dumps(doc, sort_keys=True)
    if out is None:
        print(text)
    else:
        with out.open("a") as fh:
            fh.write(text + "\n")


def _cmd_gen(args) -> int:
    docs = []
    for i in range(args.count):
        spec = GenSpec(
            kind=args.kind, n=args.n, k=args.k, seed=args.seed + i, shape=dict(args.shape)
        )
        instance = generate_instance(spec)
        docs.append(serialize.instance_to_doc(instance))
        if args.emit_dot and i == 0:
            args.emit_dot.write_text(serialize.emit_dot(instance))
    if args.out is None:
        for doc in docs:
            print(json.dumps(doc, sort_keys=True))
    elif args.count == 1:
        args.out.write_text(json.dumps(docs[0], sort_keys=True, indent=1) + "\n")
    else:
        args.out.mkdir(parents=True, exist_ok=True)
        for i, doc in enumerate(docs):
            path = args.out / f"{args.kind}_{args.seed + i}.json"
            path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return 0


def _load(path: Path):
    return serialize.loads_instance(path.read_text())


def _cmd_solve(args) -> int:
    if args.out is not None:
        args.out.unlink(missing_ok=True)
    for i, path in enumerate(args.files):
        instance = _load(path)
        if args.emit_dot and i == 0:
            args.emit_dot.write_text(serialize.emit_dot(instance))
        doc = {"file": str(path), "fingerprint": serialize.fingerprint(instance)}
        try:
            if isinstance(instance, CtInstance):
                doc.update(_solve_ct(instance, args.mode))
            elif isinstance(instance, RcpInstance):
                solution, profit = exact.exact_rcp(instance)
                doc.update({"solution": sorted(solution), "profit": profit})
            elif isinstance(instance, DkshInstance):
                solution, weight = exact.exact_dksh(instance)
                doc.update({"solution": sorted(solution), "weight": weight})
            else:
                cover_sets, count = exact.exact_bpcc(instance)
                doc.update(
                    {"cover": serialize.cover_to_doc(cover_sets), "cardinality": count}
                )
        except (treecover.InfeasibleInstance, exact.SizeGuardError) as exc:
            doc["error"] = str(exc)
        _emit(doc, args.out)
    return 0


def _solve_ct(instance: CtInstance, mode: str) -> dict:
    if mode == "exact":
        cover_sets = exact.exact_ct(instance)
        return {
            "cover": serialize.cover_to_doc(cover_sets),
            "cardinality": len(cover_sets),
        }
    result = treecover.cover(instance)
    b = treecover.bounds(result.trace, instance)
    return {
        "cover": serialize.cover_to_doc(result.cover),
        "cardinality": len(result.cover),
        "trace": serialize.trace_to_doc(result.trace),
        "bounds": {"lower": b.lower, "upper": b.upper, "alpha": b.alpha},
    }


def _cmd_bounds(args) -> int:
    if args.out is not None:
        args.out.unlink(missing_ok=True)
    for path in args.files:
        instance = _load(path)
        if not isinstance(instance, CtInstance):
            print(f"{path}: bounds apply to tree covering instances only", file=sys.stderr)
            return 2
        try:
            result = treecover.cover(instance)
        except treecover.InfeasibleInstance as exc:
            _emit({"file": str(path), "error": str(exc)}, args.out)
            continue
        b = treecover.bounds(result.trace, instance)
        _emit(
            {
                "file": str(path),
                "lower": b.lower,
                "upper": b.upper,
                "alpha": b.alpha,
                "cardinality": len(result.cover),
                "forced": len(result.trace.forced_prefix),
            },
            args.out,
        )
    return 0


def _cmd_reduce(args) -> int:
    if args.out is not None:
        args.out.unlink(missing_ok=True)
    for i, path in enumerate(args.files):
        instance = _load(path)
        if args.kind == "bpcc_to_ct":
            artifact = reductions.bpcc_to_ct(instance)
        elif args.kind == "dksh_to_rcp":
            artifact = reductions.dksh_to_rcp(instance)
        elif args.kind == "rcp_to_dksh":
            artifact = reductions.rcp_to_dksh(instance)
        elif args.kind == "degree_augment":
            artifact = reductions.degree_augment(instance)
        else:
            k = args.k if args.k is not None else instance.budget
            artifact = reductions.dks_to_urcp(instance.graph, k, args.m)
        doc = serialize.instance_to_doc(artifact.target)
        doc["reduction"] = artifact.kind
        doc["source_fingerprint"] = artifact.source_summary
        doc["parameters"] = artifact.parameters
        if args.emit_dot and i == 0:
            args.emit_dot.write_text(serialize.emit_dot(artifact.target))
        _emit(doc, args.out)
    return 0


def _verify_corpus(seed: int, count: int, n_max: int, k_max: int):
    rng = SplitMix64(seed)
    for i in range(count):
        n = 1 + rng.randrange(n_max)
        k = 1 + rng.randrange(k_max)
        spec = GenSpec(kind="out_tree", n=n, k=k, seed=seed + 7919 * i)
        yield generate_instance(spec)


def _cmd_verify(args) -> int:
    if args.files:
        instances = [_load(p) for p in args.files]
    else:
        instances = list(
            _verify_corpus(args.seed, args.count, args.n_max, args.k_max)
        )
    if args.out is not None:
        args.out.unlink(missing_ok=True)
    failures = 0
    errors = 0
    total = 0
    for instance, report in zip(
        instances, verify.run_verify(instances, with_exact=args.with_exact)
    ):
        total += 1
        status = "pass"
        if report.error is not None:
            errors += 1
            status = "error"
        elif not report.passed:
            failures += 1
            status = "FAIL"
        line = {
            "instance": report.fingerprint,
            "status": status,
            "alg": report.alg_cardinality,
            "exact": report.exact_cardinality,
            "lb": report.lower,
            "ub": report.upper,
            "alpha": report.alpha,
            "ratio": report.ratio,
        }
        if report.error is not None:
            line["error"] = report.error
        if not report.passed:
            # minimal reproduction: the failing checks plus the instance itself
            line["failed"] = report.failed_checks()
            line["repro"] = serialize.instance_to_doc(instance)
            line["seed"] = args.seed
        _emit(line, args.out)
    print(
        f"verify: {total} instances, {failures} failures, {errors} errors",
        file=sys.stderr,
    )
    return 1 if failures else 0


def _roundtrip_stream(kind: str, seed: int, count: int):
    rng = SplitMix64(seed)
    for i in range(count):
        sub_seed = seed + 104729 * i
        if kind == "bpcc_to_ct":
            n = 1 + rng.randrange(8)
            yield generate_instance(
                GenSpec(
                    kind="bpcc",
                    n=n,
                    k=1 + rng.randrange(6),
                    seed=sub_seed,
                    shape={"cluster_count": 1 + rng.randrange(min(n, 4))},
                )
            )
        elif kind == "dksh_to_rcp":
            n = 2 + rng.randrange(5)
            yield generate_instance(
                GenSpec(
                    kind="hypergraph",
                    n=n,
                    k=1 + rng.randrange(n),
                    seed=sub_seed,
                    shape={"num_edges": 1 + rng.randrange(4)},
                )
            )
        elif kind == "rcp_to_dksh":
            yield generate_instance(
                GenSpec(
                    kind="digraph",
                    n=2 + rng.randrange(7),
                    k=1 + rng.randrange(5),
                    seed=sub_seed,
                )
            )
        elif kind == "degree_augment":
            yield generate_instance(
                GenSpec(
                    kind="digraph",
                    n=2 + rng.randrange(7),
                    k=1 + rng.randrange(4),
                    seed=sub_seed,
                )
            )
        else:
            instance = generate_instance(
                GenSpec(
                    kind="digraph",
                    n=2 + rng.randrange(9),
                    k=1,
                    seed=sub_seed,
                    shape={"edge_density": 0.4},
                )
            )
            yield instance.graph, 2 + rng.randrange(4)


def _cmd_roundtrip(args) -> int:
    kinds = (
        list(reductions.REDUCTION_KINDS) if args.kind == "all" else [args.kind]
    )
    if args.out is not None:
        args.out.unlink(missing_ok=True)
    failures = 0
    errors = 0
    total = 0
    for kind in kinds:
        stream = _roundtrip_stream(kind, args.seed, args.count)
        for report in verify.run_roundtrip(kind, stream):
            total += 1
            status = "pass"
            if report.error is not None:
                errors += 1
                status = "error"
            elif not report.passed:
                failures += 1
                status = "FAIL"
            line = {"kind": kind, "instance": report.fingerprint, "status": status}
            if report.error is not None:
                line["error"] = report.error
            if not report.passed:
                line["failed"] = report.failed_checks()
            _emit(line, args.out)
    print(
        f"roundtrip: {total} instances, {failures} failures, {errors} errors",
        file=sys.stderr,
    )
    return 1 if failures else 0


def _cmd_bench(args) -> int:
    instances = list(
        _verify_corpus(args.seed, args.count, args.n_max, args.k_max)
    )
    t0 = time.perf_counter()
    for instance in instances:
        treecover.cover(instance)
    t1 = time.perf_counter()
    for instance in instances:
        exact.exact_ct(instance)
    t2 = time.perf_counter()
    print(f"instances: {len(instances)} (n <= {args.n_max}, k <= {args.k_max})")
    print(f"approx total: {t1 - t0:.3f}s ({(t1 - t0) / len(instances) * 1e3:.2f} ms each)")
    print(f"exact  total: {t2 - t1:.3f}s ({(t2 - t1) / len(instances) * 1e3:.2f} ms each)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
