"""Command-line surface.

Subcommands: ``gen`` (seeded instances), ``solve`` (approximate or exact),
``bounds`` (per-instance lower/upper bounds from a run trace), ``reduce``
(reduction artifacts), and ``verify`` / ``roundtrip`` (the property harness).
The exit code is 0 iff no assertion failed; verification errors on individual
instances (infeasible input, oracle guard) are reported but do not fail the
run.  Malformed input (``InputError``), unsatisfiable generator shapes
(``GenerationError``) and output paths that cannot be written (``OSError``)
end the run with a one-line message on stderr and exit code 2.  JSON-line
results go to stdout, or with ``--out`` to a file that each run rewrites once
it emits its first line or ends without error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import exact, reductions, serialize, treecover, verify
from .generate import GEN_KINDS, GenerationError, GenSpec, SplitMix64
from .generate import generate as generate_instance
from .model import KIND, CtInstance, InputError


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # gen's --out is stored as ``target``
        with _jsonl_sink(getattr(args, "out", None)) as emit:
            return args.handler(args, emit)
    except (InputError, GenerationError) as exc:
        print(f"pocover: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output path that cannot be written
        reason = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
        print(f"pocover: error: {reason}", file=sys.stderr)
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
    p_gen.add_argument(
        "--out", type=Path, dest="target", help="file (count=1) or directory"
    )
    p_gen.add_argument("--shape", default="{}", help="JSON shape params")
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

    return parser


@contextmanager
def _jsonl_sink(out: Path | None):
    """Yield ``emit(doc)``, which writes ``doc`` as one JSON line to stdout,
    or to ``out`` when given.  ``out`` is rewritten at the first line, or
    emptied by a run that ends without one; a run that raises before its
    first line leaves it as it was."""
    if out is None:
        yield lambda doc: print(json.dumps(doc, sort_keys=True))
        return
    fh = None

    def emit(doc) -> None:
        nonlocal fh
        fh = fh or out.open("w")
        print(json.dumps(doc, sort_keys=True), file=fh)

    try:
        yield emit
        fh = fh or out.open("w")
    finally:
        if fh is not None:
            fh.close()


def _check_least(option: str, value: int, least: int) -> None:
    if value < least:
        raise InputError(f"{option} must be at least {least}, got {value}")


def _cmd_gen(args, emit) -> int:
    _check_least("--count", args.count, 1)
    try:
        shape = json.loads(args.shape)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise InputError(f"shape is not valid JSON: {exc}") from exc
    instances = []
    for i in range(args.count):
        spec = GenSpec(
            kind=args.kind, n=args.n, k=args.k, seed=args.seed + i, shape=shape
        )
        instances.append(generate_instance(spec))
        if args.emit_dot and i == 0:
            args.emit_dot.write_text(serialize.emit_dot(instances[0]))
    if args.target is None:
        for instance in instances:
            emit(serialize.instance_to_doc(instance))
    elif args.count == 1:
        args.target.write_text(serialize.dumps_instance(instances[0]))
    else:
        args.target.mkdir(parents=True, exist_ok=True)
        for i, instance in enumerate(instances):
            path = args.target / f"{args.kind}_{args.seed + i}.json"
            path.write_text(serialize.dumps_instance(instance))
    return 0


def _load(path: Path, expected: type = object):
    """Parse the instance file at ``path``; it must hold an ``expected``."""
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    instance = serialize.loads_instance(text)
    if not isinstance(instance, expected):
        raise InputError(
            f"{path}: expected {expected.__name__}, found {type(instance).__name__}"
        )
    return instance


# kind -> the names of a solve line's solution field and value field
_SOLVE_FIELDS = {
    "ct": ("cover", "cardinality"),
    "bpcc": ("cover", "cardinality"),
    "rcp": ("solution", "profit"),
    "dksh": ("solution", "weight"),
}


def _cmd_solve(args, emit) -> int:
    for i, path in enumerate(args.files):
        instance = _load(path)
        if args.emit_dot and i == 0:
            args.emit_dot.write_text(serialize.emit_dot(instance))
        kind = KIND[type(instance)]
        doc = {"file": str(path), "fingerprint": serialize.fingerprint(instance)}
        try:
            if kind == "ct" and args.mode == "approx":
                result = treecover.cover(instance)
                b = treecover.bounds(result.trace, instance)
                solution, value = result.cover, len(result.cover)
                doc["trace"] = serialize.trace_to_doc(result.trace)
                doc["bounds"] = {"lower": b.lower, "upper": b.upper, "alpha": b.alpha}
            else:
                solution, value = exact.optimum(instance)
        except (treecover.InfeasibleInstance, exact.SizeGuardError) as exc:
            doc["error"] = str(exc)
        else:
            name, value_name = _SOLVE_FIELDS[kind]
            doc[name] = serialize.cover_to_doc(solution) if name == "cover" else sorted(solution)
            doc[value_name] = value
        emit(doc)
    return 0


def _cmd_bounds(args, emit) -> int:
    for path in args.files:
        instance = _load(path, CtInstance)
        try:
            result = treecover.cover(instance)
        except treecover.InfeasibleInstance as exc:
            emit({"file": str(path), "error": str(exc)})
            continue
        b = treecover.bounds(result.trace, instance)
        emit(
            {
                "file": str(path),
                "lower": b.lower,
                "upper": b.upper,
                "alpha": b.alpha,
                "cardinality": len(result.cover),
                "forced": len(result.trace.forced_prefix),
            }
        )
    return 0


def _cmd_reduce(args, emit) -> int:
    source_type, build = reductions.REDUCTIONS[args.kind]
    for i, path in enumerate(args.files):
        instance = _load(path, source_type)
        if args.kind == "dks_to_urcp":
            k = args.k if args.k is not None else instance.budget
            artifact = build(instance.graph, k, args.m)
            source_fingerprint = reductions.fingerprint_graph(instance.graph)
        else:
            artifact = build(instance)
            source_fingerprint = serialize.fingerprint(instance)
        doc = serialize.instance_to_doc(artifact.target)
        doc["reduction"] = artifact.kind
        doc["source_fingerprint"] = source_fingerprint
        doc["parameters"] = artifact.parameters
        if args.emit_dot and i == 0:
            args.emit_dot.write_text(serialize.emit_dot(artifact.target))
        emit(doc)
    return 0


def _verify_corpus(seed: int, count: int, n_max: int, k_max: int):
    rng = SplitMix64(seed)
    for i in range(count):
        n = 1 + rng.randrange(n_max)
        k = 1 + rng.randrange(k_max)
        spec = GenSpec(kind="out_tree", n=n, k=k, seed=seed + 7919 * i)
        yield generate_instance(spec)


def _cmd_verify(args, emit) -> int:
    _check_least("--count", args.count, 0)
    _check_least("--n-max", args.n_max, 1)
    _check_least("--k-max", args.k_max, 1)
    if args.files:
        instances = [_load(p, CtInstance) for p in args.files]
    else:
        instances = list(
            _verify_corpus(args.seed, args.count, args.n_max, args.k_max)
        )
    lines = []
    for instance in instances:
        report = verify.verify_ct(instance, with_exact=args.with_exact)
        line = {
            "instance": report.fingerprint,
            "alg": report.alg_cardinality,
            "exact": report.exact_cardinality,
            "lb": report.lower,
            "ub": report.upper,
            "alpha": report.alpha,
            "ratio": report.ratio,
        }
        if not report.passed:
            # minimal reproduction: the instance itself; _report adds the failed checks
            line["repro"] = serialize.instance_to_doc(instance)
            line["seed"] = args.seed
        lines.append((report, line))
    return _report("verify", lines, emit)


def _cmd_roundtrip(args, emit) -> int:
    _check_least("--count", args.count, 0)
    kinds = reductions.REDUCTION_KINDS if args.kind == "all" else (args.kind,)

    def lines():  # each line is emitted as soon as its check ends
        for kind in kinds:
            draw, check = verify.ROUNDTRIPS[kind]
            rng = SplitMix64(args.seed)
            for i in range(args.count):
                report = check(draw(rng, args.seed + 104729 * i))
                yield report, {"kind": kind, "instance": report.fingerprint}

    return _report("roundtrip", lines(), emit)


def _report(command: str, lines, emit) -> int:
    """Emit each (report, line) pair's line with its status and, where they
    apply, the error and the failed checks; then print the summary on stderr.
    Returns 1 iff some check failed; error entries do not fail the run."""
    total = 0
    failures = 0
    errors = 0
    for report, line in lines:
        total += 1
        if report.error is not None:
            errors += 1
            line["status"] = "error"
            line["error"] = report.error
        elif not report.passed:
            failures += 1
            line["status"] = "FAIL"
        else:
            line["status"] = "pass"
        if not report.passed:
            line["failed"] = report.failed_checks()
        emit(line)
    print(
        f"{command}: {total} instances, {failures} failures, {errors} errors",
        file=sys.stderr,
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
