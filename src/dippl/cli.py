"""dippl command line: parse, compile, query, and benchmark programs.

Subcommands::

    dippl infer <file> (--query <expr> | --all-marginals) [--init x=true,y=false]
                [--json] [--float]
    dippl oracle <file> --query <expr> [--init ...] [--check] [--json]
    dippl compile <file> [--dot out.dot] [--stats out.json]
    dippl bench --family chain|grid|ladder --sizes a..b[:step] [--det d,...]
                --seed n --out file.csv

``infer --all-marginals`` reports the marginal of every program variable
in the output state, from one conditioning on the initial state, under
``marginals`` (by variable, in program order).

Exit codes: 0 success, 1 malformed input or bad usage, 2 infeasible
evidence (every execution path rejected), 3 internal errors (including
oracle runs beyond the variable cap).

``bench`` writes one CSV row per (family, size, determinism) cell with
the schema ``family,size,determinism,seed,node_count,compile_ms,
query_ms``; timings are wall-clock milliseconds, and ``determinism`` is
0 for families without a determinism knob.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import time
from typing import Optional

from . import generators
from .compiler import compile_program
from .infer import (
    InferenceResult,
    OracleTooLarge,
    Query,
    check_against_oracle,
    check_oracle_cap,
    event_prob,
    marginals,
)
from .lang import ParseError, Program, UnknownVariable, parse, parse_expr
from .oracle import INFEASIBLE, State, output_marginal

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_program(path: str) -> Program:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    return parse(source)


def _open_output(path: str, newline: Optional[str] = None):
    """Open ``path`` for writing; a path that cannot be written is bad usage."""
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _parse_init(text: Optional[str], program: Program) -> State:
    """Initial state: all-false, overridden by ``x=true,y=false`` entries."""
    state = State.all_false(program.vars)
    if not text:
        return state
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, raw = item.partition("=")
        name, raw = name.strip(), raw.strip().lower()
        if raw not in ("true", "false"):
            raise _UsageError(f"bad init entry {item!r} (want name=true|false)")
        if name not in program.vars:
            raise _UsageError(f"init names unknown variable {name!r}")
        state = state.with_value(name, raw == "true")
    return state


def _value_fields(value, floats: bool) -> dict:
    if value is INFEASIBLE:
        return {"infeasible": True, "value": None, "decimal": None}
    return {
        "infeasible": False,
        "value": None if floats else str(value),
        "decimal": float(value),
    }


def _result_fields(result: InferenceResult, floats: bool) -> dict:
    numerator, denominator = result.numerator, result.denominator
    if floats:  # formatting only: the answer is exact either way
        numerator, denominator = float(numerator), float(denominator)
    return {
        **_value_fields(result.value, floats),
        "numerator": str(numerator),
        "denominator": str(denominator),
    }


def _emit(report: dict, as_json: bool):
    if as_json:
        print(json.dumps(report, indent=2))
        return
    for key, val in report.items():
        if isinstance(val, dict):  # one line per entry, its fields as k=v
            print(f"{key}:")
            for name, fields in val.items():
                print(f"  {name}: " + " ".join(f"{k}={v}" for k, v in fields.items()))
        else:
            print(f"{key}: {val}")


def cmd_infer(args) -> int:
    program = _read_program(args.file)
    query = None if args.all_marginals else parse_expr(args.query)
    init = _parse_init(args.init, program)
    compiled = compile_program(program)
    if query is None:
        results = marginals(compiled, init)
        answer = {
            "marginals": {
                name: _result_fields(result, args.float) for name, result in results.items()
            }
        }
    else:
        results = {args.query: event_prob(compiled, init, query)}
        answer = {"query": args.query, **_result_fields(results[args.query], args.float)}
    report = {
        "program": args.file,
        **answer,
        "node_count": compiled.stats.node_count,
        "compile_ms": round(compiled.stats.compile_ms, 3),
        # every result of one call carries the same query_ms
        "query_ms": round(max((r.stats.query_ms for r in results.values()), default=0.0), 3),
        "mode": "float" if args.float else "rational",
    }
    _emit(report, args.json)
    infeasible = any(result.infeasible for result in results.values())
    return EXIT_INFEASIBLE if infeasible else EXIT_OK


def cmd_oracle(args) -> int:
    program = _read_program(args.file)
    check_oracle_cap(program)
    query = parse_expr(args.query)
    init = _parse_init(args.init, program)
    begin = time.perf_counter()
    if args.check:  # query_ms covers the compile and the comparison too
        check = check_against_oracle(program, Query(init_state=init, event=query))
        value = check.oracle_value
    else:
        value = output_marginal(program, init, query)
    elapsed_ms = (time.perf_counter() - begin) * 1000.0
    report = {
        "program": args.file,
        "query": args.query,
        **_value_fields(value, floats=False),
        "query_ms": round(elapsed_ms, 3),
        "mode": "oracle",
    }
    if args.check:
        compiled_value = check.compiled_value
        report["check"] = "equal" if check.equal else "MISMATCH"
        report["compiled_value"] = (
            None if compiled_value is INFEASIBLE else str(compiled_value)
        )
    _emit(report, args.json)
    if args.check and not check.equal:
        return EXIT_INTERNAL
    return EXIT_INFEASIBLE if value is INFEASIBLE else EXIT_OK


def cmd_compile(args) -> int:
    program = _read_program(args.file)
    # open the outputs first, so a bad path fails before the compile
    with contextlib.ExitStack() as outputs:
        dot = outputs.enter_context(_open_output(args.dot)) if args.dot else None
        stats_out = outputs.enter_context(_open_output(args.stats)) if args.stats else None
        compiled = compile_program(program)
        store = compiled.store
        if dot is not None:
            dot.write(store.to_dot(compiled.phi))
        if stats_out is not None:
            stats = {
                "nodeCount": compiled.stats.node_count,
                "varOrder": [store.var_name(v) for v in range(store.num_vars)],
                "compileMs": round(compiled.stats.compile_ms, 3),
            }
            json.dump(stats, stats_out, indent=2)
            stats_out.write("\n")
    report = {
        "program": args.file,
        "node_count": compiled.stats.node_count,
        "store_nodes": compiled.stats.store_nodes,
        "compile_ms": round(compiled.stats.compile_ms, 3),
        "vars": len(program.vars),
        "flips": program.flip_count,
    }
    _emit(report, args.json)
    return EXIT_OK


def _parse_sizes(text: str) -> list[int]:
    """``a..b``, ``a..b:step``, or a comma-separated list."""
    text = text.strip()
    if ".." in text:
        span, _, step_text = text.partition(":")
        low_text, _, high_text = span.partition("..")
        try:
            low, high = int(low_text), int(high_text)
            step = int(step_text) if step_text else 1
        except ValueError:
            raise _UsageError(f"bad size range {text!r}") from None
        if step <= 0 or high < low:
            raise _UsageError(f"bad size range {text!r}")
        return list(range(low, high + 1, step))
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise _UsageError(f"bad size list {text!r}") from None


def _bench_cell(spec: generators.BenchSpec, det_text: str) -> dict:
    compiled = compile_program(parse(spec.source()))
    result = event_prob(compiled, None, parse_expr(spec.query_var()))
    return {
        "family": spec.family,
        "size": spec.size,
        "determinism": det_text if spec.family == "grid" else "0",
        "seed": spec.seed,
        "node_count": compiled.stats.node_count,
        "compile_ms": round(compiled.stats.compile_ms, 3),
        "query_ms": round(result.stats.query_ms, 3),
    }


BENCH_COLUMNS = [
    "family",
    "size",
    "determinism",
    "seed",
    "node_count",
    "compile_ms",
    "query_ms",
]


def cmd_bench(args) -> int:
    sizes = _parse_sizes(args.sizes)
    dets = [d.strip() for d in args.det.split(",")] if args.det else ["0"]
    if args.family != "grid" and args.det:
        raise _UsageError("--det only applies to the grid family")
    try:
        specs = [
            (generators.BenchSpec(args.family, size, det, args.seed), det)
            for size in sizes
            for det in dets
        ]
    except ValueError as exc:  # a size below 1, a bad or out-of-range --det
        raise _UsageError(str(exc)) from None
    with _open_output(args.out, newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        for spec, det in specs:
            row = _bench_cell(spec, det)
            writer.writerow(row)
            print(
                f"{row['family']} size={row['size']} det={row['determinism']} "
                f"nodes={row['node_count']} compile={row['compile_ms']}ms "
                f"query={row['query_ms']}ms"
            )
    print(f"wrote {len(specs)} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="dippl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    infer = sub.add_parser("infer", help="compile a program and answer a query")
    infer.add_argument("file")
    asked = infer.add_mutually_exclusive_group(required=True)
    asked.add_argument("--query", help="Boolean expression over program variables")
    asked.add_argument(
        "--all-marginals", action="store_true", help="the marginal of every program variable"
    )
    infer.add_argument("--init", help="initial state overrides, e.g. x=true,y=false")
    infer.add_argument("--json", action="store_true")
    infer.add_argument("--float", action="store_true", help="print the exact answer as floats")
    infer.set_defaults(func=cmd_infer)

    oracle_cmd = sub.add_parser("oracle", help="answer a query with the reference interpreter")
    oracle_cmd.add_argument("file")
    oracle_cmd.add_argument("--query", required=True)
    oracle_cmd.add_argument("--init")
    oracle_cmd.add_argument("--check", action="store_true", help="also compile and compare exactly")
    oracle_cmd.add_argument("--json", action="store_true")
    oracle_cmd.set_defaults(func=cmd_oracle)

    compile_cmd = sub.add_parser("compile", help="compile a program; dump DOT and stats")
    compile_cmd.add_argument("file")
    compile_cmd.add_argument("--dot", help="write the compiled diagram in GraphViz format")
    compile_cmd.add_argument("--stats", help="write {nodeCount, varOrder, compileMs} JSON")
    compile_cmd.add_argument("--json", action="store_true")
    compile_cmd.set_defaults(func=cmd_compile)

    bench = sub.add_parser("bench", help="sweep a benchmark family, write CSV")
    bench.add_argument("--family", required=True, choices=("chain", "grid", "ladder"))
    bench.add_argument("--sizes", required=True, help="a..b[:step] or comma list")
    bench.add_argument("--det", help="comma list of determinism fractions (grid only)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, ParseError, UnknownVariable) as exc:
        print(f"dippl: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OracleTooLarge as exc:
        print(f"dippl: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        print(f"dippl: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
