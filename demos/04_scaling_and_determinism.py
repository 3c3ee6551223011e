"""Benchmark-style sweeps: path explosion and the effect of determinism.

Three observations, at desk scale:

1. the enumerative interpreter's cost explodes with chain length while
   compile-and-count stays flat;
2. compiled chain diagrams grow affinely, so long chains stay cheap;
3. replacing grid flips with constants (determinism) speeds up grid
   compilation, because deterministic fragments collapse to shared
   sub-functions.

The same sweeps are available from the command line via ``dippl bench``,
which writes them as CSV.
"""

import time

from dippl import State, compile_program, event_prob, output_marginal, parse, parse_expr
from dippl.generators import BenchSpec

print("interpreter vs compiler on growing chains (seconds):")
print(f"  {'n':>3} {'paths':>6} {'interpret':>10} {'compile+query':>14}")
for n in (6, 8, 10, 12):
    spec = BenchSpec("chain", n, seed=7)
    program = parse(spec.source())
    init = State.all_false(program.vars)
    query = parse_expr(spec.query_var())

    begin = time.perf_counter()
    compiled = compile_program(program)
    value = event_prob(compiled, init, query).value
    compiled_time = time.perf_counter() - begin

    begin = time.perf_counter()
    reference = output_marginal(program, init, query)
    interpreter_time = time.perf_counter() - begin

    assert reference == value
    print(f"  {n:>3} {2**n:>6} {interpreter_time:>10.3f} {compiled_time:>14.4f}")

print()
print("chain diagrams grow affinely; querying length 150 is immediate:")
print(f"  {'n':>3} {'nodes':>6} {'ms':>7} {'probability':>12}")
for n in range(10, 151, 10):
    spec = BenchSpec("chain", n, seed=7)
    program = parse(spec.source())
    begin = time.perf_counter()
    compiled = compile_program(program)
    value = event_prob(compiled, None, parse_expr(spec.query_var())).value
    elapsed_ms = (time.perf_counter() - begin) * 1000
    print(f"  {n:>3} {compiled.stats.node_count:>6} {elapsed_ms:>7.2f} {float(value):>12.6f}")

print()
print("grid compilation vs fraction of flips made deterministic (k=4):")
for det in (0, 0.25, 0.5, 0.75, 0.9):
    program = parse(BenchSpec("grid", 4, det, seed=11).source())
    best = min(
        (lambda t0: (compile_program(program), time.perf_counter() - t0)[1])(
            time.perf_counter()
        )
        for _ in range(5)
    )
    print(f"  {int(det * 100):>3}% deterministic: {best * 1000:6.1f} ms, "
          f"{program.flip_count:2} flips left")
