"""Golden outputs: what the compiler and the query layer give on a fixed
corpus, recorded so that a change which should leave them alone is
checked against them (``test_golden.py``).

Per program it records ``phi``'s node count and the store's node count
after compile, SHA-256 digests of the DOT rendering of ``phi`` and of
the ``varOrder`` list (``dippl compile --stats``), and, from the
all-false start state, the acceptance probability and every marginal as
exact strings.  DOT names nodes by handle, so its digest pins the order
in which the store allocates them.

The corpus: the README example program, the 4-grid at determinism 0.5
(seed 11), the benchmark's seed-1 6-grids at its three determinism
levels, a 300-long chain, a ladder, and 50 random programs
(``helpers.random_program``) that observe and, by the oracle, accept
from the all-false state with positive probability; most of those read
their inputs, so their queries restrict ``phi`` to the start state.

Regenerate the file only for a change that means to alter these outputs,
and say so with the change:

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import helpers
from dippl import State, accept_prob, accepting, compile_program, marginals, parse, unparse
from dippl.generators import gen_chain, gen_grid, gen_ladder

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

README_PROGRAM = """\
x ~ flip(0.5);
if x { y ~ flip(0.6) } else { y ~ flip(0.4) };
if y { z ~ flip(0.6) } else { z ~ flip(0.9) }
"""

# ``perfbench/workloads.py`` GRID_SEED_POOL entry that workload seed 1 picks
BENCHMARK_GRID_SEED = 40
RANDOM_PROGRAMS = 50


def corpus() -> list[tuple[str, str]]:
    """``(name, source)`` for every program of the corpus, in order."""
    programs = [
        ("readme", README_PROGRAM),
        ("grid4-0.5-seed11", gen_grid(4, "0.5", seed=11)),
    ]
    for d in ("0", "0.5", "0.9"):
        source = gen_grid(6, d, seed=BENCHMARK_GRID_SEED)
        programs.append((f"grid6-{d}-seed{BENCHMARK_GRID_SEED}", source))
    programs.append(("chain300-seed1", gen_chain(300, 1)))
    programs.append(("ladder40", gen_ladder(40)))
    rng = random.Random(2024)
    fixed = len(programs)
    while len(programs) < fixed + RANDOM_PROGRAMS:
        program = helpers.random_program(rng)
        source = unparse(program)
        if "observe(" in source and accepting(program, State.all_false(program.vars)):
            programs.append((f"random-{len(programs) - fixed:02d}", source))
    return programs


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record(source: str) -> dict:
    """The golden outputs of one program."""
    compiled = compile_program(parse(source))
    store = compiled.store
    var_order = [store.var_name(v) for v in range(store.num_vars)]
    return {
        "phi_nodes": compiled.stats.node_count,
        "store_nodes": compiled.stats.store_nodes,
        "dot_sha256": _digest(store.to_dot(compiled.phi)),
        "var_order_sha256": _digest(json.dumps(var_order)),
        "accept": str(accept_prob(compiled)),
        "marginals": {name: str(result.value) for name, result in marginals(compiled).items()},
    }


def main():
    golden = {name: record(source) for name, source in corpus()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as out:
        json.dump(golden, out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"wrote {len(golden)} programs to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
