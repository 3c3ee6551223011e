"""How diagram size tracks the independence structure of a program.

Independent random variables factorize: the compiled diagram grows
linearly with their number, not exponentially.  Conditioning can also
be context-specific -- two variables independent only under one value
of a third -- and the diagram exploits that by sharing sub-functions
under the corresponding branch.
"""

from dippl import compile_program, gen_ladder, parse
from dippl.generators import gen_chain

print("k independent flips compile to an affine-size diagram:")
for k in (2, 4, 8, 16, 32, 64):
    compiled = compile_program(parse(gen_ladder(k)))
    print(f"  k={k:3}: {compiled.stats.node_count:4} nodes")

print()
print("chains (each variable depends on the previous) stay linear too,")
print("despite having 2^n execution paths:")
for n in (10, 20, 40, 80):
    compiled = compile_program(parse(gen_chain(n, seed=7)))
    print(f"  n={n:3}: {compiled.stats.node_count:4} nodes")

CONDITIONAL = """
z ~ flip(0.5);
if z {
  x ~ flip(0.6);
  y ~ flip(0.7)
} else {
  x ~ flip(0.4);
  y := x
}
"""

program = parse(CONDITIONAL)
compiled = compile_program(program)
store, banks = compiled.store, compiled.banks

print()
print("context-specific independence: x and y are independent only when")
print(f"z is true; whole diagram: {compiled.stats.node_count} nodes")

# fix the branch variable and drop it: what remains under z=true is
# exactly the two-independent-flips diagram
branch_flip = banks.flips[0]
z_out = banks.primed["z"]
then_part = store.exists(
    {branch_flip, z_out}, compiled.phi & store.cube({branch_flip: True, z_out: True})
)
else_part = store.exists(
    {branch_flip, z_out}, compiled.phi & store.cube({branch_flip: False, z_out: False})
)
print(f"  z=true cofactor:  {store.node_count(then_part)} nodes "
      f"(matches the independent pair)")
print(f"  z=false cofactor: {store.node_count(else_part)} nodes "
      f"(x and y stay coupled)")

print()
print("the diagram itself, in GraphViz form (dashed = low, solid = high):")
print(store.to_dot(then_part))
