"""
Wire diagrams for behaviours
============================

Charts with variables are morphisms: one input wire per way of being
started, one output wire per variable.  Diagrams build them from seven
generators with sequencing (;) and juxtaposition (*).  Backward wires
let outputs feed back into inputs, which is how loops arise.
"""

from chartdist import (
    axiom_catalog, bend, c1_copy_pair, diagram_distance, expand,
    format_chart_text, format_term, from_expression, interpret, parse_term,
    semantic_equal, typecheck,
)

# a diagram and its boundary words ('>' forward wire, '<' backward)
t = parse_term("copy ; act(a) * act(b) ; merge")
print("term:", format_term(t))
print("type:", " -> ".join(repr(w) for w in typecheck(t)))

# its meaning is a tuple of expressions, one per input wire
m = interpret(t)
print("payload rows:", [str(r) for r in m.payload.rows])
print()

# compiling an expression gives a diagram with the same behaviour
e = "mu v1.a.v1+b.v1"
compiled = from_expression(e, 1)
print("compiled", e, "to:")
print(" ", format_term(compiled))
row = interpret(compiled).payload.rows[0]
print("chart of the compiled term:")
print(format_chart_text(expand(row)))

# backward wires on the boundary can always be bent away
loop = parse_term("cup ; act(a) * id(<)")
bent = bend(loop)
print("loop type before bend:", typecheck(loop))
print("loop type after bend: ", typecheck(bent))
print("bent term:", format_term(bent))
print()

# the axiom catalogue: every equation holds semantically
for name, lhs, rhs in axiom_catalog():
    assert semantic_equal(lhs, rhs)
    print(f"  {name}: {format_term(lhs)}  =  {format_term(rhs)}")

# and the deliberately wrong variant of the action law fails
bad_l, bad_r = c1_copy_pair()
print()
print("copy variant fails:", not semantic_equal(bad_l, bad_r),
      " (distance", str(diagram_distance(bad_l, bad_r)) + ")")
