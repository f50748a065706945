"""
Expressions and their charts
============================

A behaviour is written with five constructions: 0 (stop), vN (emit
variable N), a.e (do action a, then e), e+f (offer both), and
mu vN.e (loop).  Expanding an expression walks its derivatives and
produces a chart: states, labelled transitions, and variable outputs.
"""

from chartdist import (
    expand, format_chart_text, format_expr, free_vars, parse_expr, substitute,
)

# parse and print are inverse to each other
e = parse_expr("a.(a.0 + b.mu v1.a.v1)+b.mu v1.a.v1")
print("expression:", format_expr(e))
print("free variables:", sorted(free_vars(e)) or "none")

# one step of behaviour: the moves of the start state of its chart,
# each target named by its canonical text
chart = expand(e)
for letter, target in sorted((a, t) for (q, a, t) in chart.trans if q == chart.start):
    print(f"  --{letter}-->", target)

# a loop unfolds into itself
loop = expand(parse_expr("mu v1.a.v1"))
print("loop unfolds to itself:", loop.trans == {(loop.start, "a", loop.start)})

# substitution is capture avoiding: the binder below renames instead of
# swallowing the free v1 we plug in
host = parse_expr("mu v1.a.v2")
print("before:", format_expr(host))
print("after [v1/v2]:", format_expr(substitute(host, [(2, parse_expr("v1"))])))

# the full chart of the first expression: four reachable states
print()
print(format_chart_text(chart))
