"""Exact behavioural distances for nondeterministic processes.

Processes are given as recursive expressions, as charts (finite
transition systems with variable outputs), or as string diagrams.
The package computes strong bisimilarity, the stratified hierarchy,
and the exact discounted behavioural distance, and it can synthesize
and check finitary certificates for distance bounds.
"""

from .bisim import (
    Partition, Refinement, bisimilar, coarsest_partition, is_bisimulation,
    quotient, stratified_level, witness_pairs,
)
from .chart import (
    Chart, ChartFormatError, Prechart, chart_to_dot, disjoint_union,
    empty_chart, format_chart_text, live_vars, parse_chart_text,
    prefix_chart, reachable, rec_chart, subst_chart, sum_chart,
    tagged_union, variable_chart,
)
from .derive import (
    CBisim, CCoupling, CDecomp, CTop, CTriang, CWeaken, CertificateError,
    CertificateSyntaxError, SynthesisFailure, check, format_cert,
    joint_pair, joint_prechart, parse_cert, synthesize,
)
from .diagram import (
    Act, Cap, Copy, Cup, Del, DiagramSyntaxError, DiagramTypeError, Gen, Id,
    Merge, OpenChart, Seq, Sym, Tensor, Term, axiom_catalog, bend,
    c1_copy_pair, check_axiom, component, diagram_distance, format_term,
    from_expression, interpret, loop1, open_chart, open_chart_pair,
    parse_term, semantic_equal, term_to_dot, typecheck, zip_merge,
)
from .expr import (
    ExpansionBudgetError, Expr, ExprSyntaxError, Mu, Prefix, Sum, Var, ZERO,
    Zero, alpha_equivalent, alpha_normal, expand, format_expr, free_vars,
    parse_expr, step, substitute,
)
from .metric import (
    DistTable, MetricIterationError, bd_expressions, bd_kleene,
    bd_stratified, hausdorff, is_dyadic_or_zero, kleene_solve,
    level_distance, lift_edge, phi, split_table,
)
from .regbeh import (
    IntMorphism, RbMorphism, RbTypeError, embed_n, homset_distance,
    int_compose, int_counit, int_distance, int_id, int_sym, int_tensor,
    int_unit, rb_codiagonal, rb_compose, rb_dagger, rb_id, rb_inl, rb_inr,
    rb_oplus, rb_pair, rb_sym, rb_trace, rb_zero,
)

__version__ = "0.1.0"
