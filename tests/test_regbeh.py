"""The category of expression tuples and its compact closure."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chartdist.expr as expr_module
from chartdist import Mu, Prefix, Var, parse_expr
from chartdist.regbeh import (
    IntMorphism, RbMorphism, RbTypeError, embed_n, homset_distance,
    int_compose, int_counit, int_distance, int_id, int_sym, int_tensor,
    int_unit, rb_codiagonal, rb_compose, rb_dagger, rb_id, rb_inl, rb_inr,
    rb_oplus, rb_pair, rb_sym, rb_trace, rb_zero,
)
from helpers import python, rand_rb, ref_rb_dagger


def rows_alpha_equal(f, g):
    """Same shape, and each pair of rows one nameless node in one table."""
    table = expr_module._Table()
    return (f.dom, f.cod) == (g.dom, g.cod) and all(
        expr_module._nameless(table, r1) == expr_module._nameless(table, r2)
        for r1, r2 in zip(f.rows, g.rows))


def test_morphism_validates_rows():
    RbMorphism(1, 2, (Var(2),))
    with pytest.raises(ValueError):
        RbMorphism(1, 1, (Var(2),))
    with pytest.raises(ValueError):
        RbMorphism(2, 1, (Var(1),))


def test_identity_laws_exact():
    rng = random.Random(41)
    for _ in range(40):
        f = rand_rb(rng, rng.randint(0, 3), rng.randint(0, 3))
        assert rb_compose(rb_id(f.dom), f) == f
        assert rb_compose(f, rb_id(f.cod)) == f


def test_composition_associative():
    rng = random.Random(42)
    for _ in range(40):
        a, b, c, d = (rng.randint(0, 3) for _ in range(4))
        f = rand_rb(rng, a, b)
        g = rand_rb(rng, b, c)
        h = rand_rb(rng, c, d)
        assert rows_alpha_equal(
            rb_compose(rb_compose(f, g), h),
            rb_compose(f, rb_compose(g, h)),
        )


def test_compose_type_mismatch():
    with pytest.raises(RbTypeError):
        rb_compose(rb_id(1), rb_id(2))


def test_pairing_universal_property():
    rng = random.Random(43)
    for _ in range(40):
        m, n, p = (rng.randint(0, 3) for _ in range(3))
        f = rand_rb(rng, m, p)
        g = rand_rb(rng, n, p)
        paired = rb_pair(f, g)
        assert rb_compose(rb_inl(m, n), paired) == f
        assert rb_compose(rb_inr(m, n), paired) == g


def test_pair_requires_matching_cod():
    with pytest.raises(RbTypeError):
        rb_pair(rb_id(1), rb_zero(2))


def test_oplus_and_sym():
    assert rb_oplus(rb_id(1), rb_id(1)) == rb_id(2)
    assert rb_sym(0, 3) == rb_id(3)
    for m, n in [(1, 1), (2, 1), (2, 3)]:
        assert rb_compose(rb_sym(m, n), rb_sym(n, m)) == rb_id(m + n)


def test_codiagonal_folds_injections():
    for n in range(4):
        assert rb_compose(rb_inl(n, n), rb_codiagonal(n)) == rb_id(n)
        assert rb_compose(rb_inr(n, n), rb_codiagonal(n)) == rb_id(n)


def test_dagger_golden_cases():
    f = RbMorphism(1, 2, (Prefix("a", Var(2)),))
    assert rb_dagger(f) == RbMorphism(1, 1, (Mu(2, Prefix("a", Var(2))),))
    # no self-reference, no binder
    g = RbMorphism(1, 2, (Var(1),))
    assert rb_dagger(g) == RbMorphism(1, 1, (Var(1),))
    with pytest.raises(RbTypeError):
        rb_dagger(RbMorphism(2, 1, (Var(1), Var(1))))


@given(st.randoms(use_true_random=False), st.integers(0, 4), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_dagger_matches_the_recursive_reference(rng, n, p):
    f = rand_rb(rng, n, p + n)
    assert rb_dagger(f) == ref_rb_dagger(f)


def test_dagger_depth_does_not_grow_with_the_wires():
    # a 300-wire identity composed with itself, interpreted under a
    # recursion limit of 250: the trace solves a 300-row system
    script = (
        "import sys\n"
        "from chartdist import diagram_distance, parse_term\n"
        "wires = 'id(' + '>' * 300 + ')'\n"
        "left, right = parse_term(wires + ' ; ' + wires), parse_term(wires)\n"
        "sys.setrecursionlimit(250)\n"
        "print(diagram_distance(left, right))\n"
    )
    done = python(script)
    assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr


def test_dagger_fixpoint_law():
    rng = random.Random(44)
    for _ in range(60):
        n = rng.randint(1, 2)
        p = rng.randint(0, 2)
        f = rand_rb(rng, n, p + n)
        fd = rb_dagger(f)
        unfolded = rb_compose(f, rb_pair(rb_id(p), fd))
        assert homset_distance(fd, unfolded) == 0


def _comp_last(f, g, p):
    # substitute g's single row for v(p+1) inside f's
    return rb_compose(f, rb_pair(rb_inl(p, 1), g))


def test_dagger_parameter_identity():
    rng = random.Random(45)
    for _ in range(40):
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        f = rand_rb(rng, 1, p + 1)
        g = rand_rb(rng, p, q)
        lhs = rb_dagger(rb_compose(f, rb_oplus(g, rb_id(1))))
        rhs = rb_compose(rb_dagger(f), g)
        assert homset_distance(lhs, rhs) == 0


def test_dagger_composition_identity():
    rng = random.Random(46)
    for _ in range(40):
        p = rng.randint(0, 2)
        f = rand_rb(rng, 1, p + 1)
        g = rand_rb(rng, 1, p + 1)
        lhs = rb_dagger(_comp_last(f, g, p))
        inner = rb_dagger(_comp_last(g, f, p))
        rhs = rb_compose(f, rb_pair(rb_id(p), inner))
        assert homset_distance(lhs, rhs) == 0


def test_dagger_double_dagger_identity():
    rng = random.Random(47)
    for _ in range(40):
        p = rng.randint(0, 2)
        f = rand_rb(rng, 1, p + 2)
        lhs = rb_dagger(rb_dagger(f))
        rhs = rb_dagger(rb_compose(f, rb_oplus(rb_id(p), rb_codiagonal(1))))
        assert homset_distance(lhs, rhs) == 0


def test_dagger_pairing_identity():
    rng = random.Random(48)
    for _ in range(40):
        p = rng.randint(0, 2)
        g = rand_rb(rng, 1, p + 2)
        f = rand_rb(rng, 1, p + 2)
        lhs = rb_dagger(rb_pair(g, f))
        fd = rb_dagger(f)  # 1 -> p+1
        h = rb_compose(g, rb_pair(rb_id(p + 1), fd))
        hd = rb_dagger(h)
        rhs = rb_pair(hd, rb_compose(fd, rb_pair(rb_id(p), hd)))
        assert homset_distance(lhs, rhs) == 0


def test_trace_yanking():
    assert rb_trace(rb_sym(1, 1), 1) == rb_id(1)


def test_trace_shapes_and_errors():
    g = rand_rb(random.Random(49), 3, 2)
    traced = rb_trace(g, 2)
    assert (traced.dom, traced.cod) == (1, 0)
    with pytest.raises(RbTypeError):
        rb_trace(g, 3)


def test_trace_of_untouched_wires_is_identity():
    # feeding back wires nobody reads leaves the rest alone
    f = rand_rb(random.Random(50), 2, 2)
    g = rb_oplus(f, rb_id(1))
    assert homset_distance(rb_trace(g, 1), f) == 0


def test_operations_are_nonexpansive():
    rng = random.Random(51)
    for _ in range(30):
        p = rng.randint(0, 2)
        f1 = rand_rb(rng, 1, p + 1)
        f2 = rand_rb(rng, 1, p + 1)
        g1 = rand_rb(rng, p + 1, 2)
        g2 = rand_rb(rng, p + 1, 2)
        d_f = homset_distance(f1, f2)
        d_g = homset_distance(g1, g2)
        bound = max(d_f, d_g)
        assert homset_distance(rb_compose(f1, g1), rb_compose(f2, g2)) <= bound
        assert homset_distance(rb_pair(f1, f1), rb_pair(f2, f2)) <= d_f
        assert homset_distance(rb_oplus(f1, g1), rb_oplus(f2, g2)) <= bound
        assert homset_distance(rb_dagger(f1), rb_dagger(f2)) <= d_f


def test_trace_is_nonexpansive():
    rng = random.Random(52)
    for _ in range(30):
        g1 = rand_rb(rng, 2, 2)
        g2 = rand_rb(rng, 2, 2)
        assert homset_distance(rb_trace(g1, 1), rb_trace(g2, 1)) <= \
            homset_distance(g1, g2)


def test_homset_distance_requires_equal_interface():
    with pytest.raises(RbTypeError):
        homset_distance(rb_id(1), rb_id(2))


# --- paired interfaces ----------------------------------------------------


def test_int_payload_convention():
    f = IntMorphism((1, 1), (1, 1), rb_id(2))
    assert f.dom_pair == (1, 1) and f.cod_pair == (1, 1)
    with pytest.raises(RbTypeError):
        IntMorphism((1, 1), (1, 1), rb_id(3))


def test_int_identity_and_composition():
    rng = random.Random(53)
    for _ in range(25):
        k, l, m, n = (rng.randint(0, 2) for _ in range(4))
        f = IntMorphism((k, l), (m, n), rand_rb(rng, k + n, l + m))
        left = int_compose(int_id((k, l)), f)
        right = int_compose(f, int_id((m, n)))
        assert int_distance(left, f) == 0
        assert int_distance(right, f) == 0


def test_int_sym_is_self_inverse_up_to_distance():
    for a, b in [((1, 0), (1, 0)), ((1, 1), (2, 0)), ((0, 1), (1, 1))]:
        s = int_sym(a, b)
        back = int_sym(b, a)
        assert int_distance(int_compose(s, back), int_id(
            (a[0] + b[0], a[1] + b[1]))) == 0


def test_int_snake_identities():
    # bent identity straightens out on either side
    a = (1, 0)
    adual = (0, 1)
    lhs = int_compose(
        int_tensor(int_unit(a), int_id(a)),
        int_tensor(int_id(a), int_counit(a)),
    )
    assert int_distance(lhs, int_id(a)) == 0
    rhs = int_compose(
        int_tensor(int_id(adual), int_unit(a)),
        int_tensor(int_counit(a), int_id(adual)),
    )
    assert int_distance(rhs, int_id(adual)) == 0


def test_embedding_is_isometric():
    rng = random.Random(54)
    for _ in range(40):
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        f = rand_rb(rng, m, n)
        g = rand_rb(rng, m, n)
        ef, eg = embed_n(f), embed_n(g)
        assert ef.dom_pair == (m, 0) and ef.cod_pair == (n, 0)
        assert int_distance(ef, eg) == homset_distance(f, g)


def test_int_tensor_shapes():
    f = embed_n(rand_rb(random.Random(55), 1, 2))
    g = int_unit((1, 0))
    t = int_tensor(f, g)
    assert t.dom_pair == (1, 0)
    assert t.cod_pair == (2 + 1, 1)


def test_int_compose_rejects_mismatched_interfaces():
    with pytest.raises(RbTypeError, match=r"cannot compose \(1, 0\) with \(0, 1\)"):
        int_compose(int_id((1, 0)), int_id((0, 1)))
