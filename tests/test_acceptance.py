"""Acceptance gate: one verdict line per criterion.

Verdict lines go to the real stdout so they show up in captured runs.
Every numeric comparison is exact; there are no tolerances anywhere.
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from chartdist import (
    CertificateError, CWeaken, Prefix, Refinement, SynthesisFailure, axiom_catalog,
    bd_stratified, bisimilar, c1_copy_pair, check, diagram_distance,
    disjoint_union, expand, format_cert, from_expression, interpret,
    is_dyadic_or_zero, kleene_solve, parse_cert, parse_expr, parse_term,
    semantic_equal, substitute, synthesize, typecheck,
)
from chartdist.regbeh import (
    embed_n, homset_distance, int_distance, rb_codiagonal, rb_compose,
    rb_dagger, rb_id, rb_inl, rb_oplus, rb_pair, rb_sym, rb_trace,
)
from helpers import (
    flip_one_act, perturb_expr, rand_chart, rand_expr, rand_forward, rand_rb,
)

FIG_LEFT = "a.(a.0 + b.mu v1.a.v1)+b.mu v1.a.v1"
FIG_RIGHT = "mu v2.(a.v2 + b.mu v1.a.a.v1)"


def _report(line):
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        _report(f"FAIL {label}")
        raise
    _report(f"PASS {label}")


def test_criterion_1_worked_example():
    with verdict("criterion 1: worked example pair at exactly 1/4, level 2, under 1s"):
        t0 = time.monotonic()
        left = expand(parse_expr(FIG_LEFT))
        right = expand(parse_expr(FIG_RIGHT))
        assert bd_stratified(left, right) == Fraction(1, 4)
        union, s1, s2 = disjoint_union(left, right)
        assert kleene_solve(union).table.get(s1, s2) == Fraction(1, 4)
        from chartdist import stratified_level
        assert stratified_level(left, right) == 2
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_bisimilar_loops():
    with verdict("criterion 2: unfolded loop pair at distance 0 and bisimilar"):
        c1 = expand(parse_expr("mu v1.a.v1"))
        c2 = expand(parse_expr("mu v1.a.a.v1"))
        ok, _ = bisimilar(c1, c2)
        assert ok
        assert bd_stratified(c1, c2) == 0


def fixpoint_matches_stratified():
    """The loop of criterion 3, over its 500 random chart pairs."""
    rng = random.Random(1003)
    for _ in range(500):
        c1 = rand_chart(rng, max_states=8)
        c2 = rand_chart(rng, max_states=8)
        union, s1, s2 = disjoint_union(c1, c2)
        res = kleene_solve(union)
        value = res.table.get(s1, s2)
        assert value == bd_stratified(c1, c2)
        assert is_dyadic_or_zero(value)
        nq = len(res.quotient.states)
        assert res.stable_index <= nq * nq + 1


def test_criterion_3_fixpoint_vs_stratified():
    label = ("criterion 3: 500 random chart pairs, fixpoint == stratified, "
             "dyadic values, iteration cap respected, under 30s")
    with verdict(label):
        t0 = time.monotonic()
        fixpoint_matches_stratified()
        assert time.monotonic() - t0 < 30.0


def test_criterion_3_fails_on_a_refinement_that_stops_after_one_round(monkeypatch):
    """Kleene builds its own quotient, so criterion 3 checks the
    refinement: one that splits nothing after its first round reads the
    39 pairs of level 1 among the 500 as bisimilar, and the loop fails."""
    monkeypatch.setattr(Refinement, "_touched_splits", lambda self: [])
    with pytest.raises(AssertionError):
        fixpoint_matches_stratified()


def test_criterion_4_metric_laws():
    label = ("criterion 4: 500 random expression triples, pseudometric laws, "
             "prefix halving, substitution nonexpansivity")
    with verdict(label):
        rng = random.Random(1004)
        for _ in range(500):
            e, f, g = (rand_expr(rng) for _ in range(3))
            d_ef = bd_stratified(e, f)
            d_eg = bd_stratified(e, g)
            d_fg = bd_stratified(f, g)
            assert bd_stratified(e, e) == 0
            assert d_ef == bd_stratified(f, e)
            assert d_eg <= d_ef + d_fg
            stepped = bd_stratified(Prefix("a", e), Prefix("a", f))
            assert stepped <= d_ef / 2
            if d_ef > 0:
                assert stepped == d_ef / 2
            g1, h1 = rand_expr(rng, depth=2), rand_expr(rng, depth=2)
            g2, h2 = rand_expr(rng, depth=2), rand_expr(rng, depth=2)
            subst_d = bd_stratified(
                substitute(e, [(1, g1), (2, g2)]),
                substitute(f, [(1, h1), (2, h2)]),
            )
            bound = max(d_ef, bd_stratified(g1, h1), bd_stratified(g2, h2))
            assert subst_d <= bound


def test_criterion_5_axiom_catalogue():
    with verdict("criterion 5: all 14 axioms hold, copy variant of the "
                 "action law fails"):
        axioms = axiom_catalog()
        assert len(axioms) == 14
        for name, lhs, rhs in axioms:
            assert semantic_equal(lhs, rhs), name
        bad_l, bad_r = c1_copy_pair()
        assert not semantic_equal(bad_l, bad_r)


def test_criterion_6_dagger_identities_and_isometry():
    label = ("criterion 6: dagger identities + trace yanking over 200 random "
             "morphisms, embedding isometric on 200 pairs")
    with verdict(label):
        rng = random.Random(1006)
        assert rb_trace(rb_sym(1, 1), 1) == rb_id(1)
        for _ in range(200):
            p = rng.randint(0, 2)
            q = rng.randint(0, 2)
            # fixed point
            f = rand_rb(rng, 1, p + 1)
            fd = rb_dagger(f)
            assert homset_distance(
                fd, rb_compose(f, rb_pair(rb_id(p), fd))) == 0
            # parameter
            g = rand_rb(rng, p, q)
            assert homset_distance(
                rb_dagger(rb_compose(f, rb_oplus(g, rb_id(1)))),
                rb_compose(fd, g)) == 0
            # composition
            k = rand_rb(rng, 1, p + 1)
            def comp_last(x, y):
                return rb_compose(x, rb_pair(rb_inl(p, 1), y))
            assert homset_distance(
                rb_dagger(comp_last(f, k)),
                rb_compose(f, rb_pair(rb_id(p), rb_dagger(comp_last(k, f)))),
            ) == 0
            # double dagger
            h = rand_rb(rng, 1, p + 2)
            assert homset_distance(
                rb_dagger(rb_dagger(h)),
                rb_dagger(rb_compose(h, rb_oplus(rb_id(p), rb_codiagonal(1)))),
            ) == 0
            # pairing
            g2 = rand_rb(rng, 1, p + 2)
            f2 = rand_rb(rng, 1, p + 2)
            f2d = rb_dagger(f2)
            hh = rb_compose(g2, rb_pair(rb_id(p + 1), f2d))
            hhd = rb_dagger(hh)
            assert homset_distance(
                rb_dagger(rb_pair(g2, f2)),
                rb_pair(hhd, rb_compose(f2d, rb_pair(rb_id(p), hhd))),
            ) == 0
        for _ in range(200):
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            f = rand_rb(rng, m, n)
            g = rand_rb(rng, m, n)
            assert int_distance(embed_n(f), embed_n(g)) == homset_distance(f, g)


def test_criterion_7_certificates():
    label = ("criterion 7: 300 random diagram pairs, synthesized certificates "
             "check to the exact distance, short bounds fail, tampering rejected")
    with verdict(label):
        rng = random.Random(1007)
        gap = Fraction(1, 2 ** 10)
        mutated_checked = 0
        for trial in range(300):
            m = rng.randint(0, 2)
            n = rng.randint(0, 2)
            depth = rng.randint(0, 3)
            f = rand_forward(rng, m, n, depth)
            style = trial % 3
            if style == 0:
                g = rand_forward(rng, m, n, depth)
            elif style == 1:
                g = flip_one_act(rng, f) or rand_forward(rng, m, n, depth)
            else:
                # differ only below a shared action chain, so distances
                # land strictly between 0 and 1
                core = rand_expr(rng, maxvar=n)
                other = perturb_expr(rng, core, maxvar=n)
                for _ in range(rng.randint(1, 3)):
                    letter = rng.choice("ab")
                    core = Prefix(letter, core)
                    other = Prefix(letter, other)
                f = from_expression(core, n)
                g = from_expression(other, n)
            want = diagram_distance(f, g)
            cert = synthesize(f, g, eps=want)
            assert check(cert, f, g) == want
            assert check(parse_cert(format_cert(cert)), f, g) == want
            if want > gap:
                try:
                    synthesize(f, g, eps=want - gap)
                except SynthesisFailure as e:
                    assert e.distance == want
                else:
                    raise AssertionError("short bound accepted")
            mutated = _lower_one_bound(rng, cert)
            if mutated is not None:
                mutated_checked += 1
                try:
                    check(mutated, f, g)
                except CertificateError:
                    pass
                else:
                    raise AssertionError("tampered certificate accepted")
        assert mutated_checked >= 80


def _lower_one_bound(rng, cert):
    """Halve one positive bound somewhere in the tree, or None."""
    from chartdist import CCoupling, CDecomp

    spots = []

    def walk(node, rebuild):
        if isinstance(node, CWeaken):
            if node.eps > 0:
                spots.append(lambda n=node, r=rebuild: r(CWeaken(n.eps / 2, n.child)))
            walk(node.child, lambda c, n=node, r=rebuild: r(CWeaken(n.eps, c)))
        elif isinstance(node, CCoupling):
            if node.eps > 0:
                spots.append(lambda n=node, r=rebuild: r(CCoupling(n.eps / 2, n.pairs)))
            for i, (m1, m2, child) in enumerate(node.pairs):
                if child is None:
                    continue

                def put(c, i=i, m1=m1, m2=m2, n=node, r=rebuild):
                    pairs = list(n.pairs)
                    pairs[i] = (m1, m2, c)
                    return r(CCoupling(n.eps, tuple(pairs)))

                walk(child, put)
        elif isinstance(node, CDecomp):
            for i, child in enumerate(node.children):
                def put(c, i=i, n=node, r=rebuild):
                    children = list(n.children)
                    children[i] = c
                    return r(CDecomp(tuple(children)))
                walk(child, put)

    walk(cert, lambda c: c)
    if not spots:
        return None
    return rng.choice(spots)()


def test_criterion_8_bundled_corpus():
    label = ("criterion 8: bundled corpus pairs compile to bisimilar charts "
             "with matching distances")
    with verdict(label):
        path = Path(__file__).resolve().parent.parent / "corpus" / "pairs.txt"
        entries = []
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            expr_text, term_text = line.split("\t")
            entries.append((parse_expr(expr_text), parse_term(term_text)))
        assert len(entries) >= 10
        texts = [line.split("\t")[0] for line in path.read_text().splitlines()
                 if line.strip() and not line.startswith("#")]
        assert FIG_LEFT in texts and FIG_RIGHT in texts

        compiled = []
        for e, t in entries:
            dom, cod = typecheck(t)
            assert dom == ">" and "<" not in cod
            ce = from_expression(e, len(cod))
            assert diagram_distance(ce, t) == 0
            row = interpret(t).payload.rows[0]
            ok, _ = bisimilar(expand(row), expand(e))
            assert ok
            compiled.append((e, t, (dom, cod)))

        checked_quarter = False
        for i, (e1, t1, ty1) in enumerate(compiled):
            for e2, t2, ty2 in compiled[i + 1:]:
                if ty1 != ty2:
                    continue
                d_expr = bd_stratified(e1, e2)
                assert diagram_distance(t1, t2) == d_expr
                if d_expr == Fraction(1, 4):
                    checked_quarter = True
        assert checked_quarter
