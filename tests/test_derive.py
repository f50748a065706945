"""Distance certificates: parsing, checking, synthesis, and tampering."""

import dataclasses
import random
from fractions import Fraction

import pytest

from chartdist import (
    Act, CBisim, CCoupling, CDecomp, CTop, CTriang, CWeaken,
    CertificateError, CertificateSyntaxError, Gen, SynthesisFailure, Tensor,
    check, diagram_distance, expand, format_cert, from_expression,
    joint_prechart, parse_cert, parse_expr, parse_term, synthesize,
)
from helpers import rand_forward

AA0 = parse_expr("a.a.0")
A0 = parse_expr("a.0")


def test_parse_format_round_trip_golden():
    texts = [
        "(top)",
        "(bisim)",
        "(weaken 1 (top))",
        '(coupling 1/2 ((move (act a "a.0") (act a "0") (top))))',
        '(coupling 1/2 ((move (act a "a.v1") (act a "v1") (top)) '
        "(move (out v2) (out v2))))",
        "(decomp ((bisim) (top)))",
        "(triang ((top) (bisim)))",
    ]
    for text in texts:
        cert = parse_cert(text)
        assert format_cert(cert) == text
        assert parse_cert(format_cert(cert)) == cert


def test_parse_rejects_malformed():
    bad = [
        "",
        "(top",
        "(top) (top)",
        "(frobnicate)",
        "(weaken (top))",
        "(weaken 3/2 (top))",
        "(weaken -1 (top))",
        "(coupling 1/2 ((move (act a missing-quotes) (out v1))))",
        '(coupling 1/2 ((move (act ab "x") (act a "y"))))',
        "(coupling 1/2 ((move (out v0) (out v0))))",
        "(triang ((top)))",
    ]
    for text in bad:
        with pytest.raises((CertificateSyntaxError, CertificateError)):
            parse_cert(text)


def test_check_hand_written_coupling():
    cert = parse_cert('(coupling 1/2 ((move (act a "a.0") (act a "0") (top))))')
    assert check(cert, AA0, A0) == Fraction(1, 2)


def test_check_coupling_without_child_costs_one():
    cert = parse_cert('(coupling 1 ((move (act a "a.0") (act a "0"))))')
    assert check(cert, AA0, A0) == 1


def test_check_allows_slack_in_coupling_bound():
    cert = parse_cert('(coupling 3/4 ((move (act a "a.0") (act a "0") (top))))')
    assert check(cert, AA0, A0) == Fraction(3, 4)


def test_check_rejects_tight_bound_lowered():
    cert = parse_cert('(coupling 1/4 ((move (act a "a.0") (act a "0") (top))))')
    with pytest.raises(CertificateError):
        check(cert, AA0, A0)


def test_check_bisim():
    f = from_expression("mu v1.a.v1", 0)
    g = from_expression("mu v1.a.a.v1", 0)
    assert check(parse_cert("(bisim)"), f, g) == 0
    with pytest.raises(CertificateError):
        check(parse_cert("(bisim)"), AA0, A0)


def test_diagram_states_are_numbered_and_tagged():
    f = from_expression("a.a.0", 0)
    g = from_expression("a.0", 0)
    cert = parse_cert('(coupling 1/2 ((move (act a "L:1") (act a "R:1") (top))))')
    assert synthesize(f, g) == cert
    assert check(cert, f, g) == Fraction(1, 2)
    with pytest.raises(CertificateError):
        check(parse_cert('(coupling 1/2 ((move (act a "a.0") (act a "0") (top))))'),
              f, g)
    with pytest.raises(TypeError):
        synthesize(f, A0)


def test_check_top_always_accepts():
    assert check(parse_cert("(top)"), AA0, A0) == 1


def test_check_weaken():
    cert = parse_cert(
        '(weaken 1 (coupling 1/2 ((move (act a "a.0") (act a "0") (top)))))')
    assert check(cert, AA0, A0) == 1
    too_low = parse_cert(
        '(weaken 1/4 (coupling 1/2 ((move (act a "a.0") (act a "0") (top)))))')
    with pytest.raises(CertificateError):
        check(too_low, AA0, A0)


def test_check_triang_sums_bounds():
    cert = parse_cert(
        '(triang ((coupling 1/2 ((move (act a "a.0") (act a "0") (top)))) (top)))')
    assert check(cert, AA0, A0) == 1  # 1/2 + 1 capped at 1


def test_check_rejects_wrong_projection():
    missing = parse_cert("(coupling 1 ())")
    with pytest.raises(CertificateError):
        check(missing, AA0, A0)
    wrong_letter = parse_cert('(coupling 1 ((move (act b "a.0") (act a "0"))))')
    with pytest.raises(CertificateError):
        check(wrong_letter, AA0, A0)
    wrong_state = parse_cert('(coupling 1 ((move (act a "0") (act a "0"))))')
    with pytest.raises(CertificateError):
        check(wrong_state, AA0, A0)


def test_check_rejects_child_on_equal_or_mismatched_moves():
    f = parse_expr("a.a.v1+v2")
    g = parse_expr("a.v1+v2")
    equal_child = parse_cert(
        '(coupling 1/2 ((move (act a "a.v1") (act a "v1") (top)) '
        "(move (out v2) (out v2) (top))))")
    with pytest.raises(CertificateError):
        check(equal_child, f, g)
    fa = parse_expr("a.0")
    gb = parse_expr("b.0")
    mismatch_child = parse_cert(
        '(coupling 1 ((move (act a "0") (act b "0") (top))))')
    with pytest.raises(CertificateError):
        check(mismatch_child, fa, gb)


def test_check_decomp_is_root_only_and_sized():
    f = Tensor(Act("a"), Act("b"))
    g = Tensor(Act("a"), Act("a"))
    assert check(parse_cert("(decomp ((bisim) (top)))"), f, g) == 1
    with pytest.raises(CertificateError):
        check(parse_cert("(decomp ((bisim)))"), f, g)
    with pytest.raises(CertificateError):
        check(parse_cert("(bisim)"), f, g)
    # no nesting below the root
    with pytest.raises(CertificateError):
        check(parse_cert(
            '(weaken 1 (coupling 1/2 ((move (act a "a.0") (act a "0") '
            "(decomp ((top)))))))"), AA0, A0)


def test_check_empty_decomp():
    assert check(parse_cert("(decomp ())"), Gen(), Gen()) == 0


def test_weaken_survives_root_decomp():
    f = Tensor(Act("a"), Act("b"))
    g = Tensor(Act("a"), Act("a"))
    cert = parse_cert("(weaken 1 (decomp ((bisim) (top))))")
    assert check(cert, f, g) == 1


def test_synthesize_fig_pair():
    f = from_expression("a.(a.0 + b.mu v1.a.v1)+b.mu v1.a.v1", 0)
    g = from_expression("mu v2.(a.v2 + b.mu v1.a.a.v1)", 0)
    cert = synthesize(f, g)
    assert check(cert, f, g) == Fraction(1, 4)
    again = parse_cert(format_cert(cert))
    assert check(again, f, g) == Fraction(1, 4)


def test_synthesize_matches_distance_on_random_pairs():
    rng = random.Random(71)
    for _ in range(50):
        m = rng.randint(0, 2)
        n = rng.randint(0, 2)
        f = rand_forward(rng, m, n, 3)
        g = rand_forward(rng, m, n, 3)
        want = diagram_distance(f, g)
        cert = synthesize(f, g)
        assert check(cert, f, g) == want
        assert check(parse_cert(format_cert(cert)), f, g) == want


def test_synthesize_with_slack_wraps_in_weaken():
    cert = synthesize(AA0, A0, eps=Fraction(3, 4))
    assert isinstance(cert, CWeaken)
    assert check(cert, AA0, A0) == Fraction(3, 4)
    exact = synthesize(AA0, A0, eps=Fraction(1, 2))
    assert not isinstance(exact, CWeaken)
    assert check(exact, AA0, A0) == Fraction(1, 2)


def test_synthesize_accepts_fraction_strings():
    cert = synthesize(AA0, A0, eps="3/4")
    assert check(cert, AA0, A0) == Fraction(3, 4)


def test_synthesize_below_distance_fails():
    with pytest.raises(SynthesisFailure) as info:
        synthesize(AA0, A0, eps=Fraction(1, 4))
    assert info.value.distance == Fraction(1, 2)


def test_monotone_weakening():
    rng = random.Random(72)
    for _ in range(15):
        f = rand_forward(rng, 1, 1, 2)
        g = rand_forward(rng, 1, 1, 2)
        d = diagram_distance(f, g)
        for eps in [d, d + (1 - d) / 2, Fraction(1)]:
            cert = synthesize(f, g, eps=eps)
            assert check(cert, f, g) == eps


def _lowered_variants(cert):
    """Every way of halving one positive bound somewhere in the tree."""
    if isinstance(cert, CWeaken):
        if cert.eps > 0:
            yield dataclasses.replace(cert, eps=cert.eps / 2)
        for sub in _lowered_variants(cert.child):
            yield dataclasses.replace(cert, child=sub)
    elif isinstance(cert, CCoupling):
        if cert.eps > 0:
            yield dataclasses.replace(cert, eps=cert.eps / 2)
        for i, (m1, m2, child) in enumerate(cert.pairs):
            if child is None:
                continue
            for sub in _lowered_variants(child):
                pairs = list(cert.pairs)
                pairs[i] = (m1, m2, sub)
                yield dataclasses.replace(cert, pairs=tuple(pairs))
    elif isinstance(cert, CDecomp):
        for i, child in enumerate(cert.children):
            for sub in _lowered_variants(child):
                children = list(cert.children)
                children[i] = sub
                yield dataclasses.replace(cert, children=tuple(children))
    elif isinstance(cert, CTriang):
        for sub in _lowered_variants(cert.first):
            yield dataclasses.replace(cert, first=sub)
        for sub in _lowered_variants(cert.second):
            yield dataclasses.replace(cert, second=sub)


def test_lowering_any_bound_is_rejected():
    rng = random.Random(73)
    seen = 0
    while seen < 10:
        n = rng.randint(0, 2)
        f = rand_forward(rng, 1, n, 3)
        g = rand_forward(rng, 1, n, 3)
        cert = synthesize(f, g)
        variants = list(_lowered_variants(cert))
        if not variants:
            continue
        seen += 1
        for mutated in variants:
            with pytest.raises(CertificateError):
                check(mutated, f, g)


def test_joint_prechart_shares_states():
    e1 = parse_expr("a.b.0")
    e2 = parse_expr("b.0")
    joint, seeds = joint_prechart([e1, e2])
    assert seeds == ["a.b.0", "b.0"]
    assert seeds[1] in joint.states
    assert len(joint.states) == len(expand(e1).states)


def test_certificate_nodes_validate_eps():
    with pytest.raises(ValueError):
        CWeaken(Fraction(3, 2), CTop())
    with pytest.raises(ValueError):
        CCoupling(Fraction(-1, 2), ())
