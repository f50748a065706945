"""Distance certificates: parsing, checking, synthesis, and tampering."""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import chartdist.derive
from chartdist import (
    Act, CBisim, CCoupling, CDecomp, CTop, CWeaken,
    CertificateError, CertificateSyntaxError, Gen, Prefix, SynthesisFailure,
    Tensor, check, diagram_distance, expand, format_cert, from_expression,
    joint_prechart, parse_cert, parse_chart_text, parse_expr, parse_term,
    synthesize, typecheck,
)
from chartdist.cli import EXIT_PARSE, EXIT_REJECTED, main
from helpers import (
    corpus_rows, cycle_text, flip_one_act, malformed_certificates, perturb_expr, rand_expr,
    rand_forward,
)

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
        '(coupling 1 ((move (act a "x\\"y") (act a "z\\\\") (top))))',
    ]
    for text in texts:
        cert = parse_cert(text)
        assert format_cert(cert) == text
        assert parse_cert(format_cert(cert)) == cert
    assert cert.pairs[0][0][2] == 'x"y' and cert.pairs[0][1][2] == "z\\"


def test_parse_rejects_malformed():
    bad = [
        ("", "empty certificate", 0),
        ("(top", "missing ')'", 0),
        ("((top)", "missing ')'", 0),
        ("(top) (top)", "trailing input", 6),
        ("(top))", "trailing input", 5),
        (")", "unexpected ')'", 0),
        ('(act a "x)', "unterminated string", 7),
        ('(act a "x\\y")', "bad escape", 10),
        ("(frobnicate)", "unknown certificate head 'frobnicate'", 1),
        ('(weaken 1 (act a "x"))', "unknown certificate head 'act'", 11),
        ("(weaken (top))", "expected (weaken E C)", 0),
        ("(weaken 3/2 (top))", "bound 3/2 outside [0, 1]", 8),
        ("(weaken -1 (top))", "bound -1 outside [0, 1]", 8),
        ("(weaken 1/0 (top))", "bad rational '1/0'", 8),
        ("(coupling 1/2 ((move (act a missing-quotes) (out v1))))",
         'expected (act LETTER "state")', 21),
        ('(coupling 1/2 ((move (act ab "x") (act a "y"))))', "bad action letter 'ab'", 26),
        ("(coupling 1/2 ((move (out v0) (out v0))))", "bad variable 'v0'", 26),
        ("(coupling 1/2 ((move (out v\u00b2) (out v1))))", "bad variable 'v\u00b2'", 26),
        ("(coupling 1/2 ((move (out v\u0661) (out v1))))", "bad variable 'v\u0661'", 26),
    ]
    for text, message, offset in bad:
        with pytest.raises(CertificateSyntaxError) as info:
            parse_cert(text)
        assert str(info.value) == f"{message} (at offset {offset})", text
        assert info.value.position == offset


PARSERS = {"expr": parse_expr, "chart": parse_chart_text, "diag": parse_term}


def certificate_error(row):
    """The exit code and message of the first failure of reading the
    row's certificate and checking it against its two inputs."""
    parse = PARSERS[row["format"]]
    try:
        check(parse_cert(row["cert"]), parse(row["left"]), parse(row["right"]))
    except CertificateSyntaxError as e:
        return EXIT_PARSE, str(e)
    except CertificateError as e:
        return EXIT_REJECTED, str(e)
    raise AssertionError("the row has no error")


@pytest.mark.parametrize("row", malformed_certificates(),
                         ids=lambda row: re.sub(r"\W+", "-", row["stderr"]).strip("-"))
def test_certificate_errors_are_pinned(row, capsys):
    """Every CertificateSyntaxError and CertificateError message: by
    parse_cert and check, and by the command line."""
    code, message = certificate_error(row)
    assert (code, f"error: {message}\n") == (row["code"], row["stderr"])
    argv = ["check", "--format", row["format"], row["cert"], row["left"], row["right"]]
    assert main(argv) == code
    assert capsys.readouterr() == ("", row["stderr"])


def test_readme_lists_exactly_the_certificate_heads():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    paragraph = readme.split("**Certificates.**", 1)[1].split("\n\n", 1)[0]
    listed = set(re.findall(r"`\((\w+)", paragraph.split("moves are", 1)[0]))
    accepted = {h for h, kind in chartdist.derive._KINDS.items() if kind == "cert"}
    assert listed == accepted
    for head in listed:  # each is read as its own node form, if malformed
        try:
            parse_cert(f"({head})")
        except CertificateSyntaxError as e:
            assert "unknown certificate head" not in str(e), head


def test_deep_certificates_need_no_recursion():
    # 5,000 nested nodes; compared as text, since == recurses
    weakens = "(weaken 1 " * 5000 + "(top)" + ")" * 5000
    cert = parse_cert(weakens)
    assert cert.bound == 1
    assert format_cert(cert) == weakens
    assert check(cert, AA0, A0) == 1


def test_nodes_carry_their_bound():
    half = parse_cert('(coupling 1/2 ((move (act a "a.0") (act a "0") (top))))')
    assert (CTop().bound, CBisim().bound, half.bound) == (1, 0, Fraction(1, 2))
    assert CWeaken(Fraction(3, 4), half).bound == Fraction(3, 4)
    assert CDecomp((CBisim(), half)).bound == Fraction(1, 2)
    assert CDecomp(()).bound == 0
    assert CCoupling(Fraction(3, 4), half.pairs).bound == Fraction(3, 4)


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


def test_check_reports_the_first_failure_depth_first():
    # a failing child is reported before a failing rule of its parent, and
    # before the failures of the pairs after it
    both_low = parse_cert(
        '(weaken 1/8 (coupling 1/4 ((move (act a "a.0") (act a "0") (top)))))')
    with pytest.raises(CertificateError) as info:
        check(both_low, AA0, A0)
    assert str(info.value) == "coupling bound 1/4 below required 1/2 (at cert.weaken)"
    child = '(move (act a "a.v1") (act a "v1") (bisim))'
    extra = "(move (out v2) (out v2) (top))"
    f, g = parse_expr("a.a.v1+v2"), parse_expr("a.v1+v2")
    for pairs, failure in (
            ((child, extra), "states 'a.v1' and 'v1' are not bisimilar (at cert.move[1])"),
            ((extra, child), "equal moves do not take a sub-certificate (at cert.move[1])")):
        with pytest.raises(CertificateError) as info:
            check(parse_cert(f"(coupling 1/2 ({' '.join(pairs)}))"), f, g)
        assert str(info.value) == failure


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


def coupling_children(cert):
    """(bound, child) for each child certificate under each coupling."""
    found, todo = [], [cert]
    while todo:
        node = todo.pop()
        if isinstance(node, CCoupling):
            kids = [c for _, _, c in node.pairs if c is not None]
            found += ((node.eps, c) for c in kids)
        elif isinstance(node, CWeaken):
            kids = [node.child]
        elif isinstance(node, CDecomp):
            kids = node.children
        else:
            kids = []
        todo += kids
    return found


def test_children_are_certified_one_iterate_down():
    # a coupling at iterate p certifies each child at iterate p - 1:
    # bisimilar, (top) when p is 1, or a coupling at twice its bound
    rng = random.Random(1007)
    rows = corpus_rows()
    pairs = [(parse_chart_text(cycle_text(4)), parse_chart_text(cycle_text(5)))]
    for i, (e1, d1) in enumerate(rows):
        for e2, d2 in rows[i + 1:]:
            if typecheck(parse_term(d1)) == typecheck(parse_term(d2)):
                pairs += [(parse_expr(e1), parse_expr(e2)), (parse_term(d1), parse_term(d2))]
    for trial in range(200):
        m, n, depth = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 3)
        f = rand_forward(rng, m, n, depth)
        if trial % 3 == 0:
            g = rand_forward(rng, m, n, depth)
        elif trial % 3 == 1:
            g = flip_one_act(rng, f) or rand_forward(rng, m, n, depth)
        else:
            core = rand_expr(rng, maxvar=n)
            other = perturb_expr(rng, core, maxvar=n)
            for _ in range(rng.randint(1, 3)):
                letter = rng.choice("ab")
                core, other = Prefix(letter, core), Prefix(letter, other)
            f, g = from_expression(core, n), from_expression(other, n)
        pairs.append((f, g))
    couplings = 0
    for f, g in pairs:
        for bound, child in coupling_children(synthesize(f, g)):
            couplings += 1
            assert (isinstance(child, CBisim)
                    or isinstance(child, CTop) and bound == Fraction(1, 2)
                    or isinstance(child, CCoupling) and child.eps == 2 * bound), \
                (f, g, bound, format_cert(child))
    assert couplings >= 100


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
            yield CWeaken(cert.eps / 2, cert.child)
        for sub in _lowered_variants(cert.child):
            yield CWeaken(cert.eps, sub)
    elif isinstance(cert, CCoupling):
        if cert.eps > 0:
            yield CCoupling(cert.eps / 2, cert.pairs)
        for i, (m1, m2, child) in enumerate(cert.pairs):
            if child is None:
                continue
            for sub in _lowered_variants(child):
                pairs = list(cert.pairs)
                pairs[i] = (m1, m2, sub)
                yield CCoupling(cert.eps, tuple(pairs))
    elif isinstance(cert, CDecomp):
        for i, child in enumerate(cert.children):
            for sub in _lowered_variants(child):
                children = list(cert.children)
                children[i] = sub
                yield CDecomp(tuple(children))


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


def test_bound_of_any_size_round_trips():
    """A bound whose denominator has more digits than CPython turns into
    text by default prints whole and reads back."""
    cert = CWeaken(Fraction(1, 2 ** 14285), CBisim())
    text = format_cert(cert)
    assert len(text) == len("(weaken 1/ (bisim))") + 4301
    back = parse_cert(text)
    assert (back, back.bound) == (cert, cert.bound)


def test_certificate_nodes_validate_eps():
    with pytest.raises(ValueError):
        CWeaken(Fraction(3, 2), CTop())
    with pytest.raises(ValueError):
        CCoupling(Fraction(-1, 2), ())
