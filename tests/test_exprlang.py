"""Expression parsing, printing, evaluation, and the REPL loop."""

import io

import pytest

from groupcalc import BG, DomainError, ParseError, kaniadakis, tsallis
from groupcalc.exprlang import (
    BinOp,
    Call,
    Num,
    eval_source,
    evaluate,
    parse,
    print_expr,
    run_repl,
)


def test_parse_single_operator():
    tree = parse("1 (+) 2")
    assert tree == BinOp("g+", Num(1.0), Num(2.0))


def test_precedence():
    tree = parse("2 (*) 3 (+) 1")
    assert tree == BinOp("g+", BinOp("g*", Num(2.0), Num(3.0)), Num(1.0))
    tree = parse("1 + 2 * 3")
    assert tree == BinOp("+", Num(1.0), BinOp("*", Num(2.0), Num(3.0)))


def test_left_associativity():
    assert parse("1 - 2 - 3") == BinOp("-", BinOp("-", Num(1.0), Num(2.0)), Num(3.0))


def test_parens_group():
    assert parse("(1 + 2) * 3") == BinOp("*", BinOp("+", Num(1.0), Num(2.0)), Num(3.0))


def test_unicode_aliases():
    assert parse("1 ⊕ 2") == parse("1 (+) 2")
    assert parse("2 ⊗ 3 ⊘ 4 ⊖ 1") == parse("2 (*) 3 (/) 4 (-) 1")


def test_number_forms():
    assert parse("1.5e-3") == Num(0.0015)
    assert parse("-2.5") == Num(-2.5)
    assert parse(".5 + 2.") == BinOp("+", Num(0.5), Num(2.0))


def test_function_calls():
    tree = parse("gpow(4, 2)")
    assert tree == Call("gpow", (Num(4.0), Num(2.0)))
    assert parse("expG(logG(3))") == Call("expG", (Call("logG", (Num(3.0),)),))


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError) as err:
        parse("gpow(4, 2")
    assert err.value.offset == len("gpow(4, 2")
    with pytest.raises(ParseError) as err:
        parse("1 (+)")
    assert err.value.expected  # non-empty expectation set
    with pytest.raises(ParseError):
        parse("nosuch(1)")
    with pytest.raises(ParseError):
        parse("gint(1, 2)")  # arity
    with pytest.raises(ParseError):
        parse("1 2")
    with pytest.raises(ParseError):
        parse("$")


def test_print_roundtrip():
    for source in (
        "1 (+) 2",
        "2 (*) 3 (+) 1",
        "1 - (2 - 3)",
        "(1 (+) 2) (*) 3",
        "gpow(4, 2) (/) expG(0.5)",
        "-2 * sinG(1) + cosG(0.5)",
        "1 / 2 / 3",
    ):
        tree = parse(source)
        assert parse(print_expr(tree)) == tree


def test_eval_values():
    assert eval_source("1 (+) 2", tsallis(0.5)) == pytest.approx(4.0, rel=1e-14)
    assert eval_source("1 (+) 2", BG) == 3.0
    assert eval_source("gint(2)", kaniadakis(1.0)) == pytest.approx(2.8284271247461903, rel=1e-13)
    assert eval_source("gpow(4, 2)", tsallis(0.5)) == pytest.approx(9.0, rel=1e-13)
    assert eval_source("expG(2)", tsallis(0.5)) == pytest.approx(4.0, rel=1e-14)
    assert eval_source("deform(1)", tsallis(0.0)) == pytest.approx(0.6931471805599453)


def test_ordinary_operators_stay_ordinary():
    cls = tsallis(0.5)
    assert eval_source("1 + 2", cls) == 3.0
    assert eval_source("2 * 3 - 4 / 8", cls) == 5.5


def test_bg_deformed_equals_ordinary():
    for src_deformed, src_plain in (
        ("1 (+) 2 (-) 0.5", "1 + 2 - 0.5"),
        ("2 (*) 3 (/) 4", "2 * 3 / 4"),
        ("gpow(3, 2)", "3 * 3"),
    ):
        assert eval_source(src_deformed, BG) == pytest.approx(
            eval_source(src_plain, BG), rel=1e-14
        )


def test_eval_domain_error_carries_span():
    with pytest.raises(DomainError) as err:
        eval_source("1 (+) expG(5)", tsallis(3.0))
    assert "offset" in str(err.value)
    with pytest.raises(DomainError):
        eval_source("1 / 0", BG)
    with pytest.raises(DomainError):
        eval_source("gpow(2, 1.5)", BG)
    with pytest.raises(DomainError):
        eval_source("x + 1", BG)  # unbound variable


def test_eval_overflow_is_domain_error():
    for source, cls, offset in (
        ("1 (+) 1e300 (+) 1e300", tsallis(0.5), 12),
        ("2 * expG(1e300)", tsallis(0.5), 4),
        ("gint(1e308 * 10)", BG, 0),
    ):
        with pytest.raises(DomainError, match=rf"^overflow: .* \(at offset {offset}\)$"):
            eval_source(source, cls)


def test_repl_session():
    stdin = io.StringIO(
        "1 (+) 2\n"
        "gint(0*(1e308*10))\n"
        "class tsallis:q=0.5\n"
        "1 (+) 2\n"
        "gpow(4, 2\n"
        "expG(-3)\n"
        "quit\n"
    )
    out, err = io.StringIO(), io.StringIO()
    code = run_repl(stdin, out, err, BG)
    assert code == 0
    lines = out.getvalue().splitlines()
    assert lines == ["3", "class tsallis:q=0.5", "4"]
    messages = err.getvalue()
    assert "parse error" in messages
    assert "domain error" in messages
    assert "gint argument must be an integer, got nan (at offset 0)" in messages


def test_repl_class_switch_error():
    stdin = io.StringIO("class nope:a=1\n1+1\n")
    out, err = io.StringIO(), io.StringIO()
    run_repl(stdin, out, err, BG)
    assert "error" in err.getvalue()
    assert out.getvalue().splitlines()[-1] == "2"


def test_evaluate_on_prebuilt_tree():
    tree = parse("1 (+) 1")
    assert evaluate(tree, tsallis(0.0)) == pytest.approx(3.0, rel=1e-14)  # 1+1+1*1
