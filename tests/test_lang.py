import pytest

from absmc import corpus, lang
from absmc.lang import (
    Assign,
    Binary,
    Kind,
    LangError,
    Lit,
    Var,
    parse,
    to_source,
)


def test_parse_fig1_structure(figs):
    p = figs["fig1"]
    assert p.declarations == (("x", Kind.INT), ("i", Kind.INT))
    kinds = [type(s).__name__ for s in p.body]
    assert kinds == ["Know", "Assign", "While"]
    assert isinstance(p.outcome, Binary)
    assert p.outcome == Binary(Var("x"), "<", Lit(3, Kind.INT))


def test_parse_fig4_wrapped_block(figs):
    p = figs["fig4"]
    assert [name for name, _ in p.declarations] == ["x", "y", "z"]
    assert type(p.body[-1]).__name__ == "If"


def test_corpus_parses_without_error():
    for name in corpus.NAMES:
        program = corpus.load(name)
        assert program.outcome is not None


def test_minimal_program():
    p = parse("int x; know(x<3);")
    assert p.body == ()
    assert p.outcome == Binary(Var("x"), "<", Lit(3, Kind.INT))


def test_kind_mismatch_rejected():
    with pytest.raises(LangError, match="assign"):
        parse("int x; x = uniform(); know(x<3);")


def test_mixed_expression_rejected():
    with pytest.raises(LangError, match="mixed"):
        parse("int x; double y; x = x + y; know(x<3);")


def test_comparison_kind_mismatch_rejected():
    with pytest.raises(LangError, match="comparison"):
        parse("int x; double y; know(x < y);")


def test_missing_outcome():
    with pytest.raises(LangError, match="missing outcome"):
        parse("int x; x = 0;")


def test_syntax_error_carries_position():
    with pytest.raises(LangError) as err:
        parse("int x;\nx = ;")
    assert err.value.line == 2
    assert "expected expression" in str(err.value)


def test_undeclared_variable():
    with pytest.raises(LangError, match="undeclared variable 'y'"):
        parse("int x; x = y; know(x<3);")


def test_duplicate_declaration_rejected():
    with pytest.raises(LangError, match="duplicate"):
        parse("int x; int x; know(x<3);")


def test_increment_desugars():
    p = parse("int i; i = 0; i++; know(i>0);")
    assert p.body[1] == Assign(0, "i", Binary(Var("i"), "+", Lit(1, Kind.INT)))
    q = parse("double i; i = 0.; i++; i--; know(i>=0.);")
    assert q.body[1].expr == Binary(Var("i"), "+", Lit(1.0, Kind.REAL))
    assert q.body[2].expr == Binary(Var("i"), "-", Lit(1.0, Kind.REAL))


def test_bare_block_splices():
    p = parse("int x; { x = 1; { x += 1; } } know(x>0);")
    one = Lit(1, Kind.INT)
    assert p.body == (Assign(0, "x", one), Assign(0, "x", Binary(Var("x"), "+", one)))


def test_query_overrides_outcome(figs):
    src = corpus.source("fig1")
    p = parse(src, query="x < 100")
    assert p.outcome == Binary(Var("x"), "<", Lit(100, Kind.INT))
    # the source's outcome know is dropped, assumptions stay
    assert [type(s).__name__ for s in p.body] == ["Know", "Assign", "While"]


def test_query_on_source_without_know():
    p = parse("int x; x = 0;", query="x == 0")
    assert p.outcome == Binary(Var("x"), "==", Lit(0, Kind.INT))


def test_boolean_parentheses_group():
    p = parse("int x, y; know((x < 0 || y < 0) && x < y); know(x<1);")
    cond = p.body[0].cond
    assert isinstance(cond, Binary) and cond.op == "&&"
    assert isinstance(cond.left, Binary) and cond.left.op == "||"


def test_multiplication_requires_literal():
    p = parse("int x, y; x = 3 * y; know(x<1);")
    assert p.body[0].expr == Binary(Lit(3, Kind.INT), "*", Var("y"))
    q = parse("int x, y; x = y * 3; know(x<1);")
    assert q.body[0].expr == p.body[0].expr
    with pytest.raises(LangError, match="literal factor"):
        parse("int x, y; x = x * y; know(x<1);")


def test_negative_literals():
    p = parse("int x; x = -2; know(x < 0-1);")
    assert p.body[0].expr == Lit(-2, Kind.INT)


def test_comments_skipped():
    p = parse("int x; /* set x\n   to one */ x = 1; know(x>0);")
    assert p.body == (Assign(0, "x", Lit(1, Kind.INT)),)
    with pytest.raises(LangError, match="unterminated comment"):
        parse("int x; /* oops")


@pytest.mark.parametrize("name", corpus.NAMES)
def test_round_trip_corpus(name):
    p = corpus.load(name)
    assert parse(to_source(p)) == p


def test_round_trip_handwritten():
    samples = [
        "int x; know(x<3);",
        "int x, i; i = 0; while (i < 5) { if (x < i) { x += 2 * i; } else { x -= 1; } i++; } know(x<3);",
        "double a, b; a = uniform(); b = a - -1.5; know(a < b || b >= 2.0 && a != 0.0);",
    ]
    for src in samples:
        p = parse(src)
        assert parse(to_source(p)) == p
        # printing is a fixed point after one normalization
        assert to_source(parse(to_source(p))) == to_source(p)


def test_generator_sites_distinct(figs):
    for p in figs.values():
        sites = [g.site for g in lang.generator_sites(p)]
        assert len(sites) == len(set(sites))


def test_generator_sites_ordinals(figs):
    gens = lang.generator_sites(figs["fig4"])
    assert [g.ordinal for g in gens] == [1, 2, 3]
    assert all(not g.coin for g in gens)
    assert [g.inside_loop for g in gens] == [False, False, False]
    loop_gen = lang.generator_sites(figs["fig1"])
    assert loop_gen[0].coin and loop_gen[0].inside_loop


def test_parse_condition_rejects_trailing_input():
    with pytest.raises(LangError):
        lang.parse_condition("x < 1 x", {"x": Kind.INT})


def test_last_know_anywhere_is_outcome():
    p = parse("int x; know(x>=0); x = 1;")
    assert p.outcome == Binary(Var("x"), ">=", Lit(0, Kind.INT))
    assert [type(s).__name__ for s in p.body] == ["Assign"]


# ---------------------------------------------------------------------------
# The kind a Binary carries
# ---------------------------------------------------------------------------


def _binaries(node):
    """Every `Binary` of an expression or condition, outer first."""

    if isinstance(node, Binary):
        yield node
        yield from _binaries(node.left)
        yield from _binaries(node.right)


def _kind_of(node, kinds):
    """The kind of an expression worked out from its leaves; None for a condition."""

    if isinstance(node, Var):
        return kinds[node.name]
    if not isinstance(node, Binary):
        return node.kind
    if node.op not in ("+", "-", "*"):
        return None
    left, right = _kind_of(node.left, kinds), _kind_of(node.right, kinds)
    assert left is right
    return left


def _program_binaries(p):
    """Every `Binary` of a program, statements in order, then the outcome."""

    nodes = [s.expr if isinstance(s, Assign) else s.cond for s in lang.iter_stmts(p.body)]
    return [b for node in [*nodes, p.outcome] for b in _binaries(node)]


KIND_SOURCES = [
    *(corpus.source(name) for name in corpus.NAMES),
    "int x, y; x += y; x -= 3; x++; x--; x = 3 * y; x = y * 3; x = (x + (2 * (y - 1))) - -4;"
    " know ((x < y || (y >= 0)) && x != (1 + y));",
    "double u, v; u += uniform(); u -= v; u++; u--; v = 0.5 * (u + 1.0); v = (u - v) * 2.0;"
    " know ((u + v) * 3.0 <= 1.0 || u == v && v > 0.0 - uniform());",
]


@pytest.mark.parametrize("source", KIND_SOURCES)
def test_binary_carries_the_parsed_kind(source):
    p = parse(source)
    binaries = _program_binaries(p)
    assert {b.kind is None for b in binaries} == {True, False}
    for b in binaries:
        assert b.kind is _kind_of(b, p.kinds())
        assert (b.kind is None) == (b.op in (*lang.RELOPS, "&&", "||"))
    # the kind takes no part in equality, and printing keeps it
    q = parse(to_source(p))
    assert q == p
    assert [(b.op, b.kind) for b in _program_binaries(q)] == [(b.op, b.kind) for b in binaries]


def test_query_and_condition_carry_kinds():
    query = "x + 1 < 2 * y || u - 0.5 > u"
    p = parse("int x, y; double u; know (x < y); know (x < 3);", query=query)
    assert [(b.op, b.kind) for b in _binaries(p.outcome)] == [
        ("||", None), ("<", None), ("+", Kind.INT), ("*", Kind.INT),
        (">", None), ("-", Kind.REAL),
    ]
    kinds = {"u": Kind.REAL, "x": Kind.INT, "y": Kind.INT}
    cond = lang.parse_condition("(u * 2.0) <= (0.5 - u) && x != y + 1", kinds)
    assert [(b.op, b.kind) for b in _binaries(cond)] == [
        ("&&", None), ("<=", None), ("*", Kind.REAL), ("-", Kind.REAL),
        ("!=", None), ("+", Kind.INT),
    ]


def test_hand_built_binary_compares_equal_whatever_its_kind():
    parsed = parse("int x; x = x + 1; know (x < 3);").body[0].expr
    assert parsed.kind is Kind.INT
    assert parsed == Binary(Var("x"), "+", Lit(1, Kind.INT))
    assert hash(parsed) == hash(Binary(Var("x"), "+", Lit(1, Kind.INT)))
