"""Grammar properties: printing round-trips, generated programs run
cleanly, the same with a fixpoint memo and soundly against concrete
replays, and malformed text fails cleanly.

The first strategy writes well-kinded source text straight from the
grammar in ``absmc.lang``: every assignment form, nested ``if``/``else``
and ``while``, ``&&``/``||`` with parenthesised groups, literal
coefficients on either side of ``*``, negative literals and both
generators.  The second mutates the corpus sources token by token.
"""

import functools
import random
import re
from contextlib import suppress

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from absmc import corpus
from absmc.concrete import ChoiceSource, NondetSpec, OracleError, oracle_estimate, run_concrete
from absmc.interp import TrialConfig, analyze_trial
from absmc.intervals import DomainError
from absmc.lang import MAX_DEPTH, RELOPS, LangError, parse, to_source

INTS = ("a", "b")
REALS = ("u", "v")
DECLS = "int a, b; double u, v;"

FAST = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _signed(literal):
    return st.tuples(st.sampled_from(["", "-"]), literal).map("".join)


INT_LITERALS = _signed(st.integers(0, 10**20).map(str))
REAL_LITERALS = _signed(
    st.sampled_from(["0.5", "1.", ".25", "2e-3", "1E+2", "3.0"])
    | st.floats(0, 1e12, allow_nan=False).map(repr)
)


@functools.lru_cache(maxsize=None)
def exprs(real: bool, depth: int):
    literal = REAL_LITERALS if real else INT_LITERALS
    leaf = st.sampled_from(REALS if real else INTS) | literal
    leaf |= st.just("uniform()" if real else "coin_flip()")
    if depth == 0:
        return leaf
    sub = exprs(real, depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, st.sampled_from(["+", "-"]), sub).map(" ".join),
        st.tuples(literal, sub).map(lambda t: f"{t[0]} * ({t[1]})"),
        st.tuples(sub, literal).map(lambda t: f"({t[0]}) * {t[1]}"),
        sub.map(lambda e: f"({e})"),
    )


@functools.lru_cache(maxsize=None)
def conds(depth: int):
    cmp = st.one_of(
        [st.tuples(exprs(real, 1), st.sampled_from(RELOPS), exprs(real, 1)) for real in (False, True)]
    ).map(" ".join)
    if depth == 0:
        return cmp
    sub = conds(depth - 1)
    both = st.tuples(sub, st.sampled_from(["&&", "||"]), sub).map(" ".join)
    return st.one_of(cmp, both, both.map(lambda c: f"({c})"), cmp.map(lambda c: f"({c})"))


def _assignment(name):
    real = name in REALS
    compound = st.tuples(st.sampled_from(["=", "+=", "-="]), exprs(real, 2))
    return compound.map(lambda t: f"{name} {t[0]} {t[1]};") | st.sampled_from(
        [f"{name}++;", f"{name}--;"]
    )


@functools.lru_cache(maxsize=None)
def stmts(depth: int):
    simple = st.one_of([_assignment(name) for name in INTS + REALS])
    simple |= conds(2).map(lambda c: f"know ({c});")
    if depth == 0:
        return simple
    block = st.lists(stmts(depth - 1), max_size=3).map(lambda ss: "{ " + " ".join(ss) + " }")
    return st.one_of(
        simple,
        st.tuples(conds(1), block).map(lambda t: f"if ({t[0]}) {t[1]}"),
        st.tuples(conds(1), block, block).map(lambda t: f"if ({t[0]}) {t[1]} else {t[2]}"),
        st.tuples(conds(1), block).map(lambda t: f"while ({t[0]}) {t[1]}"),
        block,
    )


@st.composite
def programs(draw):
    body = " ".join(draw(st.lists(stmts(2), max_size=3)))
    text = f"{DECLS} {body} know ({draw(conds(2))});"
    return "{ " + text + " }" if draw(st.booleans()) else text


@FAST
@given(programs())
@example("int a; know (a < 1 && (a < 2 && a < 3) || (a < 4 || a < 5));")
@example("int a; a = a - (a - 1); a = a + (a + 1); a = 2 * (3 * a); know (a < 1);")
def test_printing_round_trips(source):
    p = parse(source)
    text = to_source(p)
    assert parse(text) == p
    assert to_source(parse(text)) == text


# the errors a well-formed program may still end in, each a documented exit 1
RUN_ERRORS = (DomainError, OverflowError, OracleError)
SPEC = NondetSpec({"a": (-3, 3), "u": (-1.0, 1.0)}, grid=2)


@FAST
@given(programs(), st.integers(0, 2**32))
def test_generated_programs_run_cleanly(source, seed):
    p = parse(source)
    with suppress(*RUN_ERRORS):
        analyze_trial(p, seed, TrialConfig(unroll_limit=4, step_budget=200))
    with suppress(*RUN_ERRORS):
        oracle_estimate(p, mode="sampled", n=8, seed=seed, spec=SPEC, step_budget=50)


def _trial(p, seed, memo):
    try:
        out = analyze_trial(p, seed, TrialConfig(unroll_limit=2, step_budget=300), memo=memo)
    except (DomainError, OverflowError) as e:
        return type(e)
    env = out.env and out.env.render()  # None when aborted
    return out.hit, out.table, out.widened_loops, out.steps, out.aborted, env


@FAST
@given(programs(), st.integers(0, 2**32))
def test_fixpoint_memo_leaves_trials_unchanged(source, seed):
    p = parse(source)
    memo = {}
    for k in range(4):
        assert _trial(p, seed + k, memo) == _trial(p, seed + k, None)


# every declared variable, each at both ends and the middle of its range
REPLAY_SPEC = NondetSpec({"a": (-3, 3), "b": (-3, 3), "u": (-1.0, 1.0), "v": (-1.0, 1.0)}, grid=3)


@FAST
@given(programs(), st.integers(0, 2**32))
def test_verdict_zero_admits_no_concrete_hit(source, seed):
    p = parse(source)
    try:
        trial = analyze_trial(p, seed, TrialConfig(unroll_limit=4, step_budget=300))
    except (DomainError, OverflowError):
        return
    if trial.hit:
        return
    # the recorded draws, then fresh ones for keys the trial never drew
    choices = ChoiceSource(trial.table, random.Random(seed))
    for combo in REPLAY_SPEC.combos(p):
        assert run_concrete(p, combo, choices, step_budget=300) == 0, combo


_TOKEN = re.compile(
    r"/\*.*?\*/|[A-Za-z_]\w*|\d*\.?\d+(?:[eE][+-]?\d+)?\.?|&&|\|\||[<>=!+-]=|\+\+|--|\S", re.S
)
SOURCES = [corpus.source(name) for name in corpus.NAMES]
VOCABULARY = sorted({t for s in SOURCES for t in _TOKEN.findall(s)}) + [
    "@", "1e400", "/*", "!", "zz", "else", "int", "double", "-", "*", "(", ")", "{", "}",
    "\u00e9", "x\u00e9", "\u00b2", "\u0662", "1\u0662", "/* \u00e9 */", "1" * 5000,
    "(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1), "{" * (MAX_DEPTH + 1),
]


@st.composite
def mutants(draw):
    tokens = _TOKEN.findall(draw(st.sampled_from(SOURCES)))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(tokens) - 1))
        action = draw(st.sampled_from(["delete", "insert", "replace", "swap"]))
        if action == "delete":
            del tokens[i]
        elif action == "swap" and i + 1 < len(tokens):
            tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
        elif action == "insert":
            tokens.insert(i, draw(st.sampled_from(VOCABULARY)))
        elif action == "replace":
            tokens[i] = draw(st.sampled_from(VOCABULARY))
    return " ".join(tokens)


@FAST
@given(mutants())
def test_mutated_sources_fail_only_with_lang_error(source):
    try:
        parse(source)
    except LangError:
        pass
