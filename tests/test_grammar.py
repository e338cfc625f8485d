"""Grammar properties: printing round-trips, generated programs run
cleanly, the same with fixpoint pass reuse, as numpy lanes and as the
probe and lane blocks of a chunk, and soundly against concrete replays,
and malformed text fails cleanly.

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
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from absmc import corpus, estimator
from absmc.concrete import ChoiceSource, NondetSpec, OracleError, oracle_estimate, run_concrete
from absmc.estimator import derive_seed
from absmc.interp import TrialConfig, analyze_trial
from absmc.intervals import DomainError
from absmc.lang import MAX_DEPTH, RELOPS, LangError, generator_sites, parse, to_source
from helpers import run_lanes, summary

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
# literals next to the replay grid, so refined bounds land on its points
SMALL_INT_LITERALS = _signed(st.integers(0, 4).map(str))
# conjunctions of bounds on the INT variables, the guards that refine them;
# one flat choice of atom, so no operator or literal is favoured
ATOMS = [f"{x} {op} {y}" for x in INTS for op in RELOPS for y in [*INTS, *map(str, range(-4, 5))]]
BOUNDS = st.lists(st.sampled_from(ATOMS), min_size=1, max_size=3).map(" && ".join)
REAL_LITERALS = _signed(
    st.sampled_from(["0.5", "1.", ".25", "2e-3", "1E+2", "3.0"])
    | st.floats(0, 1e12, allow_nan=False).map(repr)
)


@functools.lru_cache(maxsize=None)
def exprs(real: bool, depth: int, small: bool = False):
    literal = REAL_LITERALS if real else SMALL_INT_LITERALS if small else INT_LITERALS
    leaf = st.sampled_from(REALS if real else INTS) | literal
    leaf |= st.just("uniform()" if real else "coin_flip()")
    if depth == 0:
        return leaf
    sub = exprs(real, depth - 1, small)
    return st.one_of(
        leaf,
        st.tuples(sub, st.sampled_from(["+", "-"]), sub).map(" ".join),
        st.tuples(literal, sub).map(lambda t: f"{t[0]} * ({t[1]})"),
        st.tuples(sub, literal).map(lambda t: f"({t[0]}) * {t[1]}"),
        sub.map(lambda e: f"({e})"),
    )


@functools.lru_cache(maxsize=None)
def conds(depth: int, small: bool = False):
    cmp = st.one_of(
        [
            st.tuples(exprs(real, 1, small), st.sampled_from(RELOPS), exprs(real, 1, small))
            for real in ((False,) if small else (False, True))
        ]
    ).map(" ".join)
    if small:
        cmp = BOUNDS | cmp
    if depth == 0:
        return cmp
    sub = conds(depth - 1, small)
    both = st.tuples(sub, st.sampled_from(["&&", "||"]), sub).map(" ".join)
    return st.one_of(cmp, both, both.map(lambda c: f"({c})"), cmp.map(lambda c: f"({c})"))


def _assignment(name, small):
    real = name in REALS
    compound = st.tuples(st.sampled_from(["=", "+=", "-="]), exprs(real, 2, small))
    return compound.map(lambda t: f"{name} {t[0]} {t[1]};") | st.sampled_from(
        [f"{name}++;", f"{name}--;"]
    )


@functools.lru_cache(maxsize=None)
def stmts(depth: int, small: bool = False):
    simple = st.one_of([_assignment(name, small) for name in (INTS if small else INTS + REALS)])
    simple |= conds(2, small).map(lambda c: f"know ({c});")
    if depth == 0:
        return simple
    block = st.lists(stmts(depth - 1, small), max_size=3).map(lambda ss: "{ " + " ".join(ss) + " }")
    guard = conds(1, small)
    return st.one_of(
        simple,
        st.tuples(guard, block).map(lambda t: f"if ({t[0]}) {t[1]}"),
        st.tuples(guard, block, block).map(lambda t: f"if ({t[0]}) {t[1]} else {t[2]}"),
        st.tuples(guard, block).map(lambda t: f"while ({t[0]}) {t[1]}"),
        block,
    )


@st.composite
def programs(draw):
    body = " ".join(draw(st.lists(stmts(2), max_size=3)))
    text = f"{DECLS} {body} know ({draw(conds(2))});"
    return "{ " + text + " }" if draw(st.booleans()) else text


# bounds both INT inputs to the integers a replay visits
SMALL_RANGE = "know (a >= -3 && a <= 3 && b >= -3 && b <= 3);"
# steps that move a loop along, or may not
PROGRESS = ["a++;", "b--;", "a += coin_flip();", "u += uniform();", "v = 0.5 * (v - uniform());"]


@st.composite
def loop_programs(draw):
    """A loop over bounded inputs, nested or after other statements, so
    trials unroll, widen, narrow and abort more often than in `programs`."""

    small = draw(st.booleans())
    body = draw(st.lists(stmts(1, small) | st.sampled_from(PROGRESS), min_size=1, max_size=4))
    loop = f"while ({draw(conds(0, small))}) {{ {' '.join(body)} }}"
    if draw(st.booleans()):
        loop = f"while ({draw(conds(0, small))}) {{ {loop} {draw(st.sampled_from(PROGRESS))} }}"
    head = " ".join(draw(st.lists(stmts(1, small), max_size=2)))
    return f"{DECLS} {SMALL_RANGE} {head} {loop} know ({draw(conds(1, small))});"


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


TRIAL_CONFIG = TrialConfig(unroll_limit=2, step_budget=300)


def _trial(p, seed, trace=None):
    try:
        out = analyze_trial(p, seed, TRIAL_CONFIG, trace=trace)
    except (DomainError, OverflowError) as e:
        return type(e)
    env = out.env and out.env.render()  # None when aborted
    return out.hit, out.table, out.widened_loops, out.steps, out.aborted, env


@FAST
@given(programs(), st.integers(0, 2**32))
def test_fixpoint_pass_reuse_leaves_trials_unchanged(source, seed):
    # a traced trial recomputes every fixpoint pass
    p = parse(source)
    for k in range(4):
        assert _trial(p, seed + k) == _trial(p, seed + k, trace=lambda line: None)


# a default-like config, one that enters every fixpoint at once and widens
# at the first join, and a step budget small enough to abort
LANE_CONFIGS = (
    TrialConfig(unroll_limit=3, step_budget=400),
    TrialConfig(unroll_limit=0, widening_delay=0),
    TrialConfig(unroll_limit=4, step_budget=40),
)


def _restriction(p, pin):
    """Pins the first coin outside a loop, and narrows the first uniform
    outside one, when the program has them."""

    spans = {}
    for g in generator_sites(p):
        if not g.inside_loop:
            spans.setdefault(g.coin, (g.site, (pin, pin) if g.coin else (0.25, 0.75)))
    return dict(spans.values()) or None


# the example count is the profile's: 100 locally, 1,000 under the ci profile
@settings(deadline=None, suppress_health_check=FAST.suppress_health_check)
@given(programs() | loop_programs(), st.integers(0, 2**32), st.integers(0, 1))
def test_lanes_match_scalar_trials(source, seed, pin):
    p = parse(source)
    seeds = [seed + k for k in range(6)]
    for config in LANE_CONFIGS:
        for restriction in (None, _restriction(p, pin)):
            lanes = run_lanes(p, seeds, config, restriction)
            for s, lane in zip(seeds, lanes):
                try:
                    scalar = analyze_trial(p, s, config, restriction=restriction)
                except RUN_ERRORS:
                    assert lane is None  # a scalar error is past the lanes' domain
                    continue
                if lane is not None:
                    assert summary(lane) == summary(scalar)


@FAST
@given(programs() | loop_programs(), st.integers(-(2**65), 2**65), st.integers(0, 1))
def test_chunk_counts_equal_scalar_sums(source, master, pin):
    p = parse(source)
    for config in LANE_CONFIGS:
        for restriction in (None, _restriction(p, pin)):
            chunk = (p, config, restriction, master, 3, 13)
            try:
                outs = [
                    analyze_trial(p, derive_seed(master, i), config, restriction=restriction)
                    for i in range(3, 13)
                ]
            except RUN_ERRORS:
                # the trial that fails runs on the scalar engine in the chunk too
                with pytest.raises(RUN_ERRORS), mock.patch.object(estimator, "BLOCK", 4):
                    estimator._trial_chunk(chunk)
                continue
            counts = [sum(o.hit for o in outs), sum(o.widened_loops > 0 for o in outs)]
            counts.append(sum(o.aborted for o in outs))
            # the probe, then blocks of 4, 4 and 1 lanes
            with mock.patch.object(estimator, "BLOCK", 4):
                assert estimator._trial_chunk(chunk) == tuple(counts)


def _replays_to_no_hit(p, seed, combos):
    try:
        trial = analyze_trial(p, seed, TrialConfig(unroll_limit=4, step_budget=300))
    except (DomainError, OverflowError):
        return
    if trial.hit:
        return
    # the recorded draws, then fresh ones for keys the trial never drew
    choices = ChoiceSource(trial.table, random.Random(seed))
    for combo in combos:
        # a REAL overflow is an error of the concrete semantics: no final state
        with suppress(OverflowError):
            assert run_concrete(p, combo, choices, step_budget=300) == 0, combo


# every declared variable, each at both ends and the middle of its range
REPLAY_SPEC = NondetSpec({"a": (-3, 3), "b": (-3, 3), "u": (-1.0, 1.0), "v": (-1.0, 1.0)}, grid=3)


@FAST
@given(programs(), st.integers(0, 2**32))
def test_verdict_zero_admits_no_concrete_hit(source, seed):
    p = parse(source)
    _replays_to_no_hit(p, seed, REPLAY_SPEC.combos(p))


# statements over a and b alone with INT literals in -4..4, after a guard
# that bounds both to the integers a replay visits, so that every later
# guard cuts a bounded interval next to them
SMALL_STMTS = st.lists(
    BOUNDS.map(lambda c: f"know ({c});") | stmts(1, small=True), min_size=1, max_size=4
)
SMALL_COMBOS = [{"a": a, "b": b, "u": 0.0, "v": 0.0} for a in range(-3, 4) for b in range(-3, 4)]


def _ruled_out(env):
    """A condition that holds exactly on the replayed values of a and b
    that ``env`` excludes, or None if it excludes none."""

    out = [
        f"{x} == {k}"
        for x in INTS
        for k in range(-3, 4)
        if env.is_bottom() or not env.get(x).lo <= k <= env.get(x).hi
    ]
    return " || ".join(out) or None


@FAST
@given(SMALL_STMTS, st.integers(0, 2**32))
def test_verdict_zero_admits_no_concrete_hit_near_refined_bounds(body, seed):
    # after each statement, an outcome made of the integers the trial rules
    # out has verdict 0; a replay that reaches it shows an unsound bound
    config = TrialConfig(unroll_limit=4, step_budget=300)
    for i in range(1, len(body) + 1):
        head = " ".join([DECLS, SMALL_RANGE, *body[:i]])
        trial = analyze_trial(parse(f"{head} know (a == a);"), seed, config)
        probe = None if trial.aborted else _ruled_out(trial.env)
        if probe is not None:
            _replays_to_no_hit(parse(f"{head} know ({probe});"), seed, SMALL_COMBOS)


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
