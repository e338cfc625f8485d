"""Fixed-seed outputs pinned byte for byte.

A refactor of the trial engine or of the concrete semantics must leave
these values unchanged; only a deliberate change of the draw scheme may
re-baseline them.  The corpus Reports live in ``tests/golden/``, which
this test reads and never writes.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from absmc import corpus
from absmc.concrete import oracle_estimate
from absmc.estimator import run
from absmc.interp import TrialConfig
from absmc.lang import parse, to_source

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 20070101
TRIALS = 1000
REPORT_KEYS = [
    "program",
    "n",
    "hits",
    "p_hat",
    "epsilon",
    "margin",
    "p_prime",
    "seed",
    "jobs",
    "elapsed_ms",
    "config",
    "warnings",
]


@pytest.mark.parametrize("name", corpus.NAMES)
def test_golden_corpus_report(figs, name):
    d = run(figs[name], TRIALS, 0.01, SEED, 1, program_name=f"{name}.amc").to_dict()
    assert list(d) == REPORT_KEYS
    assert list(d["config"]) == list(asdict(TrialConfig()))
    d.pop("elapsed_ms")
    expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert d == expected
    assert json.dumps(d, sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize("unroll, hits", [(3, 864), (4, 670)])
def test_golden_widening_path(figs, unroll, hits):
    r = run(figs["fig1"], TRIALS, 0.01, SEED, 1, TrialConfig(unroll_limit=unroll))
    assert r.hits == hits
    assert r.warnings == [f"widening engaged in {TRIALS} of {TRIALS} trials"]


@pytest.mark.parametrize(
    "name, estimate",
    [("fig1", 0.4986), ("fig2", 0.83646), ("fig3", 0.82892), ("fig4", 0.19418)],
)
def test_golden_sampled_oracle(figs, name, estimate):
    rep = oracle_estimate(figs[name], mode="sampled", n=50_000, seed=0, grid=64)
    assert rep.estimate == estimate
    assert rep.paths_or_samples == 50_000
    assert rep.diagnostics == ()


def test_golden_exact_oracle(figs):
    rep = oracle_estimate(figs["fig1"], mode="exact")
    assert rep.estimate == 0.5
    assert rep.paths_or_samples == 32


# Assignment forms the corpus lacks: ``-=``, ``--``, REAL ``++`` and a
# compound right-hand side.
COMPOUND = {
    "compound_int": (
        "int x, i; know (x>=0 && x<=9); i = 10;"
        " while (i > 0) { x -= coin_flip(); i--; x += 2 * coin_flip() - 1; }"
        " know (x < 0 - 2);",
        737,
        0.75692,
        "int x, i;\n"
        "know (x >= 0 && x <= 9);\n"
        "i = 10;\n"
        "while (i > 0) {\n"
        "  x -= coin_flip();\n"
        "  i -= 1;\n"
        "  x += 2 * coin_flip() - 1;\n"
        "}\n"
        "know (x < 0 - 2);\n",
    ),
    "compound_real": (
        "double x, y; know (x>=0. && x<=1.); y = uniform(); y -= 0.5 * x; x--;"
        " x -= y - uniform(); if (x < 0.0-1.0) { x++; } else { x -= 0.25; }"
        " know (x < 0.0-0.9);",
        783,
        0.79062,
        "double x, y;\n"
        "know (x >= 0.0 && x <= 1.0);\n"
        "y = uniform();\n"
        "y -= 0.5 * x;\n"
        "x -= 1.0;\n"
        "x -= y - uniform();\n"
        "if (x < 0.0 - 1.0) {\n"
        "  x += 1.0;\n"
        "} else {\n"
        "  x -= 0.25;\n"
        "}\n"
        "know (x < 0.0 - 0.9);\n",
    ),
}


@pytest.mark.parametrize("name", sorted(COMPOUND))
def test_golden_compound_assignments(name):
    source, hits, estimate, text = COMPOUND[name]
    program = parse(source, name=name)
    assert run(program, TRIALS, 0.01, SEED, 1).hits == hits
    rep = oracle_estimate(program, mode="sampled", n=50_000, seed=0, grid=16)
    assert rep.estimate == estimate
    assert to_source(program) == text
    assert parse(text) == program
