"""Fixed-seed outputs pinned byte for byte.

A refactor of the trial engine or of the concrete semantics must leave
these values unchanged; only a deliberate change of the draw scheme may
re-baseline them.  The corpus Reports live in ``perfbench/golden/``,
which this test reads and never writes.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from absmc import corpus
from absmc.concrete import oracle_estimate
from absmc.estimator import run
from absmc.interp import TrialConfig

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
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


@pytest.mark.parametrize("unroll, hits", [(3, 868), (4, 708)])
def test_golden_widening_path(figs, unroll, hits):
    r = run(figs["fig1"], TRIALS, 0.01, SEED, 1, TrialConfig(unroll_limit=unroll))
    assert r.hits == hits
    assert r.widened_trials == TRIALS
    assert r.aborted_trials == 0
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
