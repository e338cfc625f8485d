import contextlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import absmc
from absmc import concrete, corpus, lang
from absmc.cli import main

FIG1 = str(corpus.path("fig1"))
FIG2 = str(corpus.path("fig2"))
FIG4 = str(corpus.path("fig4"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", FIG1, "--trials", "400", "--seed", "1", "--jobs", "1"
    )
    assert code == 0
    assert "p_prime:" in out and "p_hat:" in out


def test_import_loads_no_process_pool():
    # a pool's modules load only when a run starts one
    src = str(Path(absmc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import absmc.cli, sys;"
        " print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_analyze_json_schema_and_reproducibility(capsys):
    argv = ["analyze", FIG2, "--trials", "300", "--seed", "7", "--jobs", "1", "--format", "json"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    assert set(d1) == {
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
    }
    e1, e2 = d1.pop("elapsed_ms"), d2.pop("elapsed_ms")
    assert d1 == d2
    # byte identity after masking the elapsed field
    assert out1.replace(repr(e1), "-") == out2.replace(repr(e2), "-")


def test_analyze_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "nosuch.amc")
    assert code == 2
    assert "error" in err


def test_analyze_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.amc"
    bad.write_text("int x; x = ;")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "expected expression" in err


@pytest.mark.parametrize("command", ["analyze", "oracle"])
def test_program_file_not_utf8_exit_2(tmp_path, capsys, command):
    bad = tmp_path / "latin1.amc"
    bad.write_bytes(b"int x; /* \xff */ know (x < 3);")
    code, out, err = run_cli(capsys, command, str(bad))
    assert code == 2 and out == ""
    assert one_line_error(err) and str(bad) in err and "utf-8" in err


def test_analyze_query_override(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze",
        FIG1,
        "--trials",
        "50",
        "--jobs",
        "1",
        "--query",
        "x < 100",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["p_hat"] == 1.0


def test_analyze_trace(capsys):
    code, _, err = run_cli(
        capsys, "analyze", FIG1, "--trials", "10", "--jobs", "1", "--trace"
    )
    assert code == 0
    assert "draw site" in err and "While" in err


def test_analyze_restrict(tmp_path, capsys):
    spec = tmp_path / "restrict.json"
    spec.write_text(json.dumps({"generators": {"2": {"lo": 0.75, "hi": 1.0}}}))
    code, out, _ = run_cli(
        capsys,
        "analyze",
        FIG4,
        "--trials",
        "400",
        "--jobs",
        "1",
        "--restrict",
        str(spec),
        "--format",
        "json",
    )
    assert code == 0
    d = json.loads(out)
    assert d["config"]["restriction_prob"] == 0.25
    assert any("restricted" in w for w in d["warnings"])


def one_line_error(err):
    return err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "spec",
    [
        {"generators": [1]},
        [1, 2],
        {"generators": {"1": {"lo": 0.1}}},
        {"generators": {"x": {"lo": 0.1, "hi": 0.2}}},
        {"generators": {"2": {"lo": "0.1", "hi": 0.2}}},
        # a digit to str.isdigit, not a decimal ordinal to int()
        {"generators": {"²": {"lo": 0.1, "hi": 0.2}}},
    ],
)
def test_analyze_malformed_restriction_exit_1(tmp_path, capsys, spec):
    path = tmp_path / "restrict.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(
        capsys, "analyze", FIG4, "--trials", "10", "--jobs", "1", "--restrict", str(path)
    )
    assert code == 1 and out == ""
    assert one_line_error(err) and "generators" in err


@pytest.mark.parametrize("content", [b"", b"{", b"\xff"], ids=["empty", "not JSON", "not UTF-8"])
def test_analyze_unparsable_restriction_exit_1(tmp_path, capsys, content):
    path = tmp_path / "restrict.json"
    path.write_bytes(content)
    code, out, err = run_cli(
        capsys, "analyze", FIG4, "--trials", "10", "--jobs", "1", "--restrict", str(path)
    )
    assert code == 1 and out == ""
    assert one_line_error(err) and err.startswith(f"error: restriction file {path}: ")


@pytest.mark.parametrize("flag", ["--trials", "--epsilon", "--jobs"])
def test_analyze_bad_run_argument_prints_no_trace(capsys, flag):
    code, out, err = run_cli(
        capsys, "analyze", FIG1, "--trials", "10", "--jobs", "1", flag, "0", "--trace"
    )
    assert code == 1 and out == ""
    assert one_line_error(err)


def test_analyze_non_finite_real_literal_exit_2(tmp_path, capsys):
    src = tmp_path / "huge.amc"
    src.write_text("double x; x = 1e400; x -= 1e400; know (x < 1.0);")
    code, _, err = run_cli(capsys, "analyze", str(src), "--trials", "10", "--jobs", "1")
    assert code == 2
    assert one_line_error(err) and "1e400" in err


def test_oracle_int64_overflow_exit_1(tmp_path, capsys):
    src = tmp_path / "big.amc"
    src.write_text("int x; x = 100000000000000000000; know (x > 0);")
    code, _, err = run_cli(capsys, "oracle", str(src), "--n", "100")
    assert code == 1
    assert one_line_error(err)


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
@pytest.mark.parametrize("mode", ["sampled", "exact"])
def test_oracle_real_overflow_exit_1(tmp_path, capsys, mode):
    # u overflows to inf and 0.0 * inf is nan: both modes estimated 1.0
    # where every trial rules the outcome out
    src = tmp_path / "overflow.amc"
    src.write_text(
        "double u, v; know (u >= 0.5 && u <= 1.0); u = 1e200 * (1e200 * u);"
        " v = 0.0 * u; know (v != 0.0);"
    )
    code, out, err = run_cli(capsys, "oracle", str(src), "--mode", mode, "--n", "100")
    assert code == 1 and out == ""
    assert one_line_error(err) and "real overflow" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "body",
    [
        # the branch that overflows for x > 0.18 only runs for x < 0.1
        "if (x < 0.1) { y = 1e308 * (10.0 * x); }",
        # the lanes that overflow were pruned by a know before
        "know (x < 0.1); y = 1e308 * (10.0 * x);",
        # ... and inside a condition
        "know (x < 0.1); know (1e308 * (10.0 * x) > 0.0); y = 1.0;",
    ],
)
def test_sampled_oracle_overflow_off_the_running_lanes(tmp_path, capsys, body):
    src = tmp_path / "branch.amc"
    src.write_text(f"double x, y; y = 0.0; x = uniform(); {body} know (y > 0.5);")
    code, out, _ = run_cli(
        capsys, "oracle", str(src), "--mode", "sampled", "--n", "20000", "--format", "json"
    )
    assert code == 0
    assert abs(json.loads(out)["estimate"] - 0.1) < 0.01


@pytest.mark.filterwarnings("error")
def test_sampled_oracle_overflow_in_a_running_condition_exit_1(tmp_path, capsys):
    src = tmp_path / "cond.amc"
    src.write_text("double x; x = uniform(); know (1e308 * (10.0 * x) > 0.5); know (x > 0.5);")
    code, out, err = run_cli(capsys, "oracle", str(src), "--mode", "sampled", "--n", "100")
    assert code == 1 and out == ""
    assert one_line_error(err) and "real overflow" in err


@pytest.mark.parametrize(
    "source",
    [
        "int x; x = 9000000000000000000; x += 9000000000000000000; know (x < 0);",
        "int x; know (x>=0 && x<=3); x += 4611686018427387904;"
        " x += 4611686018427387904; know (x < 0);",
    ],
)
def test_sampled_oracle_int64_wrap_exit_1(tmp_path, capsys, source):
    # int64 lanes would wrap to negative values and report estimate 1.0
    src = tmp_path / "wrap.amc"
    src.write_text(source)
    code, _, err = run_cli(capsys, "oracle", str(src), "--mode", "sampled", "--n", "100")
    assert code == 1
    assert one_line_error(err) and "overflow" in err
    code, out, _ = run_cli(capsys, "oracle", str(src), "--mode", "exact")
    assert code == 0
    assert "estimate: 0.0" in out


def test_sampled_oracle_bound_tightens_to_lanes(tmp_path, capsys):
    # the kept magnitude bound triples each iteration and passes int64
    # long before the loop ends; the lanes themselves stay at 3
    src = tmp_path / "steady.amc"
    src.write_text("int y, i; y = 3; i = 0; while (i < 100) { y = 2 * y - y; i++; } know (y == 3);")
    code, out, _ = run_cli(capsys, "oracle", str(src), "--mode", "sampled", "--n", "100")
    assert code == 0
    assert "estimate: 1.0" in out


@pytest.mark.parametrize(
    "source, grid, estimate",
    [
        # no lane with x < 2 overflows; x <= 9e18 compares, it adds nothing
        (
            "int x, y; know (x >= 0 && x <= 9000000000000000000); y = 0;"
            " if (x < 2) { y = x + x; } know (y >= 1);",
            "4",
            0.0,
        ),
        # the lanes with c == 1 hold 5e18, but only the others run y + y
        (
            "int x, y, c; know (x >= 0 && x <= 3); c = coin_flip();"
            " if (c == 1) { y = 5000000000000000000; } else { y = 1; }"
            " if (c == 0) { y = y + y; } know (y == 2);",
            "64",
            0.5,
        ),
    ],
)
def test_sampled_oracle_int_overflow_off_the_running_lanes(tmp_path, capsys, source, grid, estimate):
    src = tmp_path / "int_branch.amc"
    src.write_text(source)
    common = ("oracle", str(src), "--grid", grid, "--format", "json")
    code, out, _ = run_cli(capsys, *common, "--mode", "exact")
    assert code == 0 and json.loads(out)["estimate"] == estimate
    code, out, _ = run_cli(capsys, *common, "--mode", "sampled", "--n", "20000")
    assert code == 0
    assert abs(json.loads(out)["estimate"] - estimate) < 0.02


@pytest.mark.parametrize(
    "source",
    [
        "int x; know (" + "(" * 400 + "x" + ")" * 400 + " < 1);",
        "int x; know (x >= 0 && x <= 1); know (" + " && ".join(["x < 1"] * 2000) + ");",
        "int x; x = 0; x = x" + " + 1" * 3000 + "; know (x < 1);",
        "int x; x = " + "1" * 5000 + "; know (x < 1);",
        "int x; x = \u00b2; know (x < 1);",
        "int x; x = 1\u0662; know (x < 1);",
        "int \u00e9; know (\u00e9 < 1);",
    ],
    ids=["parens", "and-chain", "plus-chain", "long-literal", "superscript", "arabic", "letter"],
)
def test_front_end_rejects_exit_2(tmp_path, capsys, source):
    # deep nesting and long chains would pass the recursion limit in some
    # walker, int() refuses the long literal and reads Unicode digits, and
    # non-ASCII letters are refused along with those digits
    src = tmp_path / "p.amc"
    src.write_text(source, encoding="utf-8")
    for argv in (["analyze", str(src), "--trials", "10", "--jobs", "1"], ["oracle", str(src)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert one_line_error(err)


def _at_depth(depth: int, deeper: str = "") -> str:
    """A program whose nested blocks, parentheses, + chain and && chain
    each reach ``depth`` levels; the part named by ``deeper`` one more."""

    d = {part: depth + (part == deeper) for part in ("blocks", "parens", "plus", "and")}
    return "".join(
        [
            "int x; know (x >= 0 && x <= 1);",
            "if (x < 1) { " * (d["blocks"] - 2) + "x = x + coin_flip();" + " }" * (d["blocks"] - 2),
            "x = " + "(" * (d["parens"] - 2) + "x + coin_flip()" + ")" * (d["parens"] - 2) + ";",
            "x = x + coin_flip()" + " + 0" * (d["plus"] - 2) + ";",
            "know (" + " && ".join(["x < 9"] * (d["and"] - 1)) + ");",
        ]
    )


def test_program_at_nesting_bound_runs_everywhere(tmp_path, capsys):
    src = tmp_path / "deep.amc"
    src.write_text(_at_depth(lang.MAX_DEPTH))
    program = lang.parse(src.read_text())
    assert lang.parse(lang.to_source(program)) == program
    reports = []
    for jobs in ("1", "2"):
        argv = ["analyze", str(src), "--trials", "20", "--jobs", jobs, "--format", "json"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        report = json.loads(out)
        del report["jobs"], report["elapsed_ms"]
        reports.append(report)
    assert reports[0] == reports[1]
    code, _, err = run_cli(capsys, "analyze", str(src), "--trials", "5", "--jobs", "1", "--trace")
    assert code == 0 and "draw site" in err
    for mode in ("exact", "sampled"):
        code, out, _ = run_cli(capsys, "oracle", str(src), "--mode", mode, "--n", "100")
        assert code == 0 and "estimate: 1.0" in out


@pytest.mark.parametrize("deeper", ["blocks", "parens", "plus", "and"])
def test_program_past_nesting_bound_exit_2(tmp_path, capsys, deeper):
    src = tmp_path / "deeper.amc"
    src.write_text(_at_depth(lang.MAX_DEPTH, deeper))
    code, _, err = run_cli(capsys, "analyze", str(src), "--trials", "5", "--jobs", "1")
    assert code == 2
    assert one_line_error(err) and f"deeper than {lang.MAX_DEPTH} levels" in err


def test_oracle_exact_long_coin_path_exit_1(tmp_path, capsys):
    # every path reads 1,500 coins and none hits, past the enumeration's
    # cap on the coins of one path
    src = tmp_path / "coins.amc"
    src.write_text(
        "int x, i; x = 0; i = 0; while (i < 1500) { x += coin_flip(); i++; } know (x < 0);"
    )
    code, out, err = run_cli(capsys, "oracle", str(src), "--mode", "exact")
    assert code == 1 and out == ""
    assert one_line_error(err) and "coins" in err


def test_oracle_exact_warns_on_divergence(tmp_path, capsys):
    # the x = 0 path loops forever: a miss, with a warning as in sampled mode
    src = tmp_path / "diverge.amc"
    src.write_text("int x; x = coin_flip(); while (x < 1) { } know (x >= 0);")
    code, out, _ = run_cli(capsys, "oracle", str(src), "--mode", "exact", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["estimate"] == 0.5
    assert len(report["diagnostics"]) == 1 and "nonterminating" in report["diagnostics"][0]


def test_integer_bounds_past_float_range(tmp_path, capsys):
    huge = "1" + "0" * 400  # past the largest double
    src = tmp_path / "huge.amc"
    src.write_text(f"int x; know (x >= 0 && x <= 1); know (x < {huge});")
    argv = ["analyze", str(src), "--trials", "20", "--jobs", "1"]
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["p_hat"] == 1.0
    src.write_text(f"int x; x = {huge}; know (x > 0);")
    code, _, err = run_cli(capsys, *argv, "--trace")
    assert code == 0 and f"x=[{huge}, {huge}]" in err
    # a sum or product of such a bound with an infinite one stays infinite
    for source in (
        f"int x, y; know (x >= 0); y = {huge}; x = x + y; know (x > 0);",
        f"int x; x = {huge} * x; know (x > 0);",
    ):
        src.write_text(source)
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and err == "" and json.loads(out)["n"] == 20


def test_oracle_sampled_stops_drawless_divergent_loop(tmp_path, capsys):
    # the x = 0 lanes repeat an iteration that changes nothing; they diverge
    # at once instead of running each batch's whole step budget
    src = tmp_path / "diverge.amc"
    src.write_text("int x; x = coin_flip(); while (x < 1) { } know (x >= 0);")
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, "oracle", str(src), "--n", "300000")
    assert code == 0 and time.perf_counter() - started < 30
    warnings = [line for line in out.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1 and "nonterminating" in warnings[0]
    estimate = float(next(line for line in out.splitlines() if line.startswith("estimate:"))[9:])
    assert abs(estimate - 0.5) <= 4 * (0.25 / 300_000) ** 0.5


def test_sampled_oracle_draw_table_cap_exit_1(tmp_path, capsys, monkeypatch):
    # each iteration draws a fresh coin for every lane until the step
    # budget, 16 kB a draw at --n 2000; the cap stops it at 1 MiB here
    monkeypatch.setattr(concrete, "_DRAW_TABLE_BYTES", 1 << 20)
    src = tmp_path / "walk.amc"
    src.write_text(
        "int x; know (x >= 0 && x <= 1); while (x >= 0) { x += coin_flip(); } know (x < 0);"
    )
    code, out, err = run_cli(capsys, "oracle", str(src), "--mode", "sampled", "--n", "2000")
    assert code == 1 and out == ""
    assert one_line_error(err) and "draw table" in err


def test_domain_error_exit_1(capsys, monkeypatch):
    from absmc import estimator
    from absmc.intervals import DomainError

    def fail(*args, **kwargs):
        raise DomainError("undefined sum of infinities")

    monkeypatch.setattr(estimator, "run", fail)
    code, _, err = run_cli(capsys, "analyze", FIG1, "--trials", "10", "--jobs", "1")
    assert code == 1
    assert err == "error: undefined sum of infinities\n"


@pytest.mark.parametrize("seed", ["-1", "-18446744073709551617"])
def test_oracle_negative_seed_exit_1(capsys, seed):
    # numpy's generator takes no negative seed; the message names the seed
    code, out, err = run_cli(capsys, "oracle", FIG1, "--n", "100", "--seed", seed)
    assert (code, out) == (1, "")
    assert err == f"error: sampled mode needs a seed >= 0, got {seed}\n"


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_oracle_grid_below_one_exit_1(capsys, grid):
    code, out, err = run_cli(capsys, "oracle", FIG1, "--n", "100", "--grid", grid)
    assert code == 1 and out == ""
    assert one_line_error(err) and "grid" in err


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--unroll", "-5", "unroll_limit"),
        ("--widening-delay", "-3", "widening_delay"),
        ("--narrowing-passes", "-2", "narrowing_passes"),
    ],
)
def test_analyze_negative_knob_exit_1(capsys, flag, value, field):
    code, out, err = run_cli(capsys, "analyze", FIG1, "--trials", "100", "--jobs", "1", flag, value)
    assert code == 1 and out == ""
    assert one_line_error(err) and field in err and value in err


FOUR_INPUTS = """double a, b, c, d;
know (a >= 0.0 && a <= 1.0 && b >= 0.0 && b <= 1.0);
know (c >= 0.0 && c <= 1.0 && d >= 0.0 && d <= 1.0);
know (a + b + c + d > 3.0);
"""


@pytest.mark.parametrize(
    "source, grid, count",
    [(None, "100000000", 100_000_000), (FOUR_INPUTS, "64", 64**4), (FOUR_INPUTS, "33", 33**4)],
    ids=["fig2", "four-inputs-64", "four-inputs-33"],
)
def test_oracle_grid_past_cap_exit_1(tmp_path, capsys, source, grid, count):
    path = FIG2
    if source is not None:
        path = tmp_path / "four.amc"
        path.write_text(source)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "oracle", str(path), "--n", "100", "--grid", grid)
    assert time.perf_counter() - started < 5  # refused before any grid is built
    assert code == 1 and out == ""
    assert one_line_error(err) and f" {count} " in err and "--grid" in err


def test_oracle_exact_text(capsys):
    code, out, _ = run_cli(capsys, "oracle", FIG1, "--mode", "exact")
    assert code == 0
    assert "estimate: 0.5" in out


def test_oracle_exact_infeasible_exit_1(capsys):
    code, _, err = run_cli(capsys, "oracle", FIG2, "--mode", "exact")
    assert code == 1
    assert "coin_flip" in err


def test_oracle_sampled_json(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", FIG2, "--mode", "sampled", "--n", "20000", "--format", "json"
    )
    assert code == 0
    d = json.loads(out)
    assert d["mode"] == "sampled"
    assert abs(d["estimate"] - 5 / 6) < 0.02


def test_plan(capsys):
    code, out, _ = run_cli(capsys, "plan", "--t", "0.01", "--epsilon", "0.01")
    assert code == 0
    assert out.strip() == "23026"


def test_plan_domain_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "plan", "--t", "0", "--epsilon", "0.01")
    assert code == 1
    assert "t must be" in err
    # t * t underflows to 0: a trial count past any float, not a traceback
    for argv in (("plan", "--t", "1e-170", "--epsilon", "0.5"), ("curves", "--t-min", "1e-300")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "trial count" in err


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON output")


def test_analyze_json_margin_finite_for_subnormal_epsilon(capsys):
    # 1 / 1e-320 overflows to inf; the margin must not print as Infinity
    code, out, _ = run_cli(
        capsys, "analyze", FIG1, "--trials", "200", "--jobs", "1", "--epsilon", "1e-320",
        "--format", "json",
    )
    assert code == 0
    d = json.loads(out, parse_constant=_reject_constant)
    assert d["margin"] == math.sqrt(-math.log(1e-320) / 400)
    assert run_cli(capsys, "plan", "--t", "0.5", "--epsilon", "1e-320")[1].strip() == "1474"


@pytest.mark.parametrize("trace", [[], ["--trace"]])
def test_analyze_rejects_more_trials_than_seeds(capsys, trace):
    # trial 2**64 would reuse trial 0's seed; the run must not start
    argv = ["analyze", FIG1, "--trials", str(2**64 + 1), "--jobs", "1", *trace]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert one_line_error(err) and "2**64" in err


def test_usage_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "plan", "--t", "0.1")
    assert code == 1  # missing required --epsilon


@pytest.mark.parametrize("flag", ["--n", "--narrowing", "--unr", "--tri"])
def test_abbreviated_flag_is_a_usage_error(capsys, flag):
    # --n is the oracle's sample count; as a prefix of --narrowing-passes it
    # silently changed the analysis
    code, out, err = run_cli(capsys, "analyze", FIG1, "--jobs", "1", flag, "5")
    assert code == 1 and out == ""
    assert one_line_error(err) and f"unrecognized arguments: {flag} 5" in err


def test_curves_speed_rows_match_closed_form(capsys):
    code, out, _ = run_cli(
        capsys,
        "curves",
        "--alpha",
        "1",
        "--t-min",
        "0.001",
        "--t-max",
        "0.1",
        "--points",
        "9",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,epsilon,n"
    assert len(lines) == 10
    for line in lines[1:]:
        t, eps, n = line.split(",")
        t, eps, n = float(t), float(eps), int(n)
        assert eps == t  # alpha = 1
        assert n == math.ceil(-math.log(eps) / (2 * t * t))


def test_curves_exceed_rows(capsys):
    code, out, _ = run_cli(
        capsys, "curves", "--kind", "exceed", "--t", "0.01", "--n-min", "100",
        "--n-max", "10000", "--points", "5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,p_exceed"
    for line in lines[1:]:
        n, p = line.split(",")
        assert float(p) == math.exp(-2 * int(n) * 0.01 * 0.01)


def test_curves_bad_range_exit_1(capsys):
    code, _, _ = run_cli(capsys, "curves", "--t-min", "0.5", "--t-max", "0.1")
    assert code == 1


@pytest.mark.parametrize("kind", ["speed", "exceed"])
@pytest.mark.parametrize("points", ["1", "1000001", str(10**20)])
def test_curves_refuse_points_outside_the_limit_before_any_row(capsys, kind, points):
    # 10**20 points would print for hours: the exceed table spins through
    # every k after its distinct rows, and the speed table writes each
    code, out, err = run_cli(capsys, "curves", "--kind", kind, "--n-min", "1", "--n-max", "3",
                             "--points", points)
    assert code == 1 and out == ""
    assert one_line_error(err) and "--points must be between 2 and 1000000" in err


@pytest.mark.parametrize("kind", ["speed", "exceed"])
def test_curves_stream_their_rows(kind):
    # each row is printed as it is computed: 20,000 rows (every n distinct
    # in the exceed table) held at once would take megabytes
    argv = ["curves", "--kind", kind, "--points", "20000", "--n-max", str(10**9)]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 1_000_000


REPORT_KEYS = {
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
}


@pytest.mark.parametrize("name", corpus.NAMES)
def test_analyze_json_schema_all_corpus(capsys, name):
    code, out, _ = run_cli(
        capsys,
        "analyze",
        str(corpus.path(name)),
        "--trials",
        "200",
        "--jobs",
        "1",
        "--format",
        "json",
    )
    assert code == 0
    d = json.loads(out)
    assert set(d) == REPORT_KEYS
    assert isinstance(d["warnings"], list) and isinstance(d["config"], dict)
    assert 0.0 <= d["p_hat"] <= d["p_prime"] <= 1.0
    assert d["hits"] <= d["n"] == 200
