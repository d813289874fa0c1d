import csv
import importlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import padicsums
from padicsums.cli import (
    EXIT_BUDGET,
    EXIT_CONSISTENCY,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    MAX_BALL_EXPONENT,
    main,
    parse_rational,
    parse_y_vector,
)
from padicsums.errors import MAX_DIGITS
from padicsums.padic import DEFAULT_NAIVE_BUDGET, PRIMALITY_BOUND
from padicsums.polymap import MAX_TERMS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_rational_grammar():
    assert parse_rational("1/3") == Fraction(1, 3)
    assert parse_rational("2/3^4") == Fraction(2, 81)
    assert parse_rational("-5") == Fraction(-5)
    assert parse_y_vector("1/3,2/9") == (Fraction(1, 3), Fraction(2, 9))
    with pytest.raises(Exception):
        parse_rational("x")


def test_eval_gauss(capsys):
    code, out, _ = run(capsys, "eval", "--prime", "3", "--map", "x1^2", "--y", "1/3")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert abs(payload["magnitude"] - 0.5773503) < 1e-6
    assert not payload["exact_zero"]
    assert payload["histogram"]["counts"] == {"0": 1, "1": 2}
    assert payload["pruning_stats"]["p1"] >= 1


def test_eval_exact_zero(capsys):
    code, out, _ = run(capsys, "eval", "--prime", "3", "--map", "x1", "--y", "1/3")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["magnitude"] == 0.0
    assert payload["exact_zero"] is True


def test_eval_integral_y(capsys):
    code, out, _ = run(capsys, "eval", "--prime", "3", "--map", "x1^2", "--y", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert abs(payload["magnitude"] - 1.0) < 1e-12


def test_eval_config_round_trip(capsys):
    """The echoed config is enough to reproduce the run."""
    argv = ["eval", "--prime", "5", "--map", "x1^2; x1", "--y", "1/5,0"]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    config = json.loads(out)["config"]
    again = [config["command"], f"--prime={config['prime']}", f"--map={config['map']}",
             f"--y={','.join(config['y'])}", f"--budget={config['budget']}"]
    assert run(capsys, *again) == (EXIT_OK, out, "")


def test_eval_budget_exit(capsys):
    code, _, err = run(
        capsys, "eval", "--prime", "3", "--map", "x1^2", "--y", "1/81",
        "--budget", "10", "--method", "naive",
    )
    assert code == EXIT_BUDGET
    assert "budget" in err


def test_separable_phase_walks_each_group_within_the_budget(capsys):
    """x1^2 + x2^5 at p = 5, m = 8: the joint walk needs 406,901 nodes, the
    walks of x1 and of x2 need 1,412 together."""
    argv = ["eval", "--prime", "5", "--map", "x1^2+x2^5", "--y", "1/5^8", "--budget", "5000"]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["histogram"] == {"M": 0, "counts": {"0": 1}, "p": 5, "scale": "1/15625"}


def test_product_of_group_sums_keeps_the_budget(capsys):
    """x1^3+x1 and x2^3+x2 at p = 13, m = 2 each walk 14 nodes to a sum of
    13 classes, so their product pairs 169 classes."""
    argv = ["eval", "--prime", "13", "--map", "x1^3+x1+x2^3+x2", "--y", "1/13^2"]
    code, out, err = run(capsys, *argv, "--budget", "100")
    assert code == EXIT_BUDGET and out == ""
    assert err.splitlines() == ["error: budget exceeded: 169 phase class pairs needed, budget is 100"]
    assert run(capsys, *argv, "--budget", "169")[0] == EXIT_OK


def test_eval_parse_error_exit(capsys):
    code, _, err = run(capsys, "eval", "--prime", "3", "--map", "x1 + *", "--y", "1")
    assert code == EXIT_PARSE
    assert "error" in err


@pytest.mark.parametrize("name, pos", [("x0", 0), ("x00", 0), ("x1+x0", 3)])
def test_variable_index_zero_is_a_parse_error(capsys, name, pos):
    """x0 is refused where it stands, naming x1 as the first variable; it
    was once read as a map in no variables ("have x1..x0").  x01 is x1."""
    code, out, err = run(capsys, "eval", "--map", name, "--y", "1/3")
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"error: variable index 0: variables are numbered from x1 (at position {pos})\n"
    x01, x1 = (json.loads(run(capsys, "eval", "--map", text, "--y", "1/3")[1]) for text in ("x01", "x1"))
    assert x01["histogram"] == x1["histogram"] and x01["config"]["map"] == "x01"


def test_deeply_nested_map_is_a_parse_error(capsys):
    deep = "(" * 3000 + "x1" + ")" * 3000
    code, out, err = run(capsys, "eval", "--map", deep, "--y", "1/3")
    assert code == EXIT_PARSE
    assert "nested deeper" in err and "Traceback" not in err and out == ""
    ok = "(" * 100 + "x1^2" + ")" * 100
    assert run(capsys, "eval", "--map", ok, "--y", "1/3")[0] == EXIT_OK


def test_eval_budget_env_var(capsys, monkeypatch):
    """--budget is the only budget setting: the environment is not read."""
    monkeypatch.setenv("PADICSUMS_BUDGET", "10")
    argv = ["eval", "--map", "x1^2", "--y", "1/81", "--method", "naive"]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["config"]["budget"] == DEFAULT_NAIVE_BUDGET
    assert run(capsys, *argv, "--budget", "10")[0] == EXIT_BUDGET


def test_density_csv(capsys):
    code, out, _ = run(capsys, "density", "--prime", "3", "--map", "x1^2", "--level", "1")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["z_1", "N", "F"]
    assert rows[1] == ["0", "1", "1"]
    assert rows[2] == ["1", "2", "2"]


def test_density_json(capsys):
    code, out, _ = run(
        capsys, "density", "--prime", "3", "--map", "x1^2", "--level", "1",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["table"]["rows"][1]["N"] == 2


def test_decay_square(capsys, tmp_path):
    prefix = str(tmp_path / "decay")
    code, _, _ = run(
        capsys, "decay", "--prime", "3", "--map", "x1^2", "--levels", "1..6",
        "--out", prefix,
    )
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "decay.json").read_text())
    assert abs(payload["fit"]["alpha_hat"] + 0.5) < 1e-9
    assert payload["fit"]["verdict"] == "CONSISTENT"
    assert payload["fit"]["c_hat"] == 1.0
    with open(tmp_path / "decay.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "sup", "sup_error", "argmax_u", "exhaustive"]
    assert len(rows) == 7


def test_decay_dependent_map_still_exits_zero(capsys):
    code, out, err = run(capsys, "decay", "--map", "x1; x1+1", "--levels", "1..2")
    assert code == EXIT_OK
    assert "HYPOTHESIS FAILED" in err
    payload = json.loads(out[out.index("{") :])
    assert payload["report"]["hypothesis_ok"] is False


def test_decay_bad_levels(capsys):
    code, _, err = run(capsys, "decay", "--map", "x1^2", "--levels", "3..1")
    assert code == EXIT_PARSE
    assert "level range" in err


def test_decay_sampled_strategy(capsys):
    code, out, _ = run(
        capsys, "decay", "--prime", "3", "--map", "x1^2; x1", "--levels", "1..2",
        "--strategy", "sample:5", "--seed", "9",
    )
    assert code == EXIT_OK
    payload = json.loads(out[out.index("{") :])
    assert payload["config"]["seed"] == 9
    assert all(not rec["exhaustive"] for rec in payload["records"])


def test_decay_empty_sample_is_rejected(capsys):
    # sample:0 would evaluate no direction and still claim exact zeros
    code, out, err = run(
        capsys, "decay", "--map", "x1^2", "--levels", "1..2", "--strategy", "sample:0"
    )
    assert code == EXIT_PARSE
    assert "N >= 1" in err and out == ""


def test_fourier_check_ok(capsys):
    code, out, _ = run(
        capsys, "fourier-check", "--prime", "3", "--map", "x1^2", "--y", "1/3",
        "--level", "1",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["is_zero"] is True
    assert payload["residual"]["counts"] == {}


def test_fourier_check_level_too_low(capsys):
    code, _, err = run(
        capsys, "fourier-check", "--prime", "3", "--map", "x1^2", "--y", "1/9",
        "--level", "1",
    )
    assert code == EXIT_PRECONDITION
    assert "valuation" in err


def test_fourier_check_at_level_zero_states_a_signed_bound(capsys):
    """The bound is printed as the number -m, so level 0 reads "below 0",
    not "below -0"."""
    code, out, err = run(capsys, "fourier-check", "--map", "x1^2", "--y", "1/3", "--level", "0")
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert err == "error: component 1/3 has valuation below 0; raise the level\n"


def test_byte_identical_across_workers(capsys):
    _, out1, _ = run(
        capsys, "eval", "--prime", "3", "--map", "x1^3 + x1^2", "--y", "1/27",
        "--workers", "1",
    )
    _, out8, _ = run(
        capsys, "eval", "--prime", "3", "--map", "x1^3 + x1^2", "--y", "1/27",
        "--workers", "8",
    )
    assert out1 == out8


def test_decay_byte_identical_across_workers(capsys):
    argv = [
        "decay", "--prime", "3", "--map", "x1; x1^2", "--levels", "1..3",
        "--strategy", "sample:6", "--seed", "4",
    ]
    _, out1, _ = run(capsys, *argv, "--workers", "1")
    _, out8, _ = run(capsys, *argv, "--workers", "8")
    assert out1 == out8


def test_map_file_input(capsys, tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("x1^2\n")
    code, out, _ = run(
        capsys, "eval", "--prime", "3", "--map-file", str(path), "--y", "1/3"
    )
    assert code == EXIT_OK
    assert json.loads(out)["config"]["map"] == "x1^2"



def test_unreadable_map_file_is_a_parse_error(capsys, tmp_path):
    missing = tmp_path / "missing.txt"
    code, out, err = run(capsys, "eval", "--map-file", str(missing), "--y", "1/3")
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: cannot read map file") and "Traceback" not in err


def test_unwritable_out_is_a_parse_error(capsys, tmp_path):
    target = tmp_path / "no-such-dir" / "o"
    code, _, err = run(capsys, "eval", "--map", "x1^2", "--y", "1/3", "--out", f"{target}.json")
    assert code == EXIT_PARSE
    assert err.startswith("error: cannot write")
    code, _, err = run(capsys, "decay", "--map", "x1^2", "--levels", "1..2", "--out", str(target))
    assert code == EXIT_PARSE
    assert err.startswith("error: cannot write")


@pytest.mark.parametrize(
    "map_text, levels, error",
    [
        ("x1", "1..3", "every record in the window is exactly zero; nothing to fit"),
        ("x1^2", "1..1", "need at least two nonzero records to fit a slope"),
    ],
)
def test_decay_without_a_fit_reports_why(capsys, map_text, levels, error):
    code, out, err = run(capsys, "decay", "--map", map_text, "--levels", levels)
    assert code == EXIT_OK
    payload = json.loads(out[out.index("{"):])
    assert payload["fit"] == {"error": error, "verdict": "VACUOUS"}
    assert payload["report"]["alpha_hat"] is None and payload["report"]["c_hat"] == 0.0
    assert err.startswith("note: ")

def test_phi_flag(capsys):
    phi = json.dumps([{"center": ["0"], "k": 1, "weight": "1"}])
    code, out, _ = run(
        capsys, "eval", "--prime", "3", "--map", "x1", "--y", "1/3", "--phi", phi
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    # on the sub-ball 3 Z_3 the linear phase x/3 is constant 0: measure 1/3
    assert abs(payload["magnitude"] - 1 / 3) < 1e-12


def test_exit_code_5_is_never_expected():
    assert EXIT_CONSISTENCY == 5


@pytest.mark.parametrize(
    "argv, what",
    [
        # a box of 3^39 fibers used to end in a MemoryError traceback
        (["density", "--map", "x1^2", "--level", "40"], "coset nodes"),
        # a box of 3^99999 fibers used to end in an OverflowError traceback
        (["density", "--map", "(x1+1)^2", "--level", "100000"], "fibers in one box"),
        # a phase descent of unbounded size used to run on and on
        (["eval", "--map", "x1^3+x2^3+x1*x2", "--y", "1/3^40"], "coset nodes"),
        # the root's 1000003 children used to be built before the budget was read
        (["eval", "--prime", "1000003", "--map", "x1^2", "--y", "1/1000003^2"], "coset nodes"),
        # one-node walks (what=None) used to build all p**n digit vectors first
        (["eval", "--map", "x12", "--y", "1/3"], None),
        (["eval", "--prime", "10000000000000061", "--map", "x1", "--y", "1/10000000000000061"],
         None),
        # the valuation of 3^100000, one division per factor, took ~8 s
        (["decay", "--map", "x1^2", "--levels", "100000..100000", "--strategy", "sample:1"],
         "coset nodes"),
    ],
)
def test_recursive_paths_keep_the_budget(capsys, argv, what):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--budget", "10")
    assert time.perf_counter() - start < 1.0
    if what is None:
        assert code == EXIT_OK and json.loads(out)["pruning_stats"]["leaves"] == 1
        return
    assert code == EXIT_BUDGET
    assert out == "" and f"more than 10 {what} needed" in err and "Traceback" not in err


@pytest.mark.parametrize("text", ["x1^4096", "x1^4096*x2^4096", "x1^4096+x2^4096"])
def test_degrees_above_the_level_expand_only_live_powers(capsys, text):
    # mod 3 only the t**0 term of (d + 3t)**4096 is live; expanding all 4097
    # binomial terms per shift took 5-17 s
    argv = ["eval", "--prime", "3", "--map", text, "--y", "1/3", "--budget", "10"]
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    _, naive, _ = run(capsys, *argv, "--method", "naive")
    assert code == EXIT_OK and json.loads(out)["histogram"] == json.loads(naive)["histogram"]


def test_off_centre_substitution_counts_its_terms_first(capsys):
    """Each variable's binomial expansion about a nonzero centre is counted
    against the budget before it is built: expanding x1^4096*x2^4096 about
    (1, 1) ran past 40 s under --budget 10.  One variable's 4097 terms fit
    the default budget; (1 + t)**4096 and (1 + t)**2 agree mod 3."""
    phi = '[{"center": ["1", "1"], "k": 0, "weight": "1"}]'
    argv = ["eval", "--prime", "3", "--y", "1/3", "--map", "x1^4096*x2^4096", "--phi", phi]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--budget", "10")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_BUDGET and out == ""
    assert err == "error: budget exceeded: 4097 binomial terms needed, budget is 10\n"
    phi = '[{"center": ["1"], "k": 0, "weight": "1"}]'
    code, out, _ = run(capsys, "eval", "--prime", "3", "--y", "1/3", "--map", "x1^4096", "--phi", phi)
    _, square, _ = run(capsys, "eval", "--prime", "3", "--y", "1/3", "--map", "x1^2", "--phi", phi)
    assert code == EXIT_OK and json.loads(out)["histogram"] == json.loads(square)["histogram"]


def _one_ball(k):
    return '[{"center": ["0"], "k": %d, "weight": "1"}]' % k


@pytest.mark.parametrize(
    "argv, code, message",
    [
        # the ball's p**k used to be built and substituted before any budget
        # check: 3 s to exit 3 at k = -300000, and k = 30000000 ran past 12 s
        (["eval", "--y", "1/3", "--phi", _one_ball(-300000)], EXIT_PARSE, None),
        (["eval", "--y", "1/3", "--phi", _one_ball(30000000)], EXIT_PARSE, None),
        (["decay", "--levels", "1..2", "--phi", _one_ball(MAX_BALL_EXPONENT + 1)], EXIT_PARSE, None),
        (["decay", "--levels", "1..2", "--phi", _one_ball(-MAX_BALL_EXPONENT - 1)], EXIT_PARSE, None),
        # the bounds themselves are accepted
        (["eval", "--y", "1/3", "--phi", _one_ball(-MAX_BALL_EXPONENT)], EXIT_BUDGET,
         "budget exceeded: more than 10 coset nodes needed, budget is 10"),
        (["eval", "--y", "1/3", "--phi", _one_ball(MAX_BALL_EXPONENT)], EXIT_PARSE,
         "a number in the output is too long to print"),
    ],
)
def test_phi_ball_exponents_are_bounded_before_any_work(capsys, argv, code, message):
    message = message or f"a --phi ball's k lies outside -{MAX_BALL_EXPONENT}..{MAX_BALL_EXPONENT}"
    start = time.perf_counter()
    got, out, err = run(capsys, *argv, "--map", "x1^2", "--budget", "10")
    assert time.perf_counter() - start < 1.0
    assert got == code and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, count",
    [
        # all N directions used to be drawn and swept, whatever the budget
        (["decay", "--map", "x1;x2", "--levels", "1..1", "--strategy", "sample:100000"], 100000),
        (["decay", "--map", "x1^2", "--levels", "1..1", "--strategy", "sample:1000000"], 1000000),
    ],
)
def test_sampled_sweeps_keep_the_budget(capsys, argv, count):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--budget", "10")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_BUDGET and out == ""
    assert err == f"error: budget exceeded: {count} directions needed, budget is 10\n"


DECAY_GOLDEN = json.loads((Path(__file__).parent / "data" / "decay_golden.json").read_text())


@pytest.mark.parametrize(
    "case", DECAY_GOLDEN, ids=[" ".join(case["argv"][4:]) for case in DECAY_GOLDEN]
)
def test_decay_output_bytes_are_pinned(capsys, case):
    """stdout (the CSV, then the JSON), stderr and exit code of ``decay``,
    recorded once: a square (CONSISTENT), an r=2 map, a sampled sweep, a
    linear map (VACUOUS), a constant map, a sampled r=2 sweep and an r=2
    sweep under a two-ball weight centred outside Z_p."""
    code, out, err = run(capsys, *case["argv"])
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


@pytest.mark.parametrize(
    "argv, what, seconds",
    [
        # 3^3000000 was built four times, three of them only to be compared
        (["density", "--map", "x1", "--level", "3000000"], "fibers in one box", 1.0),
        # 3^10000000 took 3 s to build, though the root's box is read off the
        # coefficient valuations
        (["density", "--prime", "3", "--map", "x1", "--level", "10000000"], "fibers in one box", 0.5),
        # the count 3^3000000 - 3^2999999 was built only to be compared
        (["decay", "--map", "x1^2", "--levels", "3000000..3000000"],
         "directions (use a sample strategy)", 0.1),
        # each r=2 direction built its own Fractions over 3^300000 before its walk
        (["decay", "--map", "x1;x2^2", "--levels", "300000..300000", "--strategy", "sample:1"],
         "coset nodes", 1.0),
        # the x1 group's sum cancels, yet its mean built 3^-2000000 and its
        # reduction 3^2000000 before the x2^2 group's walk ran out of budget
        (["decay", "--map", "x1;x2^2", "--levels", "2000000..2000000", "--strategy", "sample:1"],
         "coset nodes", 1.0),
        # the r=1 base built 3^2000000 for its frequency 1/3^2000000, its
        # clearing exponent and its residue, besides its images
        (["decay", "--map", "x1^2", "--levels", "2000000..2000000", "--strategy", "sample:1"],
         "coset nodes", 1.0),
    ],
    ids=[
        "density", "density-level-1e7", "decay", "decay-r2-sampled",
        "decay-r2-sampled-cancelling-group", "decay-r1-sampled",
    ],
)
def test_budget_checks_at_high_levels_build_no_huge_powers(capsys, argv, what, seconds):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--budget", "10")
    assert time.perf_counter() - start < seconds
    assert code == EXIT_BUDGET and out == ""
    assert err == f"error: budget exceeded: more than 10 {what} needed, budget is 10\n"


UNIT_BALL_ABOUT_ONE = '[{"center":["1"],"k":0,"weight":"1"}]'


@pytest.mark.parametrize(
    "argv, seconds",
    [
        (["eval", "--y", "1/3"], 0.5),
        (["decay", "--levels", "1..4"], 1.0),
    ],
    ids=["eval", "decay"],
)
def test_expanding_a_high_power_about_a_unit_builds_no_binomials_term_by_term(capsys, argv, seconds):
    """x1^4096 about x1 = 1 expands into 4097 binomial terms: the
    coefficients comb(4096, j) are built along the row, not each on its
    own (1.2 s and 4.7 s before), and the ball Z_3 = 1 + Z_3 gives the
    value of the unit polydisc."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--map", "x1^4096", "--phi", UNIT_BALL_ABOUT_ONE)
    assert time.perf_counter() - start < seconds
    assert (code, err) == (EXIT_OK, "")
    code, centred, _ = run(capsys, *argv, "--map", "x1^4096")
    strip = lambda text: text[: text.index('"phi"')] + text[text.index('"prime"'):]
    assert strip(out) == strip(centred)


@pytest.mark.parametrize(
    "argv, stderr",
    [
        # levels 1..4 fit 500 coset nodes; the window's deepest level does not
        (["--map", "x1^3+x2^3+x1*x2", "--levels", "1..5", "--budget", "500"],
         "more than 500 coset nodes needed, budget is 500"),
        # levels 1..6 are swept, level 7's 1458 directions pass the budget;
        # the trees of levels 7..9 would pass 1000 coset nodes
        (["--map", "x1^3+x2^3+x1*x2", "--levels", "1..9", "--budget", "1000"],
         "1458 directions (use a sample strategy) needed, budget is 1000"),
        # the window's walk of x1^2 at level 4 passes 5 coset nodes, but
        # level 1, swept alone, already pairs 6 phase classes
        (["--prime", "2", "--map", "x1^2+x2^2+x3^2", "--levels", "1..4", "--budget", "5"],
         "6 phase class pairs needed, budget is 5"),
        # r = 2: levels 1..3 are swept; level 4's 5832 directions pass the budget
        (["--map", "x1;x2^2", "--levels", "1..5", "--budget", "1000"],
         "5832 directions (use a sample strategy) needed, budget is 1000"),
        # r = 2: level 1 fits; a direction's walk at level 2 (M = 4) does not
        (["--map", "1/9*x1^3+1/9*x2^3+x1*x2;x1", "--levels", "1..3", "--budget", "90"],
         "more than 90 coset nodes needed, budget is 90"),
        # r = 2: u = (1, 0) at level 1 is four Gauss sums, whose products pair 12 classes
        (["--map", "x1^2+x2^2+x3^2+x4^2;x1", "--levels", "1..2", "--budget", "10"],
         "12 phase class pairs needed, budget is 10"),
    ],
    ids=["deepest-level-nodes", "middle-level-directions", "phase-class-pairs",
         "r2-middle-level-directions", "r2-walk-nodes", "r2-phase-class-pairs"],
)
def test_a_decay_window_fails_as_its_levels_do_one_at_a_time(capsys, argv, stderr):
    """Exit code and stderr of a window past the budget are those of the
    levels swept one at a time, lowest first, for r = 1 and r = 2."""
    code, out, err = run(capsys, "decay", *argv)
    assert (code, out, err) == (EXIT_BUDGET, "", f"error: budget exceeded: {stderr}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--map", "x1^4096+x2^2", "--y", "1/3^3"],
        ["decay", "--map", "x1^4096+x2^2", "--levels", "3..3", "--strategy", "sample:1"],
        ["decay", "--map", "x1^4096+x2^2;x2", "--levels", "3..3", "--strategy", "sample:1"],
    ],
    ids=["eval", "decay-r1", "decay-r2"],
)
def test_every_phase_integerizes_all_balls_before_its_first_walk(capsys, argv):
    """The first ball's walk would run out of coset nodes, but the second
    ball's expansion of x1^4096 about x1 = 1 is refused first, on every
    path: each ball is integerized before any walk."""
    phi = '[{"center":["0","0"],"k":0,"weight":"1"},{"center":["1","0"],"k":0,"weight":"1"}]'
    code, out, err = run(capsys, *argv, "--phi", phi, "--budget", "10")
    assert code == EXIT_BUDGET and out == ""
    assert err == "error: budget exceeded: 4097 binomial terms needed, budget is 10\n"


def test_prime_past_the_primality_bound_is_a_usage_error(capsys):
    code, out, err = run(capsys, "eval", "--prime", str(PRIMALITY_BOUND), "--map", "x1", "--y", "1")
    assert code == EXIT_PARSE
    assert out == "" and err == f"error: primality is decided only below {PRIMALITY_BOUND}\n"


def test_fiber_fallback_below_the_budget(capsys):
    """64 coset nodes and 729 box cells fit a budget of 1000."""
    argv = ["density", "--map", "x1^3+x2^2", "--level", "5"]
    code, out, _ = run(capsys, *argv, "--budget", "1000")
    assert code == EXIT_OK
    assert run(capsys, *argv)[1] == out  # the grid count at the default budget


def test_term_blow_up_is_a_parse_error(capsys):
    many = "(x1+x2+x3+x4+x5+x6+x7+x8+x9)^16"
    code, out, err = run(capsys, "eval", "--map", many, "--y", "1/3")
    assert code == EXIT_PARSE
    assert out == "" and f"more than {MAX_TERMS} terms" in err


def test_module_entry_point_exit_codes():
    """Real process exit codes of ``python -m padicsums``."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))

    def exit_code(*argv):
        cmd = [sys.executable, "-m", "padicsums", *argv]
        return subprocess.run(cmd, env=env, capture_output=True, timeout=60).returncode

    assert exit_code("eval", "--map", "x1^2", "--y", "1/3") == EXIT_OK
    assert exit_code("eval", "--map", "x1 + *", "--y", "1/3") == EXIT_PARSE
    assert exit_code("eval", "--map", "x1^3+x2^3+x1*x2", "--y", "1/3^40", "--budget", "10") == EXIT_BUDGET


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--y", "1/3", "--seed", "1"],
        ["eval", "--y", "1/3", "--format", "csv"],
        ["density", "--level", "1", "--phi", '[{"center": ["0"], "k": 1, "weight": "1"}]'],
        ["density", "--level", "1", "--seed", "1"],
        ["decay", "--levels", "1..2", "--format", "csv"],
        ["fourier-check", "--y", "1/3", "--level", "1", "--phi", "not json"],
        ["fourier-check", "--y", "1/3", "--level", "1", "--seed", "1"],
        ["fourier-check", "--y", "1/3", "--level", "1", "--format", "json"],
    ],
)
def test_flags_a_command_does_not_use_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv, "--map", "x1^2")
    assert code == EXIT_PARSE
    assert out == "" and "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv, echoed",
    [
        (["eval", "--y", "1/3"], {"y": ["1/3"]}),
        (["density", "--level", "1", "--format", "json"], {"level": 1}),
        (["fourier-check", "--y", "1/3", "--level", "1"], {"y": ["1/3"], "level": 1}),
        (
            ["decay", "--levels", "1..2", "--strategy", "sample:3", "--seed", "5",
             "--epsilon", "0.5"],
            {"levels": [1, 2], "strategy": "sample:3", "seed": 5, "epsilon": 0.5},
        ),
        (["eval", "--y", "1/3", "--method", "naive"], {"y": ["1/3"], "method": "naive"}),
    ],
)
def test_config_echoes_defaults_for_flags_a_command_does_not_take(capsys, argv, echoed):
    code, out, _ = run(capsys, *argv, "--map", "x1^2", "--budget", "5000")
    assert code == EXIT_OK
    defaults = {
        "command": argv[0], "prime": 3, "map": "x1^2", "budget": 5000, "phi": None,
        "y": None, "level": None, "levels": None, "strategy": "exhaustive", "seed": 0,
        "epsilon": 0.1, "format": "json", "method": "recursive",
    }
    assert json.loads(out[out.index("{"):])["config"] == {**defaults, **echoed}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_a_non_finite_epsilon_is_a_parse_error(capsys, value):
    # nan and inf used to print "NaN" or "Infinity", which is not JSON
    code, out, err = run(capsys, "decay", "--map", "x1^2", "--levels", "1..2", f"--epsilon={value}")
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"error: --epsilon must be a finite number, not {float(value)}\n"


def test_a_negative_epsilon_is_allowed(capsys):
    code, out, _ = run(capsys, "decay", "--map", "x1^2", "--levels", "1..2", "--epsilon", "-0.5")
    assert code == EXIT_OK
    assert json.loads(out[out.index("{"):])["report"]["epsilon"] == -0.5


@pytest.mark.parametrize(
    "buffered, argv",
    [
        pytest.param(True, ["eval", "--map", "x1^2", "--y", "1/3"], id="True"),
        pytest.param(False, ["eval", "--map", "x1^2", "--y", "1/3"], id="False"),
        pytest.param(True, ["eval", "--help"], id="eval-help-True"),
        pytest.param(False, ["eval", "--help"], id="eval-help-False"),
        pytest.param(True, ["--help"], id="help-True"),
        pytest.param(False, ["--help"], id="help-False"),
    ],
)
def test_closed_stdout_exits_2_without_a_traceback(buffered, argv):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    cmd = [sys.executable, "-m", "padicsums", *argv]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # before the child has imported anything, let alone written
    err = proc.stderr.read().decode()
    code = proc.wait(timeout=60)
    if buffered or "--help" not in argv:
        assert code == EXIT_PARSE
        assert err == "error: cannot write standard output\n"  # no "Exception ignored"
    else:
        # argparse itself drops the failed write of unbuffered help text
        assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (["eval", "--map", "x1^2", "--y", "1/3"], False),
        (["decay", "--map", "x1^2", "--levels", "1..3"], False),
        # the 3^10-point grid is over budget: ``auto`` counts recursively
        (["density", "--map", "x1^3+x2^2", "--level", "5", "--budget", "1000"], False),
        (["eval", "--map", "x1^2", "--y", "1/3", "--method", "naive"], True),
    ],
    ids=["eval", "decay", "density-fallback", "eval-naive"],
)
def test_only_the_residue_grid_imports_numpy(argv, loads_numpy):
    code, loaded = fresh_run(argv)
    assert (code, "numpy" in loaded) == (EXIT_OK, loads_numpy)


def fresh_run(argv):
    """Exit code of ``main(argv)`` in a fresh interpreter that compiles the
    package from source, and the modules loaded from the import of the
    program on (a site hook may load some, such as random, before it)."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from padicsums.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, *sorted(set(sys.modules) - before), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    code, *loaded = proc.stderr.splitlines()[-1].split()
    return int(code), set(loaded)


#: The job ``bench/run.py`` times from a fresh interpreter as ``setup_s``.
TRIVIAL_JOB = ["eval", "--prime=3", "--map=x1^2", "--y=1/3", "--workers=1", "--budget=1000"]

#: Modules no recursive eval needs: dataclasses (it loads inspect, ast, dis
#: and tokenize), the other commands' modules and what only they import.
NOT_FOR_EVAL = {"dataclasses", "padicsums.decay", "padicsums.singular", "padicsums.grid",
                "numpy", "statistics", "random", "csv"}


@pytest.mark.parametrize(
    "argv, own, not_loaded",
    [
        (TRIVIAL_JOB, set(), NOT_FOR_EVAL),
        (["decay", "--map", "x1^2", "--levels", "1..2"], {"padicsums.decay"},
         {"dataclasses", "padicsums.singular"}),
        (["density", "--map", "x1^2", "--level", "2"], {"padicsums.singular"},
         {"dataclasses", "padicsums.decay"}),
        (["fourier-check", "--map", "x1^2", "--y", "1/3", "--level", "1"], {"padicsums.singular"},
         {"dataclasses", "padicsums.decay"}),
    ],
    ids=["eval", "decay", "density", "fourier-check"],
)
def test_each_command_loads_only_its_own_modules(argv, own, not_loaded):
    code, loaded = fresh_run(argv)
    assert code == EXIT_OK and own <= loaded and not loaded & not_loaded


def test_the_package_names_resolve_on_first_use():
    assert len(padicsums.__all__) == 40
    for name in padicsums.__all__:
        module = importlib.import_module(f"padicsums.{padicsums._EXPORTS[name]}")
        assert getattr(padicsums, name) is getattr(module, name)
    with pytest.raises(AttributeError):
        padicsums.write_decay_csv


DIRECTIONS_OVER = "budget exceeded: more than 10 directions (use a sample strategy) needed, budget is 10"
LONG_Y = f"a --y numeral has more than {sys.get_int_max_str_digits()} digits"
LONG_PHI = f"a --phi numeral has more than {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        # 3^9100 - 3^9099 directions: more digits than CPython converts to text
        pytest.param(["decay", "--map", "x1^2", "--levels", "9100..9100"], EXIT_BUDGET,
                     DIRECTIONS_OVER, id="decay-9100"),
        pytest.param(["decay", "--map", "x1^2", "--levels", "5000..5000"], EXIT_BUDGET,
                     DIRECTIONS_OVER, id="decay-5000"),
        pytest.param(["eval", "--method", "naive", "--map", "x1^2", "--y", "1/3^5000"], EXIT_BUDGET,
                     "budget exceeded: more than 10 points needed, budget is 10", id="naive-5000"),
        pytest.param(["eval", "--map", "x1^2", "--y", "1/3^9100"], EXIT_PARSE,
                     "rational '1/3^9100' is too long to print", id="y-9100"),
        # refused from its digit count: computing 3^10000000 took seconds
        pytest.param(["eval", "--map", "x1^2", "--y", "1/3^10000000"], EXIT_PARSE,
                     "rational '1/3^10000000' is too long to print", id="y-10000000"),
        pytest.param(["eval", "--map", "7" * 5000 + "*x1", "--y", "1/3"], EXIT_PARSE,
                     f"integer has more than {MAX_DIGITS} digits (at position 0)", id="literal"),
        pytest.param(["decay", "--map", "x1^2", "--levels", "1..1", "--strategy", "sample:" + "1" * 5000],
                     EXIT_PARSE, f"the --strategy sample size has more than {MAX_DIGITS} digits",
                     id="sample-5000"),
        pytest.param(["decay", "--map", "x1^2", "--levels", "1.." + "1" * 5000], EXIT_PARSE,
                     f"a --levels bound has more than {MAX_DIGITS} digits", id="levels-5000"),
        # N = F = 3^10000, with 4,772 digits, in both output formats
        pytest.param(["density", "--map", "5", "--level", "10000"], EXIT_PARSE,
                     "a number in the output is too long to print", id="density-csv"),
        pytest.param(["density", "--map", "5", "--level", "10000", "--format", "json"], EXIT_PARSE,
                     "a number in the output is too long to print", id="density-json"),
        # the measure 3^-10000 of phi's ball is the scale of E
        pytest.param(["eval", "--map", "x1", "--y", "1",
                      "--phi", '[{"center": ["0"], "k": 10000, "weight": "1"}]'], EXIT_PARSE,
                     "a number in the output is too long to print", id="eval-scale"),
        # numerals longer than int() converts, refused before converting them
        pytest.param(["eval", "--map", "x1^2", "--y", "1/" + "7" * 5000 + "^2"], EXIT_PARSE,
                     LONG_Y, id="y-base-5000"),
        pytest.param(["eval", "--map", "x1^2", "--y", "1/3^" + "1" * 5000], EXIT_PARSE,
                     LONG_Y, id="y-exponent-5000"),
        pytest.param(["eval", "--map", "x1^2", "--y", "1/" + "7" * 5000], EXIT_PARSE,
                     LONG_Y, id="y-denominator-5000"),
        pytest.param(["eval", "--map", "x1^2", "--y", "1/3",
                      "--phi", '[{"center": ["' + "7" * 5000 + '"], "k": 0, "weight": "1"}]'],
                     EXIT_PARSE, LONG_PHI, id="phi-center-5000"),
        pytest.param(["eval", "--map", "x1^2", "--y", "1/3",
                      "--phi", '[{"center": ["0"], "k": 0, "weight": "1/' + "7" * 5000 + '"}]'],
                     EXIT_PARSE, LONG_PHI, id="phi-weight-5000"),
        pytest.param(["eval", "--map", "x1^2", "--y", "1/3",
                      "--phi", '[{"center": ["0"], "k": ' + "1" * 5000 + ', "weight": "1"}]'],
                     EXIT_PARSE, LONG_PHI, id="phi-k-5000"),
    ],
)
def test_numbers_too_long_to_print(capsys, argv, code, message):
    got, out, err = run(capsys, *argv, "--budget", "10")
    assert got == code
    assert out == "" and err == f"error: {message}\n"
