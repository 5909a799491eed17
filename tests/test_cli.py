import argparse
import importlib.util
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gsbench import chains, cli, experiments, functions, sequences, weights
from gsbench.cli import EXPERIMENTS, build_parser, main
from gsbench.functions import ModelFunction, parse_function
from gsbench.grids import GridSpec
from gsbench.reports import ChainReport, to_json_bytes
from gsbench.errors import PreconditionError
from gsbench.sequences import WeightSequence, parse_sequence
from gsbench.specs import parse_weight
from gsbench.weights import ConjugateEvaluator, WeightFunction


def _load_record_digests():
    path = Path(__file__).resolve().parents[1] / "scripts" / "record_digests.py"
    spec = importlib.util.spec_from_file_location("record_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


record_digests = _load_record_digests()


def run_cli(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "gsbench", *argv],
                          capture_output=True, text=True, cwd=cwd)


# -- grids and reports ------------------------------------------------------

def test_grid_parse_round_trip():
    g = GridSpec.parse("log:1e-2,1e8,2000")
    assert (g.kind, g.lo, g.hi, g.n) == ("log", 1e-2, 1e8, 2000)
    assert GridSpec.parse(g.spec_string()) == g


def test_grid_parse_rejects_garbage():
    with pytest.raises(PreconditionError):
        GridSpec.parse("cubic:1,2,3")
    with pytest.raises(PreconditionError):
        GridSpec.parse("log:0,1,10")
    with pytest.raises(PreconditionError):
        GridSpec.parse("lin:nan,5,10")


def test_symmetric_points_mirror():
    g = GridSpec("lin", 0.5, 2.0, 4)
    pts = g.symmetric_points()
    assert len(pts) == 9
    assert pts[4] == 0.0
    assert list(pts) == sorted(pts)


def test_seminorm_on_a_grid_from_0_witnesses_x_0(capsys):
    # the maximum sits at x = 0, which a grid from 0 holds once, as 0.0
    assert main(["seminorm", "--family", "p", "--function", "gaussian",
                 "--weight", "gevrey:d=2", "--lam", "1", "--grid", "lin:0,2,5"]) == 0
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness == {"j": 0, "k": 0, "x": 0.0} and witness["x"].hex() == "0x0.0p+0"


@pytest.mark.parametrize("argv", [
    ["seminorm", "--family", "p", "--function", "gaussian", "--weight",
     "gevrey:d=2", "--lam", "1", "--grid", "lin:-2,2,5"],
    ["experiment", "necessary", "--psi", "poly:0,0,1", "--sigma", "gevrey:d=2",
     "--omega", "gevrey:d=2", "--grid", "lin:-2,2,5"],
], ids=["seminorm", "necessary"])
def test_mirrored_grid_with_negative_lo_exits_2(argv, capsys):
    # mirrored through 0, lin:-2,2,5 would hold each point twice, unsorted,
    # with a -0.0 witness: the grid is named and nothing is scanned
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert "grid lin:-2,2,5 is mirrored through 0, so it needs lo >= 0" in out.err


def test_seminorm_jmax_plus_kmax_past_the_limit_exits_2(capsys):
    # the refusal names both flags, their sum and the limit
    assert main(["seminorm", "--family", "p", "--function", "gaussian", "--weight",
                 "gevrey:d=2", "--lam", "1", "--jmax", "150", "--kmax", "300"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert out.err == ("gsbench: error: --jmax + --kmax: J + K = 150 + 300 = 450 "
                       "is past the limit 400\n")


def test_scaled_grid_keeps_spacing():
    # the stability checks' box, about 1.25x the grid: its points past hi
    # keep the grid's step
    g = GridSpec("lin", 0.05, 5.0, 100)
    xs, pad = g.extended_symmetric_points()
    step = (g.hi - g.lo) / (g.n - 1)
    tail = xs[-pad - 2:].tolist()  # hi and the pad points past it
    assert [b - a for a, b in zip(tail, tail[1:])] == pytest.approx(
        [step] * (pad + 1), rel=1e-12)
    assert xs[-1] >= 1.25 * g.hi - step


# (kind, lo, hi, n) -> (top point, point count) of the 1.25x box of the
# stability checks on the bench's seminorm, necessary and cauchy grids and
# the default t grid.  The counts are those of the box the checks scanned
# before it kept the grid's points, round(0.25 hi / step) or round(ln 1.25 /
# step) more; the top point is the grid's formula at i = n + pad - 1.
SCALED_ENDPOINTS = [
    (("lin", 0.05, 8.0, 160), (10.000000000000002, 200)),
    (("lin", 0.05, 8.25, 160), (10.312893081761006, 200)),
    (("lin", 0.05, 8.5, 160), (10.625786163522012, 200)),
    (("lin", 0.05, 8.75, 160), (10.93867924528302, 200)),
    (("log", 0.001, 1000.0, 20000), (1249.9851260628923, 20323)),
    (("log", 0.001, 1250.0, 20000), (1562.628458891814, 20318)),
    (("log", 0.001, 1500.0, 20000), (1875.2567625799868, 20314)),
    (("log", 0.001, 1750.0, 20000), (2186.8045912748303, 20310)),
    (("log", 1.0, 20.0, 200), (25.066724235079388, 215)),
    (("log", 1.0, 21.0, 200), (26.417034641322285, 215)),
    (("log", 1.0, 22.0, 200), (27.34415312917121, 214)),
    (("log", 1.0, 23.0, 200), (28.676608302337705, 214)),
    (("log", 0.01, 1e8, 2000), (124465080.33525382, 2019)),
]


@pytest.mark.parametrize("spec, expect", SCALED_ENDPOINTS)
def test_scaled_grid_keeps_in_range_endpoints(spec, expect):
    g = GridSpec(*spec)
    xs, pad = g.extended_symmetric_points()
    assert (xs[-1], g.n + pad) == expect


def test_scaled_log_grid_past_exp_range_stays_finite():
    # the box's top 10^(40 step + log10 lo) is ~6.6e212, past exp's range
    xs, pad = GridSpec("log", 1e-300, 1e200, 40).extended_symmetric_points()
    assert pad == 1 and 1e200 < xs[-1] < 1e214


@pytest.mark.parametrize("grid", ["log:1e-300,1e300,40", "log:1,1.7e308,3",
                                  "lin:0,1.5e308,40", "lin:-1e308,1.7e308,40"])
def test_grid_overflowing_a_float_exits_2(grid):
    r = subprocess.run([sys.executable, "-W", "error", "-m", "gsbench",
                        "seminorm", "--family", "p", "--function", "poly:0,0,1",
                        "--weight", "gevrey:d=2", "--lam", "1", "--grid", grid],
                       capture_output=True, text=True)
    assert r.returncode == 2 and r.stdout == ""
    assert "Traceback" not in r.stderr and "Warning" not in r.stderr
    assert "overflows a float" in r.stderr


@pytest.mark.parametrize("function, value_log", [
    ("gaussian", 1.0), ("expsqr", "inf")])
def test_exp_quadratic_jets_past_a_float_square_run_clean(function, value_log,
                                                          capsys):
    # x^2 overflows at |x| = 1e300: log f is -inf for gaussian, +inf for
    # expsqr, the float limits, with no warning (warnings are errors here)
    assert main(["seminorm", "--family", "p", "--function", function,
                 "--weight", "gevrey:d=2", "--lam", "1",
                 "--grid", "lin:0,1e300,3"]) == 0
    out = capsys.readouterr()
    assert out.err == "" and json.loads(out.out)["value_log"] == value_log


SEMINORM_PI = ["seminorm", "--family", "pi", "--weight", "gevrey:d=2", "--lam", "1"]


@pytest.mark.parametrize("function, label, jmax, raised, cap, fits", [
    ("gaussian", "gaussian", 170, 213, 200, 160),
    ("gbump", "gbump:g=1,r=1", 170, 213, 200, 160)])
def test_stability_box_past_a_jet_cap_exits_2_naming_the_limits(
        function, label, jmax, raised, cap, fits, capsys, monkeypatch):
    # the box's raised order is refused before a box or a table is built
    argv = [*SEMINORM_PI, "--function", function, "--grid", "lin:0.5,2,4"]
    built = []
    with monkeypatch.context() as m:
        for owner, name in ((type(parse_function(function)), "log_jet_table"),
                            (GridSpec, "extended_symmetric_points")):
            m.setattr(owner, name, lambda *args, name=name: built.append(name))
        assert main([*argv, "--jmax", str(jmax)]) == 2
    assert built == []
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        f"gsbench: error: {label}: jets supported up to order {cap}, and the "
        f"stability box raises J = {jmax} to ceil(1.25 J) = {raised}: J <= {fits} fits\n")
    assert main([*argv, "--jmax", str(fits)]) == 0
    assert json.loads(capsys.readouterr().out)["J"] == fits


def test_capability_error_off_the_box_keeps_its_message(capsys):
    # a monomial bump has jets at 0 only: no cap, so no box context
    assert main([*SEMINORM_PI, "--function", "monbump:n=2,a=1"]) == 2
    assert capsys.readouterr().err == (
        "gsbench: error: monomial bump jets available at the base point 0 only\n")


@pytest.mark.parametrize("argv", [
    [*SEMINORM_PI, "--function", "gaussian"],
    ["experiment", "necessary", "--psi", "poly:0,0,1", "--sigma", "gevrey:d=2",
     "--omega", "gevrey:d=2"],
], ids=["seminorm", "necessary"])
@pytest.mark.parametrize("grid, named", [
    ("lin:0,5e-324,3", "lin:0.0,5e-324,3"),  # [0, 0, 5e-324]
    # 6 distinct points of 10, refused before its ~2e15-point box is made
    ("lin:1,1.000000000000001,10", "lin:1.0,1.000000000000001,10")])
def test_grid_whose_points_repeat_exits_2(argv, grid, named, capsys):
    assert main([*argv, "--grid", grid]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        f"gsbench: error: grid {named}: its points do not strictly "
        "increase in floats; widen the grid or lower its n\n")


def test_weight_check_grid_up_to_1_exits_2(capsys):
    # the delta and epsilon audits sample t in (1, hi]
    assert main(["weight-check", "--weight", "gevrey:d=2", "--grid",
                 "log:1e-3,1,100"]) == 2
    assert capsys.readouterr().err == (
        "gsbench: error: --grid: the weight audit samples t past 1, so grid "
        "log:0.001,1,100 needs hi > 1\n")


# a log grid whose top point 10^log10(hi) overflows: each command exits 2 at
# parse, naming the grid
@pytest.mark.parametrize("argv", [
    ["weight-check", "--weight", "gevrey:d=2"],
    ["experiment", "necessary", "--psi", "poly:0,0,1", "--sigma", "gevrey:d=2",
     "--omega", "gevrey:d=2"],
    ["seminorm", "--family", "p", "--function", "poly:0,0,1",
     "--weight", "gevrey:d=2", "--lam", "1"],
], ids=["weight-check", "necessary", "seminorm"])
def test_log_grid_whose_top_overflows_exits_2(argv, capsys):
    assert main([*argv, "--grid", "log:1,1.7976931348623157e308,10"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert out.err.rstrip().endswith(
        "argument --grid: grid log:1,1.79769e+308,10: its top point "
        "10^log10(hi) overflows a float; lower its hi")


def test_float_formatting_round_trips():
    xs = [0.1, 1.0 / 3.0, 1e300, -2.5e-300, 0.0, -0.0, 5e-324, sys.float_info.max]
    back = json.loads(to_json_bytes({"xs": xs}))["xs"]
    assert [x.hex() for x in back] == [x.hex() for x in xs]


def test_json_bytes_deterministic_and_sorted():
    payload = {"b": 1.0 / 3.0, "a": [1, 2.5], "c": {"y": True, "x": None}}
    one = to_json_bytes(payload)
    two = to_json_bytes(dict(reversed(list(payload.items()))))
    assert one == two
    assert one.index(b'"a"') < one.index(b'"b"') < one.index(b'"c"')


def test_chain_report_csv(tmp_path):
    rep = ChainReport("demo", {}, ["j", "value", "verdict"])
    rep.add_row({"j": 1, "value": 1.0 / 3.0, "verdict": True})
    path = tmp_path / "rows.csv"
    rep.write_csv(str(path))
    text = path.read_text()
    assert text.splitlines()[0] == "j,value,verdict"
    assert "0.33333333333333331" in text


# -- config validation ------------------------------------------------------

def parse_cfg(argv):
    return build_parser().parse_args(argv)


def test_valid_negative_config_clean(capsys):
    assert main(["experiment", "negative", "--d", "2", "--k", "1",
                 "--dprime", "3.5", "--jmax", "40"]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["verdict"] is True and out.err == ""


def test_regime_diagnostic_names_flag(capsys):
    # negative_chain checks d <= d' < (k+1)d itself and names the flag
    assert main(["experiment", "negative", "--d", "2", "--k", "1",
                 "--dprime", "4", "--jmax", "10"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert out.err.startswith("gsbench: error: --dprime: need d <= d'")


@pytest.mark.parametrize("argv, flags", [
    (["experiment", "compactness", "--psi", "poly:0,1", "--weight", "gevrey:d=2",
      "--nmax", "5"], "--x0"),
    (["experiment", "bounded", "--d", "2", "--psi", "poly:0,1", "--mmax", "8"], "--psi"),
    (["experiment", "cauchy", "--psi", "gaussian"], "--psi"),
    (["experiment", "cauchy", "--psi", "sqrt1px2", "--delta", "1.5"], "--delta"),
    (["experiment", "cauchy", "--psi", "sqrt1px2", "--grid", "lin:0,0.5,11"], "--grid"),
    (["experiment", "equicont", "--weight", "gevrey:d=2", "--x-seq", "1,2",
      "--lam-seq", "1"], "--x-seq, --lam-seq"),
    # d' just below (k+1)d: the block threshold is past its search cap
    (["experiment", "negative", "--d", "2", "--k", "1", "--dprime", "3.99",
      "--jmax", "10"], "--dprime"),
    (["experiment", "nuclear", "--weight", "gevrey:d=2", "--L", "1"], "--L"),
    (["experiment", "nuclear", "--weight", "gevrey:d=2", "--m", "400", "--L", "2"],
     "--m, --L"),
    (["sequence-check", "--sequence", "gevreyseq:d=2", "--pmax", "10"], "--pmax"),
    (["identities", "--jmax", "31"], "--jmax"),
    (["estimate-index", "--function", "poly:1,2"], "--function, --jmax"),
    (["fdb", "--h", '["1","1"]', "--psi", '["0","1"]', "--order", "3"], "--order"),
    # w.csv's tail slope is b = 1/log 10: phi*(1) is +inf
    (["conjugate", "--weight", "table:w.csv", "--s", "1"], "--s"),
], ids=["compactness-flat", "bounded-exhausted", "cauchy-not-analytic", "cauchy-delta",
        "cauchy-grid", "equicont-lengths", "negative-block", "nuclear-L", "nuclear-bound",
        "sequence-pmax", "identities-jmax", "estimate-index-orders", "fdb-order",
        "conjugate-past-tail-slope"])
def test_refusal_names_its_flag_first(argv, flags, capsys, tmp_path, monkeypatch):
    (tmp_path / "w.csv").write_text("t,omega\n0.1,0\n1,0.25\n10,1\n100,2\n")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert out.err.splitlines()[-1].startswith(f"gsbench: error: {flags}: ")


def test_bounded_exhausted_search_names_both_conditions(capsys):
    # psi = -x^2 is steep enough at y = 2 (|psi'(2)| = 4 = 2^(md)) but never
    # positive; a witness needs both, and the refusal names both
    assert main(["experiment", "bounded", "--d", "2", "--psi", "poly:0,0,-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gsbench: error: --psi: no y with |psi'(y)| >= ")
    assert "psi(y) > 0" in err


def test_bad_weight_diagnostic(capsys):
    assert main(["conjugate", "--weight", "gevrey:q=2", "--s", "1"]) == 2
    assert "--weight" in capsys.readouterr().err


def test_unwritable_out_diagnostic(capsys):
    assert main(["identities", "--out", "/no/such/dir/x.json"]) == 2
    assert "--out" in capsys.readouterr().err


# -- each flag is range-checked by its argparse type (exit 2) ---------------

FDB_JETS = ["--h", '["0","0","2"]', "--psi", '["1","1","1"]']


@pytest.mark.parametrize("argv, flag", [
    (["seminorm", "--family", "p", "--function", "gaussian", "--weight",
      "gevrey:d=2", "--lam", "1", "--kmax", "-1"], "--kmax"),
    (["experiment", "sufficient", "--psi", "poly:0,0,1", "--weight",
      "gevrey:d=2", "--m", "0"], "--m"),
    (["experiment", "sufficient", "--psi", "poly:0,0,1", "--weight",
      "gevrey:d=2", "--a", "0"], "--a"),
    (["experiment", "sufficient", "--psi", "poly:0,0,1", "--weight",
      "gevrey:d=2", "--a", "-1"], "--a"),
    (["experiment", "nuclear", "--weight", "gevrey:d=2", "--m", "1.7"], "--m"),
    (["experiment", "nuclear", "--weight", "gevrey:d=2", "--m", "-1"], "--m"),
    (["fdb", *FDB_JETS, "--order", "-1"], "--order"),
    (["fdb", *FDB_JETS, "--order", "2", "--base", "abc"], "--base"),
    (["fdb", *FDB_JETS, "--order", "2", "--base", "1/0"], "--base"),
    (["fdb", "--h", "5", "--psi", '["1","1","1"]', "--order", "2"], "--h"),
    (["fdb", "--h", '["1"]', "--psi", "[]", "--order", "0"], "--psi"),
    (["experiment", "equicont", "--weight", "gevrey:d=2", "--x-seq", "1,inf",
      "--lam-seq", "1,2"], "--x-seq"),
    # a subnormal exponent would cost the jets most of their digits
    (["experiment", "cauchy", "--psi", "pow1px2:a=5e-324", "--jmax", "3"], "--psi"),
], ids=["kmax-negative", "m-zero", "a-zero", "a-negative", "m-fraction", "m-negative", "order-negative",
        "base-abc", "base-1/0", "h-not-array", "psi-empty", "x-seq-inf",
        "psi-subnormal"])
def test_bad_flag_value_exits_2(argv, flag, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument {flag}:" in out.err and "Traceback" not in out.err


def test_whole_number_orders_accepted():
    a = parse_cfg(["experiment", "sufficient", "--psi", "poly:0,0,1",
                   "--weight", "gevrey:d=2", "--m", "2.0,1e0,3"])
    assert a.m == [2, 1, 3] and all(type(m) is int for m in a.m)


SEMINORM = ["seminorm", "--function", "gaussian", "--weight", "gevrey:d=2",
            "--lam", "1", "--grid", "lin:0.1,2,5", "--jmax", "3"]


@pytest.mark.parametrize("argv, flag", [
    (["experiment", "nuclear", "--weight", "gevrey:d=2", "--m", "1,2"], "--m"),
    ([*SEMINORM, "--family", "p", "--mu", "2"], "--mu"),
    ([*SEMINORM, "--family", "pi", "--kmax", "3"], "--kmax"),
], ids=["nuclear-two-orders", "seminorm-p-mu", "seminorm-pi-kmax"])
def test_value_the_command_would_drop_exits_2(argv, flag, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert out.err.startswith(f"gsbench: error: {flag}:")


@pytest.mark.parametrize("argv, flag", [
    (["experiment", "cauchy", "--psi", "sqrt1px2", "--weight", "gevrey:d=2"],
     "--weight"),
    (["conjugate", "--weight", "gevrey:d=2", "--s", "1", "--grid",
      "lin:0,1,2"], "--grid"),
    (["experiment", "nuclear", "--weight", "gevrey:d=2", "--threshold", "5"],
     "--threshold"),
], ids=["cauchy-weight", "conjugate-grid", "nuclear-threshold"])
def test_flag_the_command_does_not_read_exits_2(argv, flag, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert f"unrecognized arguments: {flag}" in out.err


# -- malformed or non-finite specs are usage errors (exit 2) ----------------

@pytest.mark.parametrize("argv, flag, parse", [
    (["conjugate", "--weight", "gevrey:d=abc", "--s", "1"], "--weight",
     lambda: parse_weight("gevrey:d=abc")),
    (["estimate-index", "--function", "poly:1,x"], "--function",
     lambda: parse_function("poly:1,x")),
    (["estimate-index", "--function", "monbump:n=2"], "--function",
     lambda: parse_function("monbump:n=2")),
    (["conjugate", "--weight", "gevrey:d=nan", "--s", "1"], "--weight",
     lambda: parse_weight("gevrey:d=nan")),
    (["conjugate", "--weight", "gevrey:d=2", "--s", "nan"], "--s",
     lambda: ConjugateEvaluator(WeightFunction.gevrey(2))(float("nan"))),
    (["weight-check", "--weight", "table:missing.csv"], "--weight",
     lambda: parse_weight("table:missing.csv")),
    (["sequence-check", "--sequence", "table:missing.csv"], "--sequence",
     lambda: parse_sequence("table:missing.csv")),
    (["weight-check", "--weight", "table:bad.csv"], "--weight",
     lambda: parse_weight("table:bad.csv")),
    (["sequence-check", "--sequence", "table:bad.csv"], "--sequence",
     lambda: parse_sequence("table:bad.csv")),
    (["weight-check", "--weight", "table:short.csv"], "--weight",
     lambda: parse_weight("table:short.csv")),
    # a spec part that would be ignored: an unknown or repeated key, an
    # empty item, or any text after a family that takes no parameters
    *((["estimate-index", "--function", spec], "--function",
       lambda spec=spec: parse_function(spec))
      for spec in ("gbump:q=5", "gbump:g=2,g=3", "gbump:", "monbump:n=2,a=1,zz=7",
                   "monbump:n=2,,a=1", "sqrt1px2:a=3", "gaussian:junk",
                   "expsqr:")),
    # an exponent whose recurrence multipliers, n (2a + 1 - n) or gamma n,
    # pass a float by order 200 (these exited 1 with a NaN or inf traceback)
    *((["estimate-index", "--x", "0", "--jmax", jmax, "--function", spec],
       "--function", lambda spec=spec: parse_function(spec))
      for spec, jmax in (("pow1px2:a=1e+308", "20"), ("pow1px2:a=-5e+307", "20"),
                         ("pow1px2:a=1e+306", "200"), ("gbump:g=1e+306,r=1", "20"))),
], ids=["weight-abc", "poly-x", "monbump-missing-a", "weight-nan", "s-nan",
        "weight-table-missing", "sequence-table-missing",
        "weight-table-bad-cell", "sequence-table-bad-cell",
        "weight-table-short-row", "gbump-unknown-key", "gbump-repeated-key",
        "gbump-empty-item", "monbump-unknown-key", "monbump-empty-item",
        "sqrt1px2-param", "gaussian-text", "expsqr-bare-colon", "pow1px2-a-1e308",
        "pow1px2-a-minus-5e307", "pow1px2-a-1e306-J200", "gbump-g-1e306"])
def test_bad_spec_exits_2(argv, flag, parse, capsys, tmp_path, monkeypatch):
    (tmp_path / "bad.csv").write_text("0,0\n1,abc\n")
    (tmp_path / "short.csv").write_text("1,0\n2\n")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(PreconditionError):
        parse()
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert flag in out.err and "Traceback" not in out.err
    if argv[-1].startswith("table:"):  # the diagnostic names the file
        assert argv[-1][len("table:"):] in out.err
    if flag == "--function":  # and the spec
        assert repr(argv[-1]) in out.err


# -- parse layer: a typed flag yields an in-range value or exits 2 ---------

def _finite(v):
    return type(v) is float and math.isfinite(v)


def _joined(values):
    return st.lists(values, min_size=1, max_size=4).map(",".join)


def _numbers(t):
    return [float(x) for x in t.split(",")]


_reals = st.floats(allow_nan=False, allow_infinity=False)
# kind -> (valid tokens, check(parsed value, token)): in range, and equal to
# what the token says
FLAG_KINDS = {
    "count": (st.integers(1, 10**6).map(str),
              lambda v, t: type(v) is int and 1 <= v == int(t)),
    "count0": (st.integers(0, 10**6).map(str),
               lambda v, t: type(v) is int and 0 <= v == int(t)),
    "real": (_reals.map(repr), lambda v, t: _finite(v) and v == float(t)),
    "positive": (st.floats(0, exclude_min=True, allow_infinity=False).map(repr),
                 lambda v, t: _finite(v) and 0 < v == float(t)),
    "threshold": (st.floats(1, exclude_min=True,
                            allow_infinity=False).map(repr),
                  lambda v, t: _finite(v) and 1 < v == float(t)),
    "reals": (_joined(_reals.map(repr)),
              lambda v, t: all(map(_finite, v)) and v == _numbers(t)),
    "orders": (_joined(st.integers(1, 50).map(str)),
               lambda v, t: all(type(x) is int and x >= 1 for x in v)
               and v == _numbers(t)),
    "rational": (st.fractions().map(str), lambda v, t: v == Fraction(t)),
    "rationals": (st.lists(st.fractions().map(str), min_size=1,
                           max_size=4).map(json.dumps),
                  lambda v, t: len(v) > 0 and all(
                      type(x) is Fraction and x == Fraction(str(y))
                      for x, y in zip(v, json.loads(t), strict=True))),
    "weight": (st.sampled_from(["gevrey:d=2", "gevrey:d=1.5", "logpow:s=2"]),
               lambda v, t: isinstance(v, WeightFunction) and v.label == t),
    "sequence": (st.sampled_from(["gevreyseq:d=2", "gevreyseq:d=3"]),
                 lambda v, t: isinstance(v, WeightSequence) and v.label == t),
    "function": (st.sampled_from(["gaussian", "expsqr", "sqrt1px2",
                                  "poly:0,1/2,3", "pow1px2:a=1.5",
                                  "monbump:n=8,a=1", "gbump:g=1,r=1"]),
                 lambda v, t: isinstance(v, ModelFunction)),
    "grid": (st.sampled_from(["log:1e-2,1e8,2000", "lin:0,1,2",
                              "lin:-3,5,10"]),
             lambda v, t: v == GridSpec.parse(t)),
    "out": (st.sampled_from(["r.json", "r.csv", "./r"]),
            lambda v, t: v == t),
}
# a valid flag set per experiment; test_experiment_missing_flag_exits_2 drops
# one required flag
EXPERIMENT_ARGV = {
    "negative": ["--d", "2", "--dprime", "3.5", "--jmax", "10"],
    "bounded": ["--d", "2", "--psi", "poly:0,0,0,1", "--mmax", "2"],
    "compactness": ["--psi", "poly:0,2,0,1", "--weight", "gevrey:d=2"],
    "sufficient": ["--psi", "poly:0,0,1", "--weight", "gevrey:d=2"],
    "necessary": ["--psi", "poly:0,0,1", "--sigma", "gevrey:d=2",
                  "--omega", "gevrey:d=2"],
    "nuclear": ["--weight", "gevrey:d=2"],
    "equicont": ["--weight", "gevrey:d=2", "--x-seq", "2,4",
                 "--lam-seq", "1,2"],
    "cauchy": ["--psi", "sqrt1px2"],
}
# command -> (valid required flags, {flag it declares: kind}); a flag with
# argparse choices has kind None.  Every command also takes --out and --format.
PARSE_TABLE = {
    ("conjugate",): (["--weight", "gevrey:d=2", "--s", "1"],
                     {"--weight": "weight", "--s": "positive",
                      "--method": None}),
    ("weight-check",): (["--weight", "gevrey:d=2"],
                        {"--weight": "weight", "--grid": "grid"}),
    ("sequence-check",): (["--sequence", "gevreyseq:d=2"],
                          {"--sequence": "sequence", "--pmax": "count"}),
    ("fdb",): (["--h", '["1"]', "--psi", '["1"]', "--order", "0"],
               {"--h": "rationals", "--psi": "rationals", "--base": "rational",
                "--order": "count0"}),
    ("identities",): ([], {"--jmax": "count"}),
    ("seminorm",): (["--family", "p", "--function", "gaussian", "--weight",
                     "gevrey:d=2", "--lam", "1"],
                    {"--family": None, "--function": "function",
                     "--weight": "weight", "--lam": "positive", "--mu": "real",
                     "--jmax": "count", "--kmax": "count0", "--grid": "grid"}),
    ("estimate-index",): (["--function", "gaussian"],
                          {"--function": "function", "--x": "real",
                           "--jmax": "count"}),
    ("experiment", "negative"): (
        EXPERIMENT_ARGV["negative"],
        {"--d": "real", "--dprime": "real", "--k": "real", "--jmax": "count",
         "--threshold": "threshold"}),
    ("experiment", "bounded"): (
        EXPERIMENT_ARGV["bounded"],
        {"--d": "real", "--psi": "function", "--mmax": "count",
         "--threshold": "threshold"}),
    ("experiment", "compactness"): (
        EXPERIMENT_ARGV["compactness"],
        {"--psi": "function", "--weight": "weight", "--x0": "real",
         "--p": "count", "--nmax": "count", "--threshold": "threshold"}),
    ("experiment", "sufficient"): (
        EXPERIMENT_ARGV["sufficient"],
        {"--psi": "function", "--weight": "weight", "--a": "positive",
         "--m": "orders", "--grid": "grid", "--jmax": "count"}),
    ("experiment", "necessary"): (
        EXPERIMENT_ARGV["necessary"],
        {"--psi": "function", "--sigma": "weight", "--omega": "weight",
         "--grid": "grid"}),
    ("experiment", "nuclear"): (
        EXPERIMENT_ARGV["nuclear"],
        {"--weight": "weight", "--m": "orders", "--L": "count",
         "--jmax": "count"}),
    ("experiment", "equicont"): (
        EXPERIMENT_ARGV["equicont"],
        {"--weight": "weight", "--x-seq": "reals", "--lam-seq": "reals",
         "--n": "count", "--K": "count", "--function": "function",
         "--grid": "grid"}),
    ("experiment", "cauchy"): (
        EXPERIMENT_ARGV["cauchy"],
        {"--psi": "function", "--delta": "real", "--grid": "grid",
         "--jmax": "count"}),
}
PARSE_SLOTS = [(cmd, flag, kind) for cmd, (_, flags) in PARSE_TABLE.items()
               for flag, kind in {**flags, "--out": "out"}.items() if kind]
HOSTILE = ["", "abc", "nan", "inf", "-inf", "-1", "0", "1.7", "1e400", "1/0",
           "[]", "5", "2.0", "1,inf", "1,,2", ",", "[1e400]", '["1","x"]',
           '{"1": 2}', '"12"', "[[1]]", "gevrey:d=", "gevrey:q=2",
           "gevrey:d=nan", "logpow:s=inf", "gevreyseq:d=abc", "poly:1,x",
           "poly:", "monbump:n=2", "pow1px2:a=nan", "lin:0,1", "log:0,1,10",
           "lin:1,0,5", "lin:0,1,1", "lin:0,inf,5", "cubic:1,2,3",
           "table:missing.csv", "table:.", "no/such/dir/x.json"]


def _check_parse(parser, cmd, flag, kind, token, must_parse, capsys):
    argv = [*cmd, *PARSE_TABLE[cmd][0], f"{flag}={token}"]
    try:
        a = parser.parse_args(argv)
    except SystemExit as exc:
        err = capsys.readouterr().err
        assert not must_parse, err
        assert exc.code == 2 and f"argument {flag}:" in err, err
    else:
        value = getattr(a, flag.lstrip("-").replace("-", "_"))
        assert FLAG_KINDS[kind][1](value, token), (argv, value)


@settings(max_examples=600, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(slot=st.sampled_from(PARSE_SLOTS), data=st.data())
def test_typed_flags_parse_in_range_or_exit_2(slot, data, capsys, tmp_path,
                                              monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative table: and --out paths stay here
    cmd, flag, kind = slot
    token, must_parse = data.draw(st.one_of(
        FLAG_KINDS[kind][0].map(lambda t: (t, True)),
        st.sampled_from(HOSTILE).map(lambda t: (t, False)),
        st.text(st.characters(blacklist_characters="/\\"), max_size=8)
        .map(lambda t: (t, False))))
    _check_parse(build_parser(), cmd, flag, kind, token, must_parse, capsys)


def test_every_typed_flag_meets_every_hostile_token(capsys, tmp_path,
                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    parser = build_parser()
    for cmd, flag, kind in PARSE_SLOTS:
        for token in HOSTILE:
            _check_parse(parser, cmd, flag, kind, token, False, capsys)


def _commands(parser, path=()):
    """(command path, its parser) for every leaf command under ``parser``."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(path, parser)]
    return [leaf for name, child in subs[0].choices.items()
            for leaf in _commands(child, path + (name,))]


def test_each_command_accepts_exactly_its_declared_flags():
    accepted = {path: {opt for a in p._actions for opt in a.option_strings
                       if a.dest != "help"}
                for path, p in _commands(build_parser())}
    assert accepted == {path: {*flags, "--out", "--format"}
                        for path, (_, flags) in PARSE_TABLE.items()}
    assert sum(map(len, accepted.values())) == 93


class RecordingNamespace(argparse.Namespace):
    """Parsed arguments that note the name of every attribute read."""

    def __init__(self, parsed):
        object.__setattr__(self, "read_", set())
        super().__init__(**vars(parsed))

    def __getattribute__(self, name):
        object.__getattribute__(self, "read_").add(name)
        return object.__getattribute__(self, name)


class Stub:
    """Stands in for a callee: a call or an attribute gives the stub."""

    def __call__(self, *args, **kwargs):
        return self

    def __getattr__(self, name):
        return self


def test_every_declared_flag_is_read_by_its_runner(monkeypatch):
    for module in (experiments, chains):
        for name, obj in list(vars(module).items()):
            if callable(obj) and getattr(obj, "__module__", "") == module.__name__:
                monkeypatch.setattr(module, name, Stub())
    # the runners import these from their defining modules at call time
    for module, name in ((weights, "check_weight_conditions"),
                         (sequences, "check_sequence_conditions"),
                         (functions, "seminorm_p_lambda"),
                         (functions, "seminorm_pi"),
                         (functions, "estimate_growth_exponent")):
        monkeypatch.setattr(module, name, Stub())
    for path, (argv, flags) in PARSE_TABLE.items():
        a = RecordingNamespace(build_parser().parse_args([*path, *argv]))
        cli.run(a)
        unread = {f for f in flags
                  if f.lstrip("-").replace("-", "_") not in a.read_}
        assert not unread, (path, unread)


@pytest.mark.parametrize("name, flag", [
    (name, flag) for name, (required, _, _) in EXPERIMENTS.items()
    for flag in required])
def test_experiment_missing_flag_exits_2(name, flag, capsys):
    option = "--" + flag.replace("_", "-")
    argv = EXPERIMENT_ARGV[name]
    i = argv.index(option)
    assert main(["experiment", name] + argv[:i] + argv[i + 2:]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert option in out.err and "Traceback" not in out.err


@pytest.mark.parametrize("d", ["0", "-1"])
def test_bounded_nonpositive_d_exits_2(d, capsys):
    argv = ["experiment", "bounded", "--d", d, "--psi", "poly:0,0,0,1"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--d" in out.err and "Traceback" not in out.err


def test_nuclear_overflow_exits_2(capsys):
    argv = ["experiment", "nuclear", "--weight", "gevrey:d=2", "--m", "400",
            "--L", "2"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "m*L" in out.err


@pytest.mark.parametrize("argv, flag", [
    (["experiment", "negative", "--d", "1e-300", "--dprime", "1e-300",
      "--jmax", "5"], "--d"),
    (["experiment", "compactness", "--psi", "poly:0,2,0,1", "--weight",
      "gevrey:d=2", "--x0", "1e300", "--nmax", "5"], "--x0"),
    # log expsqr = x0^2 = 1e400 past a float: every order's log is +inf
    (["experiment", "compactness", "--psi", "expsqr", "--weight",
      "gevrey:d=2", "--x0", "1e200", "--nmax", "3"], "--x0"),
    (["experiment", "bounded", "--d", "1e-56", "--psi", "poly:1,1",
      "--mmax", "1"], "--d"),
    (["experiment", "bounded", "--d", "2000", "--psi", "poly:1,1",
      "--mmax", "1"], "--d"),
    (["experiment", "cauchy", "--psi", "pow1px2:a=300", "--delta", "0.5",
      "--jmax", "10"], "--psi"),
    # omega(t) = t^50 overflows on the default grid, t^20 inside the
    # epsilon integral
    (["weight-check", "--weight", "gevrey:d=0.02"], "--weight"),
    (["weight-check", "--weight", "gevrey:d=0.05"], "--weight"),
    # sigma(x) = x^200 at x = 1e3; omega(psi(x)) = (x^2)^200
    (["experiment", "necessary", "--psi", "poly:0,0,1", "--sigma",
      "gevrey:d=0.005", "--omega", "gevrey:d=2"], "--sigma"),
    (["experiment", "necessary", "--psi", "poly:0,0,1", "--sigma",
      "gevrey:d=2", "--omega", "gevrey:d=0.005"], "--omega"),
    # psi(x) = x + x^2 has no parity: both halves are read
    (["experiment", "necessary", "--psi", "poly:0,1,1", "--sigma",
      "gevrey:d=2", "--omega", "gevrey:d=0.005"], "--omega"),
    # omega(x) = x^1000 on the grid; mu omega(x) = 1e308 sqrt(x)
    (["seminorm", "--family", "pi", "--function", "gaussian", "--weight",
      "gevrey:d=0.001", "--lam", "1"], "--weight"),
    (["seminorm", "--family", "pi", "--function", "gaussian", "--weight",
      "gevrey:d=2", "--lam", "1", "--mu", "1e308"], "--mu"),
    # omega(x_j) = 4^1000, and (1e10)^100
    (["experiment", "equicont", "--weight", "gevrey:d=0.001", "--x-seq",
      "2,4", "--lam-seq", "1,2"], "--weight"),
    (["experiment", "equicont", "--weight", "gevrey:d=0.01", "--x-seq",
      "1e10", "--lam-seq", "1"], "--weight"),
    # omega(x_j) = 1205^100 fits a float, omega(u + x_j) = 1213^100 does not
    (["experiment", "equicont", "--weight", "gevrey:d=0.01", "--x-seq",
      "1205", "--lam-seq", "1"], "--weight"),
    # m omega(u) = 1e9 8^333.3, and n omega(u + x_j) = 1e9 1008^100
    (["experiment", "equicont", "--weight", "gevrey:d=0.003", "--x-seq", "1",
      "--lam-seq", "1", "--K", "1000000000"], "--K"),
    (["experiment", "equicont", "--weight", "gevrey:d=0.01", "--x-seq", "1000",
      "--lam-seq", "1", "--n", "1000000000", "--K", "1"], "--n"),
    # u + x_j = 1e308 + 1e308 for the translate
    (["experiment", "equicont", "--weight", "gevrey:d=2", "--x-seq", "1e308",
      "--lam-seq", "1", "--grid", "lin:0.05,1e308,10"], "--x-seq"),
    # log|f^(j)| = x^2 + ... is past a float at 1e200; at 1e100 the logs fit
    # and the least-squares residuals' squares do not
    (["estimate-index", "--function", "expsqr", "--x", "1e200"], "--x"),
    (["estimate-index", "--function", "expsqr", "--x", "1e100"], "--x"),
], ids=["negative-tiny-d", "compactness-huge-x0", "compactness-expsqr-huge-x0",
        "bounded-tiny-d",
        "bounded-huge-d", "cauchy-huge-B", "weight-check-grid",
        "weight-check-epsilon", "necessary-sigma", "necessary-omega",
        "necessary-no-parity",
        "pi-weight", "pi-mu", "equicont-x-seq", "equicont-huge-x",
        "equicont-spot-row", "equicont-K", "equicont-n",
        "equicont-translate", "estimate-index-logs", "estimate-index-fit"])
def test_in_range_value_that_overflows_exits_2(argv, flag, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"gsbench: error: {flag}:")
    assert "overflows a float" in out.err and "Traceback" not in out.err


def test_necessary_refusal_names_the_first_block_that_overflows(capsys):
    # psi(x) = x + x^2 on log:1e-3,1e3,20000: the first block in order holds
    # x = -1000, where |psi| = 999000; |psi(1000)| = 1001000 lies later
    argv = ["experiment", "necessary", "--psi", "poly:0,1,1", "--sigma",
            "gevrey:d=2", "--omega", "gevrey:d=0.005"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "gsbench: error: --omega: gevrey:d=0.005 overflows a float at |t| <= 999000\n")


def test_necessary_refuses_a_log_grid_too_narrow_to_increase(capsys):
    # its exponents strictly increase in floats, but 10^e repeats a point
    argv = ["experiment", "necessary", "--psi", "poly:0,1,1", "--sigma",
            "gevrey:d=2", "--omega", "gevrey:d=2", "--grid", "log:1,1.0000000000000004,5"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "do not strictly increase" in out.err
    assert "Traceback" not in out.err


def test_necessary_where_omega_of_psi_is_infinite_runs_clean(capsys):
    # psi = x^2 passes the float range past |x| ~ 1.3e154, so omega(psi) = inf
    # there, and so is omega's lower envelope, not inf - inf (warnings are
    # errors here)
    argv = ["experiment", "necessary", "--psi", "poly:0,0,1", "--sigma", "gevrey:d=2",
            "--omega", "gevrey:d=2", "--grid", "log:1e-3,1e200,500"]
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.err == "" and json.loads(out.out)["C"] == 0.49241060160680783


# -- strict JSON: +-inf as "inf"/"-inf", never a bare Infinity token ------

def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_json_bytes_strict():
    data = to_json_bytes({"a": float("inf"), "b": [-float("inf"), 1.5]})
    assert json.loads(data, parse_constant=_reject_constant) == {
        "a": "inf", "b": ["-inf", 1.5]}
    with pytest.raises(ValueError):
        to_json_bytes({"a": float("nan")})


@pytest.mark.parametrize("argv, path", [
    (["sequence-check", "--sequence", "table:geom.csv", "--pmax", "50"],
     ["gamma1", "sup"]),
    (["experiment", "equicont", "--weight", "gevrey:d=2", "--x-seq", "1e6",
      "--lam-seq", "0", "--n", "100", "--K", "2", "--grid", "lin:0.05,2,10"],
     ["C_n"]),
], ids=["sequence-geometric", "equicont-overflow"])
def test_infinite_fields_are_strict_json(argv, path, tmp_path, monkeypatch,
                                         capsys):
    # M_p = 2^p: sum 1/m_p never converges, so gamma1's sup is infinite
    (tmp_path / "geom.csv").write_text(
        "p,logM\n" + "".join(f"{p},{p * math.log(2.0)!r}\n"
                             for p in range(601)))
    monkeypatch.chdir(tmp_path)
    main(argv)
    value = json.loads(capsys.readouterr().out,
                       parse_constant=_reject_constant)
    for key in path:
        value = value[key]
    assert value == "inf"


def test_sequence_check_whose_last_quotient_overflows_exp_reports(tmp_path, capsys):
    # log M_p = p^2 + 50 (p mod 2), p <= 500: the tail bound reads
    # log m_500 = 949, past exp's range, so it is taken in logs
    table = tmp_path / "seq.csv"
    table.write_text("p,logM\n" + "".join(f"{p},{p * p + 50 * (p % 2)}\n"
                                          for p in range(501)))
    assert main(["sequence-check", "--sequence", f"table:{table}", "--pmax", "50"]) == 1
    out = capsys.readouterr()
    rep = json.loads(out.out, parse_constant=_reject_constant)
    assert rep["m1"] == {"verdict": False, "violations": 25}
    assert 0.0 <= rep["m3prime"]["tail_bound"] < 1e-300
    assert out.err == ""


def test_sequence_table_whose_step_overflows_exits_2(tmp_path, capsys):
    table = tmp_path / "seq.csv"
    table.write_text("p,logM\n0,0\n1,-1e308\n2,1e308\n")
    assert main(["sequence-check", "--sequence", f"table:{table}"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert "at p=2 overflows a float" in out.err


# log M_p = 2 p^2: m_p = e^(4p - 2), so each Petzsche quotient m_{Qj}/m_j =
# e^(4 (Q-1) j) overflows a float at j = 50 while its liminf over
# 25 <= j <= 50, e^(100 (Q-1)), does not: a full report, exit 1 ((M2) fails).
# log M_p = 1000 p: (M0)'s c = e^(1000 - log 51) is past the float range,
# which no float audit can report: exit 2
@pytest.mark.parametrize("log_M, code", [(lambda p: 2 * p * p, 1),
                                         (lambda p: 1000 * p, 2)],
                         ids=["2p^2", "1000p"])
def test_steep_sequence_table_reports_or_exits_2(log_M, code, tmp_path, capsys):
    table = tmp_path / "seq.csv"
    table.write_text("p,logM\n" + "".join(f"{p},{log_M(p)}\n" for p in range(601)))
    argv = ["sequence-check", "--sequence", f"table:{table}", "--pmax", "50"]
    assert main(argv) == code
    warm = capsys.readouterr()
    r = run_cold(*argv)
    err, probe = split_probe(r.stderr)
    assert (r.returncode, r.stdout, err) == (code, warm.out, warm.err)
    assert probe.startswith("numpy=False ") and "Traceback" not in err
    if code == 2:
        assert warm.out == "" and warm.err == (
            f"gsbench: error: --sequence: a constant of table:{table} "
            "overflows a float on the audit to p <= 50\n")
        return
    rep = json.loads(warm.out, parse_constant=_reject_constant)
    assert rep["petzsche"]["per_Q"] == {str(Q): math.exp(100.0 * (Q - 1))
                                        for Q in range(2, 9)}
    assert rep["petzsche"]["Q"] == 2 and rep["m2"]["verdict"] is False


def test_equicont_c_n_is_finite_wherever_exp_is(capsys):
    # log C_n = 1.5 sqrt(219650) + 2 = 705.0, and e^705 = 1.509e306
    assert main(["experiment", "equicont", "--weight", "gevrey:d=2", "--x-seq",
                 "219650", "--lam-seq", "0.5", "--n", "1", "--K", "2"]) == 0
    rep = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert rep["log_C_n"] > 700 and rep["C_n"] == math.exp(rep["log_C_n"])


# -- end-to-end CLI ---------------------------------------------------------

def test_conjugate_near_zero_at_sd_equals_e():
    r = run_cli("conjugate", "--weight", "gevrey:d=2", "--s", "1.35914")
    assert r.returncode == 0
    assert abs(json.loads(r.stdout)["value"]) < 1e-4


def test_conjugate_logpow_closed_form_cli(capsys):
    # the maximizer t* = 2844 lies past log(float max): only the closed form
    # reaches it; the numeric sup refuses instead of stopping at t = 709.78
    argv = ["conjugate", "--weight", "logpow:s=1.5", "--s", "80"]
    for method in ([], ["--method", "closed-form"]):
        assert main(argv + method) == 0
        assert json.loads(capsys.readouterr().out)["value"] \
            == pytest.approx(2048000.0 / 27.0, rel=1e-14)
    assert main(argv + ["--method", "numeric-sup"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "overflows a float" in out.err


def test_conjugate_names_its_weight_exactly(capsys):
    argv = ["conjugate", "--weight", "logpow:s=1.0000001", "--s"]
    assert main(argv + ["1"]) == 0
    assert json.loads(capsys.readouterr().out)["weight"] == "logpow:s=1.0000001"
    assert main(argv + ["80"]) == 2
    assert "of logpow:s=1.0000001 overflows" in capsys.readouterr().err


def test_conjugate_of_non_convex_table_cli(tmp_path, capsys):
    # phi has slopes 0, 10, 0.5, 89.5: the sup at s = 8 is 13.5, at u = 3
    table = tmp_path / "w.csv"
    table.write_text("t,omega\n" + "".join(
        f"{math.e ** k!r},{v!r}\n"
        for k, v in enumerate([0.0, 0.0, 10.0, 10.5, 100.0])))
    argv = ["conjugate", "--weight", f"table:{table}", "--s"]
    for method in ([], ["--method", "closed-form"]):
        assert main(argv + ["8"] + method) == 0
        assert json.loads(capsys.readouterr().out)["value"] \
            == pytest.approx(13.5, rel=1e-15)
    # the table's conjugate is exact: no golden section; past the tail
    # slope b = 89.5 it is +inf
    for extra, msg in ((["8", "--method", "numeric-sup"], "--method"),
                       (["90"], f"phi*(90) of table:{table} is +inf: s "
                                "exceeds the tail slope b = 89.5")):
        assert main(argv + extra) == 2
        out = capsys.readouterr()
        assert out.out == "" and msg in out.err and "Traceback" not in out.err


def test_conjugate_of_coincident_log_knots_exits_2(tmp_path):
    # 1e300 and the next float up share one log t
    table = tmp_path / "w.csv"
    table.write_text(f"t,omega\n1,0\n1e300,1\n{math.nextafter(1e300, 2e300)!r},2\n")
    r = subprocess.run([sys.executable, "-W", "error", "-m", "gsbench",
                        "conjugate", "--weight", f"table:{table}", "--s", "1"],
                       capture_output=True, text=True)
    assert r.returncode == 2 and r.stdout == ""
    assert "Traceback" not in r.stderr and "Warning" not in r.stderr
    assert r.stderr.endswith(
        "error: argument --weight: table t-column must be strictly increasing "
        "in log t: t = 1e+300 is followed by t = 1.0000000000000002e+300\n")


@pytest.mark.parametrize("line", record_digests.readme_cli_examples())
def test_readme_cli_examples_run(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) in (0, 1)
    out = capsys.readouterr()
    assert "Traceback" not in out.err
    json.loads(out.out, parse_constant=_reject_constant)


def test_identities_cli():
    r = run_cli("identities", "--jmax", "25")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert len(d["rows"]) == 25 and d["verdict"]
    assert d["rows"][24]["two_power"] == 2 ** 24


def test_identities_jmax_past_30_exits_2():
    r = run_cli("identities", "--jmax", "31")
    assert r.returncode == 2 and r.stdout == ""
    assert "--jmax: identity checked for 1 <= j <= 30" in r.stderr
    assert "Traceback" not in r.stderr


def test_unknown_subcommand_exits_2():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_missing_required_flag_exits_2():
    r = run_cli("conjugate", "--s", "1.0")
    assert r.returncode == 2


def test_regime_error_exits_2_with_diagnostic():
    r = run_cli("experiment", "negative", "--d", "2", "--k", "1",
                "--dprime", "4", "--jmax", "10")
    assert r.returncode == 2
    assert "--dprime" in r.stderr


def test_fdb_cli_exact():
    r = run_cli("fdb", "--h", '["0","0","2"]', "--psi", '["1","1","1"]',
                "--base", "0", "--order", "2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["value"] == "2"


def test_fdb_order_past_the_jets_exits_2(capsys):
    # jets of order 1 hold no third derivative
    assert main(["fdb", "--h", '["1","1"]', "--psi", '["0","1"]',
                 "--order", "3"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        "gsbench: error: --order: order mismatch: need order >= 3, got h:1 psi:1\n")


def test_experiment_writes_csv_and_json(tmp_path):
    r = run_cli("experiment", "nuclear", "--weight", "gevrey:d=2",
                "--m", "1", "--L", "2", "--jmax", "20",
                "--out", str(tmp_path / "nuc.csv"), "--format", "both")
    assert r.returncode == 0
    assert (tmp_path / "nuc.csv").exists()
    summary = json.loads((tmp_path / "nuc.json").read_text())
    assert summary["verdict"] is True
    assert summary["columns"][0] == "j"


def test_json_out_with_format_both_writes_the_csv_next_to_it(tmp_path, capsys):
    argv = ["experiment", "nuclear", "--weight", "gevrey:d=2", "--jmax", "3",
            "--format", "both", "--out"]
    assert main(argv + [str(tmp_path / "a.csv")]) == 0
    assert main(argv + [str(tmp_path / "b.json")]) == 0
    stdout = capsys.readouterr().out.splitlines(keepends=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.csv", "a.json", "b.csv", "b.json"]
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
    assert (tmp_path / "b.csv").read_text().startswith("j,log_ratio,")
    assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()
    # a result without rows writes the JSON alone, as its stdout
    out = tmp_path / "w" / "weight-check.json"
    out.parent.mkdir()
    assert main(["weight-check", "--weight", "gevrey:d=2", "--grid",
                 "log:1e-2,1e6,100", "--out", str(out), "--format", "both"]) == 0
    assert [p.name for p in out.parent.iterdir()] == ["weight-check.json"]
    assert out.read_text() == capsys.readouterr().out


def test_weight_check_tabulated_weight(tmp_path, capsys):
    # omega = log(1 + t)^2 and t^(1/2) at 61 knots, t = 1e-3 .. 1e12: the
    # audit reads omega at t = 0, below the first knot, and past the last
    # knot; both integrals are split at the knots, where omega has a kink
    for omega in (lambda t: math.log1p(t) ** 2, math.sqrt):
        table = tmp_path / "w.csv"
        table.write_text("t,omega\n" + "".join(
            f"{t!r},{omega(t)!r}\n"
            for t in (10.0 ** (k / 4) for k in range(-12, 49))))
        code = main(["weight-check", "--weight", f"table:{table}"])
        out = capsys.readouterr()
        report = json.loads(out.out)
        conds = {c["condition"]: c for c in report["conditions"]}
        assert report["weight"] == f"table:{table}" and "Traceback" not in out.err
        assert code == 0 and all(c["verdict"] for c in conds.values()), conds
        assert conds["alpha"]["witness"] == {"K": 2}
        assert conds["delta"]["detail"]["violations"] == 0
        assert conds["doubling"]["witness"]["H"] >= 1
        assert math.isfinite(conds["beta"]["witness"]["integral"])
        assert conds["beta"]["detail"]["abs_error"] < 1e-12
        assert conds["epsilon"]["witness"] == {"C": 3}


def test_table_labels_name_their_file(tmp_path, monkeypatch, capsys):
    # two runs on different tables are told apart by their JSON
    monkeypatch.chdir(tmp_path)
    for name in ("a.csv", "b.csv"):
        (tmp_path / name).write_text("t,omega\n1,0\n10,1\n100,3\n1000,6\n")
        assert main(["conjugate", "--weight", f"table:{name}", "--s", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["weight"] == f"table:{name}"
    (tmp_path / "seq.csv").write_text(
        "p,logM\n" + "".join(f"{p},{p * p / 100!r}\n" for p in range(601)))
    assert main(["sequence-check", "--sequence", "table:seq.csv",
                 "--pmax", "50"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["sequence"] == "table:seq.csv"


@pytest.mark.parametrize("argv", [
    ["--psi", "poly:0,0,1", "--a", "3", "--m", "1,2", "--jmax", "15",
     "--grid", "lin:1e150,1e160,5"],
    ["--psi", "poly:0,0,1", "--a", "1.5", "--m", "1,2", "--jmax", "15",
     "--grid", "log:1e-300,1e300,50"],
    ["--psi", "poly:0,0,1e300", "--a", "1.5"],
    ["--psi", "poly:1e200", "--a", "2", "--grid", "lin:1e100,1e101,3"],
], ids=["x2-a3-large-x", "x2-wide-grid", "huge-coeff", "const-1e200"])
def test_sufficient_overflowing_power_exits_cleanly(argv):
    # (1 + |psi(x)|)^a overflows a float: C0's term |x| / (1 + |psi|)^a is
    # taken in logs there, so the run exits 0 or 1 with strict JSON
    r = subprocess.run([sys.executable, "-W", "error", "-m", "gsbench",
                        "experiment", "sufficient", "--weight", "gevrey:d=2",
                        *argv], capture_output=True, text=True)
    assert r.returncode in (0, 1) and r.stderr == "", r.stderr
    c0 = json.loads(r.stdout, parse_constant=_reject_constant)["C0"]
    assert 0.0 <= c0 < math.inf
    if argv[1] == "poly:1e200":  # every power overflows; max at x = 1e101
        assert c0 == pytest.approx(1e101 / 1e200 / 1e200, rel=1e-12)


def test_sufficient_c0_past_the_power_overflow_in_process(capsys):
    # (1 + x^2)^300 overflows a float past |x| ~ 3.1: those rows of the
    # default grid's mirrored half (x <= 0) take C0's term in logs; the
    # oracle takes every term x < 0 in logs (the term at x = 0 is 0)
    assert main(["experiment", "sufficient", "--psi", "poly:0,0,1", "--weight",
                 "gevrey:d=2", "--a", "300", "--m", "1", "--jmax", "4"]) == 0
    c0 = json.loads(capsys.readouterr().out)["C0"]
    half = [x for x in GridSpec("lin", 0.05, 6.0, 120).symmetric_points().tolist()
            if x < 0]
    logs = [math.log(-x) - 300.0 * math.log1p(x * x) for x in half]
    assert sum(300.0 * math.log1p(x * x) > math.log(sys.float_info.max)
               for x in half) > 50
    assert c0 == pytest.approx(math.exp(max(logs)), rel=1e-14)


def test_weight_check_exit_zero():
    r = run_cli("weight-check", "--weight", "gevrey:d=2",
                "--grid", "log:1e-2,1e6,400")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert all(c["verdict"] for c in d["conditions"])


# python -m gsbench in a fresh interpreter; stderr ends with whether numpy
# and scipy were imported by the time the interpreter exits
SCIPY_PROBE = ("import atexit, runpy, sys; atexit.register(lambda: sys.stderr.write("
               "'numpy=%s scipy=%s' % ('numpy' in sys.modules, 'scipy' in sys.modules))); "
               "runpy.run_module('gsbench', run_name='__main__')")


def run_cold(*argv):
    return subprocess.run([sys.executable, "-c", SCIPY_PROBE, *argv],
                          capture_output=True, text=True)


def split_probe(stderr):
    """(the command's own stderr, the probe's 'numpy=... scipy=...')"""
    i = stderr.rindex("numpy=")
    return stderr[:i], stderr[i:]


def test_cold_start_leaves_scipy_unloaded():
    r = subprocess.run([sys.executable, "-c",
                        "import sys, gsbench; print('scipy' in sys.modules)"],
                       capture_output=True, text=True)
    assert r.returncode == 0 and r.stdout == "False\n"
    r = run_cold("conjugate", "--weight", "gevrey:d=2", "--s", "1")
    assert r.returncode == 0 and r.stderr.endswith("scipy=False")


def test_weight_check_never_loads_scipy(capsys):
    # its integrals run on gsbench.quadpack, not scipy.integrate
    r = run_cold("weight-check", "--weight", "logpow:s=2")
    assert r.returncode == 0 and r.stderr.endswith("scipy=False")
    assert main(["weight-check", "--weight", "logpow:s=2"]) == 0
    assert r.stdout == capsys.readouterr().out


def test_bare_import_leaves_numpy_unloaded():
    r = subprocess.run([sys.executable, "-c",
                        "import sys, gsbench; print('numpy' in sys.modules)"],
                       capture_output=True, text=True)
    assert r.returncode == 0 and r.stdout == "False\n"


# the scalar commands: no array is built, so numpy is never imported, and the
# cold run prints and writes what an in-process run does.  {table} is a
# sequence table that is not log-convex: log M_p = (p^2 + 50 (p mod 2))/100,
# so sequence-check fails (M1), exit 1.  {weight} is a weight table whose
# tail slope is b = 1/log 10: phi*(1) is past b, exit 2
@pytest.mark.parametrize("argv, code", [
    (["experiment", "negative", "--d", "2", "--k", "1", "--dprime", "3.5",
      "--jmax", "400"], 0),
    (["experiment", "nuclear", "--weight", "gevrey:d=2"], 0),
    (["sequence-check", "--sequence", "gevreyseq:d=2"], 0),
    (["sequence-check", "--sequence", "table:{table}", "--pmax", "50"], 1),
    (["conjugate", "--weight", "gevrey:d=2", "--s", "1"], 0),
    (["conjugate", "--weight", "logpow:s=2", "--s", "1"], 0),
    (["conjugate", "--weight", "table:{weight}", "--s", "0.25"], 0),
    (["conjugate", "--weight", "table:{weight}", "--s", "1"], 2),
    # --weight parses to its weight, importing gsbench.weights; --s is refused
    (["conjugate", "--weight", "gevrey:d=2", "--s", "-1"], 2),
    # a polynomial psi's jets are exact rationals
    (["experiment", "bounded", "--d", "2", "--psi", "poly:0,0,0,1",
      "--mmax", "12"], 0),
    (["experiment", "compactness", "--psi", "poly:0,2,0,1", "--x0", "0",
      "--weight", "gevrey:d=2", "--nmax", "25"], 0),
    # identities sums integers, fdb composes Fraction jets
    (["identities", "--jmax", "30"], 0),
    (["fdb", "--h", '["1","1","1/2"]', "--psi", '["0","1","1"]', "--order",
      "2"], 0),
], ids=["negative", "nuclear", "sequence-check", "sequence-check-table",
        "conjugate-gevrey", "conjugate-logpow", "conjugate-table",
        "conjugate-table-past-b", "conjugate-parsed-weight-bad-s", "bounded",
        "compactness", "identities", "fdb"])
def test_scalar_command_runs_cold_without_numpy(argv, code, tmp_path, capsys):
    table = tmp_path / "seq.csv"
    vs = [p * p + 50 * (p % 2) for p in range(501)]
    table.write_text("p,logM\n" + "".join(f"{p},{v // 100}.{v % 100:02d}\n"
                                          for p, v in enumerate(vs)))
    weight = tmp_path / "w.csv"
    weight.write_text("t,omega\n0.1,0\n1,0.25\n10,1\n100,2\n")
    argv = [a.format(table=table, weight=weight) for a in argv]

    def out(d):
        d.mkdir()
        return (["--out", str(d / "r.csv"), "--format", "both"]
                if argv[0] == "experiment" else [])
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    r = run_cold(*argv, *out(cold))
    err, probe = split_probe(r.stderr)
    assert r.returncode == code and probe.startswith("numpy=False ")
    assert main([*argv, *out(warm)]) == code
    assert (capsys.readouterr(), err == "") == ((r.stdout, err), code != 2)
    files = sorted(p.name for p in cold.iterdir())
    assert files == sorted(p.name for p in warm.iterdir())
    assert files == (["r.csv", "r.json"] if argv[0] == "experiment" else [])
    for name in files:
        assert (cold / name).read_bytes() == (warm / name).read_bytes()


# numpy's SIMD dispatch reads this in the child only; without these targets
# it falls back to AVX2 kernels for float64 exp, log1p and power
NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"


@pytest.mark.parametrize("argv", [
    ["weight-check", "--weight", "logpow:s=2"],
    ["experiment", "necessary", "--psi", "poly:0,0,1", "--sigma", "gevrey:d=2",
     "--omega", "gevrey:d=2"],
    ["experiment", "cauchy", "--psi", "sqrt1px2", "--delta", "0.5",
     "--jmax", "10"],
    ["experiment", "negative", "--d", "2", "--k", "1", "--dprime", "3.5",
     "--jmax", "400"],
    ["experiment", "nuclear", "--weight", "gevrey:d=2", "--m", "1", "--L", "2",
     "--jmax", "50"],
    ["sequence-check", "--sequence", "gevreyseq:d=2"],
    ["seminorm", "--family", "p", "--function", "sqrt1px2", "--weight",
     "logpow:s=2", "--lam", "1", "--grid", "log:1e-2,8,80"],
    ["seminorm", "--family", "pi", "--function", "gaussian", "--weight",
     "gevrey:d=2", "--lam", "1", "--grid", "log:1e-2,8,80"],
], ids=["weight-check", "necessary", "cauchy", "negative", "nuclear",
        "sequence-check", "seminorm-p-log", "seminorm-pi-log"])
def test_output_does_not_depend_on_the_simd_level(argv):
    skip_without_avx512()
    runs = [subprocess.run([sys.executable, "-m", "gsbench", *argv],
                           capture_output=True, env=env)
            for env in (dict(os.environ),
                        dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512))]
    assert runs[0].returncode in (0, 1) and runs[0].stdout
    assert [(r.returncode, r.stdout) for r in runs[1:]] == [
        (runs[0].returncode, runs[0].stdout)]


def skip_without_avx512():
    from numpy._core._multiarray_umath import __cpu_features__
    missing = [f for f in NO_AVX512.split() if not __cpu_features__.get(f)]
    if missing:
        pytest.skip(f"this CPU lacks {', '.join(missing)}: numpy runs the "
                    "same kernels with or without NPY_DISABLE_CPU_FEATURES")


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """One scripts/run_all_experiments.py run, shared by the SIMD comparison
    and the digests: (exit code, stdout, its output directory)."""
    out = tmp_path_factory.mktemp("reference")
    r = record_digests.run_script("run_all_experiments.py", "--outdir", str(out))
    return r.returncode, r.stdout, out


def _artifacts(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def test_reference_artifacts_do_not_depend_on_the_simd_level(reference_run, tmp_path):
    skip_without_avx512()
    code, stdout, outdir = reference_run
    r = subprocess.run([sys.executable, str(record_digests.ROOT / "scripts" / "run_all_experiments.py"),
                        "--outdir", str(tmp_path)], capture_output=True,
                       env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512))
    assert code == 0 and len(_artifacts(outdir)) == 12
    assert (r.returncode, r.stdout, _artifacts(tmp_path)) == (code, stdout, _artifacts(outdir))


def _recorded_digests(section):
    """The recorded digests of one section of tests/digests.json.  Rounding
    that numpy or libc own is not a fault of this repository: on another
    platform a section other than "platform_free" is not compared, and the
    skip says why."""
    recorded = json.loads((record_digests.DIGESTS).read_text())
    here = record_digests.fingerprint()
    differ = [f"{k} {recorded['fingerprint'].get(k)!r} recorded, {v!r} here"
              for k, v in here.items() if recorded["fingerprint"].get(k) != v]
    if differ and section != "platform_free":
        pytest.skip("tests/digests.json is from another platform: " + "; ".join(differ))
    return recorded[section]


def _moved(want, got):
    return [k for k in sorted(want.keys() | got.keys()) if want.get(k) != got.get(k)]


def test_reference_outputs_keep_their_pinned_digests(reference_run):
    want = _recorded_digests("digests")
    code, stdout, outdir = reference_run
    assert code == 0
    assert _moved(want, record_digests.digests(outdir, stdout)) == []


def test_cli_battery_keeps_its_pinned_digests():
    # exit codes, stdout, written files and exit-2 stderr lines of the
    # README examples, table weights and sequences and --out, and the
    # associated weight's library calls
    want = _recorded_digests("battery")
    got = {**record_digests.run_battery(record_digests.battery()[0]),
           **record_digests.run_library()}
    assert _moved(want, got) == []


def test_platform_free_outputs_keep_their_digests():
    # integers, Fractions and usage errors: compared on every platform
    want = _recorded_digests("platform_free")
    assert _moved(want, record_digests.run_battery(record_digests.battery()[1])) == []


# the usage-error probes of the benchmark's reference workload, and a table
# that does not exist: argparse rejects each before numpy is imported
@pytest.mark.parametrize("argv", [
    ["conjugate", "--weight", "gevrey:d=abc", "--s", "1"],
    ["estimate-index", "--function", "poly:1,x"],
    ["estimate-index", "--function", "monbump:n=2"],
    ["conjugate", "--weight", "gevrey:d=nan", "--s", "1"],
    ["conjugate", "--weight", "gevrey:d=2", "--s", "nan"],
    ["conjugate", "--weight", "gevrey:d=2", "--s", "-1"],
    ["weight-check", "--weight", "table:no-such-table.csv"],
    ["estimate-index", "--function", "poly:1e400"],
    ["experiment", "bounded", "--d", "2", "--psi", "poly:0,1e400"],
    ["experiment", "sufficient", "--psi", "monbump:n=2,a=1e400",
     "--weight", "gevrey:d=2"],
    ["experiment", "negative", "--d", "2", "--k", "1", "--dprime", "5",
     "--jmax", "10"],
    # range refusals of the function families' constructors, and text
    # after a family that takes no parameters
    ["estimate-index", "--function", "gbump:g=-1"],
    ["estimate-index", "--function", "pow1px2:a=5e-324"],
    ["estimate-index", "--function", "monbump:n=-1,a=1"],
    ["estimate-index", "--function", "sqrt1px2:a=3"],
], ids=["weight-abc", "poly-x", "monbump-n", "weight-nan", "s-nan",
        "s-negative", "table-missing", "poly-overflow", "psi-poly-overflow",
        "psi-monbump-overflow", "negative-regime", "gbump-range",
        "pow1px2-subnormal", "monbump-range", "sqrt1px2-param"])
def test_usage_error_exits_before_numpy_loads(argv, capsys):
    r = run_cold(*argv)
    err, probe = split_probe(r.stderr)
    assert r.returncode == 2 and r.stdout == "" and "Traceback" not in err
    assert probe.startswith("numpy=False ")
    assert main(argv) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("argv, flag", [
    (["estimate-index", "--function", "poly:1e400"], "--function"),
    (["experiment", "bounded", "--d", "2", "--psi", "poly:0,1e400"], "--psi"),
    (["estimate-index", "--function", "poly:1e400,x"], None),
    (["experiment", "sufficient", "--psi", "monbump:n=2,a=1e400",
      "--weight", "gevrey:d=2"], "--psi"),
])
def test_poly_coefficient_past_float_range_exits_2(argv, flag, capsys):
    # Horner and the monomial bump run in floats, so a rational's
    # OverflowError is a usage error of its flag; a malformed coefficient is
    # reported first
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    if flag:
        assert out.err.endswith(
            f"argument {flag}: integer division result too large for a float\n")
    else:
        assert "poly spec needs rational coefficients" in out.err


def test_one_parser_serves_every_call_in_a_process(capsys):
    # an ok run, a usage error, then another command, all through one
    # cached parser: each call prints what a fresh interpreter prints
    calls = [["conjugate", "--weight", "gevrey:d=2", "--s", "1.5"],
             ["conjugate", "--weight", "gevrey:d=2", "--s", "nan"],
             ["identities", "--jmax", "6"],
             ["experiment", "nuclear", "--weight", "gevrey:d=2", "--m", "1,2"],
             ["conjugate", "--weight", "logpow:s=2", "--s", "3"]]
    for argv in calls:
        code = main(argv)
        out = capsys.readouterr()
        r = run_cold(*argv)
        assert (code, out.out, out.err) == (r.returncode, r.stdout,
                                            split_probe(r.stderr)[0]), argv
    assert cli._parser.cache_info().currsize == 1


@pytest.mark.parametrize("command", [
    ["weight-check"],
    ["experiment", "equicont", "--x-seq", "1,2", "--lam-seq", "1,1"]])
def test_table_whose_omega_span_overflows_exits_2(command, tmp_path):
    # omega_K - omega_1 = inf: the table's slopes would be inf and NaN
    table = tmp_path / "span.csv"
    table.write_text("t,omega\n1,-1.7e308\n2,1.7e308\n")
    r = run_cold(*command, "--weight", f"table:{table}")
    err, probe = split_probe(r.stderr)
    assert r.returncode == 2 and r.stdout == "" and "Traceback" not in err
    assert "argument --weight: table omega values span" in err
    assert "overflows a float" in err and probe.startswith("numpy=False ")


@pytest.mark.parametrize("weight", ["gevrey:d=0.5", "gevrey:d=1"])
def test_weight_check_divergent_integrals_exit_1(weight, capsys):
    # omega = t^2 and omega = t: int omega(t)/(1+t^2) dt and
    # int_1^inf omega(y t)/t^2 dt diverge, which QUADPACK reports as ier != 0
    assert main(["weight-check", "--weight", weight]) == 1
    verdicts = {c["condition"]: c["verdict"]
                for c in json.loads(capsys.readouterr().out)["conditions"]}
    assert not verdicts["beta"] and not verdicts["epsilon"]


def test_format_csv_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["experiment", "nuclear", "--weight", "gevrey:d=2",
                 "--out", str(out), "--format", "csv"]) == 2
    assert "--format" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_determinism_small():
    a = run_cli("experiment", "nuclear", "--weight", "gevrey:d=2",
                "--m", "1", "--L", "2", "--jmax", "30")
    b = run_cli("experiment", "nuclear", "--weight", "gevrey:d=2",
                "--m", "1", "--L", "2", "--jmax", "30")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0
