import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gsbench.cli import EXPERIMENTS, build_parser, main, validate_config
from gsbench.functions import ModelFunction, parse_function
from gsbench.grids import GridSpec
from gsbench.reports import ChainReport, format_float, to_json_bytes
from gsbench.errors import PreconditionError
from gsbench.sequences import WeightSequence, parse_sequence
from gsbench.weights import ConjugateEvaluator, WeightFunction, parse_weight


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


def test_scaled_grid_keeps_spacing():
    g = GridSpec("lin", 0.05, 5.0, 100)
    g2 = g.scaled(1.25)
    step = (g.hi - g.lo) / (g.n - 1)
    step2 = (g2.hi - g2.lo) / (g2.n - 1)
    assert step2 == pytest.approx(step, rel=1e-12)
    assert g2.hi >= 1.25 * g.hi - step


def test_float_formatting_round_trips():
    for x in (0.1, 1.0 / 3.0, 1e300, -2.5e-300):
        assert format_float(x) == x


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


def test_valid_negative_config_clean():
    cfg = parse_cfg(["experiment", "negative", "--d", "2", "--k", "1",
                     "--dprime", "3.5", "--jmax", "40"])
    assert validate_config(cfg) == []


def test_regime_diagnostic_names_flag():
    cfg = parse_cfg(["experiment", "negative", "--d", "2", "--k", "1",
                     "--dprime", "4", "--jmax", "10"])
    diags = validate_config(cfg)
    assert len(diags) == 1 and "--dprime" in diags[0]


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
    (["experiment", "nuclear", "--weight", "gevrey:d=2", "--m", "1.7"], "--m"),
    (["experiment", "nuclear", "--weight", "gevrey:d=2", "--m", "-1"], "--m"),
    (["fdb", *FDB_JETS, "--order", "-1"], "--order"),
    (["fdb", *FDB_JETS, "--order", "2", "--base", "abc"], "--base"),
    (["fdb", *FDB_JETS, "--order", "2", "--base", "1/0"], "--base"),
    (["fdb", "--h", "5", "--psi", '["1","1","1"]', "--order", "2"], "--h"),
    (["fdb", "--h", '["1"]', "--psi", "[]", "--order", "0"], "--psi"),
    (["experiment", "equicont", "--weight", "gevrey:d=2", "--x-seq", "1,inf",
      "--lam-seq", "1,2"], "--x-seq"),
], ids=["kmax-negative", "m-zero", "m-fraction", "m-negative", "order-negative",
        "base-abc", "base-1/0", "h-not-array", "psi-empty", "x-seq-inf"])
def test_bad_flag_value_exits_2(argv, flag, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument {flag}:" in out.err and "Traceback" not in out.err


def test_whole_number_orders_accepted():
    a = parse_cfg(["experiment", "sufficient", "--m", "2.0,1e0,3"])
    assert a.m == [2, 1, 3] and all(type(m) is int for m in a.m)


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
], ids=["weight-abc", "poly-x", "monbump-missing-a", "weight-nan", "s-nan",
        "weight-table-missing", "sequence-table-missing",
        "weight-table-bad-cell", "sequence-table-bad-cell",
        "weight-table-short-row"])
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
               lambda v, t: isinstance(v, WeightFunction)),
    "sequence": (st.sampled_from(["gevreyseq:d=2", "gevreyseq:d=3"]),
                 lambda v, t: isinstance(v, WeightSequence)),
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
# subcommand -> (valid required flags, {typed flag: kind})
PARSE_TABLE = {
    "conjugate": (["--weight", "gevrey:d=2", "--s", "1"],
                  {"--weight": "weight", "--s": "positive"}),
    "weight-check": (["--weight", "gevrey:d=2"], {"--weight": "weight"}),
    "sequence-check": (["--sequence", "gevreyseq:d=2"],
                       {"--sequence": "sequence", "--pmax": "count"}),
    "fdb": (["--h", '["1"]', "--psi", '["1"]', "--order", "0"],
            {"--h": "rationals", "--psi": "rationals", "--base": "rational",
             "--order": "count0"}),
    "identities": ([], {"--jmax": "count"}),
    "seminorm": (["--family", "p", "--function", "gaussian", "--weight",
                  "gevrey:d=2", "--lam", "1"],
                 {"--function": "function", "--weight": "weight",
                  "--lam": "positive", "--mu": "real", "--jmax": "count",
                  "--kmax": "count0"}),
    "estimate-index": (["--function", "gaussian"],
                       {"--function": "function", "--x": "real",
                        "--jmax": "count"}),
    "experiment": (["nuclear"],
                   {"--d": "real", "--k": "real", "--dprime": "real",
                    "--jmax": "count", "--psi": "function",
                    "--function": "function", "--weight": "weight",
                    "--sigma": "weight", "--omega": "weight", "--x0": "real",
                    "--p": "count", "--nmax": "count", "--mmax": "count",
                    "--a": "real", "--m": "orders", "--L": "count",
                    "--n": "count", "--K": "count", "--x-seq": "reals",
                    "--lam-seq": "reals", "--delta": "real"}),
}
PARSE_SLOTS = [(cmd, flag, kind) for cmd, (_, flags) in PARSE_TABLE.items()
               for flag, kind in {**flags, "--grid": "grid",
                                  "--threshold": "threshold",
                                  "--out": "out"}.items()]
HOSTILE = ["", "abc", "nan", "inf", "-inf", "-1", "0", "1.7", "1e400", "1/0",
           "[]", "5", "2.0", "1,inf", "1,,2", ",", "[1e400]", '["1","x"]',
           '{"1": 2}', '"12"', "[[1]]", "gevrey:d=", "gevrey:q=2",
           "gevrey:d=nan", "logpow:s=inf", "gevreyseq:d=abc", "poly:1,x",
           "poly:", "monbump:n=2", "pow1px2:a=nan", "lin:0,1", "log:0,1,10",
           "lin:1,0,5", "lin:0,1,1", "lin:0,inf,5", "cubic:1,2,3",
           "table:missing.csv", "table:.", "no/such/dir/x.json"]


def _check_parse(parser, cmd, flag, kind, token, must_parse, capsys):
    argv = [cmd, *PARSE_TABLE[cmd][0], f"{flag}={token}"]
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


# a valid flag set per experiment; the test below drops one required flag
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


@pytest.mark.parametrize("name, flag", [
    (name, flag) for name, (required, _) in EXPERIMENTS.items()
    for flag in required])
def test_experiment_missing_flag_exits_2(name, flag, capsys):
    option = "--" + flag.replace("_", "-")
    argv = EXPERIMENT_ARGV[name]
    i = argv.index(option)
    assert main(["experiment", name] + argv[:i] + argv[i + 2:]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert option in out.err and "Traceback" not in out.err


def test_nuclear_overflow_exits_2(capsys):
    argv = ["experiment", "nuclear", "--weight", "gevrey:d=2", "--m", "400",
            "--L", "2"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "m*L" in out.err


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


# -- end-to-end CLI ---------------------------------------------------------

def test_conjugate_near_zero_at_sd_equals_e():
    r = run_cli("conjugate", "--weight", "gevrey:d=2", "--s", "1.35914")
    assert r.returncode == 0
    assert abs(json.loads(r.stdout)["value"]) < 1e-4


def test_identities_cli():
    r = run_cli("identities", "--jmax", "25")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert len(d["rows"]) == 25 and d["verdict"]
    assert d["rows"][24]["two_power"] == 2 ** 24


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


def test_experiment_writes_csv_and_json(tmp_path):
    r = run_cli("experiment", "nuclear", "--weight", "gevrey:d=2",
                "--m", "1", "--L", "2", "--jmax", "20",
                "--out", str(tmp_path / "nuc.csv"), "--format", "both")
    assert r.returncode == 0
    assert (tmp_path / "nuc.csv").exists()
    summary = json.loads((tmp_path / "nuc.json").read_text())
    assert summary["verdict"] is True
    assert summary["columns"][0] == "j"


def test_weight_check_exit_zero():
    r = run_cli("weight-check", "--weight", "gevrey:d=2",
                "--grid", "log:1e-2,1e6,400")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert all(c["verdict"] for c in d["conditions"])


@pytest.mark.parametrize("weight", ["gevrey:d=0.5", "gevrey:d=1"])
def test_weight_check_divergent_integrals_exit_1(weight, capsys):
    # omega = t^2 and omega = t: int omega(t)/(1+t^2) dt and
    # int_1^inf omega(y t)/t^2 dt diverge, which quad only warns about
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
