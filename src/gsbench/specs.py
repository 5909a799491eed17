"""The spec grammar of weights, weight sequences and model functions, free
of numpy:

    weight    gevrey:d=<real> | logpow:s=<real> | table:<file.csv>
    sequence  gevreyseq:d=<real> | table:<file.csv>
    function  gaussian | expsqr | sqrt1px2 | poly:<c0>,<c1>,... |
              pow1px2:a=<real> | monbump:n=<int>,a=<rational>[,r=..][,g=..] |
              gbump[:g=<real>,r=<real>]

A bump's keys come in any order, each at most once, and an omitted r or g
is 1.

Each parser returns the checked ``WeightFunction``, ``WeightSequence`` or
model function itself, as none of them loads numpy, so a malformed or
out-of-range spec is a usage error before numpy loads.  A weight's or
sequence's range checks run here; a function family's run in its
constructor in ``functions``, which a function parser imports only once the
whole spec has parsed.  Grids have their own numpy-free grammar,
``grids.GridSpec.parse``.
"""
from __future__ import annotations

import csv
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import PreconditionError

if TYPE_CHECKING:  # each builder imports its class at call time
    from .functions import ModelFunction
    from .sequences import WeightSequence
    from .weights import WeightFunction


def label_real(v: float) -> str:
    """v for a label: its ``:g`` form when that reads back as v, else repr,
    so a label names its weight exactly."""
    text = f"{v:g}"
    return text if float(text) == v else repr(v)


def parse_real(text, spec: str) -> float:
    """A finite float parameter of a mini-language ``spec``."""
    try:
        v = float(text)
    except ValueError:
        raise PreconditionError(f"bad number {text!r} in {spec!r}") from None
    if not math.isfinite(v):
        raise PreconditionError(f"non-finite parameter {text!r} in {spec!r}")
    return v


def read_table(path: str, headers: tuple) -> list:
    """Pairs of finite floats from the first two cells of each CSV row,
    skipping blank rows, '#' comments and rows whose first cell is a header."""
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")
                    and r[0].strip().lower() not in headers]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise PreconditionError(f"cannot read table {path!r}: {exc}") from None
    if any(len(r) < 2 for r in rows):
        raise PreconditionError(f"every row of {path!r} needs two cells")
    return [(parse_real(r[0], path), parse_real(r[1], path)) for r in rows]


def parse_keyed_real(spec: str, key: str) -> float:
    """The parameter of a one-parameter spec ``head:key=<real>``."""
    head, _, rest = spec.partition(":")
    name, _, val = rest.partition("=")
    if name != key:
        raise PreconditionError(f"{head} spec needs {key}=<real>, got {spec!r}")
    return parse_real(val, spec)


# -- weights ----------------------------------------------------------------

def gevrey_weight(d: float) -> WeightFunction:
    if d <= 0:
        raise PreconditionError("gevrey weight requires d > 0")
    from .weights import WeightFunction
    return WeightFunction("gevrey", f"gevrey:d={label_real(d)}", d=d)


def logpow_weight(s: float) -> WeightFunction:
    if s <= 1:
        raise PreconditionError("logpow weight requires s > 1")
    from .weights import WeightFunction
    return WeightFunction("logpow", f"logpow:s={label_real(s)}", s=s)


def table_weight(ts, vals, label: str = "table") -> WeightFunction:
    """A tabulated weight whose t-column is positive and strictly increasing
    in log t and whose omega column is nondecreasing.  The log of each knot
    is taken once, here."""
    try:
        ts, vals = tuple(map(float, ts)), tuple(map(float, vals))
    except (TypeError, ValueError):
        ts = vals = ()
    if len(ts) != len(vals) or len(ts) < 2:
        raise PreconditionError("table must be two equal 1-d columns")
    if any(t <= 0 for t in ts):
        raise PreconditionError("table t values must be positive")
    log_ts = tuple(map(math.log, ts))
    gaps = [b - a for a, b in zip(log_ts, log_ts[1:])]
    # the two closest knots in log t; a NaN gap counts as the closest
    k = min(range(len(gaps)), key=lambda i: (not math.isnan(gaps[i]), gaps[i]))
    if not log_ts[k] < log_ts[k + 1]:
        raise PreconditionError(
            f"table t-column must be strictly increasing in log t: t = "
            f"{ts[k]!r} is followed by t = {ts[k + 1]!r}")
    if any(b < a for a, b in zip(vals, vals[1:])):
        raise PreconditionError("table omega values must be nondecreasing")
    if vals[-1] - vals[0] == math.inf:  # the slopes and the tail would be inf
        raise PreconditionError(
            f"table omega values span {vals[0]!r} to {vals[-1]!r}, which "
            "overflows a float")
    from .weights import WeightFunction
    return WeightFunction("tabulated", label, knots=ts, log_knots=log_ts, values=vals)


def parse_weight(spec: str) -> WeightFunction:
    """Parse the weight mini-language: gevrey:d=2 | logpow:s=2 | table:file.csv"""
    head, _, rest = spec.partition(":")
    if head == "gevrey":
        return gevrey_weight(parse_keyed_real(spec, "d"))
    if head == "logpow":
        return logpow_weight(parse_keyed_real(spec, "s"))
    if head == "table":
        rows = read_table(rest, ("t", "x"))
        return table_weight([t for t, _ in rows], [v for _, v in rows], f"table:{rest}")
    raise PreconditionError(f"unknown weight spec {spec!r}")


# -- weight sequences -------------------------------------------------------

def gevrey_sequence(d: float) -> WeightSequence:
    """M_p = (p!)^d, from its quotients log m_p = d log p, d > 0."""
    if d <= 0:
        raise PreconditionError("gevrey sequence requires d > 0")
    from .sequences import WeightSequence
    return WeightSequence(lambda p: d * math.log(p), f"gevreyseq:d={label_real(d)}")


def table_sequence(log_Ms, label: str = "table") -> WeightSequence:
    """The table log M_0, ..., log M_P, with log M_0 = 0 and finite steps."""
    log_Ms = tuple(float(v) for v in log_Ms)
    if not log_Ms or abs(log_Ms[0]) > 1e-12:
        raise PreconditionError("table must start with log M_0 = 0")
    big = [p for p in range(1, len(log_Ms)) if not math.isfinite(log_Ms[p] - log_Ms[p - 1])]
    if big:  # the steps are the quotients log m_p
        raise PreconditionError(f"table step log M_p - log M_(p-1) at p={big[0]} overflows a float")
    from .sequences import _table
    return _table(log_Ms, label)


def parse_sequence(spec: str) -> WeightSequence:
    """Sequence mini-language: gevreyseq:d=2 | table:file.csv"""
    head, _, rest = spec.partition(":")
    if head == "gevreyseq":
        return gevrey_sequence(parse_keyed_real(spec, "d"))
    if head == "table":
        rows = sorted(read_table(rest, ("p",)))
        if [p for p, _ in rows] != list(range(len(rows))):
            raise PreconditionError("sequence table must cover p = 0..P contiguously")
        return table_sequence([v for _, v in rows], f"table:{rest}")
    raise PreconditionError(f"unknown sequence spec {spec!r}")


# -- model functions --------------------------------------------------------

def parse_function(spec: str) -> ModelFunction:
    """Function mini-language, e.g. gaussian | poly:1,0,2 | pow1px2:a=1.5:
    every part of the spec parsed, then its family's constructor run, which
    checks the parameters' ranges."""
    head, colon, rest = spec.partition(":")
    if head in ("gaussian", "expsqr", "sqrt1px2"):
        if colon:
            raise PreconditionError(f"{head} spec takes no parameters, got {spec!r}")
        args = ()
    elif head == "poly":
        try:
            args = (tuple(Fraction(c) for c in rest.split(",")),)
        except (ValueError, ZeroDivisionError):
            raise PreconditionError(
                f"poly spec needs rational coefficients, got {spec!r}") from None
    elif head == "pow1px2":
        args = (parse_keyed_real(spec, "a"),)
    elif head in ("monbump", "gbump"):
        keys = ("n", "a", "r", "g") if head == "monbump" else ("g", "r")
        kv = {}
        for item in rest.split(",") if colon else ():
            key, _, val = item.partition("=")
            if key not in keys or key in kv:  # unknown, repeated or empty
                raise PreconditionError(f"{head} spec takes {', '.join(keys)}, "
                                        f"each at most once, got {spec!r}")
            kv[key] = val
        r = parse_real(kv.get("r", 1.0), spec)
        g = parse_real(kv.get("g", 1.0), spec)
        if head == "gbump":
            args = (g, r)
        else:
            try:
                args = (int(kv["n"]), Fraction(kv["a"]), r, g)
            except (KeyError, ValueError, ZeroDivisionError):
                raise PreconditionError(
                    f"monbump spec needs n=<int>,a=<rational>, got {spec!r}") from None
    else:
        raise PreconditionError(f"unknown function spec {spec!r}")
    from .functions import FAMILIES
    return FAMILIES[head](*args)
