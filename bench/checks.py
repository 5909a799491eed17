"""Output checks that hold on any seed.

* canonical form and digest of every task result, for byte-identity across
  the passes of a run;
* comparison with the values recorded at the benchmark's defining commit
  (``expected.json``): floats within ``REL_TOL``, witnesses, integers,
  booleans and strings exactly;
* independent oracles drawn from the seed: exact-``Fraction`` composition
  against the log-domain path, closed-form against numeric-sup Gevrey
  conjugates, and the partition enumeration against Euler's recurrence.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from fractions import Fraction

# Relative tolerance for recorded float values: loose enough for a change of
# summation order (the Bell-polynomial composition agrees with the partition
# path to ~2e-11 relative), tight enough to catch any changed formula.
REL_TOL = 1e-9
# Closed-form vs numeric-sup conjugate agreement, as in the negative chain.
CONJ_TOL = 1e-9
# Exact vs log-domain composition of positive polynomials (no cancellation).
COMPOSE_TOL = 1e-12


def canon(obj):
    """A JSON-ready, deterministic form of a task result."""
    if hasattr(obj, "summary_dict"):  # ChainReport
        d = obj.summary_dict()
        d["rows"] = obj.rows
        return canon(d)
    if hasattr(obj, "to_dict"):
        return canon(obj.to_dict())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return canon(dataclasses.asdict(obj))
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)) or getattr(obj, "ndim", 0) > 0:
        return [canon(v) for v in obj]
    if isinstance(obj, float) or hasattr(obj, "item"):  # incl. numpy scalars
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def encode(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def digest(result) -> str:
    """sha256 of a task result; CLI results hash their exact stdout."""
    if isinstance(result, dict) and "stdout" in result:
        data = f"{result['exit']}\n{result['stdout']}".encode()
    else:
        data = encode(canon(result))
    return hashlib.sha256(data).hexdigest()


def summarize(result):
    """The recorded form: CLI stdout parsed, jet tables reduced to sums."""
    if isinstance(result, dict) and "stdout" in result:
        return {"exit": result["exit"],
                "stdout": canon(json.loads(result["stdout"]))}
    c = canon(result)
    if isinstance(c, list) and c and all(isinstance(r, list) for r in c):
        finite = [[v for v in row if isinstance(v, float)] for row in c]
        width = max(len(row) for row in c)
        return {"table_rows": len(c), "table_cols": width,
                "row_sum": [math.fsum(r) for r in finite],
                "col_sum": [math.fsum(row[j] for row in c
                                      if j < len(row)
                                      and isinstance(row[j], float))
                            for j in range(width)],
                "non_finite": sum(len(r) - len(f)
                                  for r, f in zip(c, finite))}
    return c


def compare(expected, actual, path="", exact=False) -> list:
    """Differences between a recorded and a fresh summary, as messages."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(set(expected) ^ set(actual))}"]
        out = []
        for k in sorted(expected):
            out += compare(expected[k], actual[k], f"{path}.{k}",
                           exact or k == "witness")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += compare(e, a, f"{path}[{i}]", exact)
        return out
    if (isinstance(expected, float) and isinstance(actual, float)
            and not exact):
        if abs(actual - expected) <= REL_TOL * max(1.0, abs(expected)):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: {actual!r} != {expected!r}"]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_checks(seed: int) -> list:
    """(name, ok, detail) for each independent oracle, inputs from ``seed``."""
    from gsbench.fdb import compose_jet, enumerate_partitions, partition_count
    from gsbench.functions import Polynomial
    from gsbench.weights import ConjugateEvaluator, WeightFunction

    rng = random.Random(f"oracles-{seed}")
    results = []

    # exact vs log composition: positive coefficients at a positive rational
    # point, so every Faa di Bruno term is positive and nothing cancels
    J = 12
    worst, bad = 0.0, []
    for _ in range(3):
        h = Polynomial([rng.randint(1, 9) for _ in range(4)])
        psi = Polynomial([rng.randint(1, 9) for _ in range(4)])
        x = Fraction(rng.randint(1, 20), rng.randint(1, 20))
        psi_jet = psi.jet(x, J)
        h_jet = h.jet(psi_jet.values[0], J)
        exact = compose_jet(h_jet, psi_jet, J)
        logv = compose_jet(h_jet.to_log(), psi_jet.to_log(), J)
        for j, (e, lg) in enumerate(zip(exact.values, logv.values)):
            if e == 0:
                if not lg.is_zero():
                    bad.append(f"{h.label} o {psi.label} at {x}, j={j}")
                continue
            want = math.log(e.numerator) - math.log(e.denominator)
            err = abs(lg.log_abs - want) / max(1.0, abs(want))
            worst = max(worst, err)
            if lg.sign != 1 or err > COMPOSE_TOL:
                bad.append(f"{h.label} o {psi.label} at {x}, j={j}")
    results.append(("exact-vs-log-compose", not bad,
                    {"max_rel_err": worst, "failures": bad[:5]}))

    # closed-form vs numeric-sup Gevrey conjugate
    d = rng.uniform(1.5, 4.0)
    closed = ConjugateEvaluator(WeightFunction.gevrey(d))
    numeric = ConjugateEvaluator(WeightFunction.gevrey(d),
                                 method="numeric-sup")
    worst, bad = 0.0, []
    for s in [rng.uniform(0.0, 1.0 / d)] + [rng.uniform(0.05, 60.0)
                                            for _ in range(15)]:
        c, n = closed(s), numeric(s)
        err = abs(n - c) / max(1.0, abs(c))
        worst = max(worst, err)
        if err > CONJ_TOL:
            bad.append(s)
    results.append(("gevrey-conjugate-closed-vs-numeric", not bad,
                    {"d": d, "max_rel_err": worst, "failures": bad[:5]}))

    # partition enumeration vs Euler's pentagonal recurrence
    js = sorted(rng.sample(range(1, 31), 5))
    bad = [j for j in js if len(enumerate_partitions(j)) != partition_count(j)]
    results.append(("partition-count", not bad, {"j": js, "failures": bad}))
    return results
