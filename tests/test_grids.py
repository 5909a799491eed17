"""Grid points against numpy's linspace/logspace, bit for bit or to the ulp."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gsbench.errors import PreconditionError
from gsbench.grids import DEFAULT_T_GRID, DEFAULT_X_GRID, GridSpec

_finite = st.floats(allow_nan=False, allow_infinity=False)

# the log grids the commands, the scripts and the benchmark use
REPO_LOG_GRIDS = [DEFAULT_T_GRID, GridSpec("log", 1e-3, 1e3, 20000),
                  GridSpec("log", 1.0, 20.0, 200), GridSpec("log", 1e-2, 1e6, 400),
                  *(GridSpec("log", 1e-3, hi, 20000) for hi in (1250.0, 1500.0, 1750.0)),
                  *(GridSpec("log", 1.0, hi, 200) for hi in (21.0, 22.0, 23.0))]


def libm_log_points(g):
    """numpy's linspace formula on math.log10 of the ends, raised by libm."""
    lo, hi = math.log10(g.lo), math.log10(g.hi)
    step = (hi - lo) / (g.n - 1)
    return [10.0 ** (i * step + lo) for i in range(g.n - 1)] + [10.0 ** hi]


def ulps_apart(a, b) -> np.ndarray:
    a, b = np.asarray(a), np.asarray(b)
    return np.abs(a - b) / np.spacing(np.minimum(a, b))


def increasing(pts) -> bool:
    return all(a < b for a, b in zip(pts, pts[1:]))


def assert_refused(points):
    with pytest.raises(PreconditionError, match="do not strictly increase"):
        points()


@settings(max_examples=400, deadline=None)
@given(_finite, _finite, st.integers(2, 3000))
@example(0.0, 5e-324, 3)
def test_lin_points_equal_np_linspace(lo, hi, n):
    lo, hi = min(lo, hi), max(lo, hi)
    assume(hi > lo and math.isfinite(hi - lo))
    g = GridSpec("lin", lo, hi, n)
    with np.errstate(over="ignore"):  # linspace's i * step at i = n - 1
        ref = np.linspace(lo, hi, n)
    if not increasing(ref.tolist()):  # the span has fewer floats than n
        return assert_refused(g.points)
    pts = g.points()
    assert all(type(x) is float for x in pts)
    assert np.array(pts).tobytes() == ref.tobytes()


@pytest.mark.parametrize("lo, hi, n", [(0.0, 1e-322, 7), (-1.0, -0.0, 4)])
def test_lin_points_on_subnormal_spans_equal_np_linspace(lo, hi, n):
    pts = GridSpec("lin", lo, hi, n).points()
    assert np.array(pts).tobytes() == np.linspace(lo, hi, n).tobytes()


# [0, 0, 5e-324]; five points on three floats; 6 distinct of 10; [1e300, 1e300]
@pytest.mark.parametrize("spec", [
    "lin:0,5e-324,3", "lin:-5e-324,5e-324,5", "lin:1,1.000000000000001,10",
    "log:9.999999999999346e299,9.999999999999348e299,2"])
def test_grid_whose_points_do_not_strictly_increase_is_refused(spec):
    assert_refused(GridSpec.parse(spec).points)


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-300, 1e300), st.floats(1e-300, 1e300), st.integers(2, 2000))
@example(9.999999999999346e299, 9.999999999999348e299, 2)
def test_log_points_are_libm_powers_near_np_logspace(lo, hi, n):
    lo, hi = min(lo, hi), max(lo, hi)
    assume(hi > lo)
    g = GridSpec("log", lo, hi, n)
    want = libm_log_points(g)
    if not increasing(want):
        return assert_refused(g.points)
    pts = g.points()
    assert [x.hex() for x in pts] == [x.hex() for x in want]
    # on the same exponents, numpy's power and libm's pow each round once
    ref = np.logspace(math.log10(lo), math.log10(hi), n)
    assert ulps_apart(pts, ref).max() <= 2


@pytest.mark.parametrize("g", REPO_LOG_GRIDS, ids=GridSpec.spec_string)
def test_repository_log_grids_stay_within_an_ulp_of_np_logspace(g):
    # np.log10 and math.log10 agree on these ends, so only the power moves
    assert (np.log10(g.lo), np.log10(g.hi)) == (math.log10(g.lo), math.log10(g.hi))
    pts = g.points()
    assert pts == libm_log_points(g)
    assert ulps_apart(pts, np.logspace(np.log10(g.lo), np.log10(g.hi), g.n)).max() <= 1


# the lin grids the commands and the benchmark use; none starts at 0
REPO_LIN_GRIDS = [DEFAULT_X_GRID, GridSpec("lin", 0.05, 6.0, 120),
                  *(GridSpec("lin", 0.05, 8.0 + 0.25 * k, 160) for k in range(1, 4)),
                  *(GridSpec("lin", 0.05, 6.0 + 0.25 * k, 120) for k in range(1, 4)),
                  *(GridSpec("lin", 0.05, 5.0 + 0.25 * k, 100) for k in range(4)),
                  *(GridSpec("lin", 0.1 + 0.02 * k, 2.0 + 0.1 * k, 10) for k in range(4)),
                  *(GridSpec("lin", 0.5 + 0.05 * k, 1.5 + 0.1 * k, 2) for k in range(4))]


def formula_extension(g, pad):
    """pad points past hi by numpy's linspace formula at i = n .. n + pad - 1,
    on math.log10 of the ends raised by libm for a log grid."""
    log = g.kind == "log"
    lo, hi = (math.log10(g.lo), math.log10(g.hi)) if log else (g.lo, g.hi)
    step = (hi - lo) / (g.n - 1)
    return [10.0 ** (i * step + lo) if log else i * step + lo
            for i in range(g.n, g.n + pad)]


@pytest.mark.parametrize("g", [*REPO_LIN_GRIDS, *REPO_LOG_GRIDS],
                         ids=GridSpec.spec_string)
def test_symmetric_points_mirror_points(g):
    # the plain mirror, bit for bit, on each grid and on its extension for
    # the stability checks
    xs, pad = g.extended_symmetric_points()
    p = g.points()
    for got, pts in ((g.symmetric_points(), p), (xs, p + formula_extension(g, pad))):
        assert np.asarray(got).tolist() == [-x for x in pts[::-1]] + [0.0] + pts


@pytest.mark.parametrize("g", [*REPO_LIN_GRIDS, *REPO_LOG_GRIDS,
                               GridSpec("lin", 0.0, 4.0, 41)],
                         ids=GridSpec.spec_string)
def test_extended_grid_holds_the_grid_as_its_middle_block(g):
    xs, pad = g.extended_symmetric_points()
    sym = g.symmetric_points()
    assert len(xs) == len(sym) + 2 * pad
    assert xs[pad:-pad].tobytes() == sym.tobytes()
    # the box grows about 1.25-fold, by points at the grid's own step
    top, want = xs[-1], 1.25 * g.hi
    if g.kind == "lin":
        assert abs(top - want) <= (g.hi - g.lo) / (g.n - 1)
    else:
        assert abs(math.log(top / want)) <= math.log(g.hi / g.lo) / (g.n - 1)


def test_extension_of_a_subnormal_span_is_refused():
    # its points [0, 0, 5e-324] repeat: refused before a point past hi is
    # made, where a step that rounds to 0 asks for ~1e15 of them
    g = GridSpec("lin", 0.0, 5e-324, 3)
    assert_refused(g.symmetric_points)
    assert_refused(g.extended_symmetric_points)


def test_extension_of_a_log_grid_with_a_zero_natural_log_step():
    # its ends share one natural log but not one log10: two points, step 0
    # in ln, and a box of one point more on each side
    g = GridSpec.parse("log:8.959179882484833,8.959179882484834,2")
    xs, pad = g.extended_symmetric_points()
    assert pad == 1 and xs[1:-1].tobytes() == g.symmetric_points().tobytes()


@pytest.mark.parametrize("spec, want", [
    ("lin:0,1,3", [-1.0, -0.5, 0.0, 0.5, 1.0]),
    ("lin:0,2,2", [-2.0, 0.0, 2.0]),
    ("lin:-0,4,5", [-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0])])
def test_symmetric_points_of_a_grid_from_0_hold_0_once(spec, want):
    xs = GridSpec.parse(spec).symmetric_points().tolist()
    assert [x.hex() for x in xs] == [x.hex() for x in want]


@pytest.mark.parametrize("spec", ["log:1,1.7976931348623157e308,10",
                                  "log:1e-5,1.7976931348623e308,3"])
def test_log_grid_whose_top_point_overflows_is_rejected_at_parse(spec):
    # 10 ** math.log10(hi) raises OverflowError for these his
    with pytest.raises(PreconditionError, match="overflows a float"):
        GridSpec.parse(spec)


def test_log_grid_near_the_float_max_keeps_a_finite_top():
    g = GridSpec.parse("log:1,1.7e308,3")
    assert g.points()[-1] == 10.0 ** math.log10(1.7e308) < math.inf


def symmetric_points_or_refusal(points):
    try:
        return np.asarray(points()).tobytes()
    except PreconditionError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["lin", "log"]), st.floats(1e-300, 1e300),
       st.integers(0, 60) | st.floats(1e-15, 1e3), st.integers(2, 300))
@example("log", 1.0, 1, 5)  # exponents increase, points repeat
@example("log", 1.2589254117941673, 1, 3)
@example("log", 1e-299, 1e3, 50)  # the first exponent at -299
def test_symmetric_points_at_equals_symmetric_points(kind, lo, span, n):
    # span: ulps of lo past lo, or a factor of 1 + span; the certificate
    # skips building the points only where they strictly increase
    hi = lo
    if isinstance(span, int):
        for _ in range(span):
            hi = math.nextafter(hi, math.inf)
    else:
        hi = lo * (1 + span)
    assume(math.isfinite(hi) and hi > lo and hi < 1e300)
    g = GridSpec(kind, lo, hi, n)

    def made():
        count, at = g.symmetric_points_at()
        return at(np.arange(count))
    assert symmetric_points_or_refusal(made) == symmetric_points_or_refusal(
        g.symmetric_points)


def test_narrow_log_grid_is_refused_by_the_lazy_points():
    # exponents 0 < e_1 < ... strictly increase, but 10^e repeats a float
    g = GridSpec.parse("log:1,1.0000000000000004,5")
    e = [i * (math.log10(g.hi) / 4) for i in range(4)]
    assert increasing(e)
    assert_refused(g.points)
    assert_refused(g.symmetric_points_at)
