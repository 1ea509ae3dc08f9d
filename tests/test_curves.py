"""Curve location, counterexample scanning and rasters."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from skewtent import (
    BracketError,
    ConvergenceError,
    KneadingClassField,
    TentParams,
    ThetaSignField,
    ThetaSpec,
    ThetaValueField,
    counterexample_scan,
    kneading_bisect_beta,
    kneading_prefix,
    parse_seq,
    raster,
    theta_eval,
    thex_spec,
    trace_isentrope,
    write_csv,
    write_pgm,
)
from skewtent import curves
from skewtent.curves import THEX_ALPHA0, trace_csv
from skewtent.theta import exceptional_spec


# ------------------------------------------------------------ bisection


def test_bisect_rlc_closed_loop():
    alpha = 2 / 3 - 0.05
    pt = kneading_bisect_beta(parse_seq("RLC"), alpha)
    assert pt.kneading_ok
    assert abs(pt.residual_theta) <= 1e-8
    # the located point satisfies the branch composition equation
    assert pt.beta ** 2 * (1 - pt.beta) == pytest.approx(alpha ** 2 * (1 - alpha), abs=1e-11)


def test_bisect_rl_infinity_boundary():
    pt = kneading_bisect_beta(parse_seq("R(L)"), 0.4)
    assert pt.beta == 1.0
    assert pt.kneading_ok
    assert math.isnan(pt.residual_theta)


def test_bisect_no_bracket_past_diagonal_meet():
    # RLC's curve ends at the diagonal at 2/3; to the right of it the whole
    # vertical sits above the target
    with pytest.raises(BracketError):
        kneading_bisect_beta(parse_seq("RLC"), 0.71)


def test_bisect_rllrc_approaches_diagonal_meet():
    b0 = 0.5 + math.sqrt(5) / 10
    for da in (0.01, 0.004):
        pt = kneading_bisect_beta(parse_seq("RLLRC"), b0 - da)
        assert abs(pt.beta - b0) <= 10 * da


@pytest.mark.parametrize("alpha", [0.55, 0.6])
@pytest.mark.parametrize("tol", [0.0, -1.0, 1e-300])
def test_bisect_ends_at_adjacent_floats(alpha, tol):
    # a bracket of adjacent floats cannot shrink, so a tolerance below their
    # spacing ends the bisection there; at 0.55 no probe hits the curve
    # exactly, so only that rule ends it; the trace's tol reaches the same
    # bisection as kneading_bisect_beta, which keeps 1e-12
    pt = trace_isentrope(parse_seq("RLC"), [alpha], tol=tol)[0]
    assert pt.kneading_ok
    assert pt.beta == pytest.approx(kneading_bisect_beta(parse_seq("RLC"), alpha).beta, abs=1e-11)


def test_trace_refuses_a_nan_tol():
    # every bisection test against NaN fails, so the trace used to return
    # the midpoint of its first bracket (beta 0.8000000005 at alpha 0.6)
    with pytest.raises(ValueError, match="tol must not be NaN"):
        trace_isentrope(parse_seq("RLC"), [0.6], tol=math.nan)


def test_bisect_bracket_sides():
    # comparison at the bracket bottom is Less and at the top Greater
    from skewtent import compare_prefix

    m = parse_seq("RLLRC")
    alpha = 0.68
    lo = max(1 - alpha, alpha, 0.5) + 1e-9
    c_lo = compare_prefix(kneading_prefix(TentParams(alpha, lo), 64), m)
    c_hi = compare_prefix(kneading_prefix(TentParams(alpha, 1.0), 64), m)
    assert c_lo < 0 < c_hi


BAD_ALPHAS = [float("nan"), 0, 1, -0.1, 1.5]


def _bisect_refusal(word, alpha):
    """Type and text of the refusal of kneading_bisect_beta(word, alpha) for
    an alpha outside (0, 1): the bracket test comes first, then the (alpha,
    beta) check at the bracket bottom; a word without gap data is refused
    before either, and RL^inf checks (alpha, 1)."""
    if word == "RLR(L)":
        return ValueError, "sequence ends in L^inf, gaps not representable"
    if word == "R(L)" or math.isnan(alpha):
        return ValueError, f"alpha must lie in (0,1), got {alpha}"
    return BracketError, f"empty beta range at alpha={alpha}"


@pytest.mark.parametrize("word", ["RLC", "RLLRC", "RLL(RL)", "R(L)", "RLR(L)"])
@pytest.mark.parametrize("alpha", BAD_ALPHAS)
def test_bisect_refuses_alpha_outside_unit_interval(word, alpha):
    kind, text = _bisect_refusal(word, alpha)
    with pytest.raises(Exception) as exc:
        kneading_bisect_beta(parse_seq(word), alpha)
    assert (type(exc.value), str(exc.value)) == (kind, text)


@pytest.mark.parametrize("word, beta", [("RLC", 0.7291502622131759), ("RLLRC", 0.8082685109491896),
                                        ("RLL(RL)", 0.787247517388832), ("R(L)", 1.0),
                                        ("RLRC", None), ("RLR(L)", None)])
def test_trace_fails_exactly_at_refused_alphas(word, beta):
    pts = trace_isentrope(parse_seq(word), BAD_ALPHAS + [0.6])
    assert len(pts) == len(BAD_ALPHAS) + 1
    assert all(math.isnan(p.beta) and math.isnan(p.residual_theta) and not p.kneading_ok
               for p in pts[:-1])
    if beta is None:
        assert math.isnan(pts[-1].beta) and not pts[-1].kneading_ok
    else:
        assert pts[-1].beta == beta and pts[-1].kneading_ok


def test_trace_rl_infinity_gives_boundary_points():
    pts = trace_isentrope(parse_seq("R(L)"), [0.3, 0.5, 0.7])
    assert [(p.alpha, p.beta, p.kneading_ok) for p in pts] == [(0.3, 1.0, True), (0.5, 1.0, True),
                                                               (0.7, 1.0, True)]
    assert all(math.isnan(p.residual_theta) for p in pts)


def test_itinerary_below_curve_is_minus_variant():
    from skewtent import compare_prefix, minus_variant

    m = parse_seq("RLC")
    pt = kneading_bisect_beta(m, 0.6)
    below = kneading_prefix(TentParams(pt.alpha, pt.beta - 1e-9), 30)
    assert compare_prefix(below, minus_variant(m)) == 0


# ------------------------------------------------------------ tracing


def test_trace_rlc():
    alphas = [0.55 + 0.025 * i for i in range(5)]
    pts = trace_isentrope(parse_seq("RLC"), alphas)
    assert len(pts) == 5
    assert all(p.kneading_ok for p in pts)
    assert max(abs(p.residual_theta) for p in pts) <= 1e-8
    # curve is decreasing toward the diagonal meet
    betas = [p.beta for p in pts]
    assert betas == sorted(betas, reverse=True)


def test_trace_reports_failures_without_aborting():
    # RLRC never occurs as a kneading sequence inside U, so every node fails
    pts = trace_isentrope(parse_seq("RLRC"), [0.52, 0.6])
    assert len(pts) == 2
    assert all(math.isnan(p.beta) and not p.kneading_ok for p in pts)


def test_trace_empty_grid():
    assert trace_isentrope(parse_seq("RLC"), []) == []


def test_trace_rllrc_endpoint_slope():
    b0 = 0.5 + math.sqrt(5) / 10
    alphas = [b0 - 0.012, b0 - 0.006]
    pts = trace_isentrope(parse_seq("RLLRC"), alphas)
    assert max(abs(p.residual_theta) for p in pts) <= 1e-8
    slope = (pts[1].beta - pts[0].beta) / (alphas[1] - alphas[0])
    assert slope == pytest.approx(-0.80901699437495, abs=0.05)


def test_trace_csv_format():
    pts = trace_isentrope(parse_seq("RLC"), [0.6])
    text = trace_csv(pts)
    lines = text.strip().split("\n")
    assert lines[0] == "alpha,beta,value"
    assert len(lines) == 2
    a, b, v = lines[1].split(",")
    assert float(a) == 0.6


def test_entropy_constant_along_isentrope():
    from skewtent import entropy_lap

    pts = trace_isentrope(parse_seq("RLC"), [0.55 + 0.025 * i for i in range(5)])
    values = [entropy_lap(TentParams(p.alpha, p.beta), 18) for p in pts]
    assert max(values) - min(values) <= 0.03


# ------------------------------------------------------------ counterexample scan


def test_thex_scan_structure():
    roots = counterexample_scan(thex_spec(), THEX_ALPHA0, 0.535, 0.995)
    assert len(roots) >= 2
    assert any(r.relation == "less" for r in roots)
    assert all(r.relation != "greater" for r in roots)
    for r in roots:
        assert abs(theta_eval(thex_spec(), THEX_ALPHA0, r.beta).value) <= 1e-10


def test_rlc_vertical_scan_single_equal_root():
    spec = ThetaSpec.from_seq(parse_seq("RLC"))
    roots = counterexample_scan(spec, 0.6, 0.62, 0.98)
    assert len(roots) == 1
    assert roots[0].relation == "equal"
    pt = kneading_bisect_beta(parse_seq("RLC"), 0.6)
    assert roots[0].beta == pytest.approx(pt.beta, abs=1e-9)


def test_label_text_is_the_reference_sequence_prefix():
    # built from the gaps with each L-run capped at the depth, or read off
    # the source, it is the first 48 symbols of the sequence spelled out
    for spec in [thex_spec(), exceptional_spec(), ThetaSpec.from_seq(parse_seq("RLLRC")),
                 ThetaSpec.from_seq(parse_seq("RLL(RL)")), ThetaSpec.from_text("gaps=60,3;period=0,59"),
                 ThetaSpec.from_text("gaps=1;period=0,1"), ThetaSpec.from_text("gaps=47;tail=R")]:
        assert curves._label_text(spec) == spec.to_kneading().text(curves._LABEL_DEPTH)


LARGE_GAP_SCAN = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))  # this process only
from skewtent import ThetaSpec, counterexample_scan
roots = counterexample_scan(ThetaSpec.from_text(sys.argv[1]), 0.6, 0.9, 1.0, samples=50)
print(json.dumps([[r.beta, r.relation] for r in roots]))
"""


def test_scan_labels_read_48_symbols_of_a_large_gap():
    # spelled out, a gap of 10^9 is a 1 GB sequence; the labels read only
    # its first 48 symbols, so the scan runs in 512 MB of address space
    pytest.importorskip("resource")
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", LARGE_GAP_SCAN, "gaps=1000000000;tail=R"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # Theta is 1 - beta plus terms that underflow to 0, so its one zero is
    # beta = 1, where K(0.6, 1) = R L^inf agrees with R L^gap through the
    # label depth
    assert json.loads(done.stdout) == [[1.0, "equal"]]


def test_scan_requires_sign_change():
    spec = ThetaSpec.from_seq(parse_seq("RLC"))
    with pytest.raises(ValueError, match="sign change"):
        counterexample_scan(spec, 0.6, 0.9, 0.95)


@pytest.mark.parametrize("alpha0, lo, hi", [
    (THEX_ALPHA0, 0.0, 0.9),  # beta = 0 used to end in ZeroDivisionError
    (THEX_ALPHA0, -0.5, 0.9),
    (THEX_ALPHA0, 0.6, 1.5),
    (0.0, 0.535, 0.995),
    (1.0, 0.535, 0.995),
    (-0.2, 0.535, 0.995),
    (float("nan"), 0.535, 0.995),
])
def test_scan_refuses_points_outside_the_parameter_square(monkeypatch, alpha0, lo, hi):
    def evaluated(*args):
        raise AssertionError("the scan evaluated Theta before refusing")

    monkeypatch.setattr(curves, "_residual", evaluated)
    with pytest.raises(ValueError) as exc:
        counterexample_scan(thex_spec(), alpha0, lo, hi)
    assert str(exc.value) == ("the scan needs alpha0 in (0,1) and beta in (0,1], "
                              f"got alpha0={alpha0} and beta range [{lo}, {hi}]")


@pytest.mark.parametrize("samples", [0, -3])
def test_scan_refuses_fewer_than_one_sample(monkeypatch, samples):
    # 0 used to end in ZeroDivisionError, a negative count in the
    # misleading "no sign change of Theta found"
    def evaluated(*args):
        raise AssertionError("the scan evaluated Theta before refusing")

    monkeypatch.setattr(curves, "_residual", evaluated)
    with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
        counterexample_scan(thex_spec(), THEX_ALPHA0, 0.535, 0.995, samples=samples)


def test_scan_order_check_comes_first():
    with pytest.raises(ValueError, match="need beta_lo < beta_hi, got 1.5 and -0.5"):
        counterexample_scan(thex_spec(), 2.0, 1.5, -0.5)


def _theta_or_nan(spec, a, b):
    try:
        return theta_eval(spec, a, b).value
    except ConvergenceError:
        return math.nan


@pytest.mark.parametrize("alpha0, lo, hi", [(THEX_ALPHA0, 0.535, 0.995), (0.52, 0.3, 1.0)])
def test_scan_residuals_are_theta_eval_values(monkeypatch, alpha0, lo, hi):
    # every grid and bisection residual the scan makes has theta_eval's
    # value bits, and is NaN exactly where theta_eval refuses; a grid node
    # it skips has the sign of the evaluated node below it, proven there:
    # theta_eval admits it with a value of that sign beyond its error bound
    seen = {}
    residual = curves._residual

    def recording(spec, a, t):
        seen[t] = residual(spec, a, t)
        return seen[t]

    monkeypatch.setattr(curves, "_residual", recording)
    spec = thex_spec()
    assert counterexample_scan(spec, alpha0, lo, hi)
    for t, v in seen.items():
        assert v.hex() == _theta_or_nan(spec, alpha0, t).hex()
    if alpha0 == 0.52:  # below beta = 1 - alpha0 the ratio guard refuses
        assert any(math.isnan(v) for v in seen.values())
    skipped = 0
    for t in [lo + (hi - lo) * i / 400 for i in range(400)] + [hi]:
        if t in seen:
            proven = seen[t]
            continue
        skipped += 1
        ref = theta_eval(spec, alpha0, t)
        assert ref.value * proven > 0 and abs(ref.value) > ref.error_bound
    assert skipped > 200


@pytest.mark.parametrize("alpha0, lo, hi, samples", [
    (THEX_ALPHA0, 0.535, 0.995, 400),  # the last node used to be 0.9950000000000001
    (THEX_ALPHA0, 0.09278634793595067, 1.0, 188),  # and here 1.0000000000000002, outside (0, 1]
])
def test_scan_grid_ends_at_beta_hi(monkeypatch, alpha0, lo, hi, samples):
    seen = []
    residual = curves._residual

    def recording(spec, a, t):
        seen.append(t)
        return residual(spec, a, t)

    monkeypatch.setattr(curves, "_residual", recording)
    assert counterexample_scan(thex_spec(), alpha0, lo, hi, samples)
    assert min(seen) == lo and max(seen) <= hi


@pytest.mark.parametrize("word", ["RLC", "RLLRC"])
def test_trace_residuals_are_theta_eval_values(word):
    m = parse_seq(word)
    spec = ThetaSpec.from_seq(m)
    points = trace_isentrope(m, [0.4 + 0.3 * i / 40 for i in range(41)])
    assert sum(math.isfinite(p.beta) for p in points) > 10
    for p in points:
        if math.isfinite(p.beta):
            assert p.residual_theta.hex() == _theta_or_nan(spec, p.alpha, p.beta).hex()
        else:
            assert math.isnan(p.residual_theta)


def test_theta_nonvanishing_above_curve():
    # points with kneading above the spec's sequence keep Theta away from 0
    rng = random.Random(31)
    checked = 0
    while checked < 30:
        a = rng.uniform(0.45, 0.7)
        lo = max(1 - a, a, 0.5) + 0.02
        if lo > 0.9:
            continue
        b = rng.uniform(lo, 0.9)
        bp = rng.uniform(b + 0.05, 0.999)
        ks = kneading_prefix(TentParams(a, b), 48)
        if "C" in ks:
            continue
        spec = ThetaSpec.from_kneading_prefix(ks)
        assert abs(theta_eval(spec, a, bp).value) > 1e-6
        checked += 1


# ------------------------------------------------------------ rasters


def test_raster_corners_match_theta():
    spec = ThetaSpec.from_seq(parse_seq("RLC"))
    window = (0.7, 0.7005, 0.9, 0.9004)
    g = raster(ThetaValueField(spec), window, 2, 2)
    expect = {
        (0, 0): theta_eval(spec, 0.7, 0.9004).value,
        (1, 0): theta_eval(spec, 0.7005, 0.9004).value,
        (0, 1): theta_eval(spec, 0.7, 0.9).value,
        (1, 1): theta_eval(spec, 0.7005, 0.9).value,
    }
    for (col, row), v in expect.items():
        assert g.values[row * 2 + col] == v


def test_raster_kneading_classes():
    g = raster(KneadingClassField(1), (0.3, 0.7, 0.55, 0.95), 16, 16)
    ids = {v for v in g.values if v >= 0}
    assert len(ids) >= 1  # depth 1 is R everywhere in U
    g = raster(KneadingClassField(3), (0.3, 0.7, 0.55, 0.95), 16, 16)
    ids = {v for v in g.values if v >= 0}
    assert len(ids) >= 2
    assert -1.0 in g.values  # pixels outside U are sentinel-classed


def test_raster_sign_field_with_sentinels():
    g = raster(ThetaSignField(thex_spec()), (0.05, 0.95, 0.505, 0.995), 64, 64)
    vals = set()
    for v in g.values:
        if math.isnan(v):
            vals.add("nan")
        else:
            vals.add(v)
    assert 1.0 in vals and -1.0 in vals and "nan" in vals


def test_raster_negative_region_near_half_half():
    # exceptional parameters produce a negative zone touching (1/2, 1/2)
    ks = kneading_prefix(TentParams(0.5, 0.815), 48)
    spec = ThetaSpec.from_kneading_prefix(ks)
    g = raster(ThetaSignField(spec), (0.5, 0.56, 0.505, 0.56), 24, 24)
    neg = sum(1 for v in g.values if not math.isnan(v) and v < 0)
    assert neg > 0


def test_raster_no_small_theta_above_curve():
    # cross-check two rasters: pixels whose kneading prefix lies above the
    # spec's sequence never carry a near-zero Theta value
    spec = thex_spec()
    target = spec.to_kneading()
    from skewtent import compare_prefix

    window = (0.3, 0.9, 0.55, 0.99)
    g = raster(ThetaValueField(spec), window, 20, 20)
    for row in range(20):
        for col in range(20):
            v = g.values[row * 20 + col]
            if math.isnan(v):
                continue
            a, b = g.node(col, row)
            p = TentParams(a, b)
            if not p.in_u:
                continue
            if compare_prefix(kneading_prefix(p, 48), target) > 0:
                assert abs(v) > 1e-9


def test_raster_refuses_an_infinite_y():
    # at alpha = 1, beta = -5e-324 the reciprocal of beta overflows: y is
    # -inf and x is 0, so x y^g is NaN and the pixel must be refused
    grid = raster(ThetaSignField(ThetaSpec.from_text("gaps=1;tail=R")),
                  (0.5, 1.0, -1e-300, -5e-324), 3, 2)
    assert grid.node(2, 0) == (1.0, -5e-324)
    assert math.isnan(grid.values[2])


@pytest.mark.parametrize("window, width, height", [
    ((0.22728051147910983, 0.9253234957877107, 0.55, 0.95), 5, 3),
    ((0.5, 1.0, -1e-200, 0.9), 4, 3),
])
def test_raster_axes_end_at_the_window_ends(window, width, height):
    field = ThetaValueField(ThetaSpec.from_text("gaps=2;tail=R"))
    alphas, betas = raster(field, window, width, height).axes()
    assert (alphas[0], alphas[-1], betas[-1], betas[0]) == window


def test_raster_validation():
    spec = ThetaSpec.from_seq(parse_seq("RLC"))
    with pytest.raises(ValueError):
        raster(ThetaValueField(spec), (0.5, 0.5, 0.6, 0.7), 8, 8)
    with pytest.raises(ValueError):
        raster(ThetaValueField(spec), (0.4, 0.5, 0.6, 0.7), 1, 8)


NAN = float("nan")
BAD_WINDOWS = [(NAN, 0.9, 0.55, 0.9), (0.3, NAN, 0.55, 0.9), (0.3, 0.9, NAN, 0.9),
               (0.3, 0.9, 0.55, NAN), (-math.inf, 0.9, 0.55, 0.9), (0.3, 0.9, 0.55, math.inf),
               (0.9, 0.3, 0.55, 0.9), (0.3, 0.9, 0.9, 0.9)]


@pytest.mark.parametrize("field", [ThetaValueField(thex_spec()), ThetaSignField(thex_spec()),
                                   KneadingClassField(8)], ids=["value", "sign", "class"])
@pytest.mark.parametrize("window", BAD_WINDOWS)
def test_raster_refuses_nonfinite_or_empty_window(field, window):
    expected = "zero-area window" if all(map(math.isfinite, window)) else "must be finite"
    with pytest.raises(ValueError, match=expected):
        raster(field, window, 3, 3)


def test_raster_refuses_ratio_past_float_range():
    # y^{m1} overflows a float at beta = 1e-60: an infinite ratio, so NaN
    g = raster(ThetaValueField(thex_spec()), (0.1, 0.9, 1e-60, 2e-60), 4, 4)
    assert all(math.isnan(v) for v in g.values)


def test_raster_refuses_powers_past_float_range_row_by_row():
    # at beta = -1e-200 (the top row), y = alpha / beta < -1 and y^2 passes
    # float range in the per-gap table: that row is refused, the others drawn
    spec = ThetaSpec.from_text("gaps=2;tail=R")
    g = raster(ThetaValueField(spec), (0.5, 1.0, -0.9, -1e-200), 4, 3)
    alphas, betas = g.axes()
    assert betas == [-1e-200, -0.45, -0.9]
    assert all(math.isnan(v) for v in g.values[:4])
    assert list(g.values[8:]) == [theta_eval(spec, a, -0.9).value for a in alphas]
    with pytest.raises(ConvergenceError, match="series ratio inf >= 0.999 at alpha=1.0, beta=-1e-200"):
        theta_eval(spec, 1.0, -1e-200)


def test_pgm_deterministic(tmp_path):
    spec = thex_spec()
    g1 = raster(ThetaSignField(spec), (0.3, 0.9, 0.55, 0.99), 32, 32)
    g2 = raster(ThetaSignField(spec), (0.3, 0.9, 0.55, 0.99), 32, 32)
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(g1, p1)
    write_pgm(g2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_bytes()[:15]
    assert header.startswith(b"P5\n32 32\n255\n")


def test_pgm_sidecar(tmp_path):
    import json

    g = raster(ThetaSignField(thex_spec()), (0.05, 0.95, 0.505, 0.995), 16, 16)
    sidecar = write_pgm(g, tmp_path / "s.pgm")
    on_disk = json.loads((tmp_path / "s.json").read_text())
    assert on_disk == sidecar
    assert on_disk["sentinel_gray"] == 255
    assert on_disk["window"] == [0.05, 0.95, 0.505, 0.995]


def test_csv_roundtrip_floats(tmp_path):
    spec = ThetaSpec.from_seq(parse_seq("RLC"))
    g = raster(ThetaValueField(spec), (0.6, 0.65, 0.8, 0.85), 3, 3)
    path = tmp_path / "grid.csv"
    write_csv(g, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "alpha,beta,value"
    assert len(lines) == 10
    a, b, v = lines[1].split(",")
    assert float(v) == g.values[0]
