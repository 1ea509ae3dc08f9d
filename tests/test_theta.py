"""The Theta series: values, closed-form tails, derivatives, partial sums,
the orbit recursion and the first-return estimate."""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from skewtent import (
    ConvergenceError,
    GapSeq,
    TentParams,
    ThetaSpec,
    diagonal_stationary_beta,
    kneading_prefix,
    m1_first_return,
    orbit,
    parse_seq,
    theta_eval,
    theta_grad,
    theta_hessian,
    theta_partial_sum,
    thex_spec,
)
from skewtent import theta_exact
from skewtent.cli import main as cli_main
from skewtent.theta import (_BOUND_REFUSAL, _curvature_bound, _generic_row, _nodes, sign_change_roots,
                            theta_row)

RLC = ThetaSpec.from_seq(parse_seq("RLC"))
RLLRC = ThetaSpec.from_seq(parse_seq("RLLRC"))
RLRC = ThetaSpec.from_seq(parse_seq("RLRC"))
THEX = thex_spec()

ALL_SPECS = [RLC, RLLRC, RLRC, THEX]


# ------------------------------------------------------------ reference values


def test_thex_reference_values():
    # reference values carry about 1e-4 of quoted precision
    assert theta_eval(THEX, 0.4875, 0.535).value == pytest.approx(-0.0505893, abs=1e-4)
    assert theta_eval(THEX, 0.4875, 0.7).value == pytest.approx(0.2194096, abs=1e-4)
    assert theta_eval(THEX, 0.4875, 0.995).value == pytest.approx(-0.00207430, abs=1e-4)


def test_thex_spec_shape():
    g = THEX.gaps
    assert g.m1 == 6
    assert g.cum(47) == 121
    assert g.all_zero_tail
    assert g.cum(100) == 121


# ------------------------------------------------------------ diagonal identity


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_diagonal_identity(spec):
    rng = random.Random(3)
    for _ in range(40):
        b = rng.uniform(0.505, 0.999)
        assert abs(theta_eval(spec, b, b).value) <= 1e-12


def test_diagonal_identity_exact_with_fractions():
    for spec in ALL_SPECS:
        v = theta_eval(spec, Fraction(7, 10), Fraction(7, 10)).value
        assert v == 0


# ------------------------------------------------------------ partial sums


def test_partial_sum_stage_zero():
    part, p0 = theta_partial_sum(RLC, 0.6, 0.8, 0)
    assert part == pytest.approx(1 - 0.8, abs=1e-15)
    assert p0 == pytest.approx((0.8 / 0.4) * (0.8 / 0.6) ** RLC.cum(1), rel=1e-15)
    # the k = 0 truncation of the series depends on beta only through 1-beta
    lo, _ = theta_partial_sum(RLC, 0.6, 0.8 - 1e-6, 0)
    hi, _ = theta_partial_sum(RLC, 0.6, 0.8 + 1e-6, 0)
    assert (hi - lo) / 2e-6 == pytest.approx(-1.0, rel=1e-9)


def test_orbit_recursion_float():
    # T^{k+1+mbar_{k+1}}(beta) = P_k * Theta_{M,k+mbar_k} at moderate points
    a, b = 0.6, 0.75
    spec = ThetaSpec.from_kneading_prefix(kneading_prefix(TentParams(a, b), 60))
    assert len(spec.gaps.head) >= 7
    xs = orbit(TentParams(a, b), b, 60)
    for k in range(0, 7):
        part, pk = theta_partial_sum(spec, a, b, k)
        n = k + 1 + spec.cum(k + 1)
        assert abs(pk * part - xs[n]) <= 1e-9


def test_orbit_recursion_exact():
    # the identity is exact in rational arithmetic, anywhere in U
    rng = random.Random(11)
    for _ in range(10):
        b = Fraction(rng.randrange(520, 995), 1000)
        a_lo = 1 - b
        a = a_lo + Fraction(rng.randrange(1, 999), 1000) * (b - a_lo)
        p = TentParams(a, b)
        ks = kneading_prefix(p, 60)
        if "C" in ks:
            continue
        spec = ThetaSpec.from_kneading_prefix(ks)
        xs = orbit(p, b, 60)
        h = len(spec.gaps.head)
        for k in range(0, 7):
            if k + 1 > h:
                break  # the identity needs genuinely observed gaps
            n = k + 1 + spec.cum(k + 1)
            if n > 59:
                break
            part, pk = theta_partial_sum(spec, a, b, k)
            assert pk * part == xs[n]


def test_partial_sum_bounded_by_slope_product():
    # |Theta_{M,k+mbar_k}| <= 1/|P_k| since the orbit stays in [0,1]
    rng = random.Random(13)
    for _ in range(20):
        b = rng.uniform(0.55, 0.95)
        a = rng.uniform(1 - b + 0.02, b - 0.02)
        ks = kneading_prefix(TentParams(a, b), 50)
        if "C" in ks:
            continue
        spec = ThetaSpec.from_kneading_prefix(ks)
        for k in range(0, min(6, len(spec.gaps.head))):
            part, pk = theta_partial_sum(spec, a, b, k)
            assert abs(part) <= 1.0 / abs(pk) + 1e-12


# ------------------------------------------------------------ derivatives


def _fd_grad(spec, a, b, h=1e-5):
    da = (theta_eval(spec, a + h, b).value - theta_eval(spec, a - h, b).value) / (2 * h)
    db = (theta_eval(spec, a, b + h).value - theta_eval(spec, a, b - h).value) / (2 * h)
    return da, db


def _fd_hessian(spec, a, b, h=1e-5):
    f = lambda x, y: theta_eval(spec, x, y).value
    daa = (f(a + h, b) - 2 * f(a, b) + f(a - h, b)) / h**2
    dbb = (f(a, b + h) - 2 * f(a, b) + f(a, b - h)) / h**2
    dab = (f(a + h, b + h) - f(a + h, b - h) - f(a - h, b + h) + f(a - h, b - h)) / (4 * h**2)
    return daa, dab, dbb


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_grad_matches_finite_differences(spec):
    for (a, b) in [(0.6, 0.8), (0.55, 0.9), (0.52, 0.62), (0.7, 0.75)]:
        da, db = theta_grad(spec, a, b)
        fa, fb = _fd_grad(spec, a, b)
        assert da == pytest.approx(fa, rel=1e-6, abs=1e-9)
        assert db == pytest.approx(fb, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_hessian_matches_finite_differences(spec):
    for (a, b) in [(0.55, 0.9), (0.6, 0.8)]:
        q = theta_hessian(spec, a, b)
        fa, fab, fb = _fd_hessian(spec, a, b)
        assert q.a == pytest.approx(fa, rel=1e-5, abs=1e-7)
        assert q.b == pytest.approx(fab, rel=1e-5, abs=1e-7)
        assert q.c == pytest.approx(fb, rel=1e-5, abs=1e-7)


def test_gradient_vanishes_at_diagonal_meet():
    # the stationary diagonal points of the three curves with one
    for spec, b0 in [(RLC, 2 / 3), (RLLRC, 0.5 + math.sqrt(5) / 10), (THEX, 6 / 7)]:
        da, db = theta_grad(spec, b0, b0)
        assert abs(da) <= 1e-9
        assert abs(db) <= 1e-9


def test_diagonal_direction_is_flat():
    # Theta vanishes identically on the diagonal, so a + 2b + c = 0 there
    for spec, b0 in [(RLC, 2 / 3), (RLLRC, 0.5 + math.sqrt(5) / 10), (THEX, 6 / 7)]:
        q = theta_hessian(spec, b0, b0)
        scale = max(abs(q.a), abs(q.c), 1.0)
        assert abs(q.a + 2 * q.b + q.c) <= 1e-10 * scale


def test_hessian_near_one_approaches_symmetric_saddle():
    # closer to (1,1) the normalized quadratic approaches x^2 - y^2
    prev = None
    for k in [4, 8, 16, 24]:
        gaps = GapsLike = ThetaSpec.from_text(f"gaps={k};period=1")
        b0 = diagonal_stationary_beta(GapsLike)
        q = theta_hessian(GapsLike, b0, b0)
        ratio = abs(q.a / q.c + 1)  # 0 for a pure x^2 - y^2 saddle
        if prev is not None:
            assert ratio < prev
        prev = ratio
    assert prev < 0.1


# exact values at two dyadic points: (value, d_alpha, d_beta, a, b, c) as
# Fraction strings, and for thex the SHA-256 of those six strings joined by
# single spaces (the numbers run to hundreds of digits)
EXACT_POINTS = [(Fraction(5, 8), Fraction(3, 4)), (Fraction(9, 16), Fraction(13, 16))]
EXACT_PINS = {
    "RLC": [
        ("-1/76", "-176/1083", "-403/1083", "262912/61731", "58816/61731", "-19200/6859"),
        ("-195/7024", "-60450/192721", "-111703/192721", "261134224/84604519",
         "122307344/84604519", "-121513392/84604519"),
    ],
    "RLLRC": [
        ("39/2956", "-155840/546121", "-129321/546121", "2555402752/1210750257",
         "1910520320/1210750257", "-4233603200/1210750257"),
        ("11271/1342288", "-2083450590/7038035449", "-3402171763/7038035449",
         "648010812059728/590441907922957", "687838968118224/590441907922957",
         "-1119724513239024/590441907922957"),
    ],
    "thex": [
        "9617111a2d96091b473294503681a7639a47ae89bb88863ebdbec2a731f4077e",
        "135d30926781da3abeaaeb5ea6cca742d222ddd6f5114484dc3557c62dcb8a6f",
    ],
}


@pytest.mark.parametrize("name, spec", [("RLC", RLC), ("RLLRC", RLLRC), ("thex", THEX)])
def test_exact_values_pinned(name, spec):
    for (a, b), pin in zip(EXACT_POINTS, EXACT_PINS[name]):
        q = theta_hessian(spec, a, b)
        vals = (theta_eval(spec, a, b).value, *theta_grad(spec, a, b), q.a, q.b, q.c)
        assert all(isinstance(v, Fraction) for v in vals)
        got = tuple(str(v) for v in vals)
        if name == "thex":
            got = hashlib.sha256(" ".join(got).encode()).hexdigest()
        assert got == pin


# Float value, error bound and term count, pinned bit for bit: the value
# fold and its roundoff sum must keep their operation order.
FLOAT_PINS = [
    (THEX, 0.62, 0.8, 0.10473788118454327, 8.99550922587253e-16, 47),
    (THEX, 0.4875, 0.7, 0.21940961552890326, 8.820463495551213e-16, 47),
    (THEX, 0.3, 0.75, 0.24617952439323645, 8.031153659230857e-16, 47),
    (RLLRC, 0.62, 0.8, -0.001426794253580388, 1.846702083373501e-15, 2),
    (RLLRC, 0.4875, 0.7, 0.08748261064316581, 2.37127365819848e-15, 2),
    (RLLRC, 0.3, 0.75, 0.15089242007756903, 1.321263696953722e-15, 2),
]


@pytest.mark.parametrize("spec, a, b, value, bound, terms", FLOAT_PINS)
def test_float_values_pinned(spec, a, b, value, bound, terms):
    tv = theta_eval(spec, a, b)
    assert (tv.value, tv.error_bound, tv.terms_used) == (value, bound, terms)


# ------------------------------------------------------------ evaluation guards


@st.composite
def gap_specs(draw):
    m1 = draw(st.integers(1, 6))
    rest = st.lists(st.integers(0, m1), max_size=6)
    period = draw(st.lists(st.integers(0, m1), min_size=1, max_size=3))
    return ThetaSpec(GapSeq((m1, *draw(rest)), tuple(period)))


def _assert_within_bound(spec, a, b, tv):
    """The float value tv at (a, b) is within its error_bound of the exact
    Fraction value."""
    exact = theta_eval(spec, Fraction(a), Fraction(b)).value
    assert abs(Fraction(tv.value) - exact) <= Fraction(tv.error_bound)


@given(gap_specs(), st.floats(0.5, 1.0, exclude_min=True), st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_error_bound_holds_against_exact_value(spec, b, t):
    a = (1 - b) + t * (2 * b - 1)  # a point of U, the lower edge included
    try:
        tv = theta_eval(spec, a, b)
    except ConvergenceError:
        assume(False)
    _assert_within_bound(spec, a, b, tv)


def test_error_bound_soundness():
    rng = random.Random(5)
    for spec in ALL_SPECS:
        for _ in range(20):
            b = rng.uniform(0.52, 0.99)
            a = rng.uniform(1 - b + 0.05, b - 0.01)
            _assert_within_bound(spec, a, b, theta_eval(spec, a, b))


# ------------------------------------------------------------ integer kernel


def _fractions_in(lo, hi):
    return st.fractions(lo, hi, max_denominator=97)


@st.composite
def rational_points(draw):
    """A rational point of U, of the diagonal, of U mirrored to beta < 0
    (where y < -1 and the periodic tail can diverge alone), or of the
    square [-1, 1]^2 without beta = 0, where most points are refused."""
    region = draw(st.sampled_from(["U", "diagonal", "mirror", "square"]))
    b = draw(_fractions_in(Fraction(1, 2), 1).filter(lambda v: v > Fraction(1, 2)))
    if region == "diagonal":
        return b, b
    if region in ("U", "mirror"):
        t = draw(_fractions_in(0, 1))
        a = (1 - b) + t * (2 * b - 1)
        return (b, -a) if region == "mirror" and a else (a, b)
    a = draw(st.one_of(_fractions_in(-1, 1), st.integers(-1, 1)))
    b = draw(st.one_of(_fractions_in(-1, 1), st.integers(-1, 1)).filter(lambda v: v != 0))
    return a, b


def _reference_derivatives(spec, a, b):
    """theta_grad's and theta_hessian's formulas on the generic fold."""
    ((x, y, (_, k, m, kk, km, mm)),) = _generic_row(spec, (a,), b, 1e-12, 2)
    b2 = b * b
    return ((k / x + m / y) / b, -1 - (k + m) / b,
            ((kk - k) / (x * x) + 2 * km / (x * y) + (mm - m) / (y * y)) / b2,
            -((kk + km) / x + (km + mm) / y) / b2, (kk + 2 * km + mm + k + m) / b2)


def _exact_point(spec, a, b, tol, order):
    """The integer kernel's point, with its order 1 or 2 numerators made
    (x, y, moments) as Fractions, the generic fold's shape."""
    got = theta_exact.point(spec, a, b, tol, order)
    if len(got) != 7:
        return got
    nums, one, xn, yn, den = got[:5]
    return Fraction(xn, den), Fraction(yn, den), tuple(Fraction(n, one) for n in nums)


def _assert_row_values(got, points):
    """theta_row's values against kernel points: each admitted point's
    value, of its type and bit for bit, and NaN exactly where refused."""
    assert len(got) == len(points)
    for v, p in zip(got, points):
        if type(p[0]) is str:
            assert type(v) is float and math.isnan(v)
        else:
            assert type(v) is type(p[0]) and repr(v) == repr(p[0])


@given(gap_specs(), rational_points(), st.sampled_from([1e-12, 1e-15, 1e-20]))
@settings(max_examples=300, deadline=None)
def test_integer_kernel_matches_generic_fold(spec, point, tol):
    # values and moments equal exactly, error_bound and terms_used bit for
    # bit, and a refused point refused with the same text; theta_row, the
    # generic fold, on Fraction inputs is the kernel's value at tol 1e-12,
    # NaN where refused
    a, b = point
    if tol == 1e-12:
        _assert_row_values(theta_row(spec, [Fraction(a)], Fraction(b)),
                           [theta_exact.point(spec, a, b, tol, 0)])
    for order in (0, 1, 2):
        got = _exact_point(spec, a, b, tol, order)
        (ref,) = _generic_row(spec, [Fraction(a)], Fraction(b), tol, order)
        assert got == ref
        assert [type(v) for v in got] == [type(v) for v in ref]
        if type(ref[0]) is str:
            assert got[0].format(*got[1:]) == ref[0].format(*ref[1:])
        elif order:
            assert all(type(v) is Fraction for v in (*got[:2], *got[2]))
        else:
            assert type(got[0]) is Fraction
    if type(ref[0]) is not str and a and a != 1:
        q = theta_hessian(spec, a, b)
        got = (*theta_grad(spec, a, b), q.a, q.b, q.c)
        assert got == _reference_derivatives(spec, Fraction(a), Fraction(b))
        assert all(type(v) is Fraction for v in got)


def test_float_and_mixed_inputs_take_the_generic_fold():
    for a, b in [(0.62, 0.8), (Fraction(31, 50), 0.8), (0.62, Fraction(4, 5))]:
        _assert_row_values(theta_row(THEX, [a, 0.5], b), _generic_row(THEX, [a, 0.5], b, 1e-12, 0, True))
        assert type(theta_eval(THEX, a, b).value) is float
    _assert_row_values(theta_row(THEX, [Fraction(31, 50), 0.5], Fraction(4, 5)),
                       _generic_row(THEX, [Fraction(31, 50), 0.5], Fraction(4, 5), 1e-12, 0, True))


@pytest.mark.parametrize("beta", [0, 0.0, -0.0, Fraction(0)])
def test_theta_row_at_beta_zero_is_nan(beta):
    # the series is undefined at beta = 0: theta_row gives a row of NaN,
    # while a one-point evaluation refuses it, at each order
    row = theta_row(THEX, [0.5, Fraction(1, 2), 1], beta)
    assert len(row) == 3 and all(type(v) is float and math.isnan(v) for v in row)
    for f in (theta_eval, theta_grad, theta_hessian):
        for alpha in (0.5, Fraction(1, 2)):
            with pytest.raises(ConvergenceError, match="series undefined at beta = 0"):
                f(THEX, alpha, beta)


# ------------------------------------------------------------ value-only rows


@st.composite
def float_points(draw):
    """A float point of U, of the diagonal, of U near the ratio guard (|x|
    from 0.99 to 0.9995), with alpha > beta (y > 1), of U mirrored to
    beta < 0 (y < -1, where max |u| can pass 1), of the refused corner
    below alpha = 1 - beta, or of the square [-1, 1]^2 without beta = 0."""
    region = draw(st.sampled_from(["U", "diagonal", "guard", "above", "mirror", "corner", "square"]))
    b = draw(st.floats(0.5, 1.0, exclude_min=True))
    if region == "diagonal":
        return b, b
    if region == "guard":
        return 1 - draw(st.floats(0.99, 0.9995)) * b, b
    if region == "above":
        return draw(st.floats(b, 1.0)), b
    if region == "corner":
        return draw(st.floats(0.0, 1 - b)), b
    if region == "square":
        return draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0).filter(bool))
    a = (1 - b) + draw(st.floats(0.0, 1.0)) * (2 * b - 1)
    return (b, -a) if region == "mirror" and a else (a, b)


def _value_only_row(spec, a, b, tol):
    """The value-only generic row at (a, b); at tol 1e-12 it is theta_row."""
    row = _generic_row(spec, (a,), b, tol, 0, True)
    if tol == 1e-12:
        _assert_row_values(theta_row(spec, (a,), b), row)
    return row


def _value_only_matches(spec, a, b, tol):
    """The value-only row at (a, b) against theta_eval: the same value
    bits and terms_used, an error_bound never below theta_eval's, or the
    same refusal with the same text.  Neither path raises OverflowError: a
    power past float range (y < -1) is refused as ratio inf.  Returns the
    value-only point."""
    try:
        ref = theta_eval(spec, a, b, tol)
    except ConvergenceError as exc:
        (got,) = _value_only_row(spec, a, b, tol)
        assert type(got[0]) is str and got[0].format(*got[1:]) == str(exc)
        return got
    except OverflowError:
        pytest.fail(f"theta_eval raised OverflowError at {(a, b)}")
    try:
        (got,) = _value_only_row(spec, a, b, tol)
    except OverflowError:
        pytest.fail(f"the value-only row raised OverflowError at {(a, b)}")
    assert got[0].hex() == ref.value.hex() and got[2] == ref.terms_used
    assert got[1] >= ref.error_bound
    return got


def test_value_only_row_matches_theta_eval():
    # at tol 1e-12, 1e-20 (where no majorant admits) or the roundoff sum's
    # own bound; and at every admitted point also just below that bound,
    # where the sum refuses, so a majorant that undercuts it would not
    ran = set()

    @given(gap_specs(), float_points(), st.sampled_from([1e-12, 1e-20, None]))
    # 1/beta overflows to -inf and x is 0, so x y^g is NaN: refused, not admitted
    @example(ThetaSpec.from_text("gaps=1;tail=R"), (1.0, -5e-324), 1e-12)
    @settings(max_examples=800, deadline=None)
    def check(spec, point, tol):
        a, b = point
        if tol is None:
            with contextlib.suppress(ConvergenceError):
                tol = theta_eval(spec, a, b, math.inf).error_bound
        got = _value_only_matches(spec, a, b, 1e-12 if tol is None else tol)
        if type(got[0]) is str:
            if got[0] == _BOUND_REFUSAL:
                ran.add("full")  # only the roundoff sum refuses on the bound
            return
        bound = theta_eval(spec, a, b, math.inf).error_bound
        ran.add("skipped" if got[1] > bound else "full")
        assert type(_value_only_matches(spec, a, b, math.nextafter(bound, 0))[0]) is str

    check()
    assert ran == {"skipped", "full"}
    # thex on the diagonal: |u| = |x| for all 47 head gaps, and the sum
    # comes within its own rounding of the majorant
    for i in range(1, 400):
        b = 0.5 + i / 800
        bound = theta_eval(THEX, b, b, math.inf).error_bound
        assert type(_value_only_matches(THEX, b, b, math.nextafter(bound, 0))[0]) is str


# ------------------------------------------------------------ proven grid signs


@st.composite
def scan_verticals(draw):
    """alpha0 in (0, 1), a beta range inside (0, 1] that may start in the
    refused region below beta = 1 - alpha0, and 1 to 800 samples."""
    a = draw(st.floats(0.001, 1.0, exclude_max=True))
    lo = draw(st.floats(0.01, 0.99))
    return a, lo, draw(st.floats(lo + 0.005, 1.0)), draw(st.integers(1, 800))


@given(gap_specs(), scan_verticals())
@example(THEX, (0.4875, 0.535, 0.995, 400))
@example(THEX, (0.625, 0.5, 0.75, 8))
@settings(max_examples=100, deadline=None)
def test_skipped_grid_nodes_have_the_stand_in_sign(spec, vertical):
    # a node the walk does not evaluate lies inside a proven interval, whose
    # evaluated ends share a sign: there the exact Theta has that sign
    # beyond twice the float error bound, so the float value has it too
    a, lo, hi, samples = vertical
    evaluated = {}

    def f(t):
        evaluated[t] = theta_row(spec, (a,), t)[0]
        return evaluated[t]

    xs = _nodes(lo, hi, samples)
    sign_change_roots(f, xs, lambda t: _curvature_bound(spec, a, t))
    stand_in = None  # the value of the last evaluated node
    for i, x in enumerate(xs):
        if x in evaluated:
            stand_in = evaluated[x]
            continue
        above = next(evaluated[t] for t in xs[i + 1:] if t in evaluated)
        assert stand_in * above > 0
        exact = theta_eval(spec, Fraction(a), Fraction(x)).value
        assert exact * stand_in > 0 and abs(exact) > 2 * theta_eval(spec, a, x).error_bound


def test_a_large_gap_costs_no_table_of_its_size():
    spec = ThetaSpec.from_text("gaps=1000000;tail=R")
    tracemalloc.start()
    try:
        value = theta_eval(spec, 0.6, 0.8).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 0.19999999999999996
    assert peak < 1 << 20


def test_convergence_guard():
    with pytest.raises(ConvergenceError):
        theta_eval(RLC, 0.2, 0.75)  # |alpha - 1| / beta > 1
    with pytest.raises(ConvergenceError):
        theta_eval(RLC, 0.2501, 0.75)  # ratio above the 0.999 cutoff


# each guard's refusal text, through theta_eval and through the CLI's stderr
REFUSALS = [
    (["--preset", "thex", "--alpha", "0.2", "--beta", "0.6"],
     "series ratio 1.333333 >= 0.999 at alpha=0.2, beta=0.6"),
    (["--preset", "thex", "--alpha", "0.4875", "--beta", "0.7", "--tol", "1e-20"],
     "roundoff bound 8.82e-16 exceeds requested tol 1.00e-20"),
    (["--seq", "RLLRC", "--alpha", "0.98", "--beta", "-0.2"],
     "periodic tail ratio has modulus >= 1"),
    # y^{m1} past float range counts as an infinite ratio, not an OverflowError
    (["--preset", "thex", "--alpha", "0.5", "--beta", "1e-60"],
     "series ratio inf >= 0.999 at alpha=0.5, beta=1e-60"),
]


@pytest.mark.parametrize("argv, message", REFUSALS)
def test_refusal_texts_are_pinned(argv, message):
    opts = dict(zip(argv[::2], argv[1::2]))
    spec = THEX if opts.get("--preset") == "thex" else ThetaSpec.from_seq(parse_seq(opts["--seq"]))
    with pytest.raises(ConvergenceError) as exc:
        theta_eval(spec, float(opts["--alpha"]), float(opts["--beta"]),
                   tol=float(opts.get("--tol", 1e-12)))
    assert str(exc.value) == message
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli_main(["theta", *argv]) == 1
    assert err.getvalue() == json.dumps({"error": message, "kind": "ConvergenceError"}) + "\n"


@pytest.mark.parametrize("alpha, beta", [(Fraction(9, 10), Fraction(-3, 5)),
                                         (Fraction(9, 10), Fraction(1, 1000))])
def test_rational_points_past_float_range_are_refused(alpha, beta):
    # at a gap of 2000, |x y^g| (y = -3/2) or the ratio |x| y^m1 (y = 900)
    # passes float range: the rational point is refused as the float one
    # is, by both kernels, and no float conversion raises OverflowError
    spec = ThetaSpec.from_text("gaps=2000;tail=R")
    says = f"series ratio inf >= 0.999 at alpha={float(alpha)}, beta={float(beta)}"
    for a, b in [(alpha, beta), (float(alpha), float(beta))]:
        with pytest.raises(ConvergenceError) as exc:
            theta_eval(spec, a, b)
        assert str(exc.value) == says
        assert math.isnan(theta_row(spec, [a], b)[0])


@pytest.mark.parametrize("f", [theta_eval, theta_grad, theta_hessian])
def test_integer_kernel_refuses_a_fraction_past_float_range(f):
    # the integer kernel's ratio refusal names alpha and beta as floats,
    # inf past float range, as the generic fold's does; no OverflowError
    with pytest.raises(ConvergenceError) as exc:
        f(THEX, Fraction(10**400), Fraction(4, 5))
    assert str(exc.value) == "series ratio inf >= 0.999 at alpha=inf, beta=0.8"


@pytest.mark.parametrize("spec", [RLC, THEX])
def test_nan_tol_is_refused(spec):
    # every bound test against NaN fails, so a NaN tol used to admit every
    # point; tol <= 0 still refuses each one on its bound
    for a, b in [(0.62, 0.8), (Fraction(31, 50), Fraction(4, 5))]:
        with pytest.raises(ValueError, match="tol must not be NaN"):
            theta_eval(spec, a, b, math.nan)
    for tol in (0.0, -1.0):
        with pytest.raises(ConvergenceError, match="exceeds requested tol"):
            theta_eval(spec, 0.62, 0.8, tol)


def test_evaluation_below_diagonal():
    # small neighborhoods under the diagonal are inside the extended domain
    v = theta_eval(RLLRC, 0.73, 0.725).value
    assert math.isfinite(v)


def test_alternate_filler_vanishes_on_curve_too():
    # for a finite word either filler symbol yields a function vanishing on
    # the curve: check the RLC curve points against the (RLL)^inf variant
    from skewtent import kneading_bisect_beta

    alt = ThetaSpec.from_seq(parse_seq("(RLL)"))
    for alpha in (0.55, 0.6, 0.64):
        pt = kneading_bisect_beta(parse_seq("RLC"), alpha)
        assert abs(theta_eval(RLC, pt.alpha, pt.beta).value) <= 1e-10
        assert abs(theta_eval(alt, pt.alpha, pt.beta).value) <= 1e-10


# ------------------------------------------------------------ first return


def test_m1_examples():
    assert m1_first_return(0.5, 0.535) == 1
    assert m1_first_return(0.4875, 0.995) == 6
    assert m1_first_return(0.745, 0.755) == 3


def test_m1_matches_kneading_gap():
    rng = random.Random(17)
    for _ in range(60):
        b = rng.uniform(0.52, 0.99)
        a = rng.uniform(1 - b + 0.01, b - 0.01)
        m1 = m1_first_return(a, b)
        ks = kneading_prefix(TentParams(a, b), m1 + 3)
        assert ks[: m1 + 2] == "R" + "L" * m1 + "R"


def test_m1_log_ratio_bracket():
    rng = random.Random(19)
    for _ in range(100):
        b = rng.uniform(0.52, 0.995)
        a = rng.uniform(1 - b + 0.002, b - 0.002)
        q = (math.log(1 - a) - math.log(1 - b)) / (math.log(b) - math.log(a))
        m1 = m1_first_return(a, b)
        assert q - 1 - 1e-9 <= m1 <= q + 1e-9


def test_m1_near_diagonal_bounds():
    rng = random.Random(23)
    for _ in range(20):
        b0 = rng.uniform(0.55, 0.95)
        a = b0 - 1e-7 * (1 - b0)
        m1 = m1_first_return(a, b0)
        c = b0 / (1 - b0)
        assert c - 2 < m1 < c + 1


def test_m1_monotone_in_beta():
    # larger beta pushes the kneading sequence up, which lengthens the
    # leading L-run (RL^inf sits at beta = 1), so m1 is nondecreasing
    for a in (0.52, 0.6, 0.7):
        last = None
        for b in [a + 0.01 + 0.02 * i for i in range(12) if a + 0.01 + 0.02 * i < 1]:
            if b <= max(a, 1 - a, 0.5):
                continue
            m1 = m1_first_return(a, b)
            if last is not None:
                assert m1 >= last
            last = m1


def test_m1_cap():
    with pytest.raises(RuntimeError):
        m1_first_return(0.5, 1.0)  # RL^inf regime never returns


# ------------------------------------------------------------ diagonal stationary


def test_diagonal_stationary_betas():
    assert diagonal_stationary_beta(RLC) == pytest.approx(2 / 3, abs=1e-10)
    assert diagonal_stationary_beta(RLLRC) == pytest.approx(0.5 + math.sqrt(5) / 10, abs=1e-10)
    assert diagonal_stationary_beta(THEX) == pytest.approx(6 / 7, abs=1e-10)


def test_stationary_grid_is_built_once_on_first_use():
    # importing theta builds no grid; the first search builds the _nodes grid, bit for bit
    code = ("import skewtent.theta as t\n"
            "assert t._STATIONARY_XS == (), 'built at import'\n"
            "t.diagonal_stationary_beta(t.thex_spec())\n"
            "want = t._nodes(t._STATIONARY_LO, t._STATIONARY_HI, t._STATIONARY_GRID)\n"
            "assert [x.hex() for x in t._STATIONARY_XS] == [x.hex() for x in want]\n"
            "grid = t._STATIONARY_XS\n"
            "t.diagonal_stationary_beta(t.thex_spec())\n"
            "assert t._STATIONARY_XS is grid, 'built twice'\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# ------------------------------------------------------------ grid nodes


@pytest.mark.parametrize("lo, hi, n", [(0.535, 0.995, 400), (0.09278634793595067, 1.0, 188),
                                       (0.35, 0.65, 7), (0.9, 0.1, 3), (0.505, 0.9985, 1024)])
def test_nodes_end_at_their_own_ends(lo, hi, n):
    # lo + (hi - lo) n / n rounds past hi for the first three
    xs = _nodes(lo, hi, n)
    assert len(xs) == n + 1 and xs[0] == lo and xs[-1] == hi
    assert xs[:-1] == [lo + (hi - lo) * i / n for i in range(n)]


# ------------------------------------------------------------ sign-change roots


def test_sign_change_roots_bracket_adjacent_floats():
    f = lambda t: (t - 1 / 3) * (t - 0.71) * (t + 0.2)
    roots = sign_change_roots(f, [i / 7 for i in range(8)])
    assert roots == pytest.approx([1 / 3, 0.71], abs=1e-15)
    for r in roots:
        neighbours = (math.nextafter(r, -math.inf), math.nextafter(r, math.inf))
        assert f(r) == 0 or any(f(n) * f(r) <= 0 for n in neighbours)


def test_sign_change_roots_skip_nan_pairs():
    f = lambda t: math.nan if 0.55 < t < 0.65 else t - 0.6
    assert sign_change_roots(f, [0.5, 0.6, 0.7]) == []
    assert sign_change_roots(lambda t: t - 0.62, [0.5, 0.6, 0.7]) == [pytest.approx(0.62, abs=1e-15)]


@pytest.mark.parametrize("m2, e, value, evaluated", [
    (0.0, 1e-13, 3.1e-13, 2), (0.0, 1e-13, 2.9e-13, 17),  # beyond 3E, or not
    (1.0, 0.0, 0.021, 2), (1.0, 0.0, 0.019, 3),  # beyond M2 (q - p)^2 / 8 = 0.02, or not
])
def test_sign_change_roots_prove_an_interval_beyond_its_bound(m2, e, value, evaluated):
    calls = []

    def f(t):
        calls.append(t)
        return value

    assert sign_change_roots(f, _nodes(0.5, 0.9, 16), lambda t: (m2, e)) == []
    assert len(calls) == evaluated


def test_sign_change_roots_return_zero_nodes():
    xs = [0.0, 0.25, 0.5, 0.75, 1.0]
    assert sign_change_roots(lambda t: t - 0.5, xs) == [0.5]
    assert sign_change_roots(lambda t: t - 1.0, xs) == [1.0]
    assert sign_change_roots(lambda t: (t - 0.25) * (t - 0.75), xs) == [0.25, 0.75]
