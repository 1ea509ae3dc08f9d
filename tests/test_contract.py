"""The library's contract at its edges.

``theta_eval``, ``theta_row``, ``theta_grad`` and ``theta_hessian`` take
any point: float, Fraction or mixed, at 0 and 1, at negative beta, at
1e+-300 and subnormals, at inf and NaN, over gaps up to 2000.  Each call
gives finite numbers or raises ``ConvergenceError`` or ``ValueError``;
``theta_row`` gives NaN, and exactly where ``theta_eval`` refuses.  Where
the chain rule of the derivatives would divide by 0 (x = 0 at alpha = 1,
y = 0 at alpha = 0, or an x^2 that underflows) or leave float range, they
refuse too.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewtent import ConvergenceError, GapSeq, ThetaSpec, theta_eval, theta_grad, theta_hessian
from skewtent.theta import theta_row

from test_theta import THEX, float_points


@st.composite
def large_gap_specs(draw):
    """A spec whose first gap is small or up to 2000, with up to six more
    head gaps and a period of one to three gaps, zeros among them."""
    m1 = draw(st.one_of(st.integers(1, 8), st.sampled_from([60, 500, 2000])))
    gap = st.one_of(st.just(0), st.integers(0, m1))
    head = draw(st.lists(gap, max_size=6))
    return ThetaSpec(GapSeq((m1, *head), tuple(draw(st.lists(gap, min_size=1, max_size=3)))))


_EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324,
          2.2250738585072014e-308, 1.7976931348623157e308, 1 - 2 ** -53, 1 + 2 ** -52]
_FLOATS = st.one_of(st.sampled_from(_EDGES + [math.inf, -math.inf, math.nan]), st.floats(-2.0, 2.0),
                    st.floats(allow_nan=True, allow_infinity=True))
# rationals: small ones, and every finite edge as an exact Fraction
_SMALL = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=97))
_RATIONALS = st.one_of(_SMALL, st.sampled_from([Fraction(v) for v in _EDGES]))


@st.composite
def points(draw, spec):
    """A float, rational or mixed point.  A rational point with a gap past
    60 keeps small denominators, as the integer kernel's numbers grow with
    the gaps times the digits of the point."""
    kind = draw(st.sampled_from(["float", "U", "rational", "mixed alpha", "mixed beta"]))
    if kind == "float":
        return draw(_FLOATS), draw(_FLOATS)
    if kind == "U":
        return draw(float_points())
    rationals = _SMALL if spec.m1 > 60 else _RATIONALS
    if kind == "rational":
        return draw(rationals), draw(rationals)
    if kind == "mixed alpha":
        return draw(rationals), draw(_FLOATS)
    return draw(_FLOATS), draw(rationals)


def _finite(*values):
    return all(type(v) is Fraction or (type(v) is float and math.isfinite(v)) for v in values)


def _check_contract(spec, alpha, beta):
    try:
        tv = theta_eval(spec, alpha, beta)
    except ValueError:  # ConvergenceError among them
        tv = None
    else:
        assert _finite(tv.value, tv.error_bound) and tv.error_bound <= 1e-12
    (value,) = theta_row(spec, [alpha], beta)
    if tv is None:
        assert type(value) is float and math.isnan(value)
    else:  # an int row divides int by int, into floats: only its NaN is the kernel's
        assert _finite(value) and (value == tv.value or type(alpha) is type(beta) is int)
    try:
        assert _finite(*theta_grad(spec, alpha, beta))
    except ValueError:
        pass
    try:
        q = theta_hessian(spec, alpha, beta)
    except ValueError:
        pass
    else:
        assert _finite(q.a, q.b, q.c)


_ONE = ThetaSpec.from_text("gaps=1;tail=R")
_LARGE = ThetaSpec(GapSeq((2000,), (0,)))


@st.composite
def spec_points(draw):
    spec = draw(st.one_of(st.just(THEX), large_gap_specs()))
    return spec, draw(points(spec))


@given(spec_points())
@example((_ONE, (1.0, 0.8)))  # x = 0
@example((_ONE, (0.0, 2.0)))  # y = 0
@example((_ONE, (Fraction(1), Fraction(4, 5))))  # x = 0, exactly
@example((_ONE, (-0.7388911319378004, 1e300)))  # x^2 underflows
@example((_LARGE, (1.106372018049441, -0.7767373643270155)))  # the moments overflow
@example((THEX, (0.5, math.inf)))  # 1 - beta = -inf
@example((THEX, (1e300, Fraction(1.7976931348623157e308))))  # a Fraction beta^2 past float range
@settings(max_examples=400, deadline=None)
def test_every_call_is_finite_or_refused(case):
    spec, (alpha, beta) = case
    _check_contract(spec, alpha, beta)


def _refused(f, spec, alpha, beta, text):
    with pytest.raises(ConvergenceError) as exc:
        f(spec, alpha, beta)
    assert str(exc.value) == text


@pytest.mark.parametrize("alpha, beta, name", [
    (1.0, 0.8, "x = (alpha - 1)/beta"),
    (0.0, 2.0, "y = alpha/beta"),
    (Fraction(1), Fraction(4, 5), "x = (alpha - 1)/beta"),
    (1, 0.8, "x = (alpha - 1)/beta"),
])
def test_derivatives_refuse_a_zero_divisor_by_name(alpha, beta, name):
    # the chain rule divides by x = (alpha - 1)/beta and y = alpha/beta;
    # Theta itself is defined there
    assert math.isfinite(theta_eval(_ONE, alpha, beta).value)
    for f in (theta_grad, theta_hessian):
        _refused(f, _ONE, alpha, beta,
                 f"derivatives divide by {name} = 0 at alpha={alpha}, beta={beta}")


def test_hessian_refuses_an_underflowing_square():
    # x is about -1.7e-300, so x^2 underflows while x does not
    alpha, beta = -0.7388911319378004, 1e300
    assert theta_grad(_ONE, alpha, beta) == (-0.0, -1.0)
    _refused(theta_hessian, _ONE, alpha, beta,
             f"derivatives divide by x^2 = 0 at alpha={alpha}, beta={beta}")


def test_derivatives_past_float_range_are_refused():
    # at y < -1 the guards admit |u| = |x y^2000| near 1e306, which the
    # roundoff bound refuses for the value; the moments overflow
    alpha, beta = 1.106372018049441, -0.7767373643270155
    with pytest.raises(ConvergenceError, match="roundoff bound"):
        theta_eval(_LARGE, alpha, beta)
    assert math.isnan(theta_row(_LARGE, [alpha], beta)[0])
    for f in (theta_grad, theta_hessian):
        _refused(f, _LARGE, alpha, beta, f"derivatives past float range at alpha={alpha}, beta={beta}")


@pytest.mark.parametrize("beta", [math.inf, -math.inf])
def test_infinite_beta_is_refused(beta):
    # 1 - beta would be -inf or inf: the series is undefined there, as at beta = 0
    row = theta_row(THEX, [0.5, Fraction(1, 2)], beta)
    assert all(math.isnan(v) for v in row)
    for f in (theta_eval, theta_grad, theta_hessian):
        _refused(f, THEX, 0.5, beta, f"series undefined at infinite beta, got beta={beta}")
