"""The Theta fold against the fold it was, frozen.

``theta._generic_row`` picks its constants once per row: the float 1.0
where beta and every alpha are floats, so each step is float with float,
and the int 1 otherwise.  The fold below is the earlier one, frozen: int
constants everywhere (``(alpha - 1) / beta``, ``us[i] * (1 + acc)``,
``1 - beta + acc``, the roundoff sum's ``mags[i] * (1 + mag)`` and the
moment steps at ``one = 1``), and the roundoff sum always run.  Since
1 + v and 1.0 + v round alike for a float v, ``theta_row``,
``theta_eval``, ``theta_grad`` and ``theta_hessian`` must give its values,
``error_bound``s and ``terms_used`` bit for bit, and refuse (or give NaN)
at exactly its refused points, on all-float rows and on mixed ones.
"""

import math
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewtent.theta import (_BOUND_REFUSAL, _RATIO_REFUSAL, _STEPS, _TAIL_REFUSAL, ConvergenceError,
                            _fixed_point_tail, theta_eval, theta_grad, theta_hessian, theta_row)

from test_theta import ALL_SPECS, THEX, _assert_row_values, float_points, gap_specs


def _point_before(spec, alpha, beta, tol, order):
    """The earlier ``_generic_row`` at one point, frozen, with its roundoff
    sum always run: a refusal as a format string and arguments,
    (value, error_bound, terms_used) at order 0, (x, y, moments) else."""
    head_rev, period_rev, distinct, r, s, m1, terms = spec._plan
    x = (alpha - 1) / beta
    y = alpha / beta
    if not -math.inf < y < math.inf:
        return (_RATIO_REFUSAL, math.inf, float(alpha), float(beta))
    try:
        eta = abs(x) * y ** m1 if y > 1 else abs(x)
    except OverflowError:
        eta = math.inf
    if eta >= 0.999:
        return (_RATIO_REFUSAL, float(eta), float(alpha), float(beta))
    try:
        rho = x ** r * y ** s
        if abs(rho) >= 1:
            return _TAIL_REFUSAL
        us = [x * y ** gap for gap in distinct]
    except OverflowError:
        return (_RATIO_REFUSAL, math.inf, float(alpha), float(beta))
    c = 1 / (1 - rho)
    if order:
        step, acc = _STEPS[order]
        for i in period_rev:
            acc = step(us[i], distinct[i], acc, 1)
        acc = _fixed_point_tail(acc, rho, c, r, s)
        for i in head_rev:
            acc = step(us[i], distinct[i], acc, 1)
        return (x, y, acc)
    acc = 0
    for i in period_rev:
        acc = us[i] * (1 + acc)
    acc = c * acc
    for i in head_rev:
        acc = us[i] * (1 + acc)
    mags = [abs(float(u)) for u in us]
    mag = 0.0
    for i in period_rev:
        mag = mags[i] * (1 + mag)
    mag = 3 * abs(float(c)) * mag
    for i in head_rev:
        mag = mags[i] * (1 + mag)
    bound = 8e-16 * (mag + 1.0)
    return (_BOUND_REFUSAL, bound, tol) if bound > tol else (1 - beta + acc, bound, terms)


def _derivatives_before(spec, a, b):
    """theta_grad's and theta_hessian's formulas on the frozen moments."""
    x, y, (_, k, m) = _point_before(spec, a, b, 1e-12, 1)
    _, _, (_, k2, m2, kk, km, mm) = _point_before(spec, a, b, 1e-12, 2)
    b2 = b * b
    return ((k / x + m / y) / b, -1 - (k + m) / b,
            ((kk - k2) / (x * x) + 2 * km / (x * y) + (mm - m2) / (y * y)) / b2,
            -((kk + km) / x + (km + mm) / y) / b2, (kk + 2 * km + mm + k2 + m2) / b2)


def _bits(v):
    return type(v), repr(v)


def _assert_matches_frozen(spec, alphas, beta):
    """theta_row over the row, and theta_eval, theta_grad and theta_hessian
    at each of its points, against the frozen fold."""
    _assert_row_values(theta_row(spec, alphas, beta), [_point_before(spec, a, beta, 1e-12, 0)
                                                       for a in alphas])
    for a in alphas:
        for tol in (1e-12, 1e-15):
            ref = _point_before(spec, a, beta, tol, 0)
            try:
                tv = theta_eval(spec, a, beta, tol)
            except ConvergenceError as exc:
                assert type(ref[0]) is str and str(exc) == ref[0].format(*ref[1:])
                continue
            assert type(ref[0]) is not str
            assert list(map(_bits, (tv.value, tv.error_bound, tv.terms_used))) == list(map(_bits, ref))
        if type(_point_before(spec, a, beta, 1e-12, 1)[0]) is str:
            continue  # refused at order 0 too, as the guards are shared
        try:
            want = list(map(_bits, _derivatives_before(spec, a, beta)))
        except ZeroDivisionError:  # x or y is 0: alpha = 1 or 0
            continue
        q = theta_hessian(spec, a, beta)
        assert list(map(_bits, (*theta_grad(spec, a, beta), q.a, q.b, q.c))) == want


@st.composite
def rows(draw):
    """A row at one beta: all floats; Fraction alphas with a float beta;
    float alphas with a Fraction beta; float alphas with an int alpha; or
    all three alpha types at a float beta."""
    kind = draw(st.sampled_from(["float", "fraction alpha", "fraction beta", "int alpha", "mixed"]))
    a, b = draw(float_points())
    alphas = [a, *draw(st.lists(st.floats(-1.0, 1.5), max_size=3))]
    if kind == "fraction alpha":
        alphas = [Fraction(v) for v in alphas]
    elif kind == "fraction beta":
        b = Fraction(b)
    elif kind == "int alpha":
        alphas.append(draw(st.integers(-1, 2)))
    elif kind == "mixed":
        alphas += [Fraction(alphas[-1]) / 3, draw(st.integers(-1, 2))]
    return alphas, b


@given(gap_specs(), rows())
@example(THEX, ([0.62, 0.4875, 0.3], 0.8))
@example(THEX, ([Fraction(31, 50), 0.5], 0.8))
@example(THEX, ([0.62, 0.5], Fraction(4, 5)))
@example(THEX, ([1, 0.5, 0], 0.8))
@settings(max_examples=400, deadline=None)
def test_rows_and_points_equal_the_frozen_fold(spec, row):
    _assert_matches_frozen(spec, *row)


def test_seeded_grid_equals_the_frozen_fold():
    # every bundled spec over a grid that crosses the refused corner, the
    # diagonal and alpha > beta, as float rows and as rows of each mixture
    rng = random.Random(19)
    alphas = [rng.uniform(-0.2, 1.2) for _ in range(12)]
    for spec in ALL_SPECS:
        for beta in [rng.uniform(0.3, 1.0) for _ in range(8)] + [1.0, -0.7]:
            _assert_matches_frozen(spec, alphas, beta)
            _assert_matches_frozen(spec, [Fraction(round(a * 97), 97) for a in alphas[:4]], beta)
            _assert_matches_frozen(spec, alphas[:4], Fraction(beta))
            _assert_matches_frozen(spec, [*alphas[:3], 1, 0], beta)
