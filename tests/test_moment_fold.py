"""The moment folds against per-step references.

``theta._fold1`` and ``theta._fold2`` run the Horner steps ``_step1`` and
``_step2`` in one loop each, with the moments in locals, and a float row
hands them its gaps as floats.  The reference below makes one call per gap
to the step in ``_STEPS``, with the int gaps: the loops must give its
moments bit for bit on floats and exactly on Fractions, and so must the
rows of ``_generic_row`` at orders 1 and 2.  ``theta._curvature_bound``
folds the magnitude moments with ``_fold2``; its bound is held to the
magnitude series summed term by term in ``test_curve_bisections``.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewtent.theta import _STEPS, _fixed_point_tail, _fold1, _fold2, _generic_row

from test_contract import large_gap_specs
from test_theta import THEX, float_points


def _fold_per_step(order, us, distinct, gaps_rev, acc, one):
    """The Horner step of ``order`` for each gap of ``gaps_rev``, one call
    per gap, with the int gaps of ``distinct``."""
    step = _STEPS[order][0]
    for i in gaps_rev:
        acc = step(us[i], distinct[i], acc, one)
    return acc


def _bits(values):
    return [(type(v), repr(v)) for v in values]


_FLOAT_US = st.one_of(st.floats(-1.0, 1.0), st.floats(allow_nan=False),
                      st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e300, math.inf]))


@given(large_gap_specs(), st.sampled_from([1, 2]), st.data())
@settings(max_examples=300, deadline=None)
def test_float_loop_folds_equal_the_per_step_fold(spec, order, data):
    head_rev, period_rev, distinct = spec._plan[:3]
    fold = _fold1 if order == 1 else _fold2
    us = data.draw(st.lists(_FLOAT_US, min_size=len(distinct), max_size=len(distinct)))
    start = data.draw(st.one_of(st.just(_STEPS[order][1]),
                                st.tuples(*[st.floats(-2.0, 2.0)] * (3 * order))))
    for gaps_rev in (period_rev, head_rev):
        got = fold(us, spec._float_gaps, gaps_rev, start, 1.0)
        assert _bits(got) == _bits(_fold_per_step(order, us, distinct, gaps_rev, start, 1.0))


@given(large_gap_specs(), st.sampled_from([1, 2]), st.data())
@settings(max_examples=100, deadline=None)
def test_fraction_loop_folds_equal_the_per_step_fold(spec, order, data):
    head_rev, period_rev, distinct = spec._plan[:3]
    fold = _fold1 if order == 1 else _fold2
    fractions = st.fractions(-1, 1, max_denominator=97)
    us = data.draw(st.lists(fractions, min_size=len(distinct), max_size=len(distinct)))
    start = data.draw(st.one_of(st.just(_STEPS[order][1]), st.tuples(*[fractions] * (3 * order))))
    for gaps_rev in (period_rev, head_rev[:4]):  # a few head gaps keep the numbers small
        got = fold(us, distinct, gaps_rev, start, 1)
        want = _fold_per_step(order, us, distinct, gaps_rev, start, 1)
        assert got == want and [type(v) for v in got] == [type(v) for v in want]


def _row_moments_per_step(spec, alpha, beta, order):
    """The moments of an admitted float or mixed point, from the x and y
    of its row, folded one step per gap in the row's arithmetic."""
    head_rev, period_rev, distinct, r, s = spec._plan[:5]
    ((x, y, _),) = _generic_row(spec, (alpha,), beta, 1e-12, order)
    one = 1.0 if type(alpha) is float and type(beta) is float else 1
    us = [x * y ** g for g in distinct]
    rho = x ** r * y ** s
    acc = _fold_per_step(order, us, distinct, period_rev, _STEPS[order][1], one)
    acc = _fixed_point_tail(acc, rho, one / (one - rho), r, s)
    return _fold_per_step(order, us, distinct, head_rev, acc, one)


@given(large_gap_specs(), float_points(), st.sampled_from(["float", "fraction alpha", "fraction beta"]))
@example(THEX, (0.62, 0.8), "float")
@example(THEX, (0.62, 0.8), "fraction alpha")
@settings(max_examples=300, deadline=None)
def test_row_moments_equal_the_per_step_fold(spec, point, kind):
    a, b = point
    if kind == "fraction alpha":
        a = Fraction(a)
    elif kind == "fraction beta":
        b = Fraction(b)
    for order in (1, 2):
        (point,) = _generic_row(spec, (a,), b, 1e-12, order)
        if type(point[0]) is not str:  # admitted
            assert _bits(point[2]) == _bits(_row_moments_per_step(spec, a, b, order))
