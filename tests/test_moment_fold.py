"""The moment folds and the scan's sign reach against per-step references.

``theta._fold1`` and ``theta._fold2`` run the Horner steps ``_step1`` and
``_step2`` in one loop each, with the moments in locals, and a float row
hands them its gaps as floats.  The reference below makes one call per gap
to the step in ``_STEPS``, with the int gaps: the loops must give its
moments bit for bit on floats and exactly on Fractions, and so must the
rows of ``_generic_row`` at orders 1 and 2.  ``_sign_reach`` folds the
magnitude moments with ``_fold1``; a scan shows a wrong reach only once it
skips a root, so the reach itself is held to a frozen copy of its
per-step version over seeded verticals.
"""

import math
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewtent import GapSeq, ThetaSpec, exceptional_spec
from skewtent.theta import (_STEPS, _fixed_point_tail, _fold1, _fold2, _generic_row, _sign_reach,
                            theta_row)

from test_contract import large_gap_specs
from test_theta import ALL_SPECS, THEX, float_points


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


def _sign_reach_before(spec, alpha, beta, value):
    """``theta._sign_reach`` as it was, frozen: the majorant and its margin
    inline, and the magnitude moments folded one ``_step1`` call per gap."""
    head_rev, period_rev, distinct, r, s = spec._plan[:5]
    ax = (1.0 - alpha) / beta
    y = alpha / beta
    mags = [ax * y ** gap for gap in distinct]
    top = max(mags)
    arho = ax ** r * y ** s
    q = top / (1.0 - top)
    bound = 8e-16 * ((q + 3.0 / (1.0 - arho) * q * top ** len(head_rev)) * 1.001 + 1.0)
    lead = abs(value) - 3.0 * bound
    if bound > 1e-12 or lead <= 0.0:
        return 0.0
    tail = _fixed_point_tail(_fold_per_step(1, mags, distinct, period_rev, (0, 0, 0), 1.0),
                             arho, 1.0 / (1.0 - arho), r, s)
    _, k, m = _fold_per_step(1, mags, distinct, head_rev, tail, 1.0)
    return lead / ((1.0 + (k + m) / beta) * 1.001)


def test_sign_reach_equals_its_frozen_per_step_version():
    rng = random.Random(24)
    specs = [*ALL_SPECS, exceptional_spec()]
    for _ in range(6):
        m1 = rng.choice([2, 5, 40, 2000])
        head = [rng.randint(0, m1) for _ in range(rng.randint(0, 5))]
        period = [rng.randint(0, m1) for _ in range(rng.randint(1, 3))]
        specs.append(ThetaSpec(GapSeq((m1, *head), tuple(period))))
    reached = 0
    for spec in specs:
        for alpha in [0.4875] + [rng.uniform(0.02, 0.98) for _ in range(5)]:
            lo = 1 - alpha
            for i in range(48):
                beta = lo + (1 - lo) * (i + 0.5) / 48
                (value,) = theta_row(spec, (alpha,), beta)
                if math.isnan(value):
                    continue
                reach = _sign_reach(spec, alpha, beta, value)
                assert repr(reach) == repr(_sign_reach_before(spec, alpha, beta, value))
                reached += reach > 0
    assert reached > 2000  # most of the 3168 points are admitted and prove a sign above them
