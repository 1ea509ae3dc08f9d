"""The orbit walkers against the loops they replaced.

``kneading_prefix_at`` and ``kneading_order_at`` classify each iterate with
one comparison chain: x < alpha, x > alpha, x == alpha, then NaN.  The
loops below are the earlier ones, frozen: per symbol they ran a C band test
on ``abs(x - alpha)``, a two-sided [0, 1] guard and a side compare.  For
alpha in (0, 1) the walkers must give the same symbols, orders, exceptions
and texts for any beta and length, on floats and on Fractions: the prefix
walker at every ``eps_c``, and the order walker, which has no C band, as
the frozen loop at ``eps_c`` = 0.
Outside (0, 1) they now refuse alpha, after the slopes are made, so alpha
= 0 or 1 still raises ``ZeroDivisionError``.  The walkers' constants are
floats for a float beta and ints for any other; the frozen loops keep int
constants throughout, so they also hold the float ones to the same bits.
"""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewtent import kneading_bisect_beta, parse_seq
from skewtent.symbolic import C, EQUAL, GREATER, L, LESS, R
from skewtent.tentmap import kneading_order_at, kneading_prefix_at

from test_kneading_order import _targets

NAN = float("nan")
EPS_CS = (0, 1e-6, 0.25, -1e-3, NAN)


def _prefix_before(alpha, beta, n, eps_c=0):
    """The earlier ``kneading_prefix_at``, frozen."""
    syms = []
    x = beta
    lam, mu = x / alpha, x / (1 - alpha)
    for _ in range(n):
        if abs(x - alpha) <= eps_c:
            syms.append(C)
            break
        syms.append(L if x < alpha else R)
        if x < 0 or x > 1:
            raise ValueError(f"x={x} outside [0,1]")
        x = lam * x if x <= alpha else mu * (1 - x)
    return syms


def _order_before(alpha, beta, target, eps_c=0):
    """The earlier ``kneading_order_at``, frozen."""
    x = beta
    lam, mu = x / alpha, x / (1 - alpha)
    odd = False
    for t in target:
        if abs(x - alpha) <= eps_c:
            if t == C:
                return EQUAL
            d = GREATER if t == L else LESS
        else:
            if x < 0 or x > 1:
                raise ValueError(f"x={x} outside [0,1]")
            if x < alpha:
                if t == L:
                    x = lam * x
                    continue
                d = LESS
            elif t == R:
                odd = not odd
                x = lam * x if x <= alpha else mu * (1 - x)
                continue
            else:
                d = GREATER
        return -d if odd else d
    return EQUAL


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _prefix_outcome(alpha, beta, n, eps_c=0):
    """The frozen loop's outcome, its list of symbols joined to a string."""
    want = _outcome(_prefix_before, alpha, beta, n, eps_c)
    return "".join(want) if isinstance(want, list) else want


def _points(seed: int = 11):
    """(alpha, beta) pairs, alpha in (0, 1) and some next to its ends:
    beta drawn from [-0.1, 1.3] of alpha's type, and beta = 1, 1 - alpha
    (whose first iterate is alpha itself), alpha, 0, NaN for floats, the
    int 1 with a float alpha (an int orbit start that turns float), and
    points on and next to traced curves."""
    rng = random.Random(seed)
    floats = [rng.uniform(0.01, 0.99) for _ in range(14)]
    floats += [math.ulp(0.0), 2.0 ** -1022, 1e-9, 0.25, 0.5, 0.6, 1 - 1e-9, math.nextafter(1.0, 0.0)]
    fracs = [Fraction(1, 8), Fraction(1, 4), Fraction(2, 3), Fraction(3, 4), Fraction(7, 8),
             Fraction(1, 10 ** 9), Fraction(10 ** 9 - 1, 10 ** 9)]
    pts = []
    for a in floats:
        pts += [(a, rng.uniform(-0.1, 1.3)) for _ in range(6)]
        pts += [(a, 1.0), (a, 1 - a), (a, a), (a, 0.0), (a, NAN), (a, 1)]
    for a in fracs:
        pts += [(a, Fraction(rng.randint(-10, 130), 100)) for _ in range(6)]
        pts += [(a, Fraction(1)), (a, 1 - a), (a, a), (a, Fraction(0))]
    for w in ("RLC", "RLLRC"):
        beta = kneading_bisect_beta(parse_seq(w), 0.6).beta
        pts += [(0.6, beta), (0.6, beta + 1e-7), (0.6, beta - 1e-7)]
    return pts


# prefix lengths tried on Fraction orbits, whose numbers grow with each symbol
FRACTION_LENGTHS = (0, 1, 2, 3, 5, 9, 17, 33, 64)


def test_walkers_equal_the_frozen_loops_on_seeded_corpus():
    targets = [t for t in _targets() if len(t) <= 64]
    seen = set()
    for a, b in _points():
        lengths = FRACTION_LENGTHS if isinstance(a, Fraction) else range(65)
        for eps_c in EPS_CS:
            for n in lengths:
                want = _prefix_outcome(a, b, n, eps_c)
                assert _outcome(kneading_prefix_at, a, b, n, eps_c) == want, (a, b, n, eps_c)
            words = list(targets)
            if isinstance(want, str):
                words.append(want)  # read to its end, or to a shared C
                if C in want:
                    seen.add(("C", eps_c))
            else:
                seen.add("left guard" if want[1].startswith("x=-") else want[0].__name__)
            for t in words if eps_c == 0 else ():
                want = _outcome(_order_before, a, b, t)
                assert _outcome(kneading_order_at, a, b, t) == want, (a, b, t)
                seen.add(want if isinstance(want, int) else want[0].__name__)
    # C at each tolerance that allows it, both guards, every order
    assert {("C", 0), ("C", 1e-6), ("C", 0.25), "left guard", "ValueError"} <= seen
    assert {LESS, EQUAL, GREATER} <= seen


def test_nan_beta_and_an_orbit_on_alpha_take_the_r_path():
    # a NaN orbit reads R for ever; for the prefix walker x == alpha reads R
    # when eps_c < 0 or NaN, and for both walkers C at eps_c = 0
    assert kneading_prefix_at(0.6, NAN, 5, 0) == "".join(_prefix_before(0.6, NAN, 5, 0)) == R * 5
    assert kneading_order_at(0.6, NAN, "RRRL") == _order_before(0.6, NAN, "RRRL") == LESS
    a, b = Fraction(1, 4), Fraction(3, 4)  # beta = 1 - alpha maps onto alpha
    for eps_c in (-1e-3, NAN):
        want = _prefix_before(a, b, 6, eps_c)
        assert want[:2] == [R, R]
        assert kneading_prefix_at(a, b, 6, eps_c) == "".join(want)
    for t in ("RRL", "RRRR", "RC", "RL"):
        assert kneading_order_at(a, b, t) == _order_before(a, b, t)
    assert kneading_prefix_at(a, b, 6, 0) == R + C


@st.composite
def walks(draw):
    if draw(st.booleans()):
        a = draw(st.floats(0, 1, exclude_min=True, exclude_max=True))
        b = draw(st.floats(-0.1, 1.3) | st.sampled_from([1.0, 1 - a, a, NAN, 1]))
    else:
        a = draw(st.fractions(0, 1, max_denominator=60).filter(lambda v: 0 < v < 1))
        b = draw(st.fractions(Fraction(-1, 10), Fraction(13, 10), max_denominator=60)
                 | st.sampled_from([Fraction(1), 1 - a, a]))
    return a, b, draw(st.sampled_from(EPS_CS))


@given(walks(), st.integers(0, 64), st.text("LRC", max_size=64))
@settings(max_examples=600, deadline=None)
def test_walkers_equal_the_frozen_loops_on_random_walks(walk, n, target):
    a, b, eps_c = walk
    assert _outcome(kneading_prefix_at, a, b, n, eps_c) == _prefix_outcome(a, b, n, eps_c)
    assert _outcome(kneading_order_at, a, b, target) == _outcome(_order_before, a, b, target)


@pytest.mark.parametrize("alpha, beta, n, before", [
    (1.5, 0.8, 6, "LLLLLL"),
    (-0.5, 0.8, 4, "RRRR"),
    (NAN, 0.8, 4, "RRRR"),
    (Fraction(3, 2), Fraction(4, 5), 3, "LLL"),
])
def test_alpha_outside_the_unit_interval_is_refused(alpha, beta, n, before):
    assert "".join(_prefix_before(alpha, beta, n)) == before  # what the loops gave
    says = f"alpha must lie in (0,1), got {alpha}"
    with pytest.raises(ValueError, match=re.escape(says)):
        kneading_prefix_at(alpha, beta, n)
    with pytest.raises(ValueError, match=re.escape(says)):
        kneading_prefix_at(alpha, beta, 0)
    with pytest.raises(ValueError, match=re.escape(says)):
        kneading_order_at(alpha, beta, "RL")


@pytest.mark.parametrize("alpha", [0, 1, 0.0, 1.0, Fraction(0), Fraction(1)])
def test_alpha_at_an_end_divides_by_zero(alpha):
    # the slopes are made before alpha is checked, as they always were
    with pytest.raises(ZeroDivisionError):
        _prefix_before(alpha, 0.8, 4)
    with pytest.raises(ZeroDivisionError):
        kneading_prefix_at(alpha, 0.8, 4)
    with pytest.raises(ZeroDivisionError):
        kneading_order_at(alpha, 0.8, "RL")


def test_c_at_zero_tolerance_needs_an_exact_hit():
    # mixed Fraction and float: the exact compare decides the side, where
    # abs(x - alpha) rounded the difference to 0 and gave C; a Fraction
    # beta keeps the int constants, so 1 - x stays exact
    a, b = 1 / 3, Fraction(1, 3)
    assert _prefix_before(a, b, 3) == [C]
    assert kneading_prefix_at(a, b, 3) == R + L + L
    assert kneading_prefix_at(a, b, 3, 1e-6) == "".join(_prefix_before(a, b, 3, 1e-6)) == C
