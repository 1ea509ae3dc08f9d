"""``kneading_order_at`` against the composition it replaces.

The kernel compares the critical orbit with a target as it goes and stops
at the first deciding symbol.  Over a seeded corpus of targets, points and
C tolerances, its answer must be the parity order of the full kneading
prefix, and where that prefix is refused, the kernel must raise the same
error.
"""

import random
from fractions import Fraction

import pytest

from skewtent import kneading_bisect_beta, parse_seq, thex_spec
from skewtent.symbolic import EQUAL, GREATER, LESS, _parity_order
from skewtent.tentmap import kneading_order_at, kneading_prefix_at

from test_curve_pins import _trace_words

EPS_CS = (0, 1e-6, 0.25)
PERIODIC = ("(RLL)", "RL(R)", "RLR(RLL)", "RLLR(L)", "(RLRRL)", "RLL(RLR)", "R(L)")


def _targets():
    """Trace words spelled to 64 and 48 symbols, the thex sequence, periodic
    words and short cuts of some of them, so a target can run out first."""
    texts = [parse_seq(w).text(n) for w in _trace_words() for n in (64, 48)]
    texts.append(thex_spec().to_kneading().text(48))
    texts += [parse_seq(w).text(n) for w in PERIODIC for n in (9, 48)]
    texts += [t[:k] for t in texts[::5] for k in (0, 1, 3)]
    return list(dict.fromkeys(texts))


def _points(seed: int = 7):
    """Points of U, of beta = 1 and of traced curves (where eps_c = 1e-6
    gives C), unchecked points with beta > 1 or alpha at an end of (0, 1),
    and exact points, some of whose orbits hit alpha itself."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < 24:
        b = rng.uniform(0.5, 1.0)
        a = rng.uniform(1 - b, b)
        if 1 - b < a < b:
            pts.append((a, b))
    pts += [(rng.uniform(0.01, 0.99), 1.0) for _ in range(6)]
    for w in ("RLC", "RLLRC", "RLRRC", "RLLLRC"):
        for a in (0.55, 0.6):
            beta = kneading_bisect_beta(parse_seq(w), a).beta
            pts += [(a, beta), (a, beta + 1e-7), (a, beta - 1e-7)]
    pts += [(rng.uniform(0.3, 0.9), rng.uniform(1.0001, 1.3)) for _ in range(6)]
    pts += [(0.0, 0.8), (1.0, 1.0)]
    pts += [(Fraction(i, 8), Fraction(j, 8)) for i in range(1, 8) for j in range(4, 9)]
    return pts


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _reference(a, b, t, eps_c):
    """The order of the full prefix.  At these points the [0, 1] guard can
    refuse only the first symbol, which the kernel always reads, so where
    the prefix is refused the kernel must raise the same error."""
    return _parity_order("".join(kneading_prefix_at(a, b, len(t), eps_c)), t)


def test_kernel_equals_prefix_order_on_seeded_corpus():
    targets = _targets()
    kinds, c_hits, cases = set(), set(), 0
    for a, b in _points():
        for eps_c in EPS_CS:
            prefix = _outcome(kneading_prefix_at, a, b, 64, eps_c)
            if isinstance(prefix, str) and "C" in prefix:
                c_hits.add(eps_c)
            for t in targets:
                want = _outcome(_reference, a, b, t, eps_c)
                assert _outcome(kneading_order_at, a, b, t, eps_c) == want, (a, b, t, eps_c)
                kinds.add(want if isinstance(want, int) else want[0])
                cases += 1
    assert cases > 10_000
    # the corpus reaches every answer, both refusals and C at every tolerance
    assert kinds == {LESS, EQUAL, GREATER, ValueError, ZeroDivisionError}
    assert c_hits == set(EPS_CS)


@pytest.mark.parametrize("eps_c", EPS_CS)
def test_hand_checked_orders(eps_c):
    # beta = 1 - alpha maps onto alpha itself: the kneading sequence is RC
    a, b = Fraction(1, 4), Fraction(3, 4)
    assert kneading_prefix_at(a, b, 4, eps_c) == "RC"
    assert kneading_order_at(a, b, "RC", eps_c) == EQUAL  # a shared C decides
    assert kneading_order_at(a, b, "RCRL", eps_c) == EQUAL
    assert kneading_order_at(a, b, "RL", eps_c) == LESS  # C > L, reversed after one R
    assert kneading_order_at(a, b, "RR", eps_c) == GREATER  # C < R, reversed
    assert kneading_order_at(a, b, "L", eps_c) == GREATER
    assert kneading_order_at(a, b, "R", eps_c) == EQUAL  # the target ran out
    assert kneading_order_at(a, b, "", eps_c) == EQUAL

