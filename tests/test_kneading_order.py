"""``kneading_order_at`` against the composition it replaces.

The kernel compares the critical orbit with a target as it goes and stops
at the first deciding symbol.  Over a seeded corpus of targets and points,
its answer must be the parity order of the full kneading prefix, and where
that prefix is refused, the kernel must raise the same error.  The kernel
has no C band: the band lives in ``kneading_prefix_at``, and the parity
order of the banded prefix must be the earlier banded kernel's, frozen
below, at every C tolerance.  So must a trace node's verification, which
compares the banded prefix with its label.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from skewtent import BracketError, TentParams, kneading_bisect_beta, parse_seq, thex_spec
from skewtent.symbolic import C, EQUAL, GREATER, L, LESS, R, _parity_order
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


def _banded_order_before(alpha, beta, target, eps_c=0):
    """The earlier ``kneading_order_at(alpha, beta, target, eps_c)``, frozen:
    the bisection walker's one-probe walk, with the C band tested on each
    side of alpha before the guard."""
    ca = 1 - alpha
    if not 0 < alpha < 1:
        lam, mu = beta / alpha, beta / ca
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    zero, one = (0.0, 1.0) if type(beta) is float else (0, 1)
    x = beta
    lam, mu = x / alpha, x / ca
    odd = False
    for t in target:
        if x < alpha:
            if not (eps_c and alpha - x <= eps_c):
                if x < zero:
                    raise ValueError(f"x={x} outside [0,1]")
                if t != L:
                    return GREATER if odd else LESS
                x = lam * x
                continue
        elif x > alpha:
            if not (eps_c and x - alpha <= eps_c):
                if x > one:
                    raise ValueError(f"x={x} outside [0,1]")
                if t != R:
                    return LESS if odd else GREATER
                odd = not odd
                x = mu * (one - x)
                continue
        elif not (x == alpha and eps_c >= 0):  # NaN, or x == alpha with eps_c < 0 or NaN: R
            if t != R:
                return LESS if odd else GREATER
            odd = not odd
            x = lam * x
            continue
        # the symbol is C
        if t == C:
            return EQUAL
        order = GREATER if t == L else LESS
        return -order if odd else order
    return EQUAL


def _reference(a, b, t, eps_c=0):
    """The order of the full prefix.  At these points the [0, 1] guard can
    refuse only the first symbol, which the kernel always reads, so where
    the prefix is refused the kernel must raise the same error."""
    return _parity_order(kneading_prefix_at(a, b, len(t), eps_c), t)


def test_kernel_equals_prefix_order_on_seeded_corpus():
    # the kernel at eps_c = 0; the earlier banded kernel at every tolerance
    targets = _targets()
    kinds, c_hits, cases = set(), set(), 0
    for a, b in _points():
        for eps_c in EPS_CS:
            prefix = _outcome(kneading_prefix_at, a, b, 64, eps_c)
            if isinstance(prefix, str) and "C" in prefix:
                c_hits.add(eps_c)
            for t in targets:
                want = _outcome(_reference, a, b, t, eps_c)
                assert _outcome(_banded_order_before, a, b, t, eps_c) == want, (a, b, t, eps_c)
                if not eps_c:
                    assert _outcome(kneading_order_at, a, b, t) == want, (a, b, t)
                kinds.add(want if isinstance(want, int) else want[0])
                cases += 1
    assert cases > 10_000
    # the corpus reaches every answer, both refusals and C at every tolerance
    assert kinds == {LESS, EQUAL, GREATER, ValueError, ZeroDivisionError}
    assert c_hits == set(EPS_CS)


def test_one_parity_rule_at_tent_params_points():
    # the kernel reads the orbit by the rule of symbolic._parity_order, on
    # seeded targets beyond the corpus: C-terminated, with a C inside, empty
    rng = random.Random(19)
    targets = ["", "C", "RC"]
    for _ in range(60):
        body = "R" + "".join(rng.choice("LR") for _ in range(rng.randint(0, 40)))
        targets += [body, body + "C", body[:rng.randint(0, len(body))] + "C" + body]
    seen = set()
    for a, b in _points():
        if not (0 < a < 1 and 0 < b <= 1):
            continue
        TentParams(a, b)
        for t in targets:
            want = _reference(a, b, t)
            assert kneading_order_at(a, b, t) == want, (a, b, t)
            seen.add((want, t.endswith("C")))
    assert seen == {(o, c) for o in (LESS, EQUAL, GREATER) for c in (False, True)}


@pytest.mark.parametrize("eps_c", EPS_CS)
def test_hand_checked_orders(eps_c):
    # beta = 1 - alpha maps onto alpha itself: the kneading sequence is RC,
    # for the kernel and for the prefix at every tolerance
    a, b = Fraction(1, 4), Fraction(3, 4)
    assert kneading_prefix_at(a, b, 4, eps_c) == "RC"
    for t, want in [
        ("RC", EQUAL),  # a shared C decides
        ("RCRL", EQUAL),
        ("RL", LESS),  # C > L, reversed after one R
        ("RR", GREATER),  # C < R, reversed
        ("L", GREATER),
        ("R", EQUAL),  # the target ran out
        ("", EQUAL),
    ]:
        assert kneading_order_at(a, b, t) == want, t
        assert _reference(a, b, t, eps_c) == want, t


# -- a trace node's verification ---------------------------------------------

CURVE_WORDS = ("RLC", "RLLRC", "RLRRC", "RLLLRC", "RLLRLRC")


@st.composite
def banded_cases(draw):
    """A float point of U, of U within 1e-15 of beta = 1, or on or next to
    the curve of a C-terminated word, where an iterate lands within 1e-6
    of alpha; a label of a finite word spelled to its C, often the curve's
    own, or 48 symbols of a periodic one; and a C tolerance of 0 or 1e-6."""
    region = draw(st.sampled_from(["U", "top", "curve"]))
    body = "R" + draw(st.text("LR", max_size=14))
    if draw(st.booleans()):
        label = parse_seq(body + "C").text(48)
    else:
        label = parse_seq(body + "(" + draw(st.text("LR", min_size=1, max_size=6)) + ")").text(48)
    if region == "curve":
        word = draw(st.sampled_from(CURVE_WORDS))
        a = draw(st.floats(0.3, 0.7))
        try:
            b = kneading_bisect_beta(parse_seq(word), a).beta
        except BracketError:
            b = 1.0
        b = min(b + draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 3e-7, -3e-7])), 1.0)
        assume(1 - b < a < b)
        if draw(st.booleans()):
            label = word
    else:
        b = (1.0 - draw(st.floats(0.0, 1e-15)) if region == "top"
             else draw(st.floats(0.5, 1.0, exclude_min=True)))
        a = (1 - b) + draw(st.floats(0.0, 1.0)) * (2 * b - 1)
        if not 1 - b < a < b:
            a = 0.5
    return a, b, label, draw(st.sampled_from([0, 1e-6]))


def test_banded_prefix_verification_equals_the_banded_kernel():
    # kneading_ok compares the banded prefix with the label; before, it asked
    # the banded kernel for EQUAL.  At a point of U every float iterate stays
    # in [0, 1], so reading past the first mismatch refuses nothing
    seen = set()

    @given(banded_cases())
    @example((0.6, kneading_bisect_beta(parse_seq("RLLRC"), 0.6).beta, "RLLRC", 1e-6))
    @example((0.55, 1.0, parse_seq("RL(R)").text(48), 0))
    @example((0.55, math.nextafter(1.0, 0.0), parse_seq("RL(R)").text(48), 1e-6))
    @settings(max_examples=600, deadline=None)
    def check(case):
        a, b, label, eps_c = case
        assert TentParams(a, b).in_u
        ok = kneading_prefix_at(a, b, len(label), eps_c) == label
        assert ok == (_banded_order_before(a, b, label, eps_c) == EQUAL), case
        banded = C in kneading_prefix_at(a, b, len(label), eps_c) and C not in kneading_prefix_at(a, b, len(label))
        seen.add((ok, label.endswith(C), banded and ok))

    check()
    # verified and refused labels of both kinds, and a verdict that needed the band
    assert {(True, True, True), (False, True, False), (True, False, False), (False, False, False)} <= seen
