"""Tent map evaluation, orbits, kneading prefixes, lap entropy."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewtent import tentmap
from skewtent import (
    LapOverflowError,
    TentParams,
    compare_prefix,
    entropy_lap,
    kneading_prefix,
    lap_counts,
    minus_variant,
    orbit,
    parse_seq,
    tent_eval,
)


def test_eval_examples():
    assert tent_eval(TentParams(0.5, 1.0), 0.5) == 1.0
    assert tent_eval(TentParams(0.5, 1.0), 1.0) == 0.0
    assert tent_eval(TentParams(0.65, 0.8), 0.8) == pytest.approx(0.8 / 0.35 * 0.2, abs=1e-15)
    assert tent_eval(TentParams(0.3, 0.8), 0.0) == 0.0


def test_eval_domain():
    with pytest.raises(ValueError):
        tent_eval(TentParams(0.5, 0.8), 1.5)
    with pytest.raises(ValueError):
        tent_eval(TentParams(0.5, 0.8), -0.1)


def test_eval_continuous_at_turning_point():
    p = TentParams(0.37, 0.91)
    assert tent_eval(p, p.alpha) == pytest.approx(p.beta, abs=1e-15)
    assert tent_eval(p, p.alpha + 1e-12) == pytest.approx(p.beta, abs=1e-10)


def test_exact_orbit_with_fractions():
    p = TentParams(Fraction(1, 2), Fraction(3, 4))
    xs = orbit(p, Fraction(3, 4), 4)
    assert xs[1] == Fraction(3, 8)
    assert xs[2] == Fraction(9, 16)
    assert all(isinstance(x, Fraction) for x in xs)


def test_kneading_prefix_examples():
    assert kneading_prefix(TentParams(0.5, 1.0), 5) == "RLLLL"
    assert kneading_prefix(TentParams(0.5, 0.6), 4) == "RLRR"


def test_kneading_stops_at_c():
    # golden-mean tent: the critical orbit hits alpha after two steps
    phi = (1 + math.sqrt(5)) / 2
    p = TentParams(0.5, phi / 2)
    got = kneading_prefix(p, 10, eps_c=1e-12)
    assert got == "RLC"


def _reference_prefix(p, n, eps_c=0):
    """kneading_prefix spelled out with tent_eval for every step."""
    syms = []
    x = p.beta
    for _ in range(n):
        if abs(x - p.alpha) <= eps_c:
            syms.append("C")
            break
        syms.append("L" if x < p.alpha else "R")
        x = tent_eval(p, x)
    return syms


@given(st.floats(0.5, 1.0, exclude_min=True), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.sampled_from([0, 0.0, 1e-12, 1e-6, 1e-2, 0.2]), st.integers(1, 80))
@settings(max_examples=300, deadline=None)
def test_kneading_prefix_matches_tent_eval_orbit(b, t, eps_c, n):
    p = TentParams((1 - b) + t * (2 * b - 1), b)  # a point of U
    assert kneading_prefix(p, n, eps_c=eps_c) == "".join(_reference_prefix(p, n, eps_c))


def test_kneading_prefix_matches_reference_off_u_and_exact():
    rng = random.Random(11)
    for _ in range(300):
        p = TentParams(rng.uniform(0.01, 0.99), rng.uniform(0.01, 1.0))
        assert kneading_prefix(p, 40) == "".join(_reference_prefix(p, 40))
    p = TentParams(Fraction(2, 5), Fraction(4, 5))
    assert kneading_prefix(p, 30) == "".join(_reference_prefix(p, 30))
    # an exact orbit that lands on alpha after one step: R C
    p = TentParams(Fraction(1, 3), Fraction(2, 3))
    assert kneading_prefix(p, 10) == "".join(_reference_prefix(p, 10))


def test_kneading_prefix_refuses_orbit_leaving_unit_interval():
    # beta > 1 cannot be a TentParams; a stand-in point lets the orbit leave [0, 1]
    p = SimpleNamespace(alpha=0.4, beta=1.2)
    with pytest.raises(ValueError, match="outside"):
        kneading_prefix(p, 5)
    with pytest.raises(ValueError, match="outside"):
        _reference_prefix(p, 5)


def test_kneading_monotone_in_beta():
    # along verticals the kneading order is nondecreasing in beta
    rng = random.Random(9)
    for _ in range(40):
        b1 = rng.uniform(0.55, 0.98)
        b2 = rng.uniform(b1 + 0.005, 0.999)
        a = rng.uniform(1 - b1 + 0.01, b1 - 0.01)
        k1 = kneading_prefix(TentParams(a, b1), 40)
        k2 = kneading_prefix(TentParams(a, b2), 40)
        assert _prefix_cmp(k1, k2) <= 0


def _prefix_cmp(a, b):
    order = {"L": 0, "C": 1, "R": 2}
    r = 0
    for x, y in zip(a, b):
        if x != y:
            d = -1 if order[x] < order[y] else 1
            return d if r % 2 == 0 else -d
        if x == "R":
            r += 1
        if x == "C":
            return 0
    return 0


def test_itinerary_below_curve_matches_minus_variant():
    # just under a point whose kneading is finite, the itinerary follows the
    # lower limit sequence
    phi = (1 + math.sqrt(5)) / 2
    p = TentParams(0.5, phi / 2 - 1e-9)
    got = kneading_prefix(p, 15)
    mv = minus_variant(parse_seq("RLC"))
    assert compare_prefix(got, mv) == 0


def test_lap_counts_basic():
    counts = lap_counts(TentParams(0.5, 1.0), 10)
    assert counts == [2 ** k for k in range(1, 11)]


def test_lap_submultiplicative():
    p = TentParams(0.55, 0.8)
    counts = lap_counts(p, 14)

    def lap(k):
        return counts[k - 1]

    for m in range(1, 7):
        for n in range(1, 7):
            assert lap(m + n) <= lap(m) * lap(n)


def _oracle_lap_counts(p, n, cap=4_000_000):
    """The piece-list lap counter: one (u, v) endpoint pair per monotone
    piece, a piece splitting where its value interval straddles alpha."""
    pieces = [(0.0, p.beta), (p.beta, 0.0)]
    counts = [2]
    for _ in range(n - 1):
        nxt = []
        for (u, v) in pieces:
            lo, hi = (u, v) if u <= v else (v, u)
            if lo < p.alpha < hi:
                nxt.append((tent_eval(p, u), p.beta))
                nxt.append((p.beta, tent_eval(p, v)))
            else:
                nxt.append((tent_eval(p, u), tent_eval(p, v)))
        pieces = nxt
        counts.append(len(pieces))
        if len(pieces) > cap:
            raise LapOverflowError(f"lap count {len(pieces)} exceeds cap {cap}")
    return counts


@given(st.floats(0.5, 1.0, exclude_min=True), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.integers(1, 14))
@settings(max_examples=200, deadline=None)
def test_lap_counts_match_piece_list_oracle(b, t, n):
    p = TentParams((1 - b) + t * (2 * b - 1), b)  # a point of U
    assert lap_counts(p, n) == _oracle_lap_counts(p, n)


def test_lap_overflow_at_the_oracle_depth(monkeypatch):
    p = TentParams(0.5, 1.0)  # 2^k laps at depth k: 1024 > 1000 at depth 10
    monkeypatch.setattr(tentmap, "_LAP_CAP", 1000)
    with pytest.raises(LapOverflowError) as oracle:
        _oracle_lap_counts(p, 12, cap=1000)
    with pytest.raises(LapOverflowError) as merged:
        lap_counts(p, 12)
    assert str(merged.value) == str(oracle.value) == "lap count 1024 exceeds cap 1000"
    assert lap_counts(p, 9)[-1] == 512


def test_entropy_constant_slope_oracle():
    # constant-slope maps have entropy log(slope)
    assert entropy_lap(TentParams(0.5, 1.0), 16) == pytest.approx(math.log(2), abs=0.02)
    assert entropy_lap(TentParams(0.5, 0.75), 16) == pytest.approx(math.log(1.5), abs=0.02)


def test_entropy_depth_validation():
    with pytest.raises(ValueError):
        entropy_lap(TentParams(0.5, 0.8), 4)
    with pytest.raises(ValueError):
        entropy_lap(TentParams(0.2, 0.6), 16)  # outside U
