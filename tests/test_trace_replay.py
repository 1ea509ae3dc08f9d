"""Trace nodes replayed from a proven Newton bracket against the plain bisection.

For a finite word wC, ``curves`` predicts each node by Newton's method on
the word's branch polynomial, proves a bracket around it with two probes
and lets ``tentmap.kneading_bisect_at`` take the order of every midpoint
outside that bracket without walking its orbit.  The bisection reads only
orders, and the order is monotone in beta along a vertical, so every node
must be the plain bisection's, frozen below, bit for bit: its beta, its
residual and its verification verdict, which the plain bisection takes
from the earlier banded kernel, frozen in ``test_kneading_order``.  A
wrong prediction must only cost time, and periodic words must never be
predicted.
"""

import math
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewtent import TentParams, curves, in_class_M, is_maximal, parse_seq, trace_isentrope
from skewtent.symbolic import EQUAL, GREATER, LESS, RL_INFINITY
from skewtent.tentmap import kneading_bisect_at, kneading_order_at

from test_kneading_order import _banded_order_before, _targets

NAN = float("nan")
FIXED_WORDS = (["RLC", "RLLRC"] + ["R" + "L" * k + "RC" for k in range(2, 12)]
               + ["RL(R)", "RLRRRL(RL)", "RLL(RL)", "R(L)"])


def _plain_node(m, spec, alpha, tol):
    """One node of ``curves.trace_isentrope`` as the plain bisection made
    it, every midpoint walked, frozen; None where the node failed."""
    if m == RL_INFINITY:
        TentParams(alpha, 1.0)
        return alpha, 1.0, NAN, _banded_order_before(alpha, 1.0, m.text(48)) == EQUAL
    target = m.text(64)
    lo, hi = max(1 - alpha, alpha, 0.5) + 1e-9, 1.0
    if lo >= hi:
        return None
    TentParams(alpha, lo)
    if kneading_order_at(alpha, lo, target) >= 0 or kneading_order_at(alpha, hi, target) < 0:
        return None
    _, lo, hi = kneading_bisect_at(alpha, target, lo, hi, tol)
    beta = 0.5 * (lo + hi)
    ok = _banded_order_before(alpha, beta, m.text(48), 1e-6 if m.is_finite else 0) == EQUAL
    return alpha, beta, curves._residual(spec, alpha, beta), ok


def _plain_trace(m, alphas, tol):
    spec = curves._spec(m)
    out = []
    for a in alphas:
        try:
            node = _plain_node(m, spec, a, tol)
        except ValueError:
            node = None
        out.append(_key(*(node or (a, NAN, NAN, False))))
    return out


def _key(alpha, beta, residual, ok):
    return alpha.hex(), beta.hex(), residual.hex(), ok


def _trace(m, alphas, tol):
    return [_key(p.alpha, p.beta, p.residual_theta, p.kneading_ok) for p in trace_isentrope(m, alphas, tol)]


@st.composite
def words(draw):
    """A fixed trace word, or a seeded maximal class-M word of 5-20 symbols."""
    if draw(st.booleans()):
        return draw(st.sampled_from(FIXED_WORDS))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    while True:
        n = rng.randint(5, 20)
        w = "R" + "".join(rng.choice("LR") for _ in range(n - 2)) + "C"
        m = parse_seq(w)
        if is_maximal(m) and in_class_M(m) == "yes":
            return w


@st.composite
def alpha_lists(draw):
    """Alphas near 0, 1/2 and 1 and random ones, ascending, descending or shuffled."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    near = [1e-9, 1e-4, 0.02, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 0.98, 1 - 1e-4, 1 - 1e-9]
    alphas = rng.sample(near, rng.randint(0, 4)) + [rng.uniform(0.02, 0.98) for _ in range(rng.randint(1, 12))]
    a_lo, a_hi = sorted(rng.uniform(0.02, 0.98) for _ in range(2))
    alphas += [a_lo + (a_hi - a_lo) * i / 9 for i in range(rng.choice((0, 10)))]  # a grid, as traces run
    alphas.sort()
    order = draw(st.sampled_from(["ascending", "descending", "shuffled"]))
    if order == "descending":
        alphas.reverse()
    elif order == "shuffled":
        rng.shuffle(alphas)
    return alphas


@given(words(), alpha_lists(), st.sampled_from([1e-12, 1e-6, 0.0, 1e-2]))  # 1e-2: wider than the 1e-3 start
@example("RLLRC", [0.2 + 0.4 * i / 39 for i in range(40)], 1e-12)
@example("RLC", [0.6, 0.3, 0.5 - 1e-9, 0.98], 0.0)
@example("RLRRRL(RL)", [0.35, 0.45, 0.55], 1e-12)
@example("R(L)", [1e-9, 0.5, 1 - 1e-9], 1e-6)
@settings(max_examples=300, deadline=None)
def test_trace_equals_the_plain_bisection(word, alphas, tol):
    m = parse_seq(word)
    assert _trace(m, alphas, tol) == _plain_trace(m, alphas, tol)


def test_kneading_bisect_beta_equals_the_plain_bisection():
    for word in FIXED_WORDS:
        m = parse_seq(word)
        for alpha in (0.3, 0.45, 0.55):
            want = _plain_trace(m, [alpha], 1e-12)
            try:
                p = curves.kneading_bisect_beta(m, alpha)
            except curves.BracketError:
                assert want[0][1] == "nan"
                continue
            assert [_key(p.alpha, p.beta, p.residual_theta, p.kneading_ok)] == want


def test_known_ends_leave_the_walker_bracket_as_it_was():
    rng = random.Random(27)
    alphas = [1e-9, 0.01, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 0.99, 1 - 1e-9] + [rng.uniform(0, 1) for _ in range(8)]
    used = 0
    for target in _targets():
        for alpha in alphas:
            lo, hi = max(1 - alpha, alpha, 0.5) + 1e-9, 1.0
            if lo >= hi:
                continue
            # known ends: a coarse bisection's, which lie near the curve, and sampled ones
            ends = [kneading_bisect_at(alpha, target, lo, hi, 1e-6)[1:]]
            samples = sorted(rng.uniform(lo, hi) for _ in range(6))
            orders = [kneading_order_at(alpha, b, target) for b in samples]
            below = [b for b, c in zip(samples, orders) if c == LESS]
            above = [b for b, c in zip(samples, orders) if c == GREATER]
            if below and above:
                ends.append((rng.choice(below), rng.choice(above)))
            for b_lo, b_hi in ends:
                if not (kneading_order_at(alpha, b_lo, target) == LESS
                        and kneading_order_at(alpha, b_hi, target) == GREATER):
                    continue
                used += 1
                for tol in (1e-12, 1e-6, 0.0):
                    want = kneading_bisect_at(alpha, target, lo, hi, tol)
                    got = kneading_bisect_at(alpha, target, lo, hi, tol, below=b_lo, above=b_hi)
                    assert [v.hex() if isinstance(v, float) else v for v in got] == \
                        [v.hex() if isinstance(v, float) else v for v in want], (alpha, target, b_lo, b_hi, tol)
    assert used >= 200


def test_a_wrong_prediction_falls_back_to_the_plain_bisection(monkeypatch):
    alphas = [0.25 + 0.35 * i / 19 for i in range(20)]
    newton, walker = curves._newton, curves.kneading_bisect_at
    known = []

    def recording(alpha, target, lo, hi, tol, *args, below=-math.inf, above=math.inf):
        known.append(below > lo or above < hi)
        return walker(alpha, target, lo, hi, tol, *args, below=below, above=above)

    monkeypatch.setattr(curves, "kneading_bisect_at", recording)
    for shift in (1e-12, -1e-12, 5e-13, 1e-3, -0.5, 0.5, NAN, math.inf):
        monkeypatch.setattr(curves, "_newton",
                            lambda alpha, word, b, shift=shift: newton(alpha, word, b) + shift)
        for word in ("RLC", "RLLRC", "RLLLLRC"):
            m = parse_seq(word)
            for tol in (1e-12, 0.0):
                known.clear()
                assert _trace(m, alphas, tol) == _plain_trace(m, alphas, tol)
                assert known and not any(known)  # no proof held: every node fell back


def test_newton_runs_once_per_node_of_a_finite_word_only(monkeypatch):
    calls = []
    newton = curves._newton

    def counting(alpha, word, b):
        calls.append(word)
        return newton(alpha, word, b)

    monkeypatch.setattr(curves, "_newton", counting)
    alphas = [0.3 + 0.25 * i / 29 for i in range(30)]
    for word in ("RLC", "RLLRC", "RLLLRC"):
        m = parse_seq(word)
        calls.clear()
        points = trace_isentrope(m, alphas)
        assert all(p.kneading_ok for p in points)
        assert calls == [m.pre] * len(alphas)
    for word in ("RL(R)", "RLRRRL(RL)", "RLL(RL)", "R(L)"):
        calls.clear()
        trace_isentrope(parse_seq(word), alphas)
        assert calls == []


def test_the_prediction_is_proven_at_almost_every_trace_node(monkeypatch):
    # a prediction that never held would move no node, only the time: held here
    # to at least 99% of the nodes of R L^k R C traces as the workloads run them
    proven, nodes = [], 0
    walker = curves.kneading_bisect_at

    def recording(alpha, target, lo, hi, tol, *args, below=-math.inf, above=math.inf):
        if below != -math.inf:
            proven.append(below > lo)
        return walker(alpha, target, lo, hi, tol, *args, below=below, above=above)

    monkeypatch.setattr(curves, "kneading_bisect_at", recording)
    rng = random.Random(901)
    for k in range(0, 9):
        word = "R" + "L" * k + "RC" if k else "RLC"
        a_lo, a_hi = rng.uniform(0.2, 0.35), rng.uniform(0.5, 0.6)
        alphas = [a_lo + (a_hi - a_lo) * i / 44 for i in range(45)]
        nodes += sum(p.beta == p.beta for p in trace_isentrope(parse_seq(word), alphas))
    assert len(proven) == nodes >= 300
    assert sum(proven) >= 0.99 * nodes
