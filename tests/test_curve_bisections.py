"""The two curve bisections against their probe-by-probe forms.

The scan's grid walk and bisection prove signs from the chord of the
nearest evaluated points and the curvature bound of the vertical, and call
Theta only where that proof fails; they must give the roots of the search
that evaluates every node and midpoint, bit for bit, and call Theta only
at nodes and midpoints that search evaluates.  The trace bisection
halves its bracket inside the orbit walker, ``tentmap.kneading_bisect_at``;
it must give the bracket of the halving loop that made one
``kneading_order_at`` call per probe, frozen below.
"""

import math
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewtent import GapSeq, ThetaSpec, curves, parse_seq, thex_spec
from skewtent.symbolic import EQUAL
from skewtent.tentmap import kneading_bisect_at, kneading_order_at
from skewtent.theta import _MAJORANT_MARGIN, _curvature_bound, _nodes, sign_change_roots

from test_kneading_order import _targets

THEX = thex_spec()
RLLRC = ThetaSpec.from_seq(parse_seq("RLLRC"))


@st.composite
def gap_specs(draw):
    """A spec of a first gap up to 9, up to six more head gaps and a period
    of one to three gaps, drawn from a seed."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    m1 = rng.randint(1, 9)
    head = [rng.randint(0, m1) for _ in range(rng.randint(0, 6))]
    period = [rng.randint(0, m1) for _ in range(rng.randint(1, 3))]
    return ThetaSpec(GapSeq((m1, *head), tuple(period)))


@st.composite
def verticals(draw):
    """alpha0, a beta range inside (0, 1] and a sample count."""
    alpha0 = draw(st.floats(0.05, 0.95))
    lo = draw(st.floats(0.05, 0.95))
    hi = draw(st.floats(lo + 0.01, 1.0))
    return alpha0, lo, hi, draw(st.integers(1, 600))


@given(st.one_of(st.just(THEX), st.just(RLLRC), gap_specs()), verticals())
@example(THEX, (curves.THEX_ALPHA0, curves.THEX_BETAS[0], curves.THEX_BETAS[-1], 400))
@example(RLLRC, (0.52, 0.3, 1.0, 50))
@settings(max_examples=150, deadline=None)
def test_curvature_bound_moves_no_root(spec, vertical):
    alpha0, lo, hi, samples = vertical
    calls = {False: [], True: []}

    def residual(proving):
        def f(t):
            calls[proving].append(t)
            return curves._residual(spec, alpha0, t)
        return f

    xs = _nodes(lo, hi, samples)
    plain = sign_change_roots(residual(False), xs)
    proven = sign_change_roots(residual(True), xs, lambda t: _curvature_bound(spec, alpha0, t))
    assert [r.hex() for r in proven] == [r.hex() for r in plain]
    assert set(calls[True]) <= set(calls[False])


def test_curvature_bound_is_the_magnitude_series():
    # M2 is sum |t_k| n (n + 1) / beta^2 with n = k + mbar_k, scaled by the
    # margin; the series is summed here term by term, far into its tail
    rng = random.Random(26)
    specs = [THEX, RLLRC]
    for _ in range(4):
        m1 = rng.randint(1, 9)
        specs.append(ThetaSpec(GapSeq((m1, *[rng.randint(0, m1) for _ in range(4)]),
                                      (rng.randint(0, m1), rng.randint(0, m1)))))
    checked = 0
    for spec in specs:
        for alpha, beta in [(0.4875, 0.7), (0.3, 0.9), (0.6, 0.95), (0.52, 0.8)]:
            bounds = _curvature_bound(spec, alpha, beta)
            if bounds is None:
                continue
            x, y = (1 - alpha) / beta, alpha / beta
            total = 0.0
            for k in range(1, 3000):
                n = k + spec.cum(k)
                total += x ** k * y ** spec.cum(k) * n * (n + 1)
            assert math.isclose(bounds[0], total / beta ** 2 * _MAJORANT_MARGIN, rel_tol=1e-9)
            checked += 1
    assert checked >= 12


def test_thex_scan_evaluates_at_most_80_residuals(monkeypatch):
    # the grid pass and the proofs leave 59 of the bisection's 122 calls
    calls = []
    residual = curves._residual

    def counting(spec, alpha, beta):
        calls.append(beta)
        return residual(spec, alpha, beta)

    monkeypatch.setattr(curves, "_residual", counting)
    roots = curves.counterexample_scan(THEX, curves.THEX_ALPHA0, curves.THEX_BETAS[0],
                                       curves.THEX_BETAS[-1])
    assert [r.relation for r in roots] == ["less", "less"]
    assert len(calls) <= 80


def test_thex_scan_evaluates_at_most_50_residuals_and_10_curvature_bounds(monkeypatch):
    # the grid walk and the bisection share one certificate: 45 residuals
    # and 7 bounds, where the sign-reach march took 59 residuals and 39 folds
    calls = {"residual": 0, "bound": 0}
    residual, bound = curves._residual, curves._curvature_bound

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)
        return counted

    monkeypatch.setattr(curves, "_residual", counting("residual", residual))
    monkeypatch.setattr(curves, "_curvature_bound", counting("bound", bound))
    roots = curves.counterexample_scan(THEX, curves.THEX_ALPHA0, curves.THEX_BETAS[0],
                                       curves.THEX_BETAS[-1])
    assert [r.relation for r in roots] == ["less", "less"]
    assert calls["residual"] <= 50 and calls["bound"] <= 10


def _halvings_before(alpha, lo, hi, target, tol):
    """The halving loop of ``curves.kneading_bisect_beta`` as it was, one
    ``kneading_order_at`` call per probe, frozen; with the last order."""
    c = None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # adjacent floats: the bracket cannot shrink any further
        c = kneading_order_at(alpha, mid, target)
        if c == EQUAL:
            lo = hi = mid
            break
        if c < 0:
            lo = mid
        else:
            hi = mid
    return c, lo, hi


def test_walker_halvings_equal_the_probe_by_probe_loop():
    rng = random.Random(26)
    alphas = [1e-9, 1e-4, 0.01, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 0.99, 1 - 1e-4, 1 - 1e-9]
    alphas += [rng.uniform(0.0, 1.0) for _ in range(12)]
    targets = _targets()
    seen = set()
    for target in targets:
        for alpha in alphas:
            brackets = [(max(1 - alpha, alpha, 0.5) + 1e-9, 1.0)]
            lo = rng.uniform(0.0, 1.0)
            brackets.append((lo, rng.uniform(lo, 1.0)))
            for lo, hi in brackets:
                for tol in (1e-12, 1e-6, 0.0):
                    want = _halvings_before(alpha, lo, hi, target, tol)
                    got = kneading_bisect_at(alpha, target, lo, hi, tol)
                    assert [v.hex() if isinstance(v, float) else v for v in got] == \
                        [v.hex() if isinstance(v, float) else v for v in want], (alpha, lo, hi, target, tol)
                    seen.add(want[0])
    assert {None, -1, 0, 1} <= seen
