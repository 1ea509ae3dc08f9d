"""The counterexample scan against the full-grid scan it replaced.

The scan walks its grid by subdivision and evaluates Theta at a node only
where the curvature certificate of ``sign_change_roots`` does not prove
the sign of an interval between evaluated nodes.  The reference here is
the scan that evaluated every grid node, kept as it was; both must give
the same roots, bit for bit, with the same labels, or the same refusal,
on a seeded corpus of verticals.
"""

import random

from skewtent import ThetaSpec, counterexample_scan, curves, in_class_M, is_maximal, parse_seq, thex_spec
from skewtent.curves import EQUAL, GREATER, LESS, _residual, _side
from skewtent.theta import _nodes


def _plain_roots(f, xs):
    """The sign-change search as it was before the grid walk, frozen: every
    node evaluated, every sign change bisected to adjacent floats."""
    vals = [f(x) for x in xs]
    roots = []
    for i, (lo, f_lo) in enumerate(zip(xs, vals)):
        if f_lo == 0:
            roots.append(lo)
        elif i + 1 < len(xs) and f_lo * vals[i + 1] < 0:
            hi = xs[i + 1]
            mid = 0.5 * (lo + hi)
            while lo < mid < hi:
                f_mid = f(mid)
                if f_lo * f_mid <= 0:
                    hi = mid
                else:
                    lo, f_lo = mid, f_mid
                mid = 0.5 * (lo + hi)
            roots.append(mid)
    return roots


def _full_grid_scan(spec, alpha0, beta_lo, beta_hi, samples=400):
    """The scan as it was: every grid node evaluated, then bisected.  The
    last node is beta_hi itself, as in the scan's grid."""
    if not beta_lo < beta_hi:
        raise ValueError(f"need beta_lo < beta_hi, got {beta_lo} and {beta_hi}")
    if not (0 < alpha0 < 1 and 0 < beta_lo and beta_hi <= 1):
        raise ValueError(f"the scan needs alpha0 in (0,1) and beta in (0,1], "
                         f"got alpha0={alpha0} and beta range [{beta_lo}, {beta_hi}]")
    target = spec.to_kneading()
    ts = [beta_lo + (beta_hi - beta_lo) * i / samples for i in range(samples)] + [beta_hi]
    roots = _plain_roots(lambda t: _residual(spec, alpha0, t), ts)
    if not roots:
        raise ValueError("no sign change of Theta found on the requested range")
    labels = {LESS: "less", EQUAL: "equal", GREATER: "greater"}
    return [(r, labels[_side(alpha0, r, target)]) for r in roots]


def _outcome(scan, *args):
    try:
        return scan(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _scan(*args):
    return [(r.beta, r.relation) for r in counterexample_scan(*args)]


def _words(seed=23, n=25):
    """Seeded maximal class-M words R...C of 5-16 symbols."""
    rng = random.Random(seed)
    words = []
    while len(words) < n:
        w = "R" + "".join(rng.choice("LR") for _ in range(rng.randint(3, 14))) + "C"
        m = parse_seq(w)
        if w not in words and is_maximal(m) and in_class_M(m) == "yes":
            words.append(w)
    return words


def _cases(seed=47):
    """thex at 61 values of alpha0, seeded class-M words at alpha0 in
    (0.3, 0.7), seeded samples from 50 to 800 and ranges that reach the
    ratio guard's refused region below beta = 1 - alpha0."""
    thex = thex_spec()
    cases = [("thex", thex, 0.475 + 0.045 * i / 60, 0.535, 0.995, 400) for i in range(61)]
    rng = random.Random(seed)
    for _ in range(20):
        lo = rng.uniform(0.3, 0.6)
        cases.append(("thex", thex, rng.uniform(0.45, 0.55), lo, rng.uniform(lo + 0.2, 1.0),
                      rng.randint(50, 800)))
    for w in _words():
        spec = ThetaSpec.from_seq(parse_seq(w))
        for _ in range(4):
            lo = rng.uniform(0.3, 0.7)
            cases.append((w, spec, rng.uniform(0.3, 0.7), lo, rng.uniform(lo + 0.1, 1.0),
                          rng.randint(50, 800)))
    rllrc = ThetaSpec.from_seq(parse_seq("RLLRC"))
    for a0, lo, hi in [(0.52, 0.3, 1.0), (0.3, 0.3, 1.0), (0.7, 0.2, 1.0), (0.6, 0.05, 0.9)]:
        for samples in (50, 400, 800):
            cases += [("thex", thex, a0, lo, hi, samples), ("RLLRC", rllrc, a0, lo, hi, samples)]
    # the diagonal node 0.625, where Theta is 0.0 exactly, between refused
    # nodes and positive ones; and the thex vertical from beta = 0.2, whose
    # first 158 nodes are refused
    cases += [("thex", thex, 0.625, 0.5, 0.75, 8), ("thex", thex, curves.THEX_ALPHA0, 0.2, 0.995, 400)]
    return cases


def test_scan_matches_the_full_grid_scan():
    cases = _cases()
    assert len(cases) >= 60 + 100
    outcomes = set()
    for name, spec, a0, lo, hi, samples in cases:
        want = _outcome(_full_grid_scan, spec, a0, lo, hi, samples)
        got = _outcome(_scan, spec, a0, lo, hi, samples)
        assert got == want, (name, a0, lo, hi, samples)
        outcomes.add("refused" if isinstance(want, str) else "roots")
    assert outcomes == {"refused", "roots"}


def test_bisection_reads_real_values_at_every_bracket_end(monkeypatch):
    # every grid node that is 0 or NaN, or borders a sign change, a zero or
    # a NaN, is evaluated by the walk, so every zero and bracket end the
    # bisection reads is Theta's own value
    evaluated = set()
    residual = curves._residual

    def recording(spec, alpha, beta):
        evaluated.add(beta)
        return residual(spec, alpha, beta)

    monkeypatch.setattr(curves, "_residual", recording)
    for name, spec, a0, lo, hi, samples in _cases()[::3] + _cases()[-2:]:
        evaluated.clear()
        _outcome(_scan, spec, a0, lo, hi, samples)
        xs = _nodes(lo, hi, samples)
        vals = [residual(spec, a0, x) for x in xs]
        for i, (x, v) in enumerate(zip(xs, vals)):
            if not all(v * w > 0 for w in vals[max(i - 1, 0):i + 2]):
                assert x in evaluated, (name, a0, x)
