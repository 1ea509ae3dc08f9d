"""The auxiliary series Theta(alpha, beta) = 1 - beta + sum_k x^k y^{mbar_k}
with x = (alpha-1)/beta and y = alpha/beta, built from the gap structure of
a kneading sequence.  It vanishes on the equi-kneading curve of its sequence
(and possibly elsewhere, which is the interesting part).

Value, gradient and Hessian share one engine, ``_generic_row``: the fold
runs over a row of alphas at one beta, and ``theta_eval``, ``theta_grad``
and ``theta_hessian`` take one point.  The sum S is a Horner fold
acc -> x y^{m_k} (1 + acc) over the gaps, last to first, started from the
periodic tail T.  The tail solves the fixed point T = a + rho T, where a is
one fold over the period and rho = x^r y^s, so T = a / (1 - rho) and no
truncation error is incurred.  The value fold is followed by its roundoff
sum, which gives ``error_bound`` and refuses a point whose bound passes
``tol``; derivatives fold S together with its Euler moments x dS/dx,
y dS/dy and the second-order ones, in one loop per order (``_fold1``,
``_fold2``), and follow from them by the chain rule, refused where that
divides by 0 or leaves float range.

Callers that read only the value, the residuals of ``curves`` (scan grid,
scan bisection, trace nodes) and the pixels of its Theta rasters, call
``theta_row``, a value-only row at tol 1e-12: it holds each admitted
value, NaN at a refused point, and no bound, term count or refusal text.
Where a closed-form majorant of the roundoff sum already admits the point,
the sum is skipped.  The sum decides wherever the majorant does not admit,
so the values and the refused points are the full fold's.  ``theta_eval``
always runs the sum, and so does every ``error_bound`` the CLI prints.

On a vertical 0 < alpha < 1, beta > 0, |x| = (1 - alpha)/beta and
y = alpha/beta fall as beta rises, and with them every term of the
magnitude series sum |x|^k y^{mbar_k}, its Euler moments and the guards'
inputs.  So ``_curvature_bound`` at an admitted point bounds the error of
every point above it and, from the second magnitude moments, the
curvature of Theta there.  The counterexample scan hands it to
``sign_change_roots``, which proves signs from a chord with it: its grid
walk skips the nodes of an interval whose ends prove their sign, and its
bisection evaluates a midpoint only where the chord proves no sign.
Every grid of ``theta`` and ``curves`` is ``_nodes``, which ends at its own
ends; ``algebraic.isolate_real_roots`` keeps its own grid, shifted in from
the interval's ends.

The input types pick one of two kernels for a one-point evaluation.
Rational inputs (alpha and beta each an int or a Fraction) run the integer
kernel in ``theta_exact``, imported only then: x and y are written over one
denominator, the fold runs on integer numerators over a running
denominator, and one Fraction is formed per result, exact.  Any float input
runs the generic fold here, which is arithmetic-generic and keeps its float
operation order.  Both give the same guards, refusal texts and
``terms_used``, and one ``_roundoff_bound`` makes both ``error_bound``s.
Rows always take the generic fold, in their inputs' arithmetic: only a row
holding a Fraction gives the integer kernel's exact values, and an all-int
row divides int by int into floats.  A one-point evaluation refuses
beta = 0, where the series is undefined.

The generic fold's 1 and gaps are floats on a row whose beta and every
alpha are floats, so each step is float with float, the interpreter's float
fast path; a rational or mixed row keeps ints, as Fraction - 1.0 would
round through a float.  No bit moves: 1 + v and 1.0 + v round alike, and
an int g times a float multiplies by float(g).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .symbolic import C, GapSeq, KneadingSeq, R, Record, _set, gap_decomposition, minus_variant


class ConvergenceError(ValueError):
    """Parameters outside the region where the series converges."""


class ThetaSpec(Record):
    """Gap data feeding the series; wraps a validated GapSeq.

    ``source`` remembers the sequence the gaps came from when known.  The
    gaps encode the lower limit of that sequence, which differs from the
    sequence itself exactly for finite words, and kneading comparisons must
    run against the original.
    """

    __slots__ = ("gaps", "source", "_plan", "_float_gaps")
    _fields = ("gaps", "source")

    def __init__(self, gaps: GapSeq, source: KneadingSeq | None = None) -> None:
        _set(self, "gaps", gaps)
        _set(self, "source", source)
        # what every evaluation needs, made once: head and period gaps in fold
        # order (last first) as positions in the distinct gaps, those gaps
        # ascending, the period's length r and gap sum s (rho = x^r y^s), m1
        # and the term count; then those gaps as floats for the moment folds of
        # float rows, exactly the gaps below 2^53
        head, period = gaps.head, gaps.period
        distinct = sorted(set(head + period))
        index = {g: i for i, g in enumerate(distinct)}
        plan = (tuple(index[g] for g in reversed(head)), tuple(index[g] for g in reversed(period)),
                distinct, len(period), sum(period), gaps.m1, len(head) + len(period))
        _set(self, "_plan", plan)
        _set(self, "_float_gaps", [float(g) for g in distinct] if gaps.m1 < 1 << 53 else distinct)

    @classmethod
    def from_seq(cls, m: KneadingSeq) -> "ThetaSpec":
        """Spec of a kneading sequence via its lower-limit variant."""
        return cls(gap_decomposition(minus_variant(m)), source=m)

    @classmethod
    def from_text(cls, text: str) -> "ThetaSpec":
        return cls(GapSeq.from_text(text))

    @classmethod
    def from_kneading_prefix(cls, symbols: str) -> "ThetaSpec":
        """Truncation of an orbit itinerary: complete L-runs, up to a C,
        become gaps, the unfinished trailing run is dropped and the tail is
        taken as R^inf.  The spec is exact data for that truncated sequence
        only: the ``error_bound`` of ``theta_eval`` covers roundoff in
        summing it, not the truncation, which can be far larger."""
        if not symbols.startswith(R):
            raise ValueError("kneading prefix must start with R")
        runs = symbols[1:].split(C, 1)[0].split(R)[:-1]  # the last run is unfinished
        if not runs:
            raise ValueError("prefix too short, no complete gap")
        return cls(GapSeq([len(run) for run in runs], (0,)))

    @property
    def m1(self) -> int:
        return self.gaps.m1

    def cum(self, k: int) -> int:
        return self.gaps.cum(k)

    def to_kneading(self) -> KneadingSeq:
        """The reference sequence: the source when known, otherwise the
        sequence spelled by the gaps."""
        if self.source is not None:
            return self.source
        return self.gaps.to_kneading()


def thex_spec() -> ThetaSpec:
    """Gap data of the bundled counterexample sequence: first gap 6, then
    alternating 5 and 0 for twenty-three pairs, R^inf tail."""
    gaps = [6]
    for _ in range(23):
        gaps.extend((5, 0))
    return ThetaSpec.from_text("gaps=" + ",".join(map(str, gaps)) + ";tail=R")


def exceptional_spec() -> ThetaSpec:
    """Demo spec for rasters around (1/2, 0.99179142171225), a point given
    without a defining property in the source material: the complete gaps
    of its first 48 kneading symbols, which are thex's first ten."""
    return ThetaSpec.from_text("gaps=6,5,0,5,0,5,0,5,0,5;tail=R")


class ThetaValue(Record):
    __slots__ = _fields = ("value", "error_bound", "terms_used")


class Quadratic2D(Record):
    """Symmetric quadratic form a x^2 + 2 b xy + c y^2."""

    __slots__ = _fields = ("a", "b", "c")


# One Horner step acc -> u (1 + acc) with u = x y^g, on S and its Euler
# moments: x d/dx u = u and y d/dy u = g u, so with P = 1 + S
#   (x d/dx) u P = u (P + S_k),  (y d/dy) u P = u (g P + S_m),
# and the second-order moments follow by applying the same rules again.
# A zero gap drops every g-term, which keeps exact numbers small.  Each
# step is linear in (1, acc), so with ``one`` in place of 1 it also steps
# numerators over a running denominator ``one``, as the integer kernel
# does.  The generic fold folds the value alone inline and the moments in
# ``_fold1``/``_fold2``, one loop each with these steps' arithmetic.


def _step0(u, g, acc, one):
    return (u * (one + acc[0]),)


def _step1(u, g, acc, one):
    s, k, m = acc
    p = one + s
    return (u * p, u * (p + k), u * (g * p + m) if g else u * m)


def _step2(u, g, acc, one):
    s, k, m, kk, km, mm = acc
    p = one + s
    q = p + k
    if not g:
        return (u * p, u * q, u * m, u * (q + k + kk), u * (m + km), u * mm)
    w = g * p + m
    return (u * p, u * q, u * w, u * (q + k + kk), u * (g * q + m + km), u * (g * (w + m) + mm))


# each step with the moments of an empty sum
_STEPS = {0: (_step0, (0,)), 1: (_step1, (0,) * 3), 2: (_step2, (0,) * 6)}


def _fold1(us, gs, gaps_rev, acc, one):
    """``_step1`` for each gap of ``gaps_rev`` (last gap first), given as
    positions in ``gs``, whose u = x y^g are ``us``, in its operation order."""
    s, k, m = acc
    for i in gaps_rev:
        u, g = us[i], gs[i]
        p = one + s
        s, k, m = u * p, u * (p + k), u * (g * p + m) if g else u * m
    return s, k, m


def _fold2(us, gs, gaps_rev, acc, one):
    """``_fold1`` with ``_step2``."""
    s, k, m, kk, km, mm = acc
    for i in gaps_rev:
        u, g = us[i], gs[i]
        p = one + s
        q = p + k
        if g:
            w = g * p + m
            s, k, m, kk, km, mm = (u * p, u * q, u * w, u * (q + k + kk), u * (g * q + m + km),
                                   u * (g * (w + m) + mm))
        else:
            s, k, m, kk, km, mm = u * p, u * q, u * m, u * (q + k + kk), u * (m + km), u * mm
    return s, k, m, kk, km, mm


def _fixed_point_tail(a, rho, c, r: int, s: int):
    """Moments of the periodic tail T = a + rho T, that is T = c a with
    c = 1 / (1 - rho), given the first and second moments a of one
    period.  They follow by applying the Euler operators to the identity,
    with x d/dx rho = r rho and y d/dy rho = s rho for rho = x^r y^s."""
    t = c * a[0]
    rt, st = r * rho, s * rho
    tk = c * (a[1] + rt * t)
    tm = c * (a[2] + st * t)
    if len(a) == 3:
        return (t, tk, tm)
    return (t, tk, tm,
            c * (a[3] + r * rt * t + 2 * rt * tk),
            c * (a[4] + r * st * t + rt * tm + st * tk),
            c * (a[5] + s * st * t + 2 * st * tm))


# refusal texts of both kernels
_RATIO_REFUSAL = "series ratio {:.6f} >= 0.999 at alpha={}, beta={}"
_TAIL_REFUSAL = ("periodic tail ratio has modulus >= 1",)
_BOUND_REFUSAL = "roundoff bound {:.2e} exceeds requested tol {:.2e}"


def _ratio(eta) -> float:
    """A number of a ratio refusal as a float, inf past float range."""
    try:
        return float(eta)
    except OverflowError:
        return math.inf


def _rational(v) -> bool:
    """An int or a Fraction.  ``fractions`` is looked up only for a value
    that is neither int nor float, so float callers never load it."""
    if isinstance(v, float):
        return False
    if isinstance(v, int):
        return True
    from fractions import Fraction
    return isinstance(v, Fraction)


def theta_row(spec: ThetaSpec, alphas, beta) -> list:
    """The value at each alpha of a row at one beta, at tol 1e-12, as
    ``_generic_row`` gives it, NaN at a refused point and at beta = 0 or
    +-inf, where the series is undefined.  The fold runs in the inputs'
    arithmetic: a row holding a Fraction gives the integer kernel's values,
    exactly, and an all-int row divides int by int into floats."""
    if not 0 < abs(beta) < math.inf:  # NaN too, whose every point is refused
        return [math.nan for _ in alphas]
    return _generic_row(spec, alphas, beta, 1e-12, 0, True)


# The majorant's margin over rounding: the roundoff sum's own, a factor
# (1 + 2^-53)^(2 (H + P) + 1) for H head and P period gaps, and the few
# roundings of the majorant itself; ample below 10^12 gaps.
_MAJORANT_MARGIN = 1.001


def _majorant(top: float, weight: float, heads: int) -> float:
    """The error bound q + weight q top^H with q = top / (1 - top), scaled
    by the margin, for the greatest |u| ``top`` < 1, the tail's weight and
    H = ``heads`` head gaps; the roundoff sum over these is at most this."""
    q = top / (1.0 - top)
    return 8e-16 * ((q + weight * q * top ** heads) * _MAJORANT_MARGIN + 1.0)


def _generic_row(spec: ThetaSpec, alphas, beta, tol: float, order: int,
                 value_only: bool = False) -> list:
    """The series at each alpha of a row at one beta: the convergence
    guards, then the fold, in the arithmetic of its inputs; on Fraction
    inputs it is the reference for the integer kernel.  An admitted point
    gives (value, error_bound, terms_used) at order 0, or (x, y, moments)
    at order 1 or 2: S, then S_k = x dS/dx and S_m = y dS/dy, then S_kk,
    S_km and S_mm, the series with each term weighted by k, mbar_k, k^2,
    k mbar_k and mbar_k^2.  A refused point is not raised: it gives its
    message as a format string and arguments.  A number past float range,
    a mixed point's Fraction among them, is refused as an infinite ratio.
    A ``value_only`` row (order 0) holds just the value of each admitted
    point and NaN at each refused one, which is all ``theta_row`` returns.
    The error bound covers roundoff only, as the tail is summed exactly; a
    bound above ``tol`` refuses the point.

    The roundoff sum folds mag -> |u| (1 + mag) as the value folds.  With
    M = max |u| < 1 and q = M / (1 - M), it is at most q + 3 |c| q M^H
    over H head gaps, and the margin covers its rounding, which is
    monotone.  So when ``value_only`` is set and that majorant, scaled by
    the margin, admits the point, the sum is skipped: the point is
    admitted by the sum too.  Otherwise (M >= 1, NaN, or a majorant above
    ``tol``) the sum runs and decides, so the refusals do not move."""
    head_rev, period_rev, distinct, r, s, m1, terms = spec._plan
    # the row's 1 and gaps: floats on all-float rows, ints on the others (module docstring)
    floats = type(beta) is float and all(type(a) is float for a in alphas)
    one, gs = (1.0, spec._float_gaps) if floats else (1, distinct)
    row = []
    for alpha in alphas:
        try:
            x = (alpha - one) / beta
            y = alpha / beta
            if not -math.inf < y < math.inf:  # 1/beta overflowed (or NaN): x y^g would be 0 inf
                raise OverflowError
            # dominating term ratio |x| max(1, y)^{m1}
            eta = abs(x) * y ** m1 if y > one else abs(x)
            if eta >= 0.999:
                row.append(math.nan if value_only else (_RATIO_REFUSAL, _ratio(eta), float(alpha), float(beta)))
                continue
            rho = x ** r * y ** s
            if abs(rho) >= one:
                row.append(math.nan if value_only else _TAIL_REFUSAL)
                continue
            us = []  # us[i] = x y^g for the i-th distinct gap g
            for gap in distinct:
                us.append(x * y ** gap)
            c = one / (one - rho)
            if order:
                fold = _fold1 if order == 1 else _fold2
                tail = _fixed_point_tail(fold(us, gs, period_rev, _STEPS[order][1], one), rho, c, r, s)
                row.append((x, y, fold(us, gs, head_rev, tail, one)))
                continue
            acc = 0
            for i in period_rev:
                acc = us[i] * (one + acc)
            acc = c * acc
            for i in head_rev:
                acc = us[i] * (one + acc)
            mags = []  # mags[i] = |us[i]|
            for u in us:
                mags.append(abs(float(u)))
            weight = 3.0 * abs(float(c))
            bound = None
            if value_only and (top := max(mags)) < 1.0:
                bound = _majorant(top, weight, len(head_rev))
            if bound is None or bound > tol:  # no majorant, or it does not admit: the sum decides
                bound = _roundoff_bound(spec, mags, weight)
            if value_only:
                row.append(math.nan if bound > tol else one - beta + acc)
            else:
                row.append((_BOUND_REFUSAL, bound, tol) if bound > tol else (one - beta + acc, bound, terms))
        except (OverflowError, ZeroDivisionError):  # past float range: an infinite ratio
            row.append(math.nan if value_only else (_RATIO_REFUSAL, math.inf, _ratio(alpha), _ratio(beta)))
    return row


def _roundoff_bound(spec: ThetaSpec, mags, weight) -> float:
    """Both kernels' roundoff bound: mag -> |u| (1 + mag) folded as the value
    folds, from |u| by distinct gap, the tail's first period weighted 3 |c|."""
    head_rev, period_rev = spec._plan[:2]
    mag = 0.0
    for i in period_rev:
        mag = mags[i] * (1.0 + mag)
    mag = weight * mag
    for i in head_rev:
        mag = mags[i] * (1.0 + mag)
    return 8e-16 * (mag + 1.0)


def _curvature_bound(spec: ThetaSpec, alpha: float, beta: float):
    """``sign_change_roots``' bounds at the admitted point (alpha, beta) of
    the vertical at 0 < alpha < 1 with beta > 0: (M2, E), which hold at
    every point above, or None where the majorant E exceeds 1e-12.

    E is the majorant under the weight 3/(1 - |rho|), from |u| by distinct
    gap; the point is admitted, so |u| and |rho| lie below 1.  Along the
    vertical |x| = (1 - alpha)/beta and y = alpha/beta fall as beta rises,
    so every term |x|^k y^{mbar_k} of the magnitude series and of its
    moments falls, and so do the guards' inputs: eta, |rho|, the
    majorant's top and the weight, which is at least 3 |c|.  So at E <=
    1e-12 every point above is admitted with an error bound at most E.

    A term t_k = x^k y^{mbar_k} is a constant times beta^-n with n = k +
    mbar_k, so its second derivative in beta is n (n + 1) t_k / beta^2,
    and |d^2 Theta/dbeta^2| <= sum |t_k| n (n + 1) / beta^2, which falls
    as beta rises.  With n (n + 1) = k^2 + 2 k mbar_k + mbar_k^2 + k +
    mbar_k, that sum is M2 = (K_kk + 2 K_km + K_mm + K_k + K_m) / beta^2
    on the magnitude moments, ``_fold2`` fed |u| and the tail fed |rho|,
    scaled by the margin, which covers their rounding."""
    head_rev, period_rev, distinct, r, s = spec._plan[:5]
    ax = (1.0 - alpha) / beta
    y = alpha / beta
    mags = [ax * y ** gap for gap in distinct]
    arho = ax ** r * y ** s
    bound = _majorant(max(mags), 3.0 / (1.0 - arho), len(head_rev))
    if bound > 1e-12:
        return None
    tail = _fixed_point_tail(_fold2(mags, spec._float_gaps, period_rev, _STEPS[2][1], 1.0),
                             arho, 1.0 / (1.0 - arho), r, s)
    _, k, m, kk, km, mm = _fold2(mags, spec._float_gaps, head_rev, tail, 1.0)
    return (kk + 2.0 * km + mm + k + m) / (beta * beta) * _MAJORANT_MARGIN, bound


def _point(spec: ThetaSpec, alpha, beta, order: int, tol: float = 1e-12):
    """One point through the kernel its inputs pick; a refused point raises
    ``ConvergenceError``, as is beta = 0 or +-inf.  At order 1 or 2 the
    integer kernel gives its numerators, see ``theta_exact.point``."""
    if not beta:
        raise ConvergenceError(f"series undefined at beta = 0, got beta={beta}")
    if abs(beta) == math.inf:
        raise ConvergenceError(f"series undefined at infinite beta, got beta={beta}")
    if _rational(alpha) and _rational(beta):
        from . import theta_exact
        point = theta_exact.point(spec, alpha, beta, tol, order)
    else:
        (point,) = _generic_row(spec, (alpha,), beta, tol, order)
    if type(point[0]) is str:
        raise ConvergenceError(point[0].format(*point[1:]))
    return point


def theta_eval(spec: ThetaSpec, alpha, beta, tol: float = 1e-12) -> ThetaValue:
    """Series value with a closed-form tail, its roundoff bound always
    summed; a NaN ``tol``, which every bound would pass, is refused."""
    if math.isnan(tol):
        raise ValueError(f"tol must not be NaN, got {tol}")
    return ThetaValue(*_point(spec, alpha, beta, 0, tol))


def theta_partial_sum(spec: ThetaSpec, alpha, beta, k: int):
    """Partial sum through stage k and the slope product P_k.

    Returns (theta_partial, p_k) with
    p_k = (beta/(1-alpha))^{k+1} (beta/alpha)^{mbar_{k+1}} (-1)^k, so that
    the orbit identity T^{k+1+mbar_{k+1}}(beta) = p_k * theta_partial holds
    when the sequence matches the kneading data at (alpha, beta).
    """
    if k < 0:
        raise ValueError("stage must be nonnegative")
    x = (alpha - 1) / beta
    y = alpha / beta
    part = 1 - beta
    xj = 1
    for j in range(1, k + 1):
        xj = xj * x
        part = part + xj * y ** spec.cum(j)
    pk = (beta / (1 - alpha)) ** (k + 1) * (beta / alpha) ** spec.cum(k + 1) * (-1) ** k
    return part, pk


# theta_grad's and theta_hessian's refusals: the chain rule divides by x, y
# (0 at alpha = 1 or 0) and, at order 2, by x^2, y^2 and beta^2, which can
# underflow; checked before dividing, and the partials' range once after
_DIVISORS = ("x = (alpha - 1)/beta", "y = alpha/beta", "x^2", "y^2", "beta^2")
_RANGE_REFUSAL = "derivatives past float range at alpha={}, beta={}"


def _zero_divisor(alpha, beta, divisors) -> ConvergenceError:
    name = next(name for name, d in zip(_DIVISORS, divisors) if not d)
    return ConvergenceError(f"derivatives divide by {name} = 0 at alpha={alpha}, beta={beta}")


def theta_grad(spec: ThetaSpec, alpha, beta):
    """First partials (d_alpha, d_beta) from the first Euler moments."""
    point = _point(spec, alpha, beta, 1)
    x, y = point[:2] if len(point) == 3 else point[2:4]  # or the integer kernel's xn, yn
    if not (x and y):
        raise _zero_divisor(alpha, beta, (x, y))
    if len(point) != 3:  # the integer kernel's numerators
        from .theta_exact import grad
        return grad(point)
    _, k, m = point[2]
    d_alpha = (k / x + m / y) / beta
    d_beta = -1 - (k + m) / beta
    if math.isfinite(d_alpha) and math.isfinite(d_beta):
        return d_alpha, d_beta
    raise ConvergenceError(_RANGE_REFUSAL.format(alpha, beta))


def theta_hessian(spec: ThetaSpec, alpha, beta) -> Quadratic2D:
    """Second differential as a quadratic form; the mixed partial is
    computed once, so symmetry holds by construction."""
    point = _point(spec, alpha, beta, 2)
    if len(point) != 3:  # the integer kernel's numerators
        if not (point[2] and point[3]):
            raise _zero_divisor(alpha, beta, point[2:4])
        from .theta_exact import hessian
        return hessian(point)
    x, y, (_, k, m, kk, km, mm) = point
    xx, yy, b2 = x * x, y * y, beta * beta
    if not (xx and yy and b2):
        raise _zero_divisor(alpha, beta, (x, y, xx, yy, b2))
    try:
        daa = ((kk - k) / xx + 2 * km / (x * y) + (mm - m) / yy) / b2
        dab = -((kk + km) / x + (km + mm) / y) / b2
        dbb = (kk + 2 * km + mm + k + m) / b2
        if math.isfinite(daa) and math.isfinite(dab) and math.isfinite(dbb):
            return Quadratic2D(daa, dab, dbb)
    except OverflowError:  # a float over a Fraction b2 past float range
        pass
    raise ConvergenceError(_RANGE_REFUSAL.format(alpha, beta))


_FIRST_RETURN_CAP = 100_000


def m1_first_return(alpha, beta) -> int:
    """Smallest m with (beta/(1-alpha))(1-beta)(beta/alpha)^m >= alpha;
    equals the first gap of the kneading sequence at (alpha, beta)."""
    if not (0 < alpha < beta <= 1):
        raise ValueError("need 0 < alpha < beta <= 1")
    v = (beta / (1 - alpha)) * (1 - beta)
    m = 0
    while v < alpha:
        v = v * beta / alpha
        m += 1
        if m > _FIRST_RETURN_CAP:
            raise RuntimeError(f"first return did not occur within {_FIRST_RETURN_CAP} steps")
    return m


def _nodes(lo, hi, n: int) -> list:
    """The n + 1 nodes lo + (hi - lo) i / n, the last one hi itself."""
    return [lo + (hi - lo) * i / n for i in range(n)] + [hi]


def sign_change_roots(f, xs, bounds=None) -> list:
    """Roots of f located by sign changes between consecutive nodes xs,
    which must increase: a bracket with descending ends is not bisected.

    A node where f is exactly 0 is returned as is; pairs with a NaN end
    are skipped.  A sign change is bisected until its bracket ends are
    adjacent floats, and the rounded midpoint, one of the two, is returned.

    The search reads only signs, so ``bounds``, when given, lets it prove
    a sign instead of calling f.  bounds(x) at a node x with a real value
    gives None or (M2, E): from x up, every float f(t) lies within E of a
    function g with |g''| <= M2.  Between evaluated points p < t < q, g(t)
    then lies within M2 (t - p)(q - t)/2 + E of the float chord l(t)
    through (p, f(p)) and (q, f(q)), up to the chord's rounding, at most
    1e-15 (|f(p)| + |f(q)|).  Where |l(t)| exceeds that bound with 3E in
    place of E, |g(t)| > 2E, so f(t) has the sign of l(t) and is not 0;
    the spare E covers the rounding of the bound.  The last bounds made
    are kept, as they hold above their node, and fresh ones are made at
    the node of p only where the kept ones lie above it or fail to prove.

    Without bounds every node is evaluated.  With them the nodes are
    walked by subdivision, the lower half first: f is called at both end
    nodes, and an index interval whose end values share a sign is proven
    where the smaller of |f(p)|, |f(q)| passes the bound at its worst,
    (q - p)^2 / 4 for (t - p)(q - t).  Every inner node then has that
    sign, so none is 0, NaN or next to a sign change, and none is called;
    otherwise f is called at the middle node.  In the bisection a midpoint
    whose sign is proven takes the chord value as its stand-in, and an
    unproven one is evaluated and becomes p or q.  Either way the bracket
    moves as f's own value would move it, so the zero nodes, the brackets,
    the midpoints and the returned roots do not depend on ``bounds``.
    """
    if len(xs) < 2:
        return [x for x in xs if f(x) == 0]
    n = len(xs) - 1
    proof, at = None, -1  # the last bounds made, and their node's index

    def proves(i, lead, spread, f_p, f_q):
        """Whether |l(t)| = ``lead`` passes the bound at (t - p)(q - t) =
        ``spread`` for p at or above xs[i], by the kept bounds where they
        were made at or below xs[i], otherwise by fresh ones there."""
        nonlocal proof, at
        while True:
            if at <= i and proof and lead > (0.5 * proof[0] * spread + 3.0 * proof[1]
                                             + 1e-15 * (abs(f_p) + abs(f_q))):
                return True
            if at == i:
                return False
            proof, at = bounds(xs[i]), i

    if bounds:
        vals = [f(xs[0])] + [None] * (n - 1) + [f(xs[n])]  # f at the nodes evaluated
        leaves, stack = [], [(0, n)]  # the index pairs (i, i + 1) walked, ascending
        while stack:
            i, j = stack.pop()
            f_p, f_q = vals[i], vals[j]
            if j - i == 1:
                leaves.append(i)
            elif not (f_p * f_q > 0
                      and proves(i, min(abs(f_p), abs(f_q)), 0.25 * (xs[j] - xs[i]) ** 2, f_p, f_q)):
                k = (i + j) // 2
                vals[k] = f(xs[k])
                stack += (k, j), (i, k)
    else:
        vals = [f(x) for x in xs]
        leaves = range(n)
    roots = []
    for i in leaves:
        lo, f_lo, hi, f_q = xs[i], vals[i], xs[i + 1], vals[i + 1]
        if f_lo == 0:
            roots.append(lo)
        elif f_lo * f_q < 0:
            p, f_p, q = lo, f_lo, hi  # the nearest evaluated points
            mid = 0.5 * (lo + hi)
            while lo < mid < hi:
                if bounds and proves(i, abs(chord := f_p + (f_q - f_p) * ((mid - p) / (q - p))),
                                     (mid - p) * (q - mid), f_p, f_q):
                    if f_lo * chord < 0:  # proven, and never 0
                        hi = mid
                    else:
                        lo, f_lo = mid, chord
                else:
                    f_mid = f(mid)
                    if f_lo * f_mid <= 0:
                        hi = q = mid
                        f_q = f_mid
                    else:
                        lo = p = mid
                        f_lo = f_p = f_mid
                mid = 0.5 * (lo + hi)
            roots.append(mid)
    if vals[n] == 0:
        roots.append(xs[n])
    return roots


_STATIONARY_LO, _STATIONARY_HI, _STATIONARY_GRID = 0.505, 0.9985, 1024
_STATIONARY_XS: tuple = ()  # their _nodes, made on first use: every scalar command imports theta


def diagonal_stationary_beta(spec: ThetaSpec) -> float:
    """The diagonal point (b, b) where the gradient of the series vanishes.

    Theta vanishes identically on the diagonal, so d_beta = -d_alpha there
    and it suffices to find the root of d_alpha along the diagonal.  Among
    the sign-change roots on the grid ``_nodes(lo, hi, grid)``, with lo =
    0.505, hi = 0.9985 and grid = 1024 (built on the first call and kept),
    the one consistent with the first-return bracket (blo, bhi) for the
    spec's own m1 is returned.
    Only the grid nodes from the last one <= blo through the first one >=
    bhi are evaluated: every node and node pair that can give a root inside
    the bracket lies among them and is bisected as on the whole grid, so
    the pick is the whole grid's.  When no root is consistent, the whole
    grid is searched again to name every root in the refusal.
    """
    global _STATIONARY_XS
    if not _STATIONARY_XS:
        _STATIONARY_XS = tuple(_nodes(_STATIONARY_LO, _STATIONARY_HI, _STATIONARY_GRID))
    m1, xs = spec.m1, _STATIONARY_XS
    # first-return consistency: b/(1-b) must sit in (m1 - 1, m1 + 2)
    blo = (m1 - 1) / m1 if m1 > 1 else 0.0
    bhi = (m1 + 2) / (m1 + 3)

    def d_alpha(b):
        return theta_grad(spec, b, b)[0]

    # the last node <= blo through the first one >= bhi
    first, last = max(bisect_right(xs, blo) - 1, 0), bisect_left(xs, bhi)
    picks = [b for b in sign_change_roots(d_alpha, xs[first:last + 1]) if blo < b < bhi]
    if not picks:
        roots = sign_change_roots(d_alpha, xs)
        raise ValueError(f"no diagonal stationary point consistent with m1={m1}; roots={roots}")
    if len(picks) > 1:
        raise ValueError(f"ambiguous diagonal stationary points {picks}")
    return picks[0]
