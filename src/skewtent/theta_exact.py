"""The Theta series at rational points, folded on integers.

``theta`` sends a one-point evaluation here when alpha and beta are both
rational (int or Fraction), so float callers never import this module;
rows, rational ones too, take ``theta``'s generic fold.  With alpha = p/q
and beta = b/q, x = xn/den and y = yn/den share one denominator den > 0.
The fold runs ``theta``'s own Horner steps on integer numerators over a
running denominator, and one Fraction is formed per result.  The guards
compare exactly and the roundoff sum takes the generic fold's floats, so a
refusal, the ``error_bound`` and ``terms_used`` are the generic fold's.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .theta import (_BOUND_REFUSAL, _RATIO_REFUSAL, _STEPS, _TAIL_REFUSAL, Quadratic2D, ThetaSpec,
                    _ratio, _roundoff_bound)

_RATIO_CUTOFF = (0.999).as_integer_ratio()  # the float 0.999, exactly


def _fold(step, vs, pws, distinct, gaps_rev, acc, one):
    """``step`` for each gap of ``gaps_rev`` (last first) on integer
    numerators: acc / one before a step, and u = vs[i] / pws[i]; returns
    the numerators and their new denominator."""
    for i in gaps_rev:
        acc = step(vs[i], distinct[i], acc, one)
        one *= pws[i]
    return acc, one


def _tail(a, rn, e, r: int, s: int):
    """``theta._fixed_point_tail`` on integers.  The period's moments are
    a / w, rho = rn / w and 1 - rho = e / w, so T = a[0] / e and each order
    of moments takes one more factor e; returns the numerators over their
    common denominator e^(order + 1)."""
    t = a[0]
    if len(a) == 1:
        return a, e
    tk = e * a[1] + r * rn * t
    tm = e * a[2] + s * rn * t
    if len(a) == 3:
        return (e * t, tk, tm), e * e
    te, ee = e * t, e * e
    return ((ee * t, e * tk, e * tm,
             ee * a[3] + r * rn * (r * te + 2 * tk),
             ee * a[4] + rn * (r * s * te + r * tm + s * tk),
             ee * a[5] + s * rn * (s * te + 2 * tm)), ee * e)


def point(spec: ThetaSpec, alpha, beta, tol: float, order: int):
    """``theta._generic_row`` at one rational point, beta nonzero: a refusal
    as a format string and arguments, (value, error_bound, terms_used) at
    order 0, or at order 1 or 2 (moment numerators, their denominator, xn,
    yn, den, q, b)."""
    head_rev, period_rev, distinct, r, s, m1, terms = spec._plan
    ad, bd = alpha.denominator, beta.denominator
    q = math.lcm(ad, bd)
    p, b = alpha.numerator * (q // ad), beta.numerator * (q // bd)
    xn, yn, den = (p - q, p, b) if b > 0 else (q - p, -p, -b)
    # dominating term ratio |x| max(1, y)^{m1}
    en, ed = (abs(xn) * yn ** m1, den ** (m1 + 1)) if yn > den else (abs(xn), den)
    if en * _RATIO_CUTOFF[1] >= _RATIO_CUTOFF[0] * ed:
        return (_RATIO_REFUSAL, _ratio(Fraction(en, ed)), _ratio(alpha), _ratio(beta))
    w = den ** (r + s)  # rho = rn / w and 1 - rho = e / w
    rn = xn ** r * yn ** s
    if abs(rn) >= w:
        return _TAIL_REFUSAL
    e = w - rn
    vs, pws = [], []  # x y^g = vs[i] / pws[i] for the i-th distinct gap g
    for gap in distinct:
        vs.append(xn * yn ** gap)
        pws.append(den ** (gap + 1))
    if not order:
        # int / int rounds as float(Fraction) does, so these are the generic floats
        try:
            mags, weight = [abs(v) / pw for v, pw in zip(vs, pws)], 3 * (w / abs(e))
        except OverflowError:  # as in the generic fold: a |u| or |c| past float range
            return (_RATIO_REFUSAL, math.inf, _ratio(alpha), _ratio(beta))
        bound = _roundoff_bound(spec, mags, weight)
        if bound > tol:
            return (_BOUND_REFUSAL, bound, tol)
    step, zero = _STEPS[order]
    acc, _ = _fold(step, vs, pws, distinct, period_rev, zero, 1)
    acc, one = _fold(step, vs, pws, distinct, head_rev, *_tail(acc, rn, e, r, s))
    if order:
        return acc, one, xn, yn, den, q, b
    return (Fraction((q - b) * one + q * acc[0], q * one), bound, terms)


# theta_grad's and theta_hessian's formulas with x = xn/den, y = yn/den,
# beta = b/q and the moments over d


def grad(point) -> tuple[Fraction, Fraction]:
    (_, k, m), d, xn, yn, den, q, b = point
    return Fraction(den * q * (k * yn + m * xn), d * xn * yn * b), Fraction(-(d * b + (k + m) * q), d * b)


def hessian(point) -> Quadratic2D:
    (_, k, m, kk, km, mm), d, xn, yn, den, q, b = point
    d = d * b * b  # each partial carries 1 / beta^2
    return Quadratic2D(
        Fraction((den * q) ** 2 * ((kk - k) * yn * yn + 2 * km * xn * yn + (mm - m) * xn * xn),
                 d * (xn * yn) ** 2),
        Fraction(-den * q * q * ((kk + km) * yn + (km + mm) * xn), d * xn * yn),
        Fraction(q * q * (kk + 2 * km + mm + k + m), d))
