"""Exact polynomial machinery for finite kneading words: symbolic branch
composition, diagonal critical points and tangent slopes of the implicit
curves at the diagonal.

Branch composition folds int coefficients; a ``BivarPoly`` holds Fraction
coefficients and has no ring operations.  Rational inputs (int or Fraction)
give exact results; numeric root refinement happens only after squarefree
reduction, and rational roots are reported exactly when the reduced factor
is linear or has a square discriminant.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import gcd, isqrt

from .symbolic import L, R, parse_word
from .theta import Quadratic2D, sign_change_roots

Monomial = tuple[int, int]  # (alpha exponent, beta exponent)


class BivarPoly:
    """Polynomial in (alpha, beta) with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[Monomial, Fraction] | None = None):
        cleaned: dict[Monomial, Fraction] = {}
        if coeffs:
            for (i, j), v in coeffs.items():
                v = Fraction(v)
                if v != 0:
                    cleaned[(int(i), int(j))] = v
        self.coeffs = cleaned

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BivarPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    # -- calculus and evaluation ---------------------------------------------

    def partial(self, var: str) -> "BivarPoly":
        out: dict[Monomial, Fraction] = {}
        for (i, j), v in self.coeffs.items():
            if var == "alpha" and i > 0:
                out[(i - 1, j)] = out.get((i - 1, j), Fraction(0)) + v * i
            elif var == "beta" and j > 0:
                out[(i, j - 1)] = out.get((i, j - 1), Fraction(0)) + v * j
        if var not in ("alpha", "beta"):
            raise ValueError(f"unknown variable {var!r}")
        return BivarPoly(out)

    def evaluate(self, a, b):
        """Exact on rational (int or Fraction) arguments, float when an
        argument is a float and neither is a Fraction."""
        if isinstance(a, Fraction) or isinstance(b, Fraction) or not (
                isinstance(a, float) or isinstance(b, float)):
            total = Fraction(0)
            for (i, j), v in self.coeffs.items():
                total += v * Fraction(a) ** i * Fraction(b) ** j
            return total
        total = 0.0
        for (i, j), v in self.coeffs.items():
            total += float(v) * a ** i * b ** j
        return total

    def substitute_diagonal(self) -> list[Fraction]:
        """Coefficients (ascending) of p(a, a) as a univariate polynomial."""
        deg = max((i + j for (i, j) in self.coeffs), default=0)
        out = [Fraction(0)] * (deg + 1)
        for (i, j), v in self.coeffs.items():
            out[i + j] += v
        return _upoly_trim(out)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def to_text(self) -> str:
        """Graded-lex rendering, exact rationals as p/q."""
        if self.is_zero:
            return "0"
        keys = sorted(self.coeffs, key=lambda k: (-(k[0] + k[1]), -k[0]))
        parts = []
        for (i, j) in keys:
            v = self.coeffs[(i, j)]
            term = str(v)
            if i:
                term += f"*a^{i}"
            if j:
                term += f"*b^{j}"
            parts.append(term)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"BivarPoly({self.to_text()})"


# -- branch composition ---------------------------------------------------------


def compose_branch_condition(word: str) -> BivarPoly:
    """Numerator polynomial of the condition T^n(beta) = alpha along a word.

    The word names the branch applied at each orbit point, starting with the
    leading R consumed at beta itself; a trailing C is accepted and dropped.
    The orbit point is folded as num/den, dicts of int coefficients, den a
    product of alpha and alpha - 1, the only denominators the branch maps
    contribute; so den's keys stay in descending alpha order, and the keys
    keep a full product's order, in which ``evaluate`` sums floats.
    The zero set of the result contains the equi-kneading curve of the word
    and the diagonal.  Content is removed and the sign fixed so the leading
    graded-lex monomial (alpha first) is positive.
    """
    syms = parse_word(word)
    if not syms:
        raise ValueError("empty word")
    if syms[0] != R:
        raise ValueError("word must start with R")

    num, den = {(0, 1): 1}, {(0, 0): 1}
    for s in syms:
        if s == L:  # (beta/alpha) x
            num, den = _shift(num, 0, 1), _shift(den, 1, 0)
        else:  # R: beta (x - 1) / (alpha - 1)
            num, den = _shift(_difference(num, den), 0, 1), _difference(_shift(den, 1, 0), den)
    out = _difference(num, _shift(den, 1, 0))
    lead = max(out, key=lambda k: (k[0] + k[1], k[0]))
    g = gcd(*out.values()) if out[lead] > 0 else -gcd(*out.values())
    return BivarPoly({k: v // g for k, v in out.items()})


def _shift(p: dict, di: int, dj: int) -> dict:
    """p times alpha^di beta^dj, in p's key order."""
    return {(i + di, j + dj): v for (i, j), v in p.items()}


def _difference(p: dict, q: dict) -> dict:
    """p - q with p's keys first and zero coefficients dropped."""
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) - v
    return {k: v for k, v in out.items() if v}


# -- univariate helpers (coefficients ascending, Fractions) -----------------------


def _upoly_eval(coeffs: Sequence, x):
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _upoly_derivative(coeffs: Sequence[Fraction]) -> list[Fraction]:
    return [coeffs[i] * i for i in range(1, len(coeffs))] or [Fraction(0)]


def _upoly_trim(coeffs: Sequence[Fraction]) -> list[Fraction]:
    out = list(coeffs) or [Fraction(0)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _upoly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[list, list]:
    """Exact long division: (q, r) with a = q b + r and deg r < deg b."""
    r = _upoly_trim(a)
    b = _upoly_trim(b)
    if b == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(1, len(r) - len(b) + 1)
    for k in range(len(r) - len(b), -1, -1):
        c = q[k] = r[k + len(b) - 1] / b[-1]
        for i in range(len(b)):
            r[k + i] -= c * b[i]
    return _upoly_trim(q), _upoly_trim(r[: len(b) - 1])


def _upoly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    a = _upoly_trim(a)
    b = _upoly_trim(b)
    while not (len(b) == 1 and b[0] == 0):
        a, b = b, _upoly_divmod(a, b)[1]
    if a[-1] != 0:
        a = [c / a[-1] for c in a]
    return a


def _squarefree(coeffs: Sequence[Fraction]) -> list[Fraction]:
    g = _upoly_gcd(coeffs, _upoly_derivative(coeffs))
    return _upoly_trim(coeffs) if len(g) == 1 else _upoly_divmod(coeffs, g)[0]


def _exact_roots_low_degree(coeffs: Sequence[Fraction]) -> list[Fraction] | None:
    """Exact roots for degree 1, and degree 2 with square discriminant."""
    c = _upoly_trim(coeffs)
    if len(c) == 2:
        return [-c[0] / c[1]]
    if len(c) == 3:
        a2, a1, a0 = c[2], c[1], c[0]
        disc = a1 * a1 - 4 * a2 * a0
        if disc < 0:
            return []
        num = disc.numerator
        den = disc.denominator
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn == num and rd * rd == den:
            root = Fraction(rn, rd)
            return [(-a1 - root) / (2 * a2), (-a1 + root) / (2 * a2)]
        return None
    return None


def isolate_real_roots(coeffs: Sequence[Fraction], lo, hi):
    """Real roots of a univariate polynomial inside the open interval
    (lo, hi): sign-change bisection on the squarefree part over a grid of
    64 nodes per coefficient (at least 256), exact values where the reduced
    polynomial admits them.  Each coefficient, int, float or Fraction, is
    made a Fraction first, so the reduction is exact whatever its type."""
    sf = _squarefree([Fraction(c) for c in coeffs])
    exact = _exact_roots_low_degree(sf)
    if exact is not None:
        return sorted(r for r in exact if Fraction(lo) < r < Fraction(hi))
    grid = 64 * max(4, len(sf))
    lo_f, hi_f = float(lo), float(hi)
    eps = (hi_f - lo_f) * 1e-12
    xs = [lo_f + eps + (hi_f - lo_f - 2 * eps) * i / grid for i in range(grid + 1)]
    sf_f = [float(c) for c in sf]
    return sign_change_roots(lambda x: _upoly_eval(sf_f, x), xs)


# -- diagonal analysis ---------------------------------------------------------


def diagonal_critical_points(p: BivarPoly) -> list:
    """Roots of (d_alpha p)(a, a) in the open interval (1/2, 1).

    These are the candidate diagonal meeting points of the implicit curve.
    Requires p to vanish identically on the diagonal (checked exactly).
    """
    if any(p.substitute_diagonal()):
        raise ValueError("polynomial does not vanish on the diagonal")
    q = p.partial("alpha").substitute_diagonal()
    roots = isolate_real_roots(q, Fraction(1, 2), Fraction(1))
    if not roots:
        raise ValueError("no diagonal critical points in (1/2, 1)")
    return roots


def slope_at_diagonal(p: BivarPoly, beta0):
    """Tangent slopes of the zero set of p at the diagonal point (b0, b0).

    The first differential must vanish there (the curve crosses the
    diagonal); the second differential A x^2 + 2 B xy + C y^2 then has the
    two crossing directions as the roots of A + 2 B z + C z^2 = 0.  One root
    is the diagonal itself (z = 1, exact because A + 2B + C = 0 whenever p
    vanishes on the diagonal); the other is the isentrope tangent slope.
    Returns ((1, slope), quadratic), exact when b0 is rational (int or
    Fraction).
    """
    exact = isinstance(beta0, (int, Fraction))
    pa, pb = p.partial("alpha"), p.partial("beta")
    da = pa.evaluate(beta0, beta0)
    db = pb.evaluate(beta0, beta0)
    scale = max(1.0, max(abs(float(v)) for v in p.coeffs.values()))
    if exact:
        nonzero = da != 0 or db != 0
    else:
        nonzero = abs(da) > 1e-10 * scale or abs(db) > 1e-10 * scale
    if nonzero:
        implicit = None if db == 0 else -da / db
        raise ValueError(
            "first differential does not vanish at the diagonal point; "
            f"implicit differentiation applies instead, slope {implicit}"
        )
    qa = pa.partial("alpha").evaluate(beta0, beta0)
    qb = pa.partial("beta").evaluate(beta0, beta0)
    qc = pb.partial("beta").evaluate(beta0, beta0)
    if qc == 0:
        raise ValueError("degenerate second differential (C = 0)")
    resid = qa + 2 * qb + qc
    if exact:
        if resid != 0:
            raise ValueError("diagonal direction not a root of the quadratic")
        one = Fraction(1)
    else:
        if abs(resid) > 1e-10 * max(abs(qa), abs(qc), 1.0):
            raise ValueError("diagonal direction not a root of the quadratic")
        one = 1.0
    other = qa / qc
    quad = Quadratic2D(qa, qb, qc)
    return (one, other), quad
