"""Exact polynomial layer: branch composition, diagonal critical points,
tangent slopes."""

import math
import random
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewtent import (
    BivarPoly,
    compose_branch_condition,
    diagonal_critical_points,
    isolate_real_roots,
    slope_at_diagonal,
)
from skewtent.algebraic import _squarefree, _upoly_divmod, _upoly_trim


def P(d):
    return BivarPoly(d)


A3_POLY = P({(3, 0): 1, (2, 0): -1, (0, 3): -1, (0, 2): 1})  # a^3 - a^2 - b^3 + b^2


# ------------------------------------------------------------ arithmetic


def test_partial_alpha():
    got = A3_POLY.partial("alpha")
    assert got == P({(2, 0): 3, (1, 0): -2})


def test_diagonal_substitution_vanishes():
    assert _upoly_trim(A3_POLY.substitute_diagonal()) == [Fraction(0)]


def test_exact_evaluation():
    v = A3_POLY.evaluate(Fraction(2, 3), Fraction(1, 2))
    assert v == Fraction(8, 27) - Fraction(4, 9) - Fraction(1, 8) + Fraction(1, 4)


def test_int_arguments_evaluate_exactly():
    v = compose_branch_condition("RLC").evaluate(1, 1)
    assert v == 0 and isinstance(v, Fraction)
    v = A3_POLY.evaluate(2, Fraction(1, 2))
    assert v == 8 - 4 - Fraction(1, 8) + Fraction(1, 4) and isinstance(v, Fraction)
    assert isinstance(A3_POLY.evaluate(2, 0.5), float)


def test_text_rendering_graded_lex():
    assert A3_POLY.to_text() == "1*a^3 + -1*b^3 + -1*a^2 + 1*b^2"
    assert P({}).to_text() == "0"
    assert P({(1, 1): Fraction(1, 2)}).to_text() == "1/2*a^1*b^1"


# ------------------------------------------------------------ composition


def test_compose_rlc():
    assert compose_branch_condition("RLC") == A3_POLY


def test_compose_rllrc():
    expected = P({(5, 0): 1, (4, 0): -2, (3, 1): 1, (3, 0): 1, (2, 1): -1,
                  (0, 5): -1, (0, 4): 1})
    assert compose_branch_condition("RLLRC") == expected


def test_compose_rc():
    # R(beta) = alpha, i.e. beta(beta-1) = alpha(alpha-1), sign-normalized
    assert compose_branch_condition("RC") == P({(2, 0): 1, (0, 2): -1, (1, 0): -1, (0, 1): 1})


def _ref_add(p, q):
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def _ref_sub(p, q):
    return _ref_add(p, {k: -v for k, v in q.items()})


def _ref_mul(p, q):
    out = {}
    for (i1, j1), v1 in p.items():
        for (i2, j2), v2 in q.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, Fraction(0)) + v1 * v2
    return {k: v for k, v in out.items() if v}


def _ref_compose(word):
    """The branch condition by general bivariate multiply and add on
    Fraction dicts, content and sign normalised as the composition does."""
    one, a, b = {(0, 0): Fraction(1)}, {(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}
    num, den = b, one
    for s in word.rstrip("C"):
        if s == "L":
            num, den = _ref_mul(num, b), _ref_mul(den, a)
        else:
            num, den = _ref_mul(b, _ref_sub(num, den)), _ref_mul(den, _ref_sub(a, one))
    out = _ref_sub(num, _ref_mul(a, den))
    scale = math.lcm(*(v.denominator for v in out.values()))
    out = {k: v * scale for k, v in out.items()}
    g = math.gcd(*(v.numerator for v in out.values()))
    lead = max(out, key=lambda k: (k[0] + k[1], k[0]))
    sign = 1 if out[lead] > 0 else -1
    return [(k, Fraction(sign * v.numerator, g)) for k, v in out.items()]


def test_compose_matches_the_general_ring_in_key_order():
    # the float path of evaluate sums in coeffs order, so keys, their
    # order, values and types all have to match the general product
    rng = random.Random(17)
    words = ["R" + "L" * k + "RC" for k in range(41)]
    words += ["R" + "".join(rng.choice("LR") for _ in range(rng.randrange(31))) + "C" * rng.randrange(2)
              for _ in range(1000)]
    for word in words:
        got = list(compose_branch_condition(word).coeffs.items())
        assert got == _ref_compose(word), word
        assert all(type(v) is Fraction for _, v in got), word


def test_compose_accepts_word_without_c():
    assert compose_branch_condition("RL") == compose_branch_condition("RLC")


def test_compose_rejects_bad_words():
    with pytest.raises(ValueError):
        compose_branch_condition("")
    with pytest.raises(ValueError):
        compose_branch_condition("LRC")  # must start with R
    with pytest.raises(ValueError):
        compose_branch_condition("RCL")


def test_composition_vanishes_on_diagonal():
    for word in ["RC", "RLC", "RLRC", "RLLRC", "RLLLRC", "RLLRLC"]:
        p = compose_branch_condition(word)
        assert _upoly_trim(p.substitute_diagonal()) == [Fraction(0)]


# ------------------------------------------------------------ diagonal points


def test_rlc_diagonal_point_exact():
    roots = diagonal_critical_points(A3_POLY)
    assert roots == [Fraction(2, 3)]
    assert isinstance(roots[0], Fraction)


def test_rllrc_diagonal_point():
    p = compose_branch_condition("RLLRC")
    # critical polynomial is a^2 (5a^2 - 5a + 1); only one root lies inside
    q = p.partial("alpha").substitute_diagonal()
    assert _upoly_trim(q) == [Fraction(0), Fraction(0), Fraction(1), Fraction(-5), Fraction(5)]
    roots = diagonal_critical_points(p)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(0.5 + math.sqrt(5) / 10, abs=1e-10)


def test_rc_has_no_interior_diagonal_point():
    # the critical root sits at the boundary 1/2 and is excluded
    with pytest.raises(ValueError, match="no diagonal critical points"):
        diagonal_critical_points(compose_branch_condition("RC"))


def test_rlrc_has_no_interior_diagonal_point():
    # the RLRC factor beta^2 = alpha(1-alpha) stays below U; its only
    # diagonal critical root is the corner 1/2
    with pytest.raises(ValueError, match="no diagonal critical points"):
        diagonal_critical_points(compose_branch_condition("RLRC"))


def test_diagonal_points_require_diagonal_vanishing():
    with pytest.raises(ValueError, match="vanish"):
        diagonal_critical_points(P({(1, 0): 1}))


# ------------------------------------------------------------ slopes


def test_rlc_slope_exact():
    (one, other), quad = slope_at_diagonal(A3_POLY, Fraction(2, 3))
    assert one == 1 and other == -1
    assert (quad.a, quad.b, quad.c) == (2, 0, -2)


def test_rllrc_slope():
    p = compose_branch_condition("RLLRC")
    b0 = diagonal_critical_points(p)[0]
    (one, other), quad = slope_at_diagonal(p, b0)
    assert one == pytest.approx(1.0, abs=1e-12)
    assert other == pytest.approx(-(math.sqrt(5) + 3) / (2 * math.sqrt(5) + 2), abs=1e-12)
    assert other == pytest.approx(-0.80901699437495, abs=1e-11)


def test_symmetric_saddle_slope():
    # a^2 - b^2: the crossing point of the two lines is the origin; there
    # the quadratic 2x^2 - 2y^2 gives the slopes 1 and -1
    p = P({(2, 0): 1, (0, 2): -1})
    (one, other), quad = slope_at_diagonal(p, Fraction(0))
    assert (one, other) == (1, -1)
    assert (quad.a, quad.b, quad.c) == (2, 0, -2)


def test_int_diagonal_point_gives_exact_slopes():
    # a^2 - b^2 at the origin, as an int
    (one, other), quad = slope_at_diagonal(P({(2, 0): 1, (0, 2): -1}), 0)
    assert (one, other) == (1, -1) and all(isinstance(v, Fraction) for v in (one, other))
    assert all(isinstance(v, Fraction) for v in (quad.a, quad.b, quad.c))


def test_slope_requires_stationary_point():
    # away from the crossing the zero set is smooth and the first
    # differential rules: the implicit slope is reported in the error
    p = P({(2, 0): 1, (0, 2): -1})
    with pytest.raises(ValueError, match="implicit differentiation.*1"):
        slope_at_diagonal(p, 0.8)


def test_slope_both_roots_of_quadratic():
    p = compose_branch_condition("RLLRC")
    b0 = diagonal_critical_points(p)[0]
    (one, other), quad = slope_at_diagonal(p, b0)
    for z in (one, other):
        assert quad.a + 2 * quad.b * z + quad.c * z * z == pytest.approx(0.0, abs=1e-9)


# ------------------------------------------------------------ curve consistency


def test_polynomial_vanishes_on_traced_curve():
    from skewtent import kneading_bisect_beta, parse_seq

    for word in ["RLC", "RLLRC"]:
        p = compose_branch_condition(word)
        m = parse_seq(word)
        hi = float(diagonal_critical_points(p)[-1])
        for i in range(5):
            alpha = hi - 0.12 + 0.02 * i
            pt = kneading_bisect_beta(m, alpha)
            assert abs(p.evaluate(pt.alpha, pt.beta)) <= 1e-8


def test_hessian_slope_cross_check():
    # the series and the polynomial cut out the same curve, so the saddle
    # directions at the diagonal meet point agree
    from skewtent import ThetaSpec, parse_seq, theta_hessian

    for word in ["RLC", "RLLRC"]:
        p = compose_branch_condition(word)
        b0 = float(diagonal_critical_points(p)[0])
        (_, poly_slope), _ = slope_at_diagonal(p, b0)
        q = theta_hessian(ThetaSpec.from_seq(parse_seq(word)), b0, b0)
        assert q.a / q.c == pytest.approx(float(poly_slope), abs=1e-6)


# ------------------------------------------------------------ root isolation


def test_isolate_roots_squarefree_reduction():
    # (x - 1/2)^2 (x - 3/4): double root handled via squarefree part
    c = [Fraction(-3, 16), Fraction(1), Fraction(-7, 4), Fraction(1)]
    sf = _squarefree(c)
    assert len(sf) == 3  # degree drops by one
    roots = isolate_real_roots(c, Fraction(0), Fraction(1))
    assert roots == [Fraction(1, 2), Fraction(3, 4)]


def test_isolate_roots_of_int_coefficients_are_exact():
    for coeffs, roots in [([-1, 2], [Fraction(1, 2)]), ([-1, 0, 1], [Fraction(1)]),
                          ([3, -8, 4], [Fraction(1, 2), Fraction(3, 2)])]:
        got = isolate_real_roots(coeffs, 0, 2)
        assert got == roots
        assert all(isinstance(r, Fraction) for r in got)
        assert got == isolate_real_roots([Fraction(c) for c in coeffs], 0, 2)


def test_isolate_roots_numeric_path():
    # x^3 - 2x + 1 = (x-1)(x^2+x-1): roots 0.618..., 1 outside (0, 0.9)
    c = [Fraction(1), Fraction(-2), Fraction(0), Fraction(1)]
    roots = isolate_real_roots(c, 0, Fraction(9, 10))
    assert len(roots) == 1
    assert roots[0] == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-12)


# ------------------------------------------------------------ long division

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_add(a, b):
    return _upoly_trim([x + y for x, y in zip_longest(a, b, fillvalue=0)])


@given(st.lists(fractions, min_size=1, max_size=9),
       st.lists(fractions, min_size=1, max_size=6).filter(lambda b: any(b)))
@settings(max_examples=300)
def test_divmod_is_exact(a, b):
    q, r = _upoly_divmod(a, b)
    assert _poly_add(_poly_mul(q, b), r) == _upoly_trim(a)
    assert r == [0] or len(r) < len(_upoly_trim(b))
    assert all(isinstance(c, Fraction) for c in q + r)


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        _upoly_divmod([Fraction(1)], [Fraction(0), Fraction(0)])
