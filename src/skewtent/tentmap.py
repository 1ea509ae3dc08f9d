"""The skew tent map family: evaluation, orbits, kneading sequences and a
lap-count entropy estimator.  A kneading probe (``kneading_order_at``)
reads the critical orbit only up to the first symbol that decides its
order against a target.  A bisection in beta on that order
(``kneading_bisect_at``) walks every probe's orbit in one loop, so a
probe costs no call, alpha check or type test; ``kneading_order_at`` is
that loop's one-probe case.  Given known ends, it walks no midpoint beyond
them; ``_word_gap`` gives a finite word's curve as a polynomial's root.

The two orbit walkers, ``kneading_prefix_at`` and ``kneading_bisect_at``,
take alpha in (0, 1): they make the slopes first, so alpha = 0 or 1
raises ``ZeroDivisionError``, and refuse any other alpha with
``ValueError``.  They classify each iterate x once, by one comparison
chain: L below alpha, R above it or at NaN, and C at alpha (for
``kneading_prefix_at``, where ``eps_c`` >= 0).  The side fixes the one
[0, 1] guard compare that can fire there (x < 0 on the left, x > 1 on the
right) and the branch that moves x.  The C band lives only in
``kneading_prefix_at``: a nonzero ``eps_c`` also reads C where alpha - x
or x - alpha is at most ``eps_c``, and a banded order against a word is
the parity order of that prefix.

All arithmetic is type generic: passing ``fractions.Fraction`` parameters
gives exact orbits, floats give the usual double precision ones.  The
walkers guard and step with 0.0 and 1.0 when beta is a float, so every
iterate is a float and runs the interpreter's float fast path, and with the
ints for any other beta, so an exact orbit stays exact.  No bit moves:
1 - x and 1.0 - x round alike for a float x.
"""

from __future__ import annotations

import math

from .symbolic import C, EQUAL, GREATER, L, LESS, R, Record, _set


class TentParams(Record):
    """Turning point (alpha, beta) of the skew tent map.

    The dynamically nontrivial region U requires 0.5 < beta <= 1 and
    1 - beta < alpha < beta; any point of (0, 1) x (0, 1] may be
    constructed, and ``in_u`` tells whether it lies in U.
    """

    __slots__ = _fields = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float) -> None:
        if not (0 < alpha < 1):
            raise ValueError(f"alpha must lie in (0,1), got {alpha}")
        if not (0 < beta <= 1):
            raise ValueError(f"beta must lie in (0,1], got {beta}")
        _set(self, "alpha", alpha)
        _set(self, "beta", beta)

    @property
    def in_u(self) -> bool:
        a, b = self.alpha, self.beta
        return 2 * b > 1 and b <= 1 and 1 - b < a < b


def tent_eval(p: TentParams, x):
    """T(x): rising branch of slope beta/alpha up to alpha, then falling."""
    if x < 0 or x > 1:
        raise ValueError(f"x={x} outside [0,1]")
    if x <= p.alpha:
        return (p.beta / p.alpha) * x
    return (p.beta / (1 - p.alpha)) * (1 - x)


def orbit(p: TentParams, x, n: int) -> list:
    """[x, T(x), ..., T^n(x)]."""
    out = [x]
    for _ in range(n):
        x = tent_eval(p, x)
        out.append(x)
    return out


def kneading_prefix(p: TentParams, n: int, eps_c=0) -> str:
    """Itinerary of the critical value beta, cut after the first C."""
    return kneading_prefix_at(p.alpha, p.beta, n, eps_c)


def kneading_prefix_at(alpha, beta, n: int, eps_c=0) -> str:
    """``kneading_prefix`` at the turning point (alpha, beta).  Beta is not
    checked: the guard refuses an orbit that leaves [0, 1].  Alpha is
    checked after the slopes are made, so alpha = 0 or 1 raises
    ``ZeroDivisionError``.

    A side's band test is ``abs(x - alpha) <= eps_c`` bit for bit, as
    fl(alpha - x) = -fl(x - alpha); at ``eps_c`` = 0 only x == alpha is C.
    There C needs ``eps_c`` >= 0; otherwise, as for a NaN x, the symbol is
    R and x moves by the left slope.
    """
    syms = ""
    x = beta
    lam, mu = x / alpha, x / (1 - alpha)  # the slopes of tent_eval, inlined below
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    zero, one = (0.0, 1.0) if type(beta) is float else (0, 1)
    for _ in range(n):
        if x < alpha:
            if eps_c and alpha - x <= eps_c:
                break
            if x < zero:
                raise ValueError(f"x={x} outside [0,1]")
            syms += L
            x = lam * x
        elif x > alpha:
            if eps_c and x - alpha <= eps_c:
                break
            if x > one:
                raise ValueError(f"x={x} outside [0,1]")
            syms += R
            x = mu * (one - x)
        elif x == alpha and eps_c >= 0:
            break
        else:
            syms += R
            x = lam * x
    else:
        return syms
    return syms + C  # the orbit met the C band


def kneading_order_at(alpha, beta, target: str) -> int:
    """Parity order (LESS, EQUAL or GREATER) of the kneading sequence at the
    turning point (alpha, beta), checked as in ``kneading_prefix_at`` at
    ``eps_c`` = 0, against the symbol string ``target``:
    ``kneading_bisect_at`` with beta as its given probe and (beta, beta) as
    its bracket, which leaves no midpoint to probe after it.

    Each symbol is made by ``kneading_prefix_at``'s comparison chain and
    compared with ``target`` at once, and the orbit is read only up to the
    symbol that decides the order: the first difference (L < C < R,
    reversed after an odd number of shared R's), a shared C or the end of
    ``target``.  The answer is the parity order of
    ``kneading_prefix_at(alpha, beta, len(target))`` against ``target``,
    but the [0, 1] guard, which never fires at a ``TentParams`` point,
    covers only the symbols read: no later iterate is made.  There is no C
    band here; ``curves`` verifies a trace node against the banded prefix.

    This is the rule of ``symbolic._parity_order`` with another input: that
    one reads two symbol strings, this one an orbit against a string.
    ``tests/test_kneading_order.py`` holds the two to the same answers.
    """
    return kneading_bisect_at(alpha, target, beta, beta, 0, beta)[0]


def kneading_bisect_at(alpha, target: str, lo, hi, tol, beta=None,
                       below=-math.inf, above=math.inf) -> tuple:
    """Bisect the bracket (lo, hi) in beta on the order of the kneading
    sequence at (alpha, beta) against ``target``, as ``kneading_order_at``
    defines it: a probe below the target moves lo to its beta, one above
    moves hi, and EQUAL closes the bracket on it.  While the bracket is
    wider than ``tol`` and its float midpoint 0.5 (lo + hi) lies strictly
    inside, that midpoint is the next probe; a given ``beta`` is probed
    first, whatever the bracket.  Returns the last probe's order (None if
    there was none) and the bracket.

    Every probe walks in this one loop: alpha is checked and the constants
    are picked once, by lo, and a probe makes only its slopes.  An iterate
    reads L below alpha, C at alpha and R above it or at NaN, with no C
    band: the symbols that ``symbolic._parity_order`` ranks.  A midpoint
    <= ``below`` reads LESS and one >= ``above`` GREATER without a walk:
    the caller read those orders there, and the order is monotone in beta.
    """
    ca = 1 - alpha
    if not 0 < alpha < 1:
        lam, mu = lo / alpha, lo / ca  # the slopes, as ever: alpha = 0 or 1 divides by zero
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    zero, one = (0.0, 1.0) if type(lo) is float else (0, 1)
    order = None
    while True:
        if beta is None:
            beta = 0.5 * (lo + hi)
            if not (hi - lo > tol and lo < beta < hi):  # adjacent floats stop it too
                return order, lo, hi
            if beta <= below or beta >= above:  # its order is known: no walk
                lo, hi, order = (beta, hi, LESS) if beta <= below else (lo, beta, GREATER)
                beta = None
                continue
        x = beta
        lam, mu = x / alpha, x / ca
        odd = False  # the symbols read so far hold an odd number of R's
        for t in target:
            if x < alpha:
                if x < zero:
                    raise ValueError(f"x={x} outside [0,1]")
                if t != L:
                    order = GREATER if odd else LESS
                    break
                x = lam * x
            elif x == alpha:  # C: a shared C decides; C > L and C < R, reversed if odd
                order = EQUAL if t == C else GREATER if (t == L) != odd else LESS
                break
            else:  # x > alpha, or NaN, whose every iterate is NaN: R
                if x > one:
                    raise ValueError(f"x={x} outside [0,1]")
                if t != R:
                    order = LESS if odd else GREATER
                    break
                odd = not odd
                x = mu * (one - x)
        else:
            order = EQUAL
        if order == EQUAL:
            return order, beta, beta
        if order < 0:
            lo = beta
        else:
            hi = beta
        beta = None


def _word_gap(alpha, beta, word: str) -> tuple:
    """g = x_n - alpha and dg/dbeta in one pass, where x_0 = beta and x_k
    takes word's k-th branch, lam x for L and mu (1 - x) for R, whatever
    its side: a polynomial in beta that vanishes where K(alpha, beta) = word C."""
    ca = 1 - alpha
    lam, mu, x, dx = beta / alpha, beta / ca, beta, 1.0
    for s in word:
        if s == L:
            x, dx = lam * x, x / alpha + lam * dx
        else:
            x, dx = mu * (1.0 - x), (1.0 - x) / ca - mu * dx
    return x - alpha, dx


class LapOverflowError(RuntimeError):
    """Lap propagation exceeded the piece cap."""


_LAP_CAP = 4_000_000


def lap_counts(p: TentParams, n: int) -> list[int]:
    """Lap numbers of T, T^2, ..., T^n (count of monotone pieces).

    Pieces are tracked by their endpoint values only; a piece splits when
    its value interval straddles alpha.  A piece's future depends on its
    endpoints alone, so pieces are merged by endpoint pair and carry a
    multiplicity; ``_LAP_CAP`` bounds the lap count, not the pieces stored.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    pieces = {(0.0, p.beta): 1, (p.beta, 0.0): 1}
    counts = [2]
    for _ in range(n - 1):
        nxt: dict[tuple[float, float], int] = {}
        for (u, v), k in pieces.items():
            lo, hi = (u, v) if u <= v else (v, u)
            if lo < p.alpha < hi:
                children = ((tent_eval(p, u), p.beta), (p.beta, tent_eval(p, v)))
            else:
                children = ((tent_eval(p, u), tent_eval(p, v)),)
            for piece in children:
                nxt[piece] = nxt.get(piece, 0) + k
        pieces = nxt
        total = sum(pieces.values())
        counts.append(total)
        if total > _LAP_CAP:
            raise LapOverflowError(f"lap count {total} exceeds cap {_LAP_CAP}")
    return counts


def entropy_lap(p: TentParams, n: int = 16) -> float:
    """Topological entropy estimate log(lap_n / lap_{n-1}) in nats."""
    if n < 8:
        raise ValueError("entropy estimate needs depth n >= 8")
    if not p.in_u:
        raise ValueError("entropy estimate requires parameters in U")
    counts = lap_counts(p, n)
    return math.log(counts[-1] / counts[-2])
