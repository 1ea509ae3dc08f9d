"""Kneading calculus: symbol sequences over {L, C, R}, parity ordering,
maximality, the star product, lower-limit variants and gap decompositions.

Sequences are represented canonically so that structural equality equals
semantic equality.  Finite admissible sequences are a word of L/R symbols
followed by a terminal C; infinite ones are eventually periodic and stored
as preperiod plus primitive period.  Every symbol word is a string: a
preperiod, a period, a plain word (no C) and an orbit prefix alike.  Every
scan (order, maximality, class membership) reads a sequence through
``text(n)``, its first n symbols, expanded in that one place from the
preperiod and period.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Sequence

L = "L"
C = "C"
R = "R"

_SYMBOL_RANK = {L: 0, C: 1, R: 2}
_FLIP = str.maketrans("LR", "RL")

LESS = -1
EQUAL = 0
GREATER = 1

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


_set = object.__setattr__  # how a record's __init__ sets its fields


class Record:
    """Base of the library's immutable value types.  A subclass names its
    fields in ``_fields`` and ``__slots__`` and sets them in ``__init__``
    with ``_set``; equality within one class, the hash, the repr, pickling
    and copying (through ``__init__``) follow from the fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def flip(symbol: str) -> str:
    """L and R swap, C is fixed."""
    return symbol.translate(_FLIP)


def word_parity_even(word: str) -> bool:
    """True when the word contains an even number of R's."""
    return word.count(R) % 2 == 0


_NOT_LR = re.compile("[^LR]")


def _check_word(word: str | Iterable[str], what: str) -> str:
    """The word as a string of L and R: a string passes as it is, any other
    sequence of symbols is joined once."""
    if not isinstance(word, str):
        word = "".join(word)
    if bad := _NOT_LR.search(word):
        raise ValueError(f"{what} may only contain L and R, got {bad.group()!r}")
    return word


def _canonical(pre, period):
    """Primitive period and shortest preperiod of pre followed by period
    repeated forever, for symbol strings and gap tuples alike.

    The preperiod's trailing run that matches the period read backwards
    (cyclically) moves into the period: one count, one cut, one rotation,
    so the time is linear in that run."""
    n = len(period)
    for d in range(1, n):
        if n % d == 0 and period == period[: d] * (n // d):
            period = period[: d]
            n = d
            break
    k = 0  # the run's length: pre[~k] meets period[~k % n], read backwards
    while k < len(pre) and pre[~k] == period[~k % n]:
        k += 1
    if k:
        r = k % n  # r = 0 leaves the period as it is
        pre, period = pre[:-k], period[-r:] + period[:-r]
    return pre, period


class KneadingSeq(Record):
    """An admissible symbol sequence, either C-terminated or eventually periodic.

    ``period is None`` encodes the finite sequence ``pre + C``; otherwise the
    sequence is ``pre`` followed by ``period`` repeated forever.  Instances
    are canonicalized on construction (primitive period, minimal preperiod),
    so ``==`` is semantic equality.
    """

    __slots__ = ("pre", "period", "_head")
    _fields = ("pre", "period")

    def __init__(self, pre: str, period: str | None = None) -> None:
        pre = _check_word(pre, "preperiod")
        if period is not None:
            period = _check_word(period, "period")
            if not period:
                raise ValueError("period must be nonempty")
            pre, period = _canonical(pre, period)
        _set(self, "pre", pre)
        _set(self, "period", period)
        _set(self, "_head", pre + C if period is None else pre)  # text(n)'s head

    # -- basic structure -------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.period is None

    @property
    def finite_length(self) -> int:
        """Total symbol count of a C-terminated sequence, C included."""
        if not self.is_finite:
            raise ValueError("infinite sequence has no finite length")
        return len(self.pre) + 1

    def text(self, n: int) -> str:
        """The first n symbols as a string, shorter when the C comes first."""
        head, tail = self._head, self.period
        if tail and n > len(head):
            head += tail * ((n - len(head)) // len(tail) + 1)
        return head[:n]

    def __lt__(self, other: "KneadingSeq") -> bool:
        return compare(self, other) < 0

    def __le__(self, other: "KneadingSeq") -> bool:
        return compare(self, other) <= 0

    def __str__(self) -> str:
        return format_seq(self)


RL_INFINITY = KneadingSeq(R, L)

_SEQ_RE = re.compile(r"^([LR]*)(?:(C)|\(([LR]+)\))?$")


def parse_seq(text: str) -> KneadingSeq:
    """Parse ``RLLRC``, ``(RLR)`` or ``RLL(RL)`` into a canonical sequence.

    A bare word such as ``RLL`` denotes the C-terminated sequence RLLC.
    """
    m = _SEQ_RE.match(text.strip())
    if not m or not text.strip():
        raise ValueError(f"cannot parse sequence {text!r}")
    return KneadingSeq(m.group(1), m.group(3))


def format_seq(seq: KneadingSeq) -> str:
    if seq.is_finite:
        return seq.pre + C
    return seq.pre + "(" + seq.period + ")"


def parse_word(text: str) -> str:
    """A plain L/R word, optionally with one trailing C that is dropped."""
    text = text.strip()
    if text.endswith(C):
        text = text[:-1]
    return _check_word(text, "word")


# -- ordering ------------------------------------------------------------


def _parity_order(a: str, b: str) -> int:
    """Parity-lexicographic order of two symbol strings.

    At the first differing index the symbol order L < C < R applies,
    reversed when the common prefix holds an odd number of R's.  Agreement
    through a common C, or through the shorter string, gives EQUAL.

    ``tentmap.kneading_order_at`` is the same rule with another input: it
    reads the first string off a critical orbit as it walks it.
    """
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            d = LESS if _SYMBOL_RANK[x] < _SYMBOL_RANK[y] else GREATER
            return -d if a.count(R, 0, i) % 2 else d
        if x == C:
            return EQUAL
    return EQUAL


def compare(a: KneadingSeq, b: KneadingSeq) -> int:
    """Exact order: returns LESS, EQUAL or GREATER.

    At the first differing index the symbol order L < C < R applies, reversed
    when the common prefix holds an odd number of R's.  For two eventually
    periodic sequences a difference, if any, shows up within the preperiods
    plus one lcm of the periods, so the scan below is exact, never a guess.
    """
    if a.is_finite or b.is_finite:
        la = a.finite_length if a.is_finite else 0
        lb = b.finite_length if b.is_finite else 0
        bound = max(la, lb) + 1
    else:
        bound = (
            max(len(a.pre), len(b.pre))
            + math.lcm(len(a.period), len(b.period))
            + max(len(a.period), len(b.period))
            + 1
        )
    return _parity_order(a.text(bound), b.text(bound))


def compare_prefix(symbols: str, target: KneadingSeq) -> int:
    """Compare a truncated symbol string against a sequence.

    Returns EQUAL when the two agree through the available length, which a
    caller must interpret as equal-within-depth.
    """
    return _parity_order(symbols, target.text(len(symbols)))


# -- maximality ------------------------------------------------------------


def is_maximal(a: KneadingSeq) -> bool:
    """True when a dominates every shift of itself in the parity order.

    Shift n is the slice s[n:] of one prefix s of a, long enough that the
    slice still holds the comparison bound of ``compare``; shifting to the
    C leaves the word C."""
    if a.is_finite:
        top = a.finite_length
        s = a.text(top)
    else:
        top = len(a.pre) + 2 * len(a.period)
        s = a.text(2 * top + 1)
    return all(_parity_order(s, s[n:] or C) >= 0 for n in range(1, top + 1))


# -- star product ----------------------------------------------------------


def star_product(word: str, b: KneadingSeq) -> KneadingSeq:
    """A*B interleaving: copies of ``word`` separated by B's symbols,
    flipped when the word has odd R parity."""
    word = parse_word(word)
    if not word:
        raise ValueError("star factor must be nonempty")
    even = word_parity_even(word)

    def blocks(syms: str) -> str:
        return "".join(word + s for s in (syms if even else flip(syms)))

    if b.is_finite:
        return KneadingSeq(blocks(b.pre) + word, None)  # final copy before the C
    return KneadingSeq(blocks(b.pre), blocks(b.period))


def doubling_limit_prefix(n: int) -> str:
    """First n symbols of the period-doubling limit sequence (the fixed
    point of prefixing with R via the star product)."""
    syms = R
    while len(syms) < n:
        syms = R + R.join(syms.translate(_FLIP))
    return syms[:n]


# -- minus variant -----------------------------------------------------------


def minus_variant(m: KneadingSeq) -> KneadingSeq:
    """Lower one-sided limit of the itinerary at the critical value.

    Infinite sequences are their own limit.  A finite word uC becomes
    (uL)^inf when u is even and (uR)^inf when odd; the result is maximal.
    """
    if not m.is_finite:
        return m
    filler = L if word_parity_even(m.pre) else R
    return KneadingSeq("", m.pre + filler)


# -- gap decomposition --------------------------------------------------------


class GapSeq(Record):
    """Run lengths of L-blocks between consecutive R's of an infinite
    sequence R L^{m1} R L^{m2} ..., with an eventually periodic tail.

    ``period == (0,)`` encodes a trailing R^inf ("all zero" tail).  Canonical
    form keeps the head minimal and the period primitive.
    """

    __slots__ = _fields = ("head", "period")

    def __init__(self, head: Sequence[int], period: Sequence[int] = (0,)) -> None:
        head = tuple(int(g) for g in head)
        period = tuple(int(g) for g in period)
        if not period:
            raise ValueError("gap period must be nonempty")
        if any(g < 0 for g in head + period):
            raise ValueError("gaps must be nonnegative")
        m1 = head[0] if head else period[0]
        if m1 < 1:
            raise ValueError("first gap must be positive")
        if any(g > m1 for g in head + period):
            raise ValueError("gaps may not exceed the first gap")
        head, period = _canonical(head, period)
        _set(self, "head", head)
        _set(self, "period", period)

    @property
    def all_zero_tail(self) -> bool:
        return self.period == (0,)

    @property
    def m1(self) -> int:
        return self.head[0] if self.head else self.period[0]

    def cum(self, k: int) -> int:
        """Cumulative sum of the first k gaps."""
        if k < 0:
            raise ValueError("negative stage")
        h = len(self.head)
        if k <= h:
            return sum(self.head[: k])
        j = k - h
        r = len(self.period)
        s = sum(self.period)
        return sum(self.head) + (j // r) * s + sum(self.period[: j % r])

    def to_kneading(self) -> KneadingSeq:
        def runs(gaps: tuple[int, ...]) -> str:
            return "".join(R + L * g for g in gaps)

        return KneadingSeq(runs(self.head), runs(self.period))

    def to_text(self) -> str:
        head = ",".join(str(g) for g in self.head)
        if self.all_zero_tail:
            return f"gaps={head};tail=R"
        return f"gaps={head};period=" + ",".join(str(g) for g in self.period)

    @classmethod
    def from_text(cls, text: str) -> "GapSeq":
        """Parse ``gaps=6,5,0;tail=R`` or ``gaps=1;period=0,1``."""
        parts = text.strip().split(";")
        if len(parts) != 2 or not parts[0].startswith("gaps="):
            raise ValueError(f"cannot parse gap spec {text!r}")
        head_txt = parts[0][len("gaps="):]
        head = tuple(int(t) for t in head_txt.split(",") if t != "")
        if parts[1] == "tail=R":
            return cls(head, (0,))
        if parts[1].startswith("period="):
            per = tuple(int(t) for t in parts[1][len("period="):].split(",") if t != "")
            if not per:
                raise ValueError("empty gap period")
            return cls(head, per)
        raise ValueError(f"cannot parse gap spec tail {parts[1]!r}")


def gap_decomposition(m: KneadingSeq) -> GapSeq:
    """Gap lengths of an infinite sequence starting with R.

    Rejects RL^inf (the first gap would be infinite) and any sequence whose
    tail is all L.  Round trip: ``gap_decomposition(g.to_kneading()) == g``.
    """
    if m.is_finite:
        raise ValueError("gap decomposition needs an infinite sequence")
    if m.text(1) != R:
        raise ValueError("sequence must start with R")
    if R not in m.period:
        raise ValueError("sequence ends in L^inf, gaps not representable")
    r_pos = [i for i, s in enumerate(m.text(len(m.pre) + 3 * len(m.period))) if s == R]
    i0 = m.pre.count(R)
    gaps = [r_pos[k] - r_pos[k - 1] - 1 for k in range(1, i0 + m.period.count(R) + 1)]
    return GapSeq(tuple(gaps[:i0]), tuple(gaps[i0:]))


# -- membership in the kneading class ----------------------------------------


def _try_factor(m: KneadingSeq, a: int) -> bool:
    """Does m decompose as (m|a) * B for some admissible B?

    The leading word repeats literally at stride a+1, single separator
    symbols in between.  Exact for eventually periodic sequences.
    """
    if m.is_finite:
        blocks, rest = divmod(m.finite_length, a + 1)
        if rest or blocks < 2:
            return False
    else:
        blocks = (len(m.pre) + 2 * math.lcm(a + 1, len(m.period))) // (a + 1) + 3
    text = m.text(blocks * (a + 1))
    return all(text.startswith(text[:a], k * (a + 1)) for k in range(1, blocks))


_HORIZON = 256


def in_class_M(m: KneadingSeq) -> str:
    """Membership test for the admissible kneading class.

    Checks maximality, strict domination of the period-doubling limit
    (against its 256-symbol prefix, the search horizon), and the absence
    of a star factorization whose leading word is not a star power of R,
    with leading words of at most 256 symbols.  Returns ``"unknown"`` when
    only the horizon prevented a verdict; a mixed periodic tail such as
    RLLR(RL) leaves the search open at any horizon.
    """
    if not is_maximal(m):
        return NO

    limit = doubling_limit_prefix(_HORIZON)
    cond2 = _parity_order(m.text(_HORIZON), limit)
    if cond2 == LESS:
        return NO

    # factor search bound; the search is complete when every possible
    # leading-word length is covered
    if m.is_finite:
        a_cap = m.finite_length // 2 - 1 if m.finite_length >= 4 else 0
        complete = _HORIZON >= a_cap
    elif L not in m.period:
        # R^inf tail: every block eventually sits inside the tail, so the
        # leading word is all R and cannot reach past the first L
        a_cap = m.pre.find(L)
        complete = _HORIZON >= a_cap
    elif R not in m.period:
        # L^inf tail: blocks eventually sit inside the tail, forcing an
        # all-L leading word, yet the word starts with the sequence head;
        # a maximal sequence starts with R, so no factorization exists
        complete = m.text(1) == R
        a_cap = 0 if complete else _HORIZON
    else:
        a_cap = _HORIZON
        complete = False

    # a star power of R is the doubling-limit prefix of length 2**j - 1
    for a in range(1, min(a_cap, _HORIZON) + 1):
        if _try_factor(m, a) and not (a & (a + 1) == 0 and limit[:a] == m.text(a)):
            return NO

    if cond2 == EQUAL or not complete:
        return UNKNOWN
    return YES
