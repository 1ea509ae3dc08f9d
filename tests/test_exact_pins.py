"""Exact outputs of the symbolic and algebraic layers, pinned by SHA-256.

The digests cover every verdict and order of a seeded corpus of kneading
sequences and every polynomial, diagonal point, slope, quadratic and error
message of a seeded corpus of words, so any change in a verdict, an exact
value, a float's repr or a result's type shows up here.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from skewtent import symbolic
from skewtent import (
    KneadingSeq,
    compare,
    compare_prefix,
    compose_branch_condition,
    diagonal_critical_points,
    format_seq,
    in_class_M,
    is_maximal,
    slope_at_diagonal,
    star_product,
)

STAR_FACTORS = ["R", "RLR", "RLRRRLR", "RL", "RLL", "RLLRL"]


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _random_seq(rng: random.Random) -> KneadingSeq:
    """Finite word of at most 12 symbols or an eventually periodic sequence
    with a period of at most 8 symbols, starting with R."""
    if rng.random() < 0.4:
        return KneadingSeq(("R",) + tuple(rng.choice("LR") for _ in range(rng.randint(0, 11))))
    pre = ("R",) + tuple(rng.choice("LR") for _ in range(rng.randint(0, 5)))
    per = tuple(rng.choice("LR") for _ in range(rng.randint(1, 8)))
    return KneadingSeq(pre, per)


def _seq_corpus(seed: int = 2024, n_maximal: int = 100, n_star: int = 200):
    """Random maximal sequences plus one-level star products of the star
    factors over them, and a random partner for each to compare against."""
    rng = random.Random(seed)
    maximal = []
    while len(maximal) < n_maximal:
        m = _random_seq(rng)
        if is_maximal(m):
            maximal.append(m)
    seqs = list(maximal)
    for _ in range(n_star):
        seqs.append(star_product(rng.choice(STAR_FACTORS), rng.choice(maximal)))
    return [(m, _random_seq(rng), rng.randint(1, 40)) for m in seqs]


def _symbolic_lines():
    corpus = _seq_corpus()
    with pytest.MonkeyPatch.context() as mp:  # the verdicts at horizon 32
        mp.setattr(symbolic, "_HORIZON", 32)
        short = [in_class_M(m) for m, _, _ in corpus]
    lines = []
    for (m, other, n), verdict32 in zip(corpus, short):
        head = m.text(n)
        lines.append(" ".join([
            format_seq(m), format_seq(other), str(n),
            in_class_M(m), verdict32, str(is_maximal(m)), str(is_maximal(other)),
            str(compare(m, other)), str(compare(other, m)),
            str(compare_prefix(head, other)), str(compare_prefix(head, m)),
        ]))
    return lines


def _word_corpus(seed: int = 7, n_words: int = 40):
    words = ["RLC", "RLLRC"] + ["R" + "L" * k + "RC" for k in range(1, 25)]
    rng = random.Random(seed)
    for _ in range(n_words):
        words.append("R" + "".join(rng.choice("LR") for _ in range(rng.randint(2, 14))) + "C")
    return words


def _slope_line(poly, b0):
    try:
        slopes, quad = slope_at_diagonal(poly, b0)
    except (ValueError, AssertionError) as exc:
        return f"  {b0!r}: {type(exc).__name__} {exc}"
    return f"  {b0!r}: {slopes!r} {quad!r}"


def _diagonal_lines():
    """Per word: the polynomial, each diagonal critical point with its
    slopes and quadratic, and slope_at_diagonal off the critical points,
    where it must refuse."""
    lines = []
    for w in _word_corpus():
        poly = compose_branch_condition(w)
        lines.append(f"{w} {poly.to_text()}")
        try:
            roots = diagonal_critical_points(poly)
        except ValueError as exc:
            roots = []
            lines.append(f"  critical: ValueError {exc}")
        for b0 in roots + [Fraction(3, 5), 0.6]:
            lines.append(_slope_line(poly, b0))
    return lines


@pytest.fixture(scope="module")
def symbolic_lines():
    return _symbolic_lines()


def test_symbolic_corpus_is_mixed(symbolic_lines):
    verdicts = [line.split()[3] for line in symbolic_lines]
    assert len(verdicts) == 300
    assert {v: verdicts.count(v) for v in set(verdicts)} == {"yes": 70, "no": 176, "unknown": 54}


def test_symbolic_outputs_pinned(symbolic_lines):
    assert _digest(symbolic_lines) == (
        "0b9afa5b62c3ef9f7bbb6e93e2f73bdb0506c37dc4877a42f2fd3ec7883addcf")


def test_diagonal_outputs_pinned():
    assert _digest(_diagonal_lines()) == (
        "909e282a94f156b60ca9e8cb420633f1230339f411d44866edfc68466e1304a6")
