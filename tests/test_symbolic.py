"""Symbol sequence calculus: parsing, ordering, maximality, star products,
minus variants, gap decompositions and class membership."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewtent import symbolic
from skewtent import (
    EQUAL,
    GREATER,
    LESS,
    GapSeq,
    KneadingSeq,
    compare,
    compare_prefix,
    doubling_limit_prefix,
    format_seq,
    gap_decomposition,
    in_class_M,
    is_maximal,
    minus_variant,
    parse_seq,
    star_product,
)

# ---------------------------------------------------------------- oracles

ORD = {"L": 0, "C": 1, "R": 2}


def symbol_at(seq: KneadingSeq, i: int) -> str | None:
    """Symbol at index i, read off pre and period, or None past the C."""
    if i < len(seq.pre):
        return seq.pre[i]
    if seq.period is not None:
        return seq.period[(i - len(seq.pre)) % len(seq.period)]
    return "C" if i == len(seq.pre) else None


def expand(seq: KneadingSeq, n: int) -> list[str]:
    return [symbol_at(seq, i) for i in range(n) if symbol_at(seq, i) is not None]


def brute_compare(a: KneadingSeq, b: KneadingSeq, n: int = 200) -> int:
    """Direct parity-lexicographic walk on expanded symbols."""
    ea, eb = expand(a, n), expand(b, n)
    r = 0
    for i in range(min(len(ea), len(eb))):
        x, y = ea[i], eb[i]
        if x != y:
            d = -1 if ORD[x] < ORD[y] else 1
            return d if r % 2 == 0 else -d
        if x == "R":
            r += 1
        if x == "C":
            return 0
    return 0


# ---------------------------------------------------------------- parsing


def test_parse_terminal():
    s = parse_seq("RLC")
    assert s.pre == "RL" and s.is_finite
    assert format_seq(s) == "RLC"


def test_parse_pure_periodic():
    s = parse_seq("(RLR)")
    assert s.pre == "" and s.period == "RLR"


def test_parse_canonicalizes_preperiod():
    # RL(L) is RLLL... which is R followed by L^inf
    s = parse_seq("RL(L)")
    assert s == parse_seq("R(L)")
    assert format_seq(s) == "R(L)"


def test_parse_primitive_period():
    assert parse_seq("(RLRL)") == parse_seq("(RL)")


def test_parse_bare_word_means_terminal():
    assert parse_seq("RLL") == parse_seq("RLLC")


def test_parse_roundtrip():
    for text in ["RLC", "(RLR)", "RLL(RL)", "C", "R(L)", "RLLRC"]:
        s = parse_seq(text)
        assert parse_seq(format_seq(s)) == s


@pytest.mark.parametrize("bad", ["", "RLX", "RL(", "(C)", "()", "RC(R)C", "(RLC)"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_seq(bad)


# ---------------------------------------------------------------- ordering


def test_compare_examples():
    assert compare(parse_seq("RLL"), parse_seq("RLR")) == GREATER
    assert compare(parse_seq("R(L)"), parse_seq("R(L)")) == EQUAL
    # RLC differs from (RLR) at index 2, prefix RL is odd, so C beats R
    assert compare(parse_seq("RLC"), parse_seq("(RLR)")) == GREATER


def test_minus_below_sequence():
    m = parse_seq("RLC")
    assert compare(minus_variant(m), m) == LESS


seqs = st.one_of(
    st.tuples(
        st.lists(st.sampled_from("LR"), max_size=5).map(tuple),
        st.just(None),
    ),
    st.tuples(
        st.lists(st.sampled_from("LR"), max_size=4).map(tuple),
        st.lists(st.sampled_from("LR"), min_size=1, max_size=5).map(tuple),
    ),
).map(lambda t: KneadingSeq(*t))


@given(seqs, seqs)
@settings(max_examples=300)
def test_compare_matches_bruteforce(a, b):
    assert compare(a, b) == brute_compare(a, b)


@given(seqs, seqs)
@settings(max_examples=200)
def test_compare_antisymmetric(a, b):
    assert compare(a, b) == -compare(b, a)
    if compare(a, b) == EQUAL:
        assert a == b  # canonical form makes equality structural


@given(seqs, seqs, seqs)
@settings(max_examples=200)
def test_compare_transitive(a, b, c):
    if compare(a, b) <= 0 and compare(b, c) <= 0:
        assert compare(a, c) <= 0


def _length(a: KneadingSeq) -> int:
    return a.finite_length if a.is_finite else len(a.pre) + len(a.period)


@given(seqs, st.data())
@settings(max_examples=300)
def test_text_matches_expansion(a, data):
    n = data.draw(st.integers(0, 3 * _length(a)))
    assert a.text(n) == "".join(expand(a, n))
    assert list(a.text(n)) == expand(a, n)


@given(seqs, seqs, st.integers(0, 30))
@settings(max_examples=300)
def test_compare_prefix_matches_bruteforce(a, b, n):
    assert compare_prefix("".join(expand(a, n)), b) == brute_compare(a, b, n)


def test_compare_prefix_truncation():
    target = parse_seq("(RLR)")
    assert compare_prefix("RL", target) == EQUAL  # equal within depth
    assert compare_prefix("RLL", target) == GREATER  # odd prefix flips
    assert compare_prefix("RLC", target) == GREATER


# ---------------------------------------------------------------- maximality


def test_maximal_examples():
    assert is_maximal(parse_seq("R(L)"))
    assert not is_maximal(parse_seq("(LR)"))
    assert is_maximal(parse_seq("(RLLRL)"))  # RLLRC's lower limit


def brute_maximal(a: KneadingSeq, n: int = 120) -> bool:
    e = expand(a, n)
    for k in range(1, min(len(e), 40)):
        shifted = e[k:]
        r = 0
        for i in range(len(shifted)):
            x, y = e[i], shifted[i]
            if x != y:
                d = -1 if ORD[x] < ORD[y] else 1
                if (d if r % 2 == 0 else -d) < 0:
                    return False
                break
            if x == "R":
                r += 1
            if x == "C":
                break
    return True


@given(seqs)
@settings(max_examples=300)
def test_maximal_matches_bruteforce(a):
    assert is_maximal(a) == brute_maximal(a)


# ---------------------------------------------------------------- star product


def test_star_examples():
    assert star_product("R", parse_seq("C")) == parse_seq("RC")
    assert star_product("R", parse_seq("RC")) == parse_seq("RLRC")
    assert star_product("RL", parse_seq("(R)")) == parse_seq("(RLL)")


def test_star_expansion_oracle():
    # interleave by hand: word copies separated by (flipped) symbols
    b = parse_seq("RL(RL)")
    got = star_product("RL", b)  # RL is odd, so symbols flip
    eb = expand(b, 20)
    expected = []
    for s in eb:
        expected += ["R", "L", {"L": "R", "R": "L"}[s]]
    assert expand(got, len(expected)) == expected


def test_star_r_associativity_on_prefixes():
    # R*(R*B) must equal (R*R)*B with R*R read as the interleaved word RLR
    for text in ["(RL)", "RC", "(RLLRL)", "RLC"]:
        b = parse_seq(text)
        lhs = star_product("R", star_product("R", b))
        rhs = star_product("RLR", b)
        assert lhs == rhs


def test_doubling_limit_prefix():
    assert "".join(doubling_limit_prefix(8)) == "RLRRRLRL"
    assert doubling_limit_prefix(16) == "RLRRRLRLRLRRRLRR"
    # self similar under prefixing with R
    p = doubling_limit_prefix(64)
    flip = {"L": "R", "R": "L"}
    rebuilt = []
    for s in p[:32]:
        rebuilt += ["R", flip[s]]
    assert "".join(rebuilt) == p


# ---------------------------------------------------------------- minus variant


def test_minus_variant_examples():
    assert minus_variant(parse_seq("RLC")) == parse_seq("(RLR)")
    assert minus_variant(parse_seq("RLLRC")) == parse_seq("(RLLRL)")
    assert minus_variant(parse_seq("(RLR)")) == parse_seq("(RLR)")


@given(seqs)
@settings(max_examples=300)
def test_minus_variant_maximal_and_below(a):
    if not is_maximal(a):
        return
    mv = minus_variant(a)
    assert compare(mv, a) <= 0
    assert is_maximal(mv)


@given(seqs, seqs)
@settings(max_examples=300)
def test_minus_variant_monotone(a, b):
    # order preservation of the lower-limit construction
    if not (is_maximal(a) and is_maximal(b)):
        return
    if compare(a, b) == LESS:
        assert compare(minus_variant(a), minus_variant(b)) <= 0


# ---------------------------------------------------------------- gaps


def test_gap_examples():
    g = gap_decomposition(parse_seq("(RLR)"))
    assert (g.head, g.period) == ((), (1, 0))
    assert [g.cum(k) for k in range(1, 7)] == [1, 1, 2, 2, 3, 3]
    g = gap_decomposition(parse_seq("(RLLRL)"))
    assert (g.head, g.period) == ((), (2, 1))
    assert [g.cum(k) for k in range(1, 7)] == [2, 3, 5, 6, 8, 9]


def test_gap_errors():
    with pytest.raises(ValueError):
        gap_decomposition(parse_seq("R(L)"))  # RL^inf excluded
    with pytest.raises(ValueError):
        gap_decomposition(parse_seq("RLC"))  # finite
    with pytest.raises(ValueError):
        gap_decomposition(parse_seq("(LR)"))  # starts with L


def test_gap_validation():
    with pytest.raises(ValueError):
        GapSeq((0, 1), (0,))  # first gap must be positive
    with pytest.raises(ValueError):
        GapSeq((2, 5), (0,))  # gaps above the first are rejected


def test_gap_text_roundtrip():
    for text in ["gaps=6,5,0;tail=R", "gaps=1;period=0,1", "gaps=;period=1,0", "gaps=3,1;tail=R"]:
        g = GapSeq.from_text(text)
        assert GapSeq.from_text(g.to_text()) == g


@given(seqs)
@settings(max_examples=300)
def test_gap_roundtrip_on_minus_variants(a):
    if not is_maximal(a):
        return
    mv = minus_variant(a)
    if symbol_at(mv, 0) != "R" or all(s == "L" for s in mv.period):
        return
    try:
        g = gap_decomposition(mv)
    except ValueError:
        return  # gap bound violated for non-class sequences
    assert g.to_kneading() == mv
    assert gap_decomposition(g.to_kneading()) == g
    # symbols agree with direct expansion
    assert list(g.to_kneading().text(50)) == expand(mv, 50)


def test_gaps_bounded_by_first_for_maximal():
    # m_j <= m_1 holds for lower limits of maximal sequences; the GapSeq
    # constructor enforces it, so decomposition succeeding is the check
    for text in ["RLC", "RLLRC", "RLLC", "RLLLRC", "(RLLRL)"]:
        m = parse_seq(text)
        assert is_maximal(m)
        g = gap_decomposition(minus_variant(m))
        assert all(gap <= g.m1 for gap in g.head + g.period)


# ---------------------------------------------------------------- class membership


def test_class_membership_examples():
    assert in_class_M(parse_seq("RLC")) == "yes"
    assert in_class_M(parse_seq("RC")) == "no"  # below the doubling limit
    assert in_class_M(parse_seq("(LR)")) == "no"  # not maximal
    assert in_class_M(parse_seq("RLRC")) == "no"  # below the doubling limit
    assert in_class_M(parse_seq("R(L)")) == "yes"
    assert in_class_M(parse_seq("RLLRC")) == "yes"
    # lower limits of finite words factor nontrivially and drop out
    assert in_class_M(parse_seq("(RLR)")) == "no"
    assert in_class_M(parse_seq("(RLLRL)")) == "no"


def test_class_membership_horizon_unknown(monkeypatch):
    # maximal, decisively above the doubling limit, factor-free as far as
    # the search reaches: only the unbounded factor search stays open for a
    # mixed periodic tail, so the verdict must stay unknown
    m = parse_seq("RLLR(RL)")
    assert is_maximal(m)
    assert in_class_M(m) == "unknown"
    # R^inf agrees with a one-symbol doubling limit; the first-L scan of
    # the R^inf branch must still end
    monkeypatch.setattr(symbolic, "_HORIZON", 1)
    assert in_class_M(parse_seq("(R)")) == "unknown"
