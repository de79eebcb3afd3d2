"""Code definitions, encoding and decoding, checked against brute force.

The independent oracle throughout is the codebook itself: distances from a
received word to all 16 codewords determine what any sane decoder may do,
without reference to syndromes, parity bits or correlation internals.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, from_dtype

from sfq_ecc.codes import (
    CORRECT,
    DETECT_ONLY,
    TIE_CONSERVATIVE,
    TIE_OPTIMISTIC,
    UNCORRECTABLE,
    LinearCode,
    analyze_patterns,
    bits,
    bitstr,
    boolean_forms,
    capability_summary,
    decode,
    encode,
    make_code,
)

ALL_CODES = ("hamming74", "hamming84", "rm13")


def all_words(n):
    for w in range(2**n):
        yield np.array([(w >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.uint8)


def distances(code, word):
    return np.count_nonzero(code.codebook != word, axis=1)


@st.composite
def full_rank_codes(draw, resolves_ties=False):
    """Any full-rank generator with n <= 8, under a name no built-in code has."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, n))
    G = draw(arrays(np.uint8, (k, n), elements=st.integers(0, 1)))
    try:
        return LinearCode("custom", G, resolves_ties=resolves_ties)
    except ValueError:
        assume(False)


@st.composite
def single_error_codes(draw):
    """Codes with d_min >= 3: G = [I | P] with P's rows distinct and of weight
    >= 2 (so the columns of H are distinct and nonzero), columns permuted."""
    r = draw(st.integers(3, 4))
    k = draw(st.integers(1, 4))
    rows = draw(st.lists(st.sampled_from([v for v in range(2**r) if bin(v).count("1") >= 2]),
                         min_size=k, max_size=k, unique=True))
    P = np.array([[(v >> (r - 1 - j)) & 1 for j in range(r)] for v in rows], dtype=np.uint8)
    G = np.concatenate([np.eye(k, dtype=np.uint8), P], axis=1)
    perm = draw(st.permutations(range(k + r)))
    return LinearCode("custom", G[:, perm])


# --- construction -----------------------------------------------------------

def test_hamming84_generator_row1():
    assert bitstr(make_code("hamming84").G[0]) == "11100001"


def test_hamming74_dimensions():
    c = make_code("hamming74")
    assert (c.n, c.k) == (7, 4)


def test_rm13_min_distance():
    assert make_code("rm13").d_min == 4


def test_unknown_code_rejected():
    with pytest.raises(ValueError):
        make_code("bogus")


@pytest.mark.parametrize("G", [
    [[1, 0, 2], [0, 1, 1]],          # was read as [[1,0,0],[0,1,1]]
    [["1", "0"]],                    # strings were accepted
    [[1, 0, -1]],                    # OverflowError
    [[1, 0.5, 1], [0, 1, 1]],        # truncated, then "not full row rank"
    [[1, float("nan"), 1]],          # "cannot convert float NaN"
    np.zeros((0, 7), dtype=np.uint8),
    [1, 0, 1],
    np.ones((1, 2, 3), dtype=np.uint8),
], ids=["two", "strings", "negative", "half", "nan", "no_rows", "one_dim", "three_dim"])
def test_malformed_generator_rejected(G):
    with pytest.raises(ValueError, match="generator matrix must be a non-empty 2-D array"):
        LinearCode("custom", G)


def test_decode_table_size_is_bounded():
    # the table holds 2^(n+k) distances; a (12,11) code would need 2^23
    with pytest.raises(ValueError, match="n \\+ k"):
        LinearCode("big", np.eye(11, 12, dtype=np.uint8))


@settings(max_examples=60, deadline=None)
@given(code=full_rank_codes(), data=st.data())
def test_rank_deficient_generator_rejected(code, data):
    # the XOR of an empty subset is a zero row, of one row a duplicate
    subset = data.draw(st.lists(st.integers(0, code.k - 1), unique=True))
    G = np.vstack([code.G, code.G[subset].sum(axis=0) % 2])
    with pytest.raises(ValueError, match="full row rank"):
        LinearCode("custom", G)


def test_hamming84_is_hamming74_plus_overall_parity():
    g84 = make_code("hamming84").G
    assert np.array_equal(g84[:, :7], make_code("hamming74").G)
    assert np.array_equal(g84[:, 7], g84[:, :7].sum(axis=1) % 2)


@pytest.mark.parametrize("name,dmin", [("hamming74", 3), ("hamming84", 4), ("rm13", 4)])
def test_min_distance(name, dmin):
    code = make_code(name)
    assert code.d_min == dmin
    # brute force over all nonzero codewords
    assert min(int(c.sum()) for c in code.codebook[1:]) == dmin


def test_min_distance_extension_relation():
    assert make_code("hamming84").d_min == make_code("hamming74").d_min + 1


@pytest.mark.parametrize("name,weights", [
    ("hamming84", {0: 1, 4: 14, 8: 1}),
    ("rm13", {0: 1, 4: 14, 8: 1}),
    ("hamming74", {0: 1, 3: 7, 4: 7, 7: 1}),
])
def test_weight_enumerator(name, weights):
    code = make_code(name)
    got = {}
    for c in code.codebook:
        got[int(c.sum())] = got.get(int(c.sum()), 0) + 1
    assert got == weights


# --- bit vectors ------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    [0.5, 1, 1, 1],              # a cast to uint8 would truncate it to 0111
    np.array([256, 0, 1, 1]),    # a cast to uint8 would wrap it to 0011
    [-1, 0, 1, 1],               # a cast to uint8 raises OverflowError
    [[0, 1], [1, 0]],
    "10a1",
    ["0", "1"],
])
def test_bits_rejects_non_bits(bad):
    with pytest.raises(ValueError):
        bits(bad)


def test_bits_accepts_booleans_and_integers():
    for good in ([True, False, True, True], np.array([1, 0, 1, 1], dtype=np.int64), "1011"):
        out = bits(good)
        assert out.dtype == np.uint8 and bitstr(out) == "1011"


@settings(max_examples=300, deadline=None)
@given(a=st.sampled_from([np.bool_, np.uint8, np.int16, np.int64, np.float64]).flatmap(
    lambda dtype: arrays(dtype, st.integers(0, 9), elements=st.one_of(
        st.sampled_from([0, 1]), from_dtype(np.dtype(dtype))))))
def test_bits_accepts_exactly_the_elementwise_bit_rule(a):
    # the rule bits implemented as one vectorized comparison, kept as its oracle
    want = bool(((a == 0) | (a == 1)).all())
    for given_as in (a, a.tolist()):
        if want:
            out = bits(given_as)
            assert out.dtype == np.uint8 and np.array_equal(out, a)
            assert not np.shares_memory(out, a)
        else:
            with pytest.raises(ValueError):
                bits(given_as)


# --- encoding ---------------------------------------------------------------

def test_encode_figure_vector():
    assert bitstr(encode(make_code("hamming84"), "1011")) == "01100110"


def test_encode_zero_message():
    for name in ALL_CODES:
        code = make_code(name)
        assert not encode(code, [0, 0, 0, 0]).any()


def test_encode_hamming74_derived_vector():
    # evaluate the per-output XOR forms by hand: c1=m1^m2^m4=0, c2=m1^m3^m4=1,
    # c3=m1=1, c4=m2^m3^m4=0, c5=m2=0, c6=m3=1, c7=m4=1
    assert bitstr(encode(make_code("hamming74"), "1011")) == "0110011"


def test_encode_length_mismatch():
    with pytest.raises(ValueError):
        encode(make_code("hamming84"), "101")


@settings(max_examples=60, deadline=None)
@given(code=full_rank_codes(), data=st.data())
def test_encoding_is_linear(code, data):
    a, b = (data.draw(arrays(np.uint8, code.k, elements=st.integers(0, 1))) for _ in "ab")
    assert np.array_equal(encode(code, a ^ b), encode(code, a) ^ encode(code, b))


def test_encode_matches_matrix_for_all_messages():
    for name in ALL_CODES:
        code = make_code(name)
        for m in range(16):
            msg = code.messages[m]
            assert np.array_equal(encode(code, msg), (msg @ code.G) % 2)


# --- boolean forms ----------------------------------------------------------

def test_forms_hamming84_first_output():
    forms = boolean_forms(make_code("hamming84"))
    assert forms[0].terms == (0, 1, 3)  # m1 ^ m2 ^ m4
    assert not forms[0].passthrough


def test_forms_hamming84_passthrough():
    forms = boolean_forms(make_code("hamming84"))
    assert forms[2].terms == (0,) and forms[2].passthrough
    assert forms[2].render() == "c3 = m1"


def test_forms_rm13_last_output_is_full_xor():
    forms = boolean_forms(make_code("rm13"))
    assert forms[-1].terms == (0, 1, 2, 3)


def test_forms_match_generator_columns():
    for name in ALL_CODES:
        code = make_code(name)
        for f in boolean_forms(code):
            col = tuple(int(i) for i in range(code.k) if code.G[i, f.position])
            assert f.terms == col


# --- decoding vs the codebook-distance oracle --------------------------------

def test_hamming74_decode_is_nearest_codeword():
    code = make_code("hamming74")
    for r in all_words(7):
        d = distances(code, r)
        out = decode(code, r, CORRECT)
        # perfect code: unique nearest codeword within distance 1, always
        assert out.status != UNCORRECTABLE
        winner = int(np.argmin(d))
        assert d[winner] <= 1
        assert np.array_equal(out.message, code.messages[winner])
        assert (out.status == "clean") == (d[winner] == 0)


def test_hamming84_decode_matches_distance_profile():
    # hamming84 never resolves a tie, not even under the optimistic policy
    code = make_code("hamming84")
    for r, ties in itertools.product(all_words(8), (TIE_CONSERVATIVE, TIE_OPTIMISTIC)):
        d = distances(code, r)
        out = decode(code, r, CORRECT, ties)
        dmin = int(d.min())
        if dmin == 0:
            assert out.status == "clean"
            assert np.array_equal(out.message, code.messages[int(np.argmin(d))])
        elif dmin == 1:
            assert out.status == "corrected"
            winners = np.flatnonzero(d == 1)
            assert winners.size == 1
            assert np.array_equal(out.message, code.messages[int(winners[0])])
        else:
            assert out.status == UNCORRECTABLE and out.message is None


def test_rm13_decode_matches_distance_profile():
    code = make_code("rm13")
    for r in all_words(8):
        d = distances(code, r)
        winners = np.flatnonzero(d == d.min())
        out = decode(code, r, CORRECT, TIE_CONSERVATIVE)
        if winners.size > 1:
            assert out.status == UNCORRECTABLE
            opt = decode(code, r, CORRECT, TIE_OPTIMISTIC)
            assert np.array_equal(opt.message, code.messages[int(winners[0])])
        else:
            assert np.array_equal(out.message, code.messages[int(winners[0])])
            assert (out.status == "clean") == (d.min() == 0)


@settings(max_examples=60, deadline=None)
@given(code=st.booleans().flatmap(lambda r: full_rank_codes(resolves_ties=r)),
       ties=st.sampled_from([TIE_CONSERVATIVE, TIE_OPTIMISTIC]))
def test_decode_is_the_codebook_distance_oracle(code, ties):
    # ties are refused unless the code resolves them and the policy lets it
    for r in all_words(code.n):
        d = distances(code, r)
        winners = np.flatnonzero(d == d.min())
        out = decode(code, r, CORRECT, ties)
        if winners.size > 1 and not (code.resolves_ties and ties == TIE_OPTIMISTIC):
            assert out.status == UNCORRECTABLE and out.message is None
        else:
            assert np.array_equal(out.message, code.messages[winners[0]])
            assert out.status == ("clean" if d.min() == 0 else "corrected")
        exact = decode(code, r, DETECT_ONLY, ties)
        assert exact.status == ("clean" if d.min() == 0 else UNCORRECTABLE)


@settings(max_examples=60, deadline=None)
@given(code=single_error_codes())
def test_single_errors_repaired_when_dmin_at_least_3(code):
    assert code.d_min >= 3
    for m in range(2**code.k):
        for pos in range(code.n):
            r = code.codebook[m].copy()
            r[pos] ^= 1
            out = decode(code, r, CORRECT)
            assert out.status == "corrected"
            assert np.array_equal(out.message, code.messages[m])


def test_decoder_follows_generator_and_tie_attribute_not_name():
    rm13, h84 = make_code("rm13"), make_code("hamming84")
    renamed = LinearCode("renamed", rm13.G, resolves_ties=True)
    impostor = LinearCode("rm13", h84.G)
    for r, ties in itertools.product(all_words(8), (TIE_CONSERVATIVE, TIE_OPTIMISTIC)):
        for code, twin in ((renamed, rm13), (impostor, h84)):
            got, want = decode(code, r, CORRECT, ties), decode(twin, r, CORRECT, ties)
            assert got.status == want.status
            assert got.delivered == want.delivered
            assert not got.delivered or np.array_equal(got.message, want.message)


@pytest.mark.parametrize("kw", [{"mode": "bogus"}, {"tie_break": "bogus"},
                                {"mode": DETECT_ONLY, "tie_break": "bogus"},
                                {"mode": ["bogus"]}])
def test_decode_rejects_unknown_mode_and_tie_break(kw):
    with pytest.raises(ValueError, match="bogus"):
        decode(make_code("rm13"), "00000000", **kw)


def test_decode_tables_are_built_once_and_read_only():
    for name, mode, ties in itertools.product(ALL_CODES, (DETECT_ONLY, CORRECT),
                                              (TIE_CONSERVATIVE, TIE_OPTIMISTIC)):
        code = make_code(name)
        table = code.decode_table(mode, ties)
        assert code.decode_table(mode, ties) is table
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 5
        assert table[0] == 0


def test_detect_only_is_exact_codeword_membership():
    for name in ALL_CODES:
        code = make_code(name)
        for r in all_words(code.n):
            out = decode(code, r, DETECT_ONLY)
            if code.is_codeword(r):
                assert out.status == "clean"
            else:
                assert out.status == UNCORRECTABLE
            assert out.status != "corrected"


@settings(max_examples=60, deadline=None)
@given(code=full_rank_codes())
def test_message_lookup_is_the_codebook_oracle(code):
    # every word, as an array and as the bit string decode also accepts
    index = {bitstr(c): m for m, c in enumerate(code.codebook)}
    assert len(index) == 2**code.k
    for r in all_words(code.n):
        want = index.get(bitstr(r))
        for word in (r, bitstr(r)):
            assert code.message_of(word) == want
            assert code.is_codeword(word) == (want is not None)


@pytest.mark.parametrize("word", [
    [0.5] * 8,
    [257, 1, 1, 0, 0, 0, 0, 1],
    [2, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 1, 1],
    [0, 1, 1],
    np.zeros((2, 4), dtype=np.uint8),
])
def test_membership_and_message_lookup_reject_malformed_words(word):
    code = make_code("hamming84")
    for lookup in (code.message_of, code.is_codeword):
        with pytest.raises(ValueError):
            lookup(word)


def test_decode_roundtrip_all_codes():
    for name in ALL_CODES:
        code = make_code(name)
        for m in range(16):
            out = decode(code, encode(code, code.messages[m]), CORRECT)
            assert out.status == "clean"
            assert np.array_equal(out.message, code.messages[m])


def test_single_error_correction_everywhere():
    for name in ALL_CODES:
        code = make_code(name)
        for m in range(16):
            cw = encode(code, code.messages[m])
            for pos in range(code.n):
                r = cw.copy()
                r[pos] ^= 1
                out = decode(code, r, CORRECT)
                assert out.status == "corrected"
                assert np.array_equal(out.message, code.messages[m])


def test_hamming84_single_flip_oracle_on_figure_vector():
    code = make_code("hamming84")
    cw = bits("01100110")
    for pos in range(8):
        r = cw.copy()
        r[pos] ^= 1
        out = decode(code, r, CORRECT)
        assert out.status == "corrected" and bitstr(out.message) == "1011"


def test_hamming84_double_flip_flagged():
    code = make_code("hamming84")
    r = bits("01100110")
    r[0] ^= 1
    r[1] ^= 1
    out = decode(code, r, CORRECT)
    assert out.status == UNCORRECTABLE and out.message is None


def test_decode_length_mismatch():
    with pytest.raises(ValueError):
        decode(make_code("hamming84"), "0110011")


# --- pattern analysis --------------------------------------------------------

def test_hamming74_detect_weight3():
    pa = analyze_patterns(make_code("hamming74"), DETECT_ONLY, 3)
    assert (pa.detected, pa.undetected, pa.total) == (28, 7, 35)


def test_weight0_is_clean_everywhere():
    for name in ALL_CODES:
        for mode in (DETECT_ONLY, CORRECT):
            pa = analyze_patterns(make_code(name), mode, 0)
            assert (pa.corrected, pa.total) == (1, 1)
            assert pa.undetected == pa.detected == pa.miscorrected == 0


@pytest.mark.parametrize("weight", [-1, 8, 1.5, True])
def test_pattern_weight_must_be_an_integer_in_range(weight):
    # 1.5 raised TypeError from math.comb, and True was taken for weight 1
    with pytest.raises(ValueError, match="weight"):
        analyze_patterns(make_code("hamming74"), CORRECT, weight)


def test_hamming74_correct_weight2_all_miscorrected():
    pa = analyze_patterns(make_code("hamming74"), CORRECT, 2)
    assert (pa.miscorrected, pa.corrected, pa.detected) == (21, 0, 0)


def test_bucket_sums():
    for name in ALL_CODES:
        code = make_code(name)
        for mode in (DETECT_ONLY, CORRECT):
            for t in range(code.n + 1):
                pa = analyze_patterns(code, mode, t)
                assert pa.undetected + pa.detected + pa.corrected + pa.miscorrected == pa.total


def test_linearity_over_base_codewords():
    # deterministic decoders: counts must not depend on the transmitted word
    for name in ALL_CODES:
        code = make_code(name)
        for mode in (DETECT_ONLY, CORRECT):
            for t in (1, 2, 3):
                ref = analyze_patterns(code, mode, t)
                for m in (1, 7, 12):
                    base = encode(code, code.messages[m])
                    assert analyze_patterns(code, mode, t, base_codeword=base) == ref


def test_patterns_match_per_pattern_decoding():
    # reference: decode every pattern one at a time
    for name, mode, ties in itertools.product(ALL_CODES, (DETECT_ONLY, CORRECT),
                                              (TIE_CONSERVATIVE, TIE_OPTIMISTIC)):
        code = make_code(name)
        for t, m in itertools.product(range(code.n + 1), (0, 9)):
            sent = code.codebook[m]
            want = {"undetected": 0, "detected": 0, "corrected": 0, "miscorrected": 0}
            for flips in itertools.combinations(range(code.n), t):
                r = sent.copy()
                r[list(flips)] ^= 1
                out = decode(code, r, mode, ties)
                want["detected" if out.status == UNCORRECTABLE
                     else "corrected" if np.array_equal(out.message, code.messages[m])
                     else "undetected" if out.status == "clean"
                     else "miscorrected"] += 1
            got = analyze_patterns(code, mode, t, tie_break=ties, base_codeword=sent)
            assert got.__dict__ == {"weight": t, "total": sum(want.values()), **want}


def test_rm13_weight2_four_way_tie_structure():
    code = make_code("rm13")
    zero = np.zeros(8, dtype=np.uint8)
    for flips in itertools.combinations(range(8), 2):
        r = zero.copy()
        r[list(flips)] ^= 1
        d = np.count_nonzero(code.codebook != r, axis=1)
        winners = np.flatnonzero(d == d.min())
        assert d.min() == 2
        assert winners.size == 4
        assert 0 in winners  # the transmitted codeword is among the tie


def test_rm13_optimistic_weight2_on_zero_codeword_corrects():
    pa = analyze_patterns(make_code("rm13"), CORRECT, 2, tie_break=TIE_OPTIMISTIC)
    assert pa.corrected > 0


# --- capability summary -------------------------------------------------------

def test_capability_table_rows():
    rows = {name: capability_summary(make_code(name)).table_row() for name in ALL_CODES}
    assert rows["hamming74"] == {"code": "hamming74", "d_min": 3, "worst_detect": 1,
                                 "worst_correct": 1, "best_detect": 3, "best_correct": 1}
    assert rows["hamming84"] == {"code": "hamming84", "d_min": 4, "worst_detect": 3,
                                 "worst_correct": 1, "best_detect": 3, "best_correct": 1}
    assert rows["rm13"] == {"code": "rm13", "d_min": 4, "worst_detect": 3,
                            "worst_correct": 1, "best_detect": 3, "best_correct": 2}


def test_capability_per_mode_numbers():
    s74 = capability_summary(make_code("hamming74"))
    assert s74.is_perfect
    assert s74.guaranteed_detect == 2
    assert s74.correct_mode_safe == 1
    assert s74.partial_detect == 3
    s84 = capability_summary(make_code("hamming84"))
    assert not s84.is_perfect
    assert s84.guaranteed_detect == 3
    assert s84.guaranteed_correct == 1
