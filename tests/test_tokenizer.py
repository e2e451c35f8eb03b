import numpy as np
import pytest

from seamkit.tokenizer import (
    BOS,
    EOS,
    HALF_BIN,
    PAD,
    CoordinateRangeError,
    MalformedSequenceError,
    NotCanonicalError,
    SeamSet,
    TokenizerError,
    TokenSequence,
    canonicalize,
    decode,
    dequantize,
    encode,
    quantize,
    read_seam_text,
    read_token_text,
    write_seam_text,
    write_token_text,
)


def random_seam_set(rng, n=None) -> SeamSet:
    n = n or int(rng.integers(1, 30))
    return SeamSet(segments=rng.uniform(-0.5, 0.5, size=(n, 2, 3)))


def test_quantize_boundaries():
    assert quantize(-0.5) == 0
    assert quantize(0.5) == 1023  # clamped upper boundary
    assert quantize(0.0) == 512
    assert dequantize(512) == pytest.approx(0.00048828125)


def test_quantize_formula_matches_independent_arithmetic():
    rng = np.random.default_rng(0)
    c = rng.uniform(-0.5, 0.5, size=1000)
    expected = np.minimum(np.floor((c + 0.5) * 1024), 1023).astype(int)
    np.testing.assert_array_equal(quantize(c), expected)


def test_quantize_round_trip_half_bin():
    rng = np.random.default_rng(1)
    c = rng.uniform(-0.5, 0.5, size=5000)
    err = np.abs(dequantize(quantize(c)) - c)
    assert err.max() <= HALF_BIN + 1e-15


def test_quantize_clamp_and_range_error():
    assert quantize(0.5 + 5e-10) == 1023
    assert quantize(-0.5 - 5e-10) == 0
    with pytest.raises(CoordinateRangeError):
        quantize(0.5 + 1e-6)


def test_canonicalize_swaps_endpoints():
    hi = [0.4, 0.4, 0.4]
    lo = [-0.4, -0.4, -0.4]
    out = canonicalize(SeamSet(segments=np.array([[hi, lo]])))
    np.testing.assert_allclose(out.segments[0, 0], lo)
    np.testing.assert_allclose(out.segments[0, 1], hi)


def test_canonicalize_identity_on_canonical():
    rng = np.random.default_rng(2)
    seams = canonicalize(random_seam_set(rng, 20))
    again = canonicalize(seams)
    np.testing.assert_array_equal(seams.segments, again.segments)


def test_canonicalize_drops_zero_length_and_duplicates():
    p = [0.1, 0.2, 0.3]
    q = [0.3, 0.2, 0.1]
    segs = np.array(
        [
            [p, p],  # zero-length
            [p, q],
            [q, p],  # duplicate after endpoint ordering
        ]
    )
    out = canonicalize(SeamSet(segments=segs))
    assert len(out) == 1


def _bruteforce_canonical_keys(seams: SeamSet):
    """Oracle: comparison sort over quantized yzx keys, done independently."""
    out = []
    for seg in seams.segments:
        eps = []
        for p in seg:
            q = [min(max(int(np.floor((c + 0.5) * 1024)), 0), 1023) for c in p]
            eps.append((q[1], q[2], q[0]))
        a, b = sorted(eps)
        if a != b:
            out.append((a, b))
    return sorted(set(out))


def test_canonicalize_invariant_under_shuffle_and_flip():
    rng = np.random.default_rng(3)
    base = random_seam_set(rng, 50)
    reference = canonicalize(base)
    expected_keys = _bruteforce_canonical_keys(base)
    got_keys = [
        (tuple(quantize(s[0])[[1, 2, 0]]), tuple(quantize(s[1])[[1, 2, 0]]))
        for s in reference.segments
    ]
    assert [tuple(map(int, a)) + tuple(map(int, b)) for a, b in got_keys] == [
        tuple(map(int, a)) + tuple(map(int, b)) for a, b in expected_keys
    ]
    for _ in range(20):
        perm = rng.permutation(len(base))
        segs = base.segments[perm].copy()
        flips = rng.integers(0, 2, size=len(segs)).astype(bool)
        segs[flips] = segs[flips][:, ::-1]
        out = canonicalize(SeamSet(segments=segs))
        np.testing.assert_array_equal(out.segments, reference.segments)


def test_encode_empty_and_single():
    assert decode(encode(SeamSet.empty())) is not None
    toks = encode(SeamSet.empty())
    assert toks.tokens.tolist() == [BOS, EOS]
    one = canonicalize(
        SeamSet(segments=np.array([[[-0.3, -0.2, -0.1], [0.1, 0.2, 0.3]]]))
    )
    assert len(encode(one)) == 8


def test_encode_token_order_is_yzx():
    seg = np.array([[[-0.4, -0.3, -0.2], [0.2, 0.3, 0.4]]])  # (x, y, z) storage
    toks = encode(canonicalize(SeamSet(segments=seg))).tokens
    # independent arithmetic from the stated formula
    def q(c):
        return min(max(int(np.floor((c + 0.5) * 1024)), 0), 1023)

    assert toks.tolist() == [
        BOS,
        q(-0.3), q(-0.2), q(-0.4),
        q(0.3), q(0.4), q(0.2),
        EOS,
    ]


def test_encode_rejects_non_canonical():
    hi = [0.4, 0.4, 0.4]
    lo = [-0.4, -0.4, -0.4]
    with pytest.raises(NotCanonicalError):
        encode(SeamSet(segments=np.array([[hi, lo]])))
    a = [[-0.4, -0.4, -0.4], [-0.3, -0.3, -0.3]]
    b = [[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]]
    with pytest.raises(NotCanonicalError):
        encode(SeamSet(segments=np.array([b, a])))  # unsorted segments


def test_decode_trivial_and_errors():
    assert len(decode(TokenSequence(tokens=[BOS, EOS]))) == 0
    with pytest.raises(MalformedSequenceError) as err:
        decode(TokenSequence(tokens=[BOS, 1, 2, 3, 4, 5, EOS]))
    assert err.value.position == 6
    with pytest.raises(MalformedSequenceError) as err:
        decode(TokenSequence(tokens=[1, 2, EOS]))
    assert err.value.position == 0
    with pytest.raises(MalformedSequenceError):
        decode(TokenSequence(tokens=[BOS, 1, 2, 3, 4, 5, 6]))  # missing EOS
    with pytest.raises(MalformedSequenceError) as err:
        decode(TokenSequence(tokens=[BOS, 1, 2, PAD, 4, 5, 6, EOS]))
    assert err.value.position == 3


def test_round_trip_100_random_sets():
    rng = np.random.default_rng(4)
    for _ in range(100):
        seams = canonicalize(random_seam_set(rng))
        toks = encode(seams)
        back = decode(toks)
        assert len(back) == len(seams)
        err = np.abs(back.segments - seams.segments).max() if len(seams) else 0.0
        assert err <= HALF_BIN + 1e-15
        again = encode(back)
        np.testing.assert_array_equal(again.tokens, toks.tokens)


def test_decode_accepts_trailing_pad():
    seams = canonicalize(
        SeamSet(segments=np.array([[[-0.3, -0.2, -0.1], [0.1, 0.2, 0.3]]]))
    )
    toks = encode(seams)
    padded = TokenSequence(tokens=np.concatenate([toks.tokens, [PAD, PAD]]))
    back = decode(padded)
    np.testing.assert_array_equal(encode(back).tokens, toks.tokens)


def test_seam_text_round_trip():
    rng = np.random.default_rng(5)
    seams = canonicalize(random_seam_set(rng, 12))
    text = write_seam_text(seams)
    back = read_seam_text("# header comment\n" + text + "\n# trailing\n")
    assert np.abs(back.segments - seams.segments).max() < 1e-8
    assert encode(canonicalize(back)) == encode(seams)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_seam_text_rejects_non_finite_coordinates(value):
    with pytest.raises(TokenizerError, match="seam line 2: non-finite coordinate"):
        read_seam_text(f"0 0 0 1 1 0\n0 0 {value} 1 1 0\n")


def test_token_text_round_trip():
    rng = np.random.default_rng(6)
    toks = encode(canonicalize(random_seam_set(rng, 9)))
    assert read_token_text(write_token_text(toks)) == toks
