import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seamkit.tokenizer import (
    BOS,
    EOS,
    HALF_BIN,
    N_BINS,
    PAD,
    CoordinateRangeError,
    MalformedSequenceError,
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
from tests import loop_reference as ref


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
    # NaN and inf are outside the cube too; the first offending one is named
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(CoordinateRangeError, match="outside") as err:
            quantize([0.1, bad, 0.7])
        assert err.value.index == 1 and str(bad) in str(err.value)


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


def test_encode_is_encode_of_canonical_form():
    rng = np.random.default_rng(7)
    base = random_seam_set(rng, 30)
    expected = encode(canonicalize(base))
    for _ in range(10):
        segs = base.segments[rng.permutation(len(base))].copy()
        flips = rng.integers(0, 2, size=len(segs)).astype(bool)
        segs[flips] = segs[flips][:, ::-1]
        assert encode(SeamSet(segments=segs)) == expected


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


def test_every_bin_survives_the_seam_text_round_trip():
    # each axis of each endpoint takes all 1024 bin centres
    bins = np.arange(N_BINS)[:, None, None]
    expected = np.broadcast_to(np.concatenate([bins, bins[::-1]], axis=1), (N_BINS, 2, 3))
    back = read_seam_text(write_seam_text(SeamSet(segments=dequantize(expected))))
    np.testing.assert_array_equal(quantize(back.segments), expected)


# Equivalence with the per-segment and per-token loop versions in loop_reference.

_coordinates = st.one_of(
    st.floats(-0.5, 0.5),
    st.sampled_from(np.linspace(-0.5, 0.5, 6).tolist()),  # a coarse lattice: ties, duplicates, zero-length segments
    st.builds(  # bin edges, jittered by 1e-7 either way
        lambda k, d: min(max(k / N_BINS - 0.5 + d, -0.5), 0.5),
        st.integers(0, N_BINS),
        st.sampled_from([-1e-7, 0.0, 1e-7]),
    ),
)


@st.composite
def _seam_sets(draw):
    """Segments between points of a small pool, so endpoints, segments and
    flipped segments repeat; near twins of pool points (one axis moved by
    1e-7) share their bins but not their floats."""
    points = draw(st.lists(st.tuples(_coordinates, _coordinates, _coordinates), min_size=1, max_size=8))
    twins = draw(st.lists(st.tuples(st.sampled_from(points), st.integers(0, 2), st.sampled_from([-1e-7, 1e-7]))))
    for point, axis, d in twins:
        twin = list(point)
        twin[axis] = min(max(twin[axis] + d, -0.5), 0.5)
        points.append(tuple(twin))
    index = st.integers(0, len(points) - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=24))
    return SeamSet(segments=np.array([[points[a], points[b]] for a, b in pairs]).reshape(-1, 2, 3))


@settings(max_examples=300, deadline=None)
@given(_seam_sets())
def test_canonicalize_matches_loop_reference(seams):
    got, expected = canonicalize(seams), ref.canonicalize(seams)
    assert got.segments.shape == expected.segments.shape
    assert got.segments.tobytes() == expected.segments.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_seam_sets())
def test_encode_decode_round_trip(seams):
    # decode gives bin centers of the canonical set; encoding them again
    # reproduces the tokens
    tokens = encode(seams).tokens
    assert np.array_equal(encode(decode(encode(seams))).tokens, tokens)


@st.composite
def _token_strings(draw):
    """Either arbitrary strings over coordinate and special tokens, or a
    well-formed layout (sometimes with a body cut short) with one token
    possibly inserted."""
    token = st.one_of(st.integers(0, N_BINS - 1), st.sampled_from([BOS, EOS, PAD]))
    if draw(st.booleans()):
        return draw(st.lists(token, max_size=30))
    n = 6 * draw(st.integers(0, 4)) + draw(st.sampled_from([0, 0, 0, 1, 5]))
    body = draw(st.lists(st.integers(0, N_BINS - 1), min_size=n, max_size=n))
    tokens = [BOS, *body, EOS] + [PAD] * draw(st.integers(0, 3))
    if draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(token))
    return tokens


def _decode_outcome(decode_fn, tokens):
    try:
        return decode_fn(TokenSequence(tokens=tokens)).segments.tobytes()
    except MalformedSequenceError as exc:
        return str(exc), exc.position


@settings(max_examples=500, deadline=None)
@given(_token_strings())
def test_decode_matches_loop_reference(tokens):
    assert _decode_outcome(decode, tokens) == _decode_outcome(ref.decode, tokens)
