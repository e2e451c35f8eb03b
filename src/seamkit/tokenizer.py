"""Seam segment sets and their quantized token sequences.

Coordinates live in the canonical cube [-0.5, 0.5]^3 and quantize into 1024
bins.  Ordering is everywhere the yzx scheme (compare y, then z, then x) on
quantized integers, so sorting is reproducible bit-for-bit.  A token sequence
is BOS, then six coordinate tokens per segment (y1 z1 x1 y2 z2 x2), then EOS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from seamkit.mesh import content_lines

N_BINS = 1024
BOS = 1024
EOS = 1025
PAD = 1026
VOCAB_SIZE = 1027
HALF_BIN = 0.5 / N_BINS  # = 1/2048, max dequantization error per coordinate
CUBE_TOL = 1e-9  # coordinates this far outside the cube are clamped


class TokenizerError(Exception):
    """Base class for tokenizer failures."""


class CoordinateRangeError(TokenizerError):
    """Coordinate lies outside the canonical cube beyond tolerance."""


class NotCanonicalError(TokenizerError):
    """encode() was handed a seam set that is not in canonical form."""


class MalformedSequenceError(TokenizerError):
    """Token sequence violates the BOS/body/EOS layout."""

    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class SeamSet:
    """Ordered list of seam segments; each row is two 3D endpoints.

    ``segments`` has shape (N, 2, 3) float64.  Canonical form (see
    ``canonicalize``) orders endpoints and segments by quantized yzx keys.
    """

    segments: np.ndarray

    def __post_init__(self):
        seg = np.ascontiguousarray(np.asarray(self.segments, dtype=np.float64))
        if seg.size == 0:
            seg = seg.reshape(0, 2, 3)
        if seg.ndim != 3 or seg.shape[1:] != (2, 3):
            raise TokenizerError(f"segments must be (N, 2, 3), got {seg.shape}")
        object.__setattr__(self, "segments", seg)

    def __len__(self) -> int:
        return len(self.segments)

    @classmethod
    def empty(cls) -> "SeamSet":
        return cls(segments=np.zeros((0, 2, 3)))


@dataclass(frozen=True)
class TokenSequence:
    """Integer token stream over the 1027-symbol vocabulary."""

    tokens: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(np.asarray(self.tokens, dtype=np.int64)).ravel()
        if t.size and (t.min() < 0 or t.max() >= VOCAB_SIZE):
            raise TokenizerError("token id outside [0, 1026]")
        object.__setattr__(self, "tokens", t)

    def __len__(self) -> int:
        return len(self.tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, TokenSequence) and np.array_equal(
            self.tokens, other.tokens
        )

    def __hash__(self):
        return hash(self.tokens.tobytes())


def quantize(coords) -> np.ndarray:
    """Map canonical-cube coordinates to bin indices in [0, 1023].

    bin = clamp(floor((c + 0.5) * 1024), 0, 1023).  Coordinates within
    CUBE_TOL outside the cube are clamped; farther out raises
    CoordinateRangeError.
    """
    c = np.asarray(coords, dtype=np.float64)
    if np.any(np.abs(c) > 0.5 + CUBE_TOL):
        bad = float(c.flat[int(np.argmax(np.abs(c)))])
        raise CoordinateRangeError(f"coordinate {bad!r} outside [-0.5, 0.5]")
    bins = np.floor((c + 0.5) * N_BINS).astype(np.int64)
    return np.clip(bins, 0, N_BINS - 1)


def dequantize(bins) -> np.ndarray:
    """Bin centers: (bin + 0.5) / 1024 - 0.5."""
    b = np.asarray(bins, dtype=np.float64)
    return (b + 0.5) / N_BINS - 0.5


def _yzx_keys(segments: np.ndarray) -> np.ndarray:
    """Quantized per-endpoint keys in comparison order (y, z, x): (N, 2, 3) ints."""
    q = quantize(segments)
    return q[:, :, [1, 2, 0]]


def canonicalize(seams: SeamSet) -> SeamSet:
    """Return the canonical form of a seam set.

    Within each segment, endpoints are ordered ascending by their quantized
    yzx key (float yzx breaks exact key ties); segments are sorted by
    (first key, second key); segments whose endpoints share a bin triple are
    dropped; duplicates on the quantized lattice are removed.  The result is
    invariant under any permutation of input segments and endpoint order.
    """
    if len(seams) == 0:
        return SeamSet.empty()
    seg = seams.segments.copy()
    keys = _yzx_keys(seg)

    rows = []
    for i in range(len(seg)):
        k0, k1 = tuple(keys[i, 0]), tuple(keys[i, 1])
        f0 = tuple(seg[i, 0, [1, 2, 0]])
        f1 = tuple(seg[i, 1, [1, 2, 0]])
        if (k1, f1) < (k0, f0):
            k0, k1, f0, f1 = k1, k0, f1, f0
            seg[i] = seg[i, ::-1]
        if k0 == k1:
            continue  # zero-length on the quantized lattice
        rows.append((k0, k1, f0, f1, i))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))

    kept = []
    last_key = None
    for k0, k1, _f0, _f1, i in rows:
        if (k0, k1) == last_key:
            continue  # duplicate segment on the lattice
        last_key = (k0, k1)
        kept.append(seg[i])
    if not kept:
        return SeamSet.empty()
    return SeamSet(segments=np.stack(kept))


def _check_canonical(seams: SeamSet) -> None:
    keys = _yzx_keys(seams.segments)
    prev = None
    for i in range(len(seams)):
        k0, k1 = tuple(keys[i, 0]), tuple(keys[i, 1])
        if k0 >= k1:
            raise NotCanonicalError(
                f"segment {i}: endpoints not ascending (or zero-length) under yzx keys"
            )
        if prev is not None and (k0, k1) <= prev:
            raise NotCanonicalError(f"segment {i}: segments not strictly sorted")
        prev = (k0, k1)


def encode(seams: SeamSet) -> TokenSequence:
    """Tokenize a canonical seam set: BOS, 6 tokens per segment, EOS."""
    _check_canonical(seams)
    keys = _yzx_keys(seams.segments)  # already (y, z, x) per endpoint
    body = keys.reshape(-1)
    tokens = np.concatenate(([BOS], body, [EOS])).astype(np.int64)
    return TokenSequence(tokens=tokens)


def decode(tokens: TokenSequence) -> SeamSet:
    """Invert encode: canonical seam set with endpoints at bin centers.

    Raises MalformedSequenceError (with the offending position) for a missing
    BOS, an EOS cutting a segment short, coordinate tokens >= 1024, a missing
    EOS, or non-PAD trailing tokens.
    """
    t = tokens.tokens
    if len(t) == 0 or t[0] != BOS:
        raise MalformedSequenceError("expected BOS", 0)
    body = []
    end = None
    for pos in range(1, len(t)):
        tok = int(t[pos])
        if tok == EOS:
            if len(body) % 6 != 0:
                raise MalformedSequenceError(
                    f"EOS after {len(body)} coordinate tokens (not a multiple of 6)",
                    pos,
                )
            end = pos
            break
        if tok >= N_BINS:
            raise MalformedSequenceError(f"unexpected special token {tok}", pos)
        body.append(tok)
    if end is None:
        raise MalformedSequenceError("missing EOS", len(t))
    for pos in range(end + 1, len(t)):
        if t[pos] != PAD:
            raise MalformedSequenceError("non-PAD token after EOS", pos)

    if not body:
        return SeamSet.empty()
    yzx = np.asarray(body, dtype=np.int64).reshape(-1, 2, 3)
    xyz_bins = yzx[:, :, [2, 0, 1]]  # back to (x, y, z) storage order
    return canonicalize(SeamSet(segments=dequantize(xyz_bins)))


# ---------------------------------------------------------------------------
# Text formats


def write_seam_text(seams: SeamSet) -> str:
    """One segment per line: x1 y1 z1 x2 y2 z2 (canonical-cube coordinates)."""
    lines = []
    for seg in seams.segments:
        vals = " ".join(f"{v:.9g}" for v in seg.reshape(-1))
        lines.append(vals + "\n")
    return "".join(lines)


def read_seam_text(text: str) -> SeamSet:
    """Parse the seam text format; '#' comments and blank lines are skipped.

    Each line holds six finite floats; a malformed line, or one with a NaN or
    infinite coordinate, raises TokenizerError naming the line.
    """
    rows = []
    for line_no, line in content_lines(text):
        parts = line.split()
        if len(parts) != 6:
            raise TokenizerError(f"seam line {line_no}: expected 6 floats")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise TokenizerError(f"seam line {line_no}: {exc}") from exc
        if not all(map(math.isfinite, vals)):
            raise TokenizerError(f"seam line {line_no}: non-finite coordinate")
        rows.append(vals)
    if not rows:
        return SeamSet.empty()
    return SeamSet(segments=np.asarray(rows).reshape(-1, 2, 3))


def write_token_text(tokens: TokenSequence) -> str:
    """One integer per line."""
    return "".join(f"{int(t)}\n" for t in tokens.tokens)


def read_token_text(text: str) -> TokenSequence:
    vals = []
    for line_no, line in content_lines(text):
        try:
            vals.append(int(line))
        except ValueError as exc:
            raise TokenizerError(f"token line {line_no}: {exc}") from exc
    return TokenSequence(tokens=np.asarray(vals, dtype=np.int64))
