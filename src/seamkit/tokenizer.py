"""Seam segment sets and their quantized token sequences.

Coordinates live in the canonical cube [-0.5, 0.5]^3 and quantize into 1024
bins.  Ordering is everywhere the yzx scheme (compare y, then z, then x) on
quantized integers, so sorting is reproducible bit-for-bit.  ``encode`` takes
any seam set and tokenizes its canonical form (``canonicalize``): BOS, then six
coordinate tokens per segment (y1 z1 x1 y2 z2 x2), then EOS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from seamkit.mesh import content_lines, format_records, int64

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
    """Coordinate lies outside the canonical cube beyond tolerance, or is not
    finite; ``index`` is its row-major position in the input."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


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
    CUBE_TOL outside the cube are clamped; one farther out, NaN or infinite
    raises CoordinateRangeError naming the first such, in row-major order.
    """
    c = np.asarray(coords, dtype=np.float64)
    outside = ~(np.abs(c) <= 0.5 + CUBE_TOL)
    if outside.any():
        index = int(np.argmax(outside))
        bad = float(c.flat[index])
        raise CoordinateRangeError(f"coordinate {bad!r} outside [-0.5, 0.5]", index)
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
    yzx key (float yzx breaks exact key ties); segments whose endpoints share
    a bin triple are dropped; the rest are stably sorted by (first key,
    second key, first float yzx, second float yzx), and of the segments that
    share both keys only the first is kept.  The result is invariant under any
    permutation of input segments and endpoint order.
    """
    if len(seams) == 0:
        return SeamSet.empty()
    seg = seams.segments
    # per endpoint (key y, key z, key x, y, z, x), compared lexicographically
    ends = np.concatenate((_yzx_keys(seg), seg[:, :, [1, 2, 0]]), axis=2)
    differ = ends[:, 0] != ends[:, 1]
    rows, col = np.arange(len(seg)), np.argmax(differ, axis=1)
    swap = (ends[rows, 1, col] < ends[rows, 0, col])[:, None, None]
    live = differ[:, :3].any(axis=1)  # zero-length on the lattice is dropped
    seg = np.where(swap, seg[:, ::-1], seg)[live]
    ends = np.where(swap, ends[:, ::-1], ends)[live]
    # sort columns: first key, second key, first float yzx, second float yzx
    cols = np.concatenate((ends[:, :, :3].reshape(-1, 6), ends[:, :, 3:].reshape(-1, 6)), axis=1)
    order = np.lexsort(cols.T[::-1])
    lattice = cols[order, :6]
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = (lattice[1:] != lattice[:-1]).any(axis=1)  # first of each duplicate run
    return SeamSet(segments=seg[order[keep]])


def encode(seams: SeamSet) -> TokenSequence:
    """Tokenize the canonical form of any seam set: BOS, 6 tokens per
    segment, EOS.  ``encode(s) == encode(canonicalize(s))`` for every ``s``."""
    body = _yzx_keys(canonicalize(seams).segments).reshape(-1)
    return TokenSequence(tokens=np.concatenate(([BOS], body, [EOS])))


def decode(tokens: TokenSequence) -> SeamSet:
    """Invert encode: canonical seam set with endpoints at bin centers.

    Raises MalformedSequenceError (with the offending position) for a missing
    BOS, an EOS cutting a segment short, coordinate tokens >= 1024, a missing
    EOS, or non-PAD trailing tokens.
    """
    t = tokens.tokens
    if len(t) == 0 or t[0] != BOS:
        raise MalformedSequenceError("expected BOS", 0)
    special = np.flatnonzero(t[1:] >= N_BINS)
    if len(special) == 0:
        raise MalformedSequenceError("missing EOS", len(t))
    end = int(special[0]) + 1
    if t[end] != EOS:
        raise MalformedSequenceError(f"unexpected special token {int(t[end])}", end)
    if (end - 1) % 6 != 0:
        raise MalformedSequenceError(f"EOS after {end - 1} coordinate tokens (not a multiple of 6)", end)
    trailing = np.flatnonzero(t[end + 1 :] != PAD)
    if len(trailing):
        raise MalformedSequenceError("non-PAD token after EOS", end + 1 + int(trailing[0]))
    if end == 1:
        return SeamSet.empty()
    yzx = t[1:end].reshape(-1, 2, 3)
    xyz_bins = yzx[:, :, [2, 0, 1]]  # back to (x, y, z) storage order
    return canonicalize(SeamSet(segments=dequantize(xyz_bins)))


# ---------------------------------------------------------------------------
# Text formats


def write_seam_text(seams: SeamSet) -> str:
    """One segment per line, ``%.9g %.9g %.9g %.9g %.9g %.9g``: x1 y1 z1 x2 y2 z2
    in canonical-cube coordinates, in the set's segment order."""
    return format_records("%.9g %.9g %.9g %.9g %.9g %.9g\n", seams.segments.reshape(-1, 6))


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
    return SeamSet(segments=np.asarray(rows).reshape(-1, 2, 3))


def write_token_text(tokens: TokenSequence) -> str:
    """One integer per line, ``%d``."""
    return format_records("%d\n", tokens.tokens.reshape(-1, 1))


def read_token_text(text: str) -> TokenSequence:
    """One token id per content line; a line that is not an int64, or holds
    an id outside the vocabulary, raises ``TokenizerError`` naming it."""
    vals = []
    for line_no, line in content_lines(text):
        try:
            value = int64(line)
        except ValueError as exc:
            raise TokenizerError(f"token line {line_no}: {exc}") from exc
        if not 0 <= value < VOCAB_SIZE:
            raise TokenizerError(
                f"token line {line_no}: token id {value} outside [0, {VOCAB_SIZE - 1}]"
            )
        vals.append(value)
    return TokenSequence(tokens=np.asarray(vals, dtype=np.int64))
