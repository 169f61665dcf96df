"""Shared helpers: Gauss-Legendre rules, seed derivation, float and CSV formatting."""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1


@lru_cache(maxsize=64)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1]; weights integrate dx (sum to 2)."""
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def segment_nodes(lo, hi, order: int) -> tuple[np.ndarray, np.ndarray]:
    """GL nodes/weights on the segments [lo, hi], one row of `order` per
    segment (lo, hi are arrays of segment ends, or scalars for one segment);
    weights integrate dx over each segment."""
    xi, w = gauss_legendre(order)
    lo = np.asarray(lo, dtype=float)[..., None]
    half = 0.5 * (np.asarray(hi, dtype=float)[..., None] - lo)
    return lo + half * (xi + 1.0), half * w


def _stable_tag_int(tag) -> int:
    digest = hashlib.sha256(repr(tag).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_seed_sequence(seed: int, *tags) -> np.random.SeedSequence:
    """Deterministic per-task SeedSequence from a root seed and task labels.

    Labels are hashed with SHA-256 so the derivation is stable across runs,
    platforms and process boundaries (unlike Python's salted hash()).
    """
    entropy = [int(seed) & _MASK64] + [_stable_tag_int(t) for t in tags]
    return np.random.SeedSequence(entropy)


def derive_rng(seed: int, *tags) -> np.random.Generator:
    return np.random.default_rng(derive_seed_sequence(seed, *tags))


def fmt17(x) -> str:
    """Decimal float with 17 significant digits (round-trips doubles)."""
    return format(float(x), ".17g")


def fmt17_column(values) -> list[str]:
    """fmt17 of every entry of an array, in C order: one tolist() turns the
    entries into Python floats at once, with the same strings as fmt17."""
    return [format(v, ".17g") for v in np.asarray(values, dtype=float).ravel().tolist()]


def csv_text(header, rows) -> str:
    """A CSV body: the header, then one line per row, each ended by a bare
    newline.  Every field is a number, "inf" or a header word, none of which
    needs quoting, so the fields are joined as they are."""
    return "".join([",".join(map(str, row)) + "\n" for row in [header, *rows]])
