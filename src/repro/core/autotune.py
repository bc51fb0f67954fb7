"""Automatic codec selection for a column.

ALP is the right default for decimal-origin doubles, but a *format*
wants one decision procedure covering everything: plain ALP, the
DICT/RLE cascade, the pi mode, or — for data nothing helps — raw
storage.  :func:`choose_codec` samples a column, trial-compresses the
sample under each candidate, and returns the projected winner (what
``alp-repro choose`` reports).

The trial runs on an equidistant sample of whole vectors so that both
per-vector structure (ALP's unit) and cross-vector repetition (the
cascade's food) survive sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.alppi import alppi_compress, pi_mode_viable
from repro.core.compressor import compress
from repro.core.constants import VECTOR_SIZE
from repro.core.sampler import equidistant_indices
from repro.encodings.cascade import cascade_compress

#: Candidate codecs in evaluation order.
AUTO_CANDIDATES = ("alp", "lwc+alp", "alp-pi")


@dataclass(frozen=True)
class CodecChoice:
    """Outcome of :func:`choose_codec`."""

    name: str
    projected_bits_per_value: float
    trials: dict[str, float]  # candidate -> sampled bits/value


def _sample_vectors(
    values: np.ndarray, vectors: int = 8, vector_size: int = VECTOR_SIZE
) -> np.ndarray:
    """Equidistant whole-vector sample of a column."""
    n_vectors = max(1, values.size // vector_size)
    picks = equidistant_indices(n_vectors, vectors)
    parts = [
        values[int(i) * vector_size : (int(i) + 1) * vector_size]
        for i in picks
    ]
    return np.concatenate(parts) if parts else values


def _trial(name: str, sample: np.ndarray) -> float:
    """Sampled bits/value of one candidate (inf when not applicable)."""
    if sample.size == 0:
        return float("inf")
    if name == "alp":
        return compress(sample).bits_per_value()
    if name == "lwc+alp":
        encoded = cascade_compress(sample)
        return encoded.size_bits() / sample.size
    if name == "alp-pi":
        viable, _ = pi_mode_viable(sample)
        if not viable:
            return float("inf")
        return alppi_compress(sample).bits_per_value()
    raise ValueError(f"unknown candidate {name!r}")


def choose_codec(
    values: np.ndarray,
    candidates: tuple[str, ...] = AUTO_CANDIDATES,
) -> CodecChoice:
    """Pick the cheapest candidate for a column from a sample."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    sample = _sample_vectors(values)
    trials = {name: _trial(name, sample) for name in candidates}
    winner = min(trials, key=trials.get)
    return CodecChoice(
        name=winner,
        projected_bits_per_value=trials[winner],
        trials=trials,
    )
