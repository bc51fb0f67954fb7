"""Run detection for Run-Length Encoding (FastLanes building block).

The cascade layer (:mod:`repro.encodings.cascade`) finds the runs of a
column's raw *bit patterns* (so NaNs and -0.0 round-trip exactly), then
ALP-compresses the distinct run values and FOR-packs the run lengths,
following the paper's observation that a cascading format can "use RLE
and then separately encode Run Lengths and Run Values" (Section 3.1).
"""

from __future__ import annotations

import numpy as np


def run_boundaries(values: np.ndarray) -> np.ndarray:
    """Indices at which a new run starts (always includes index 0)."""
    values = np.asarray(values)
    if values.size == 0:
        return np.empty(0, dtype=np.int64)
    changes = np.flatnonzero(values[1:] != values[:-1]) + 1
    return np.concatenate(([0], changes)).astype(np.int64)
