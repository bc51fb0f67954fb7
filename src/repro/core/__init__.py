"""The paper's primary contribution: ALP and ALP_rd.

Modules:

- :mod:`repro.core.constants` — vector size, sampling parameters, the
  ``F10`` / ``i_F10`` multiplier tables from Algorithm 1.
- :mod:`repro.core.fastround` — the SIMD-friendly sweet-spot rounding.
- :mod:`repro.core.alp` — per-vector decimal encoding (Algorithms 1–2),
  in both numpy-vectorized and pure-scalar reference forms.
- :mod:`repro.core.sampler` — the two-level adaptive sampling (§3.2).
- :mod:`repro.core.alprd` — the real-doubles fallback (Algorithm 3).
- :mod:`repro.core.compressor` — row-group orchestration: scheme choice,
  ALP vs ALP_rd, the public compress/decompress entry points.
- :mod:`repro.core.float32` — the 32-bit ports (§4.4).
"""

from repro.core.alp import (
    AlpVector,
    alp_decode_vector,
    alp_encode_vector,
)
from repro.core.alprd import (
    AlpRdRowGroup,
    alprd_decode,
    alprd_encode,
)
from repro.core.autotune import choose_codec
from repro.core.compressor import (
    CompressedRowGroups,
    compress,
    decompress,
)
from repro.core.sampler import (
    ExponentFactor,
    find_best_combination,
    first_level_sample,
    second_level_sample,
)

__all__ = [
    "AlpRdRowGroup",
    "AlpVector",
    "CompressedRowGroups",
    "ExponentFactor",
    "alp_decode_vector",
    "alp_encode_vector",
    "alprd_decode",
    "alprd_encode",
    "choose_codec",
    "compress",
    "decompress",
    "find_best_combination",
    "first_level_sample",
    "second_level_sample",
]
