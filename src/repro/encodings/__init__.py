"""FastLanes-style lightweight integer encodings.

The paper builds ALP on top of the FastLanes compression library: fused
Frame-Of-Reference (FFOR), plain bit-packing (BP), DICTIONARY, RLE and
Delta.  This subpackage reimplements those building blocks in numpy.

Every encoding follows the same contract:

- ``encode(values) -> Encoded`` where ``Encoded`` is a small dataclass
  carrying the payload plus per-vector parameters, exposes ``size_bits()``
  (the storage footprint the benchmarks report) and round-trips through
  the matching ``decode``.
- Encodings are *vectorized*: they operate on whole arrays with no
  per-value Python control flow, mirroring the paper's design goal.
"""

from repro.encodings.bitpack import (
    bit_width_required,
    pack_bits,
    unpack_bits,
)
from repro.encodings.for_ import ForEncoded, for_decode, for_encode
from repro.encodings.ffor import (
    FforEncoded,
    ffor_decode,
    ffor_decode_unfused,
    ffor_encode,
)
from repro.encodings.delta import DeltaEncoded, delta_decode, delta_encode
from repro.encodings.dictionary import (
    DictionaryEncoded,
    SkewedDictionary,
    dictionary_decode,
    dictionary_encode,
)
from repro.encodings.cascade import (
    CascadeEncoded,
    cascade_compress,
    cascade_decompress,
)

__all__ = [
    "CascadeEncoded",
    "DeltaEncoded",
    "DictionaryEncoded",
    "FforEncoded",
    "ForEncoded",
    "SkewedDictionary",
    "bit_width_required",
    "cascade_compress",
    "cascade_decompress",
    "delta_decode",
    "delta_encode",
    "dictionary_decode",
    "dictionary_encode",
    "ffor_decode",
    "ffor_decode_unfused",
    "ffor_encode",
    "for_decode",
    "for_encode",
    "pack_bits",
    "unpack_bits",
]
