"""Dictionary encodings (plain and skewed).

Two flavours are needed by the paper:

- :func:`dictionary_encode` — a plain DICTIONARY encoding over int64
  payloads, used by the cascade layer (DICT codes bit-packed with FOR,
  dictionary entries handed to ALP for further compression).
- :class:`SkewedDictionary` — the small, exception-tolerant dictionary
  ALP_rd uses on the left (front-bit) parts: at most ``2**3 = 8`` 16-bit
  entries, values outside the dictionary stored as 16-bit exceptions with
  16-bit positions (Section 3.4).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.encodings.bitpack import pack_bits, unpack_bits
from repro.core.constants import RD_DICTIONARY_BITS
from repro.encodings.for_ import ForEncoded, for_decode, for_encode

#: Maximum code width of the ALP_rd skewed dictionary (2**3 = 8 entries);
#: the format-level constant lives in :mod:`repro.core.constants`.
MAX_SKEWED_DICT_BITS = RD_DICTIONARY_BITS
#: Exception tolerance of the skewed dictionary: pick the smallest size
#: whose exception rate stays below this fraction (paper: 10%).
SKEWED_EXCEPTION_TOLERANCE = 0.10


@dataclass(frozen=True)
class DictionaryEncoded:
    """A plain dictionary-encoded integer vector."""

    codes: ForEncoded
    dictionary: np.ndarray  # distinct int64 values, code order
    count: int

    @property
    def cardinality(self) -> int:
        """Number of distinct values."""
        return int(self.dictionary.size)

    def size_bits(self) -> int:
        """Codes + uncompressed dictionary (the cascade layer replaces the
        dictionary part with an ALP-compressed footprint)."""
        return self.codes.size_bits() + self.dictionary.size * 64


def dictionary_encode(values: np.ndarray) -> DictionaryEncoded:
    """Encode int64 values as codes into a sorted dictionary."""
    values = np.ascontiguousarray(values, dtype=np.int64)
    dictionary, codes = np.unique(values, return_inverse=True)
    return DictionaryEncoded(
        codes=for_encode(codes.astype(np.int64)),
        dictionary=dictionary,
        count=values.size,
    )


def dictionary_decode(encoded: DictionaryEncoded) -> np.ndarray:
    """Decode a :class:`DictionaryEncoded` vector back to int64."""
    codes = for_decode(encoded.codes)
    return encoded.dictionary[codes]


@dataclass(frozen=True)
class SkewedDictionary:
    """The fitted left-part dictionary of an ALP_rd row-group.

    Attributes:
        entries: most-frequent left parts, at most 8, as uint16-range ints.
        code_width: bits per code, ``ceil(log2(len(entries)))`` with a
            minimum of 0 (single-entry dictionary needs no code bits).
    """

    entries: np.ndarray  # uint16 values
    code_width: int

    @classmethod
    def fit(cls, sample_left_parts: np.ndarray) -> "SkewedDictionary":
        """Fit a dictionary to sampled left parts per the paper's rule.

        Considers sizes ``2**b`` for ``b <= 3``, fills each with the most
        frequent sample values, and keeps the smallest ``b`` whose
        exception fraction is at most 10% (otherwise ``b = 3``).
        """
        sample = np.asarray(sample_left_parts, dtype=np.uint64)
        if sample.size == 0:
            return cls(entries=np.zeros(1, dtype=np.uint16), code_width=0)
        counts = Counter(sample.tolist())
        ranked = [value for value, _ in counts.most_common(1 << MAX_SKEWED_DICT_BITS)]
        total = sample.size
        chosen_b = MAX_SKEWED_DICT_BITS
        for b in range(MAX_SKEWED_DICT_BITS + 1):
            size = 1 << b
            covered = sum(counts[v] for v in ranked[:size])
            if (total - covered) / total <= SKEWED_EXCEPTION_TOLERANCE:
                chosen_b = b
                break
        entries = np.asarray(ranked[: 1 << chosen_b], dtype=np.uint16)
        # code_width counts the bits needed to address the entries actually
        # stored, which may be fewer than 2**chosen_b distinct values.
        width = max(int(entries.size - 1).bit_length(), 0)
        return cls(entries=entries, code_width=width)

    def lookup(self, left_parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map left parts to ``(codes, found)`` with one sorted search.

        ``found`` marks the parts the dictionary holds; the others get
        code 0, a placeholder that stays within the packed width.  The
        array may have any shape (a row-group's ``(vectors, vector
        size)`` grid looks up at once); uint16 parts are searched as
        they are, so a row-group's lookup stays a quarter the size.
        """
        left = np.asarray(left_parts)
        if left.dtype != np.uint16:
            left = left.astype(np.uint64)
        sorter = np.argsort(self.entries, kind="stable")
        # Entries are 16-bit values: exact as uint16 or uint64.
        sorted_entries = self.entries[sorter].astype(left.dtype)
        idx = np.searchsorted(sorted_entries, left)
        np.minimum(idx, sorted_entries.size - 1, out=idx)
        found = sorted_entries[idx] == left
        # fits: codes address at most 2**MAX_SKEWED_DICT_BITS = 8 entries
        codes = sorter.astype(np.uint8)[idx]
        codes[~found] = 0
        return codes, found

    def encode(
        self, left_parts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Map left parts to codes; return (codes, exc_positions, exc_values).

        Left parts absent from the dictionary become exceptions: their code
        is 0 (a placeholder that stays within the packed width) and their
        true 16-bit value and position are returned for separate storage.
        """
        left = np.asarray(left_parts, dtype=np.uint64)
        codes, found = self.lookup(left)
        # fits: positions < vector size <= 65535
        exc_positions = np.flatnonzero(~found).astype(np.uint16)
        # fits: left parts are at most MAX_RD_LEFT_BITS = 16 bits wide
        exc_values = left[~found].astype(np.uint16)
        return codes, exc_positions, exc_values

    def decode(
        self,
        codes: np.ndarray,
        exc_positions: np.ndarray,
        exc_values: np.ndarray,
    ) -> np.ndarray:
        """Inverse of :meth:`encode`: dictionary lookup + exception patch."""
        codes = np.asarray(codes, dtype=np.int64)
        left = self.entries.astype(np.uint64)[codes]
        if exc_positions.size:
            left[exc_positions.astype(np.int64)] = exc_values.astype(np.uint64)
        return left

    def size_bits(self) -> int:
        """Dictionary entries stored as 16-bit values, once per row-group."""
        return int(self.entries.size) * 16


def pack_codes(codes: np.ndarray, width: int) -> bytes:
    """Bit-pack dictionary codes (thin alias kept for symmetry)."""
    return pack_bits(codes, width)


def unpack_codes(buffer: bytes, width: int, count: int) -> np.ndarray:
    """Bit-unpack dictionary codes."""
    return unpack_bits(buffer, width, count)
