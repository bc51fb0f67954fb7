"""CRC32C (Castagnoli) checksums for the on-disk column format.

Format v3 protects every section of an ALPC file — header, each
row-group payload, and the footer — with a CRC32C, the checksum used by
iSCSI, ext4 and most columnar formats (Parquet, ORC).  The polynomial's
error-detection properties matter less here than the ecosystem
compatibility: a v3 file's checksums can be re-verified with any
standard crc32c implementation.

The environment bakes in no crc32c wheel and :mod:`zlib` only provides
the plain CRC32 polynomial, so the implementation is pure Python — in
two tiers:

- **scalar slicing-by-8** (:func:`crc32c_reference`): eight 256-entry
  tables fold one 64-bit chunk per loop iteration.  This is the pinned
  oracle for the equivalence tests and the "before" arm of the
  ``kernels/io`` and ``kernels/crc32c`` benchmarks.  It also finishes
  every buffer's ragged tail (< ``BLOCK_BYTES``) and takes buffers
  shorter than ``PARALLEL_MIN_BYTES`` whole, where one numpy dispatch
  costs more than the bytes it would fold.
- **block tables** (the default for longer buffers): the byte update
  ``s' = (s >> 8) ^ T0[(s ^ b) & 0xFF]`` is linear over GF(2), so the
  CRC of a 64-byte block from state 0 is the XOR of one table entry
  per byte, ``TT[i][b_i]``, where ``TT[i]`` is ``T0`` advanced by the
  ``63 - i`` zero bytes that follow position ``i``.  A whole buffer of
  blocks is one gather plus one XOR-reduce.  The block CRCs are then
  merged in a tree: ``crc(0, a || b) = M(crc(0, a)) ^ crc(0, b)`` with
  ``M`` the operator that advances a state by ``len(b)`` zero bytes.
  Each tree level treats 16 CRC words (64 bytes) as one row and runs
  the same gather-reduce with its own per-position tables, so a level
  divides the word count by 16.  Zero words are prepended to fill the
  last row — a CRC from state 0 over zero bytes stays 0, so this does
  not change the result.  Every table depends only on the level, so it
  is built once (from ``T0`` by repeated squaring of the one-zero-byte
  operator) and cached.  The incoming state is folded into the first
  four bytes of the first block (``crc(s, D) == crc(0, D ^ s)`` for
  ``len(D) >= 4``, with ``s`` XORed in little-endian).  The gathers run
  over slabs of ``_SLAB_ROWS`` rows, so the temporaries stay under
  ~0.5 MiB whatever the buffer size.

Both tiers accept any C-contiguous buffer-protocol object —
``bytes``, ``bytearray``, ``memoryview`` (including slices of an
``mmap``) or a numpy byte array — without materializing an
intermediate ``bytes`` copy, which is what keeps mmap-backed payload
verification zero-copy (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Reversed Castagnoli polynomial (0x1EDC6F41 bit-reflected).
_POLY = 0x82F63B78

#: Number of slicing tables (bytes folded per main-loop iteration).
_SLICES = 8

#: Buffers at least this long take the block-table numpy path.  The
#: scalar tier runs at single-digit MB/s in pure Python, and the block
#: kernel's fixed cost (a handful of numpy dispatches) is about that of
#: 128 scalar bytes, so the threshold sits at twice that.
PARALLEL_MIN_BYTES = 256

#: Bytes per block of the block-table kernel.  Also the row width of
#: every merge level: one row there is 16 little-endian CRC words.
BLOCK_BYTES = 64
_WORDS_PER_ROW = BLOCK_BYTES // 4

#: Rows per gather slab.  Each row costs an intp index and a uint32
#: entry per byte (12x the input), so a 512-row (32 KiB) slab keeps the
#: temporaries near 384 KiB however large the buffer is.
_SLAB_ROWS = 512


def _build_tables() -> tuple[tuple[int, ...], ...]:
    first = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        first.append(crc)
    tables = [first]
    for _ in range(1, _SLICES):
        prev = tables[-1]
        tables.append([(c >> 8) ^ first[c & 0xFF] for c in prev])
    return tuple(tuple(t) for t in tables)


_TABLES = _build_tables()


# --- block-table kernel ------------------------------------------------
#
# A linear operator on 32-bit CRC states is stored as four 256-entry
# byte tables (shape (4, 256)): entry [p][b] is the image of b << 8p.


def _apply(op: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Apply the byte-table operator ``op`` to every state in ``states``."""
    return (
        op[0][states & 0xFF]
        ^ op[1][(states >> 8) & 0xFF]
        ^ op[2][(states >> 16) & 0xFF]
        ^ op[3][states >> 24]
    )


_T0 = np.array(_TABLES[0], dtype=np.uint32)
_BYTE_BASIS = np.arange(256, dtype=np.uint32) << (
    8 * np.arange(4, dtype=np.uint32)[:, None]
)
#: Advance a state by one zero byte: ``s' = (s >> 8) ^ T0[s & 0xFF]``.
_ZERO_BYTE = (_BYTE_BASIS >> 8) ^ _T0[_BYTE_BASIS & 0xFF]
_POSITION_OFFSETS = np.arange(BLOCK_BYTES, dtype=np.intp) * 256


def _position_tables(last: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Flat ``(BLOCK_BYTES * 256,)`` tables for one row of a level.

    ``last`` holds the tables of the row's final element (one byte
    position for data blocks, four for a CRC word); each earlier
    element's tables are its successor's advanced by ``step``, the
    length one element spans.
    """
    groups = [last]
    while len(groups) * len(last) < BLOCK_BYTES:
        groups.append(_apply(step, groups[-1]))
    return np.concatenate(groups[::-1]).ravel()


_DATA_TABLES = _position_tables(_T0[None, :], _ZERO_BYTE)


@lru_cache(maxsize=None)
def _merge_tables(level: int) -> np.ndarray:
    """Tables merging a row of CRC words, each of a ``level`` span.

    A word of merge level ``k`` covers ``BLOCK_BYTES * 16**k`` bytes, a
    power of two, so its advance operator is the one-zero-byte operator
    squared ``log2`` of that many times.
    """
    span = BLOCK_BYTES * _WORDS_PER_ROW**level
    step = _ZERO_BYTE
    for _ in range(span.bit_length() - 1):
        step = _apply(step, step)
    return _position_tables(_BYTE_BASIS, step)


def _fold_rows(rows: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """CRC from state 0 of every ``BLOCK_BYTES``-byte row of ``rows``."""
    out = np.empty(len(rows), dtype="<u4")
    for start in range(0, len(rows), _SLAB_ROWS):
        index = rows[start : start + _SLAB_ROWS].astype(np.intp)
        index += _POSITION_OFFSETS
        np.bitwise_xor.reduce(
            tables.take(index), axis=1, out=out[start : start + _SLAB_ROWS]
        )
    return out


def _blocks_update(
    buf: "bytes | bytearray | memoryview", crc: int
) -> tuple[int, int]:
    """Advance ``crc`` over the whole blocks of ``buf``.

    Returns ``(state, consumed)``; the caller finishes the ragged tail
    with :func:`_scalar_update`.
    """
    n_blocks = len(buf) // BLOCK_BYTES
    consumed = n_blocks * BLOCK_BYTES
    rows = np.frombuffer(buf, dtype=np.uint8, count=consumed)
    words = _fold_rows(rows.reshape(n_blocks, BLOCK_BYTES), _DATA_TABLES)
    # The incoming state acts like a little-endian XOR into bytes 0-3.
    first = int(words[0])
    for pos in range(4):
        first ^= int(_DATA_TABLES[pos * 256 + ((crc >> (8 * pos)) & 0xFF)])
    words[0] = first
    level = 0
    while len(words) > 1:
        pad = -len(words) % _WORDS_PER_ROW
        if pad:
            words = np.concatenate((np.zeros(pad, dtype="<u4"), words))
        rows = words.view(np.uint8).reshape(-1, BLOCK_BYTES)
        words = _fold_rows(rows, _merge_tables(level))
        level += 1
    return int(words[0]), consumed


def _byte_view(data: object) -> "bytes | bytearray | memoryview":
    """A flat byte-indexable, copy-free view of any contiguous buffer.

    ``bytes``/``bytearray`` pass through untouched; everything else
    goes through ``memoryview(...).cast("B")``, which requires (and we
    check for, with a clear error) C-contiguity — a strided view has
    no zero-copy byte representation.
    """
    if isinstance(data, (bytes, bytearray)):
        return data
    view = data if isinstance(data, memoryview) else memoryview(data)
    if not view.c_contiguous:
        raise ValueError(
            "crc32c requires a C-contiguous buffer; got a non-contiguous "
            "memoryview (copy it with bytes(...) or np.ascontiguousarray "
            "first)"
        )
    return view.cast("B")


def _scalar_update(
    buf: "bytes | bytearray | memoryview", start: int, stop: int, crc: int
) -> int:
    """Advance the raw CRC state over ``buf[start:stop]``, slicing-by-8."""
    t0, t1, t2, t3, t4, t5, t6, t7 = _TABLES
    length = stop - start
    aligned = start + length - (length % _SLICES)
    i = start
    while i < aligned:
        low = crc ^ (
            buf[i]
            | (buf[i + 1] << 8)
            | (buf[i + 2] << 16)
            | (buf[i + 3] << 24)
        )
        crc = (
            t7[low & 0xFF]
            ^ t6[(low >> 8) & 0xFF]
            ^ t5[(low >> 16) & 0xFF]
            ^ t4[(low >> 24) & 0xFF]
            ^ t3[buf[i + 4]]
            ^ t2[buf[i + 5]]
            ^ t1[buf[i + 6]]
            ^ t0[buf[i + 7]]
        )
        i += _SLICES
    while i < stop:
        crc = (crc >> 8) ^ t0[(crc ^ buf[i]) & 0xFF]
        i += 1
    return crc


def crc32c(data: object, value: int = 0) -> int:
    """CRC32C of ``data``, optionally continuing from a prior ``value``.

    Matches the standard crc32c convention (e.g. ``crc32c(b"123456789")``
    is ``0xE3069283``); chain calls by passing the previous return value
    to checksum a logical section held in multiple buffers.  ``data``
    may be any C-contiguous buffer-protocol object; no intermediate
    copy is made.
    """
    buf = _byte_view(data)
    n = len(buf)
    crc = (value & 0xFFFFFFFF) ^ 0xFFFFFFFF
    consumed = 0
    if n >= PARALLEL_MIN_BYTES:
        crc, consumed = _blocks_update(buf, crc)
    crc = _scalar_update(buf, consumed, n, crc)
    return crc ^ 0xFFFFFFFF


def crc32c_reference(data: object, value: int = 0) -> int:
    """The pinned scalar slicing-by-8 CRC32C, without the block kernel.

    Kept as the oracle for the equivalence tests and as the "before"
    arm of the ``kernels/io`` and ``kernels/crc32c`` benchmarks;
    bit-identical to :func:`crc32c` for every input.
    """
    buf = _byte_view(data)
    crc = (value & 0xFFFFFFFF) ^ 0xFFFFFFFF
    crc = _scalar_update(buf, 0, len(buf), crc)
    return crc ^ 0xFFFFFFFF
