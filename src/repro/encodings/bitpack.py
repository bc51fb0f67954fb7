"""Vectorized bit-packing (the FastLanes "BP" primitive).

Packs arrays of unsigned integers into a dense byte buffer using a fixed
bit width per vector, and unpacks them back.  This is the workhorse under
FFOR, the skewed dictionary of ALP_rd, and the PDE baseline.

The layout is MSB-first within the buffer (value ``i`` occupies bits
``[i*w, (i+1)*w)`` of the stream).  The FastLanes C++ library uses an
interleaved transposed layout for SIMD friendliness; in numpy the plain
sequential layout vectorizes equally well and keeps the format readable,
so we use it and note the deviation here.

Both directions are *word-parallel*: the packer computes, per value, the
one or two 64-bit destination words its field straddles and combines the
shifted contributions with an OR-reduction (three to five numpy kernels
total, independent of width); the unpacker is the mirrored two-word
gather.  Byte-aligned widths short-circuit to a single dtype cast.  All
index arithmetic depends only on ``(width, count)`` and is cached, so
the steady-state cost per 1024-value ALP vector is a handful of numpy
calls on 1024-element arrays — no N x width bit matrix is ever built.
The original bit-matrix packer survives as :func:`pack_bits_bitmatrix`,
the reference the equivalence tests and kernel benchmarks compare
against.
"""

from __future__ import annotations

import sys
import threading
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro import obs

if sys.version_info >= (3, 12):  # pragma: no cover - version switch
    from collections.abc import Buffer
else:  # pragma: no cover - version switch
    from typing import Union

    #: Pre-3.12 stand-in for :class:`collections.abc.Buffer`: the
    #: buffer-protocol inputs the unpack kernels accept at runtime.
    Buffer = Union[bytes, bytearray, memoryview, np.ndarray]

#: Widths packable with a single dtype cast (big-endian field bytes are
#: exactly the value's low bytes in stream order).
_CAST_DTYPES = {8: np.dtype(np.uint8), 16: ">u2", 32: ">u4", 64: ">u8"}


def as_byte_buffer(buffer: Buffer) -> bytes | bytearray | memoryview:
    """A flat byte view of any C-contiguous buffer, without copying.

    ``bytes``/``bytearray`` pass through; other buffer-protocol objects
    (``memoryview`` slices of an mmap, numpy byte arrays) are wrapped in
    a ``memoryview`` and cast to unsigned bytes.  Non-contiguous views
    have no zero-copy byte representation and are rejected with a clear
    error rather than silently copied.
    """
    if isinstance(buffer, (bytes, bytearray)):
        return buffer
    view = buffer if isinstance(buffer, memoryview) else memoryview(buffer)
    if not view.c_contiguous:
        raise ValueError(
            "expected a C-contiguous buffer; got a non-contiguous "
            "memoryview (materialize it with bytes(...) or "
            "np.ascontiguousarray first)"
        )
    return view.cast("B")


def _coerce_out(out: np.ndarray, count: int) -> np.ndarray:
    """Validate a caller-provided unpack destination buffer."""
    if not isinstance(out, np.ndarray):
        raise TypeError(f"out must be a numpy ndarray, got {type(out)!r}")
    if out.dtype != np.uint64:
        raise ValueError(f"out must have dtype uint64, got {out.dtype}")
    if out.ndim != 1 or out.size != count:
        raise ValueError(
            f"out must be a 1-D array of exactly {count} values, "
            f"got shape {out.shape}"
        )
    if not out.flags.c_contiguous or not out.flags.writeable:
        raise ValueError("out must be C-contiguous and writable")
    return out


def bit_width_required(
    values: np.ndarray, known_min: int | None = None
) -> int:
    """Smallest bit width able to represent every value in ``values``.

    Values must be non-negative (unsigned).  An empty or all-zero array
    needs 0 bits — FFOR exploits this for constant vectors.

    Signed-dtype inputs are accepted but validated on their *minimum*:
    checking ``values.max() < 0`` would only reject all-negative arrays
    (and can never fire for unsigned dtypes), silently mis-sizing mixed
    arrays like ``[-1, 5]``.  Callers that already reduced the minimum
    (FOR-style encoders subtract it as the frame of reference) pass it
    via ``known_min`` so the validation does not re-scan the array.
    """
    values = np.asarray(values)
    if values.size == 0:
        return 0
    if values.dtype.kind != "u":
        minimum = int(values.min()) if known_min is None else known_min
        if minimum < 0:
            raise ValueError("bit_width_required expects non-negative values")
    return int(values.max()).bit_length()


@lru_cache(maxsize=1024)
def _pack_plan(
    width: int, count: int
) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Precomputed scatter geometry for ``count`` fields of ``width`` bits.

    Everything here depends only on (width, count), so the hot path pays
    for it once per shape.  Returns ``(n_words, n_start_words, offset,
    boundaries, straddle, s_idx, s_shift)`` where

    - ``offset[i]`` is field ``i``'s start bit inside its first word,
    - ``boundaries[w]`` is the first field starting in word ``w`` (every
      word up to the last field's start word holds at least one start,
      because ``width <= 64`` means consecutive starts are never more
      than 64 bits apart — so the OR-reduction segments are non-empty),
    - ``straddle`` marks fields crossing into the next word; at most one
      field crosses any given word boundary (fields are disjoint), so
      the spill writes at ``s_idx`` are conflict-free fancy indexing.
    """
    n_words = (count * width + 63) // 64
    starts = np.arange(count, dtype=np.uint64) * np.uint64(width)
    word_idx = (starts >> np.uint64(6)).view(np.int64)
    offset = starts & np.uint64(63)
    # A trailing word reached only by the last field's spill contains no
    # start; the OR-reduction covers words up to the last start only.
    n_start_words = int(word_idx[-1]) + 1
    boundaries = (
        np.arange(n_start_words, dtype=np.int64) * 64 + width - 1
    ) // width
    straddle = (offset + np.uint64(width)) > np.uint64(64)
    s_idx = word_idx[straddle] + 1
    s_shift = (np.uint64(64) - offset[straddle]) & np.uint64(63)
    return n_words, n_start_words, offset, boundaries, straddle, s_idx, s_shift


def pack_bits(
    values: np.ndarray, width: int, max_value: int | None = None
) -> bytes:
    """Pack ``values`` (non-negative, each < 2**width) into bytes.

    ``max_value`` lets callers that already reduced the maximum (every
    width computation does) skip the validation re-scan.

    ``values`` may also be a 2-D ``(rows, count)`` matrix of equal-width
    rows, mirroring the list form of :func:`unpack_bits`: the result is
    every row's own payload back to back, row ``r`` at bytes
    ``[r * n, (r + 1) * n)`` with ``n = packed_size_bytes(count,
    width)``.  Every row is packed with the one-row plan, so the cached
    geometry stays the size of one vector however many rows one call
    packs.

    >>> unpack_bits(pack_bits(np.array([1, 2, 3], dtype=np.uint64), 2), 2, 3)
    array([1, 2, 3], dtype=uint64)
    """
    if width < 0 or width > 64:
        raise ValueError(f"bit width must be in [0, 64], got {width}")
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if values.ndim not in (1, 2):
        raise ValueError(f"values must be 1-D or 2-D, got {values.ndim}-D")
    if values.size:
        vmax = int(values.max()) if max_value is None else max_value
        if width == 0:
            if vmax != 0:
                raise ValueError("width 0 requires an all-zero array")
            packed = b""
        elif vmax >> width:
            raise ValueError(f"value {vmax} does not fit in {width} bits")
        else:
            rows = values.reshape(-1, values.shape[-1])
            # Passes of UNPACK_PASS_ROWS rows bound the word scatter's
            # temporaries, however many rows one call packs.
            packed = b"".join(
                _pack_words(rows[at : at + UNPACK_PASS_ROWS], width)
                for at in range(0, rows.shape[0], UNPACK_PASS_ROWS)
            )
    else:
        packed = b""
    if obs.ENABLED:
        obs.metrics.counter_add("bitpack.pack_calls", 1)
        obs.metrics.counter_add("bitpack.pack_values", int(values.size))
        obs.metrics.counter_add("bitpack.pack_bytes", len(packed))
    return packed


def _pack_words(rows: np.ndarray, width: int) -> bytes:
    """Word-parallel packing core: a ``(rows, count)`` grid, width 1..64."""
    cast = _CAST_DTYPES.get(width)
    if cast is not None:
        # Byte-exact fast path: the field bytes *are* the value's low
        # bytes in big-endian order, so one dtype cast emits the stream.
        return rows.astype(cast).tobytes()
    n_rows, count = rows.shape
    nbytes = (count * width + 7) // 8
    if width % 8 == 0:
        # Remaining byte-aligned widths (24/40/48/56): slice the low
        # ``width // 8`` byte columns out of the big-endian value bytes.
        k = width // 8
        return (
            rows.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - k :]
        ).tobytes()
    (
        n_words,
        n_start_words,
        offset,
        boundaries,
        straddle,
        s_idx,
        s_shift,
    ) = _pack_plan(width, count)
    # Left-align each field in its own 64-bit window, shift it down to
    # its in-word position, and OR together every field starting in the
    # same word.  Fields crossing a word boundary contribute their low
    # bits to the next word in a second, conflict-free pass.  Row ``r``
    # reuses the one-row plan: its OR segments start ``r * count``
    # fields further on, and its spills land in its own row of words.
    field = rows << np.uint64(64 - width)
    hi = (field >> offset).reshape(-1)
    if n_rows > 1:
        boundaries = (
            boundaries + np.arange(0, n_rows * count, count)[:, None]
        ).reshape(-1)
    heads = np.bitwise_or.reduceat(hi, boundaries).reshape(
        n_rows, n_start_words
    )
    if n_words > n_start_words:
        words = np.zeros((n_rows, n_words), dtype=np.uint64)
        words[:, :n_start_words] = heads
    else:
        words = heads
    if s_idx.size:
        words[:, s_idx] |= field[:, straddle] << s_shift
    stream = words.astype(">u8")
    if nbytes == n_words * 8:
        return stream.tobytes()
    # Rows that end inside a word keep only their own bytes.
    return stream.view(np.uint8)[:, :nbytes].tobytes()


def pack_rows(
    rows: np.ndarray, maxima: np.ndarray
) -> tuple[list[int], list[bytes]]:
    """Pack each row of a ``(rows, count)`` grid at its own bit width.

    ``maxima`` holds each row's largest value (width computations
    reduce it anyway); row ``r`` packs at ``maxima[r].bit_length()``
    bits, and its payload is exactly what :func:`pack_bits` returns for
    it alone.  The rows sharing a width pack in one 2-D
    :func:`pack_bits` call — a handful per row-group instead of one per
    vector — and the result is cut into per-row payloads.  Returns
    ``(widths, payloads)``.
    """
    n_rows, count = rows.shape
    # Exact for every uint64, one call per row, not per value.
    widths = [int(m).bit_length() for m in maxima.tolist()]
    width_of = np.array(widths, dtype=np.int64)
    payloads = [b""] * n_rows
    for width in sorted(set(widths)):
        members = np.flatnonzero(width_of == width)
        group = rows if members.size == n_rows else rows[members]
        packed = pack_bits(group, width, max_value=int(maxima[members].max()))
        if not packed:
            continue
        nbytes = packed_size_bytes(count, width)
        # Iterates the group's vectors, not values.  # reprolint: ignore[RL2]
        for at, row in enumerate(members.tolist()):
            payloads[row] = packed[at * nbytes : (at + 1) * nbytes]
    return widths, payloads


def pack_bits_bitmatrix(values: np.ndarray, width: int) -> bytes:
    """Reference packer: expand to an N x width bit matrix, ``packbits``.

    This is the pre-word-parallel implementation, kept as the ground
    truth for the equivalence tests and as the "before" side of the
    kernel micro-benchmarks (``alp-repro bench --kernels``).  It is
    O(N x width) in both memory traffic and work; do not call it on a
    hot path.
    """
    if width < 0 or width > 64:
        raise ValueError(f"bit width must be in [0, 64], got {width}")
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if width == 0:
        if values.size and int(values.max()) != 0:
            raise ValueError("width 0 requires an all-zero array")
        return b""
    if values.size and int(values.max()) >> width:
        raise ValueError(
            f"value {int(values.max())} does not fit in {width} bits"
        )
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((values[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.ravel()).tobytes()


#: Vectors one pass of the :func:`unpack_bits` gather (or of a 2-D
#: :func:`pack_bits` scatter) covers.  Passes keep every temporary at
#: ``16 * 1024 * 8`` bytes (128 KiB) for 1024-value vectors, however
#: many vectors one call unpacks or packs.
UNPACK_PASS_ROWS = 16


@lru_cache(maxsize=256)
def _unpack_plan(
    width: int, count: int
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Cached gather geometry of one vector of ``count`` fields.

    Returns ``(n_words, word_idx, offset, spill_idx, spill_shift)``:
    field ``i`` starts ``offset[i]`` bits into word ``word_idx[i]``.  A
    field that crosses into the next word reads its low bits from
    ``spill_idx[i]`` shifted right by ``spill_shift[i]``; every other
    field points ``spill_idx`` at word ``n_words``, the zero word after
    the payload, so the spill term needs no mask and no ``np.where``.
    ``spill_idx`` is ``None`` when no field spills (widths dividing 64).
    The plan depends only on ``(width, count)`` — one vector — and a
    batch of vectors reuses it row by row.
    """
    n_words = (count * width + 63) // 64
    starts = np.arange(count, dtype=np.uint64) * np.uint64(width)
    word_idx = (starts >> np.uint64(6)).view(np.int64)
    offset = starts & np.uint64(63)
    spills = offset + np.uint64(width) > np.uint64(64)
    if not spills.any():
        return n_words, word_idx, offset, None, None
    spill_idx = np.where(spills, word_idx + 1, n_words)
    spill_shift = np.where(spills, np.uint64(64) - offset, np.uint64(0))
    return n_words, word_idx, offset, spill_idx, spill_shift


_SCRATCH = threading.local()


def scratch(name: str, size: int, dtype: np.dtype | type) -> np.ndarray:
    """This thread's reusable flat buffer ``name``, at least ``size`` items.

    The working arrays of the row-group kernels come from here, so a
    kernel that runs again in steady state (a served SUM, say) makes no
    fresh vector-sized allocations.  Grown on demand, never shrunk.  The
    buffer is the caller's until it asks for the same ``name`` again, so
    a name belongs to one kernel and must not be held across calls.
    """
    buffers = _SCRATCH.__dict__
    buffer = buffers.get(name)
    if buffer is None or buffer.size < size or buffer.dtype != dtype:
        buffer = buffers[name] = np.empty(size, dtype=dtype)
    return buffer[:size]


def packed_size_bytes(count: int, width: int) -> int:
    """Byte size of ``count`` packed values of ``width`` bits."""
    return (count * width + 7) // 8


def unpack_bits(
    buffer: Buffer | Sequence[Buffer],
    width: int,
    count: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unpack ``count`` values of ``width`` bits each from ``buffer``.

    ``buffer`` may be any C-contiguous buffer-protocol object —
    ``bytes``, ``bytearray``, a ``memoryview`` slice of an mmap, or a
    numpy byte array — and is never copied whole (non-contiguous views
    are rejected, see :func:`as_byte_buffer`).

    ``buffer`` may also be a list (or tuple) of payloads, one per vector
    of ``count`` fields: they unpack in one call, vector ``r`` filling
    ``result[r * count : (r + 1) * count]``.  This is how a row-group's
    equal-width vectors unpack at once.  Each payload must be exactly
    :func:`packed_size_bytes` long — what :func:`pack_bits` writes —
    so a damaged length raises ``ValueError`` instead of shifting its
    neighbours' fields.

    ``out``, when given, must be a writable C-contiguous uint64 array
    of every value unpacked and receives them in place, so batch
    decoders can unpack straight into a caller-provided column buffer.

    The generic path lays each payload out as a row of whole big-endian
    64-bit words followed by one zero word and reconstructs each field
    from the one or two words it straddles: two gathers plus shifts for
    *every* width, in place on the output and without a select — the
    numpy analogue of FastLanes' branch-free unpack kernels.
    Byte-aligned widths (8/16/32/64) skip the word gather entirely: the
    stream is reinterpreted with a single big-endian dtype cast.  The
    gather geometry depends only on ``(width, count)`` — one vector —
    and is cached across calls.  One payload unpacks with plain
    expressions.  Several unpack in passes whose word rows and spill
    terms live in this thread's :func:`scratch` buffers (payloads are
    copied in row by row), and at most :data:`_JOIN_BYTES` of cast-width
    payloads are joined at once, so the only large allocation is the
    result (none with ``out``).
    """
    if width < 0 or width > 64:
        raise ValueError(f"bit width must be in [0, 64], got {width}")
    if count < 0:
        raise ValueError("count must be non-negative")
    nbytes = packed_size_bytes(count, width)
    if isinstance(buffer, (list, tuple)):
        payloads = [as_byte_buffer(payload) for payload in buffer]
        for payload in payloads:
            if len(payload) != nbytes:
                raise ValueError(
                    f"payload of {len(payload)} bytes, expected {nbytes} "
                    f"for {count} values of width {width}"
                )
    else:
        payloads = [as_byte_buffer(buffer)]
        if len(payloads[0]) < nbytes:
            raise ValueError(
                f"buffer holds {len(payloads[0]) * 8} bits, need "
                f"{count * width} for {count} values of width {width}"
            )
        payloads[0] = memoryview(payloads[0])[:nbytes]
    total = len(payloads) * count
    if out is not None:
        out = _coerce_out(out, total)
    if width == 0 or total == 0:
        if out is not None:
            out[...] = 0
            return out
        return np.zeros(total, dtype=np.uint64)
    if obs.ENABLED:
        obs.metrics.counter_add("bitpack.unpack_calls", 1)
        obs.metrics.counter_add("bitpack.unpack_values", total)
        obs.metrics.counter_add("bitpack.unpack_bytes", len(payloads) * nbytes)
    cast = _CAST_DTYPES.get(width)
    plan = None if cast is not None else _unpack_plan(width, count)
    if len(payloads) == 1:
        # One vector: its temporaries are small, and plain expressions
        # beat the multi-vector passes below by about 1 us a call (cast
        # widths) to 4 us (gathered widths).
        if cast is not None:
            fields = np.frombuffer(payloads[0], dtype=cast)
            if out is None:
                return fields.astype(np.uint64)
            out[...] = fields  # widening big-endian cast, in place
            return out
        pad = bytes((plan[0] + 1) * 8 - nbytes)
        words = np.frombuffer(pad.join(payloads) + pad, dtype=">u8")
        fields = np.empty(total, dtype=np.uint64) if out is None else out
        words = words.astype(np.uint64)[None, :]
        _gather_fields(words, fields[None, :], width, plan)
        return fields
    fields = np.empty(total, dtype=np.uint64) if out is None else out
    if cast is not None:
        # Joined payloads stay under _JOIN_BYTES a pass (and one pass's
        # join is gone before the next one's is made).
        step = max(1, _JOIN_BYTES // nbytes)
        for first in range(0, len(payloads), step):
            part = payloads[first : first + step]
            fields[first * count : (first + len(part)) * count] = (
                np.frombuffer(b"".join(part), dtype=cast)
            )  # widening big-endian cast
        return fields
    n_words = plan[0]
    grid = fields.reshape(len(payloads), count)
    stride = (n_words + 1) * 8
    with np.errstate():
        np.setbufsize(UFUNC_BUFFER_ITEMS)  # restored as errstate exits
        for first in range(0, len(payloads), UNPACK_PASS_ROWS):
            batch = payloads[first : first + UNPACK_PASS_ROWS]
            rows = grid[first : first + len(batch)]
            words = scratch(
                "unpack.words", len(batch) * (n_words + 1), np.uint64
            ).reshape(len(batch), n_words + 1)
            words.view(np.uint8)[:, nbytes:] = 0  # padding and zero word
            raw = memoryview(words.reshape(-1).view(np.uint8))
            # Iterates the pass's vectors.  # reprolint: ignore[RL2]
            for at, payload in enumerate(batch):
                raw[at * stride : at * stride + nbytes] = payload
            if sys.byteorder == "little":
                words.byteswap(inplace=True)  # the stream is big-endian
            spill = scratch("unpack.spill", rows.size, np.uint64)
            spill = spill.reshape(rows.shape)
            _gather_fields(words, rows, width, plan, spill)
    return fields


def _gather_fields(
    words: np.ndarray,
    rows: np.ndarray,
    width: int,
    plan: tuple,
    spill: np.ndarray | None = None,
) -> None:
    """Fill ``rows`` with the fields of the word rows ``words`` by the
    :func:`_unpack_plan` ``plan``: one gather for each field's first
    word, one for the spill word, in place (``spill`` holds the spill
    terms when given)."""
    _, word_idx, offset, spill_idx, spill_shift = plan
    np.take(words, word_idx, axis=1, out=rows, mode="clip")
    rows <<= offset
    if spill_idx is not None:
        spill = np.take(words, spill_idx, axis=1, out=spill, mode="clip")
        spill >>= spill_shift
        rows |= spill
    rows >>= np.uint64(64 - width)


#: Most payload bytes the cast path of :func:`unpack_bits` joins at once.
_JOIN_BYTES = 1 << 15

#: Iteration-buffer size, in items, that the multi-vector kernels set
#: for numpy's ufuncs (inside ``np.errstate()``, which restores it).  A
#: ufunc that broadcasts — a per-field shift row over a pass, a per-row
#: bound column over a residual grid — otherwise allocates an iteration
#: buffer of numpy's default 8192 items, 64 KiB, on every call; at 1024
#: items that buffer is 8 KiB, and the broadcasts run no slower.
#: Setting it costs about 5 us, so it is set once per call of several
#: vectors, never per vector.
UFUNC_BUFFER_ITEMS = 1 << 10


def vector_grid(counts: Sequence[int]) -> tuple[int, int]:
    """``(vector size, full vectors)`` of a row-group's vector counts.

    Every vector but the last must hold ``counts[0]`` values and the
    last at most that many — the layout the compressor writes — so the
    full vectors tile a ``(full vectors, vector size)`` grid and a short
    tail vector may follow it.  Any other layout raises ``ValueError``.
    """
    if not counts:
        return 0, 0
    size = counts[0]
    if size < 1 or any(c != size for c in counts[:-1]) or not (
        0 < counts[-1] <= size
    ):
        raise ValueError(
            f"vector counts {sorted(set(counts))} are not full vectors "
            f"followed by at most one shorter tail"
        )
    return size, len(counts) - (counts[-1] < size)


@lru_cache(maxsize=1024)
def _sum_plan_loop(width: int, count: int) -> tuple[int, int, int]:
    """Stride, repeating field mask and modulus for the packed-sum fold.

    Picks the smallest stride ``k`` such that the sum of *all* fields
    fits strictly below the modulus ``2**(k*width) - 1`` (at most ~12
    for ALP's 1024-value vectors), and builds the periodic mask that
    isolates one stride class: ``width`` one-bits every ``k*width``
    bits, long enough to cover the whole stream.  The total-sum bound
    (rather than a per-class one) is what lets :func:`unpack_sum` add
    the aligned classes together and reduce once.  Pure arithmetic on
    ``(width, count)``, cached; the ``while`` loops here run a handful
    of iterations on integers, never over data.
    """
    k = 2
    field_max = (1 << width) - 1
    while count * field_max >= (1 << (k * width)) - 1:
        k += 1
    period = k * width
    total_bits = count * width
    mask = field_max
    covered = period
    while covered < total_bits:
        mask |= mask << covered
        covered *= 2
    return k, mask, (1 << period) - 1


def _packed_stream(buffer: Buffer, width: int, count: int) -> int:
    """The packed payload as one big-endian integer, padding stripped.

    Field ``i`` (stream order) sits at bit offset ``(count-1-i)*width``
    from the least-significant end — the exact mirror of the MSB-first
    layout :func:`pack_bits` writes.
    """
    total_bits = count * width
    available = len(buffer) * 8
    if total_bits > available:
        raise ValueError(
            f"buffer holds {available} bits, need {total_bits} "
            f"for {count} values of width {width}"
        )
    return int.from_bytes(buffer, "big") >> (available - total_bits)


def _extract_fields_loop(
    buffer: Buffer, width: int, positions: list[int]
) -> int:
    """Sum of individual fields plucked straight out of the raw bytes.

    A pinned scalar loop by design: it runs over *exception positions*
    (a handful per vector), not over the data, and each pluck touches
    only the <= 9 bytes the field straddles — O(1) per position, far
    cheaper than gathering the whole vector when the excluded set is
    sparse.
    """
    field_mask = (1 << width) - 1
    total = 0
    for position in positions:
        start_bit = position * width
        end_bit = start_bit + width
        first = start_bit >> 3
        last = (end_bit + 7) >> 3
        chunk = int.from_bytes(buffer[first:last], "big")
        total += (chunk >> ((last << 3) - end_bit)) & field_mask
    return total


def unpack_sum(buffer: Buffer, width: int, count: int) -> int:
    """Exact integer sum of ``count`` packed ``width``-bit fields.

    The late-materialization kernel under encoded-domain SUM — and the
    one place the packed stream is *not* unpacked at all.  The payload
    is read as a single arbitrary-precision integer and folded modulo
    ``2**(k*width) - 1``: because ``2**(k*width) ≡ 1`` under that
    modulus, every field whose bit offset is a multiple of ``k*width``
    contributes its value directly to the residue.  The ``k`` stride
    classes are aligned by shifting, masked, and *added together* before
    a single reduction — safe, because each mask block is followed by a
    ``(k-1)*width``-bit zero gap and ``k`` is chosen so even the total
    sum stays below the modulus, so block sums can never carry into a
    neighbouring block.  The whole kernel is ``k`` shift+mask passes,
    one add chain and one ``%`` over the raw bytes — no per-value
    gather, no uint64 column, no float conversion.

    The fold walks the full bit stream, so its cost grows with
    ``count * width`` while the word-gather of :func:`unpack_bits` is
    O(count) regardless of width — past :data:`_FOLD_MAX_WIDTH` (and
    for the byte-aligned widths, whose gather is a single dtype cast)
    the kernel switches to gather + a bounded uint64 reduction.
    """
    if width < 0 or width > 64:
        raise ValueError(f"bit width must be in [0, 64], got {width}")
    if count < 0:
        raise ValueError("count must be non-negative")
    if obs.ENABLED:
        obs.metrics.counter_add("bitpack.unpack_sum_calls", 1)
    if width == 0 or count == 0:
        return 0
    buffer = as_byte_buffer(buffer)
    if width > _FOLD_MAX_WIDTH or width in _CAST_DTYPES:
        return uint64_sum_bounded(unpack_bits(buffer, width, count), width)
    stream = _packed_stream(buffer, width, count)
    return _fold_packed_sum(stream, width, count)


def _fold_packed_sum(stream: int, width: int, count: int) -> int:
    """The modular fold of :func:`unpack_sum` on an already-built stream."""
    stride, mask, modulus = _sum_plan_loop(width, count)
    folded = stream & mask
    for shift in range(1, stride):
        folded += (stream >> (shift * width)) & mask
    return folded % modulus


#: Widest field the modular fold beats the word gather for.  The fold's
#: cost is proportional to total stream bits, the gather's to the value
#: count alone, and the crossover sits just under two bytes per field.
_FOLD_MAX_WIDTH = 15

#: Above this many excluded positions the per-position byte pluck of
#: :func:`unpack_sum_excluding` loses to one vectorized gather.
_EXCLUDE_PLUCK_LIMIT = 48


def unpack_sum_excluding(
    buffer: Buffer, width: int, count: int, positions: np.ndarray
) -> int:
    """Exact sum of the packed fields with ``positions`` omitted.

    The sparse-correction shape of encoded-domain SUM: ALP exception
    slots hold placeholder payloads, so their fields must not reach the
    total.  For a sparse excluded set the fold of :func:`unpack_sum`
    runs unchanged and the few excluded fields are plucked straight out
    of the payload bytes; in the gather regime (wide fields, or more
    than :data:`_EXCLUDE_PLUCK_LIMIT` positions) the vector is gathered
    *once* and both the total and the excluded slots reduce from the
    same uint64 array.
    """
    if positions.size == 0:
        return unpack_sum(buffer, width, count)
    if width == 0 or count == 0:
        return 0
    buffer = as_byte_buffer(buffer)
    folds = width <= _FOLD_MAX_WIDTH and width not in _CAST_DTYPES
    if folds and int(positions.size) <= _EXCLUDE_PLUCK_LIMIT:
        return unpack_sum(buffer, width, count) - _extract_fields_loop(
            buffer, width, positions.tolist()
        )
    if obs.ENABLED:
        obs.metrics.counter_add("bitpack.unpack_sum_calls", 1)
    fields = unpack_bits(buffer, width, count)
    total = uint64_sum_bounded(fields, width)
    excluded = uint64_sum_bounded(
        fields[positions.astype(np.int64)], width
    )
    return total - excluded


def unpack_sum_reference(buffer: Buffer, width: int, count: int) -> int:
    """Scalar oracle for :func:`unpack_sum` (bit-identical, per value)."""
    fields = unpack_bits(buffer, width, count)
    total = 0
    for value in fields.tolist():
        total += value
    return total


def exact_uint64_sum(values: np.ndarray) -> int:
    """Exact sum of a uint64 array as a Python int (no wraparound).

    Splits each value into 32-bit halves; each half's partial sum fits a
    uint64 for any array shorter than 2**32 values, so two vectorized
    reductions plus one Python-int recombination give the exact total.
    """
    if values.size == 0:
        return 0
    if values.size >= 1 << 32:
        raise ValueError("exact_uint64_sum supports < 2**32 values")
    lo = int((values & np.uint64(0xFFFFFFFF)).sum(dtype=np.uint64))
    hi = int((values >> np.uint64(32)).sum(dtype=np.uint64))
    return (hi << 32) + lo


def uint64_sum_bounded(values: np.ndarray, width: int) -> int:
    """Exact sum of uint64 values known to be ``< 2**width`` each.

    When ``width + ceil(log2(n))`` fits in 64 bits the total cannot
    wrap, so a single vectorized uint64 reduction is exact — one pass
    instead of the split-sum's two.  Wider values fall back to
    :func:`exact_uint64_sum`.
    """
    if values.size == 0:
        return 0
    if width + int(values.size).bit_length() <= 64:
        return int(values.sum(dtype=np.uint64))
    return exact_uint64_sum(values)
