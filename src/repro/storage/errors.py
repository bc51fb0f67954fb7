"""Typed corruption errors raised by the storage read path.

The hierarchy distinguishes the two blast radii a reader cares about:

- :class:`CorruptFileError` — file-level damage (bad magic, truncated
  trailer, header/footer checksum mismatch).  Nothing in the file can be
  trusted, so opening fails.
- :class:`CorruptRowGroupError` — one row-group's payload failed its
  checksum or did not decode.  The rest of the file is fine; a reader
  opened with ``degraded=True`` quarantines the group and keeps going.

Both derive from :class:`IntegrityError`, which itself derives from
``ValueError`` so pre-v3 callers catching ``ValueError`` keep working.

:class:`BufferLifetimeError` is not a corruption error: it guards the
zero-copy mmap read path, where payload ``memoryview`` slices alias the
mapped file.  Closing the map while such views are live would leave
them dangling (a segfault in C; a ``BufferError`` deep inside ``mmap``
in CPython), so the reader surfaces the situation as this typed error
instead.
"""

from __future__ import annotations


class IntegrityError(ValueError):
    """Base class for on-disk corruption detected by the storage layer."""


class BufferLifetimeError(RuntimeError):
    """A zero-copy reader was closed while exported views are still live.

    Raised by ``TableFileReader.close()`` when payload ``memoryview``
    slices (or numpy arrays borrowing them) still reference the mmap.
    The map stays open and valid; drop the views and close again.
    """

    def __init__(self, path: str) -> None:
        super().__init__(
            f"{path}: cannot close an mmap-backed reader while payload "
            "memoryviews are still alive; drop all views (and arrays "
            "borrowing them) before closing"
        )
        self.path = path


class CorruptFileError(IntegrityError):
    """File-level corruption: magic, framing, header or footer damage."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class CorruptRowGroupError(IntegrityError):
    """One row-group's section is corrupt; the rest of the file may be fine."""

    def __init__(
        self,
        path: str,
        index: int,
        offset: int,
        length: int,
        reason: str,
    ) -> None:
        super().__init__(
            f"{path}: row-group {index} "
            f"(offset {offset}, {length} bytes): {reason}"
        )
        self.path = path
        self.index = index
        self.offset = offset
        self.length = length
        self.reason = reason
