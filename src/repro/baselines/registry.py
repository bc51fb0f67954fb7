"""Uniform codec registry over ALP and every baseline.

The benchmark harness, the storage layer and the examples all talk to
compressors through this registry: a :class:`Codec` pairs a compress and
a decompress callable whose encoded object exposes ``size_bits()``.

Names follow the paper's tables: ``alp``, ``lwc+alp`` (the cascading
variant of Table 4's penultimate column), ``gorilla``, ``chimp``,
``chimp128``, ``patas``, ``elf``, ``pde`` and ``zlib(gp)`` /
``lzma(gp)`` standing in for Zstd.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

from repro.baselines.chimp import chimp_compress, chimp_decompress
from repro.baselines.chimp128 import chimp128_compress, chimp128_decompress
from repro.baselines.elf import elf_compress, elf_decompress
from repro.baselines.gorilla import gorilla_compress, gorilla_decompress
from repro.baselines.gp import gp_compress, gp_decompress
from repro.baselines.patas import patas_compress, patas_decompress
from repro.baselines.pde import pde_compress, pde_decompress
from repro.core.compressor import compress as alp_compress
from repro.core.compressor import decompress as alp_decompress
from repro.encodings.cascade import cascade_compress, cascade_decompress


@runtime_checkable
class Encoded(Protocol):
    """What every codec's compressed object exposes.

    The registry's uniform contract: whatever ``Codec.compress``
    returns, it carries the value count and its compressed footprint.
    """

    count: int

    def size_bits(self) -> int:
        """Compressed size in bits."""
        ...


@dataclass(frozen=True)
class Codec:
    """A named (compress, decompress) pair with a uniform interface."""

    name: str
    compress: Callable[[np.ndarray], Any]
    decompress: Callable[[Any], np.ndarray]
    vectorized: bool  # True when [de]compression is array-at-a-time

    def roundtrip_bits_per_value(self, values: np.ndarray) -> float:
        """Compress, verify losslessness, and return bits per value."""
        encoded = self.compress(values)
        decoded = self.decompress(encoded)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if not np.array_equal(
            decoded.view(np.uint64), values.view(np.uint64)
        ):
            raise AssertionError(f"{self.name} round-trip is not lossless")
        return encoded.size_bits() / max(values.size, 1)


CODECS: dict[str, Codec] = {
    "alp": Codec("alp", alp_compress, alp_decompress, vectorized=True),
    "lwc+alp": Codec(
        "lwc+alp", cascade_compress, cascade_decompress, vectorized=True
    ),
    "gorilla": Codec(
        "gorilla", gorilla_compress, gorilla_decompress, vectorized=False
    ),
    "chimp": Codec(
        "chimp", chimp_compress, chimp_decompress, vectorized=False
    ),
    "chimp128": Codec(
        "chimp128", chimp128_compress, chimp128_decompress, vectorized=False
    ),
    "patas": Codec(
        "patas", patas_compress, patas_decompress, vectorized=False
    ),
    "elf": Codec("elf", elf_compress, elf_decompress, vectorized=False),
    "pde": Codec("pde", pde_compress, pde_decompress, vectorized=True),
    "zlib(gp)": Codec(
        "zlib(gp)",
        lambda values: gp_compress(values, codec="zlib"),
        gp_decompress,
        vectorized=False,
    ),
    "lzma(gp)": Codec(
        "lzma(gp)",
        lambda values: gp_compress(values, codec="lzma"),
        gp_decompress,
        vectorized=False,
    ),
}


def get_codec(name: str) -> Codec:
    """Look up a codec by its table name."""
    try:
        return CODECS[name]
    except KeyError:
        known = ", ".join(sorted(CODECS))
        raise KeyError(f"unknown codec {name!r}; known: {known}") from None


#: Short alias: ``repro.baselines.registry.get(name)``.
get = get_codec


def list_codecs() -> list[str]:
    """All registered codec names, in registry order."""
    return list(CODECS)
