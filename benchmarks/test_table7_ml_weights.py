"""E10 — Table 7: ALP_rd-32 on machine-learning model weights.

The paper compresses the float32 weights of four models and shows
ALP_rd-32 is the only floating-point encoding to achieve compression
(~28 bits/value), with Zstd around 29.7, Gorilla/Chimp/Chimp128 at
~33-34 and Patas at ~45.

Weights here are synthetic (DESIGN.md substitution 6); the XOR
comparators are the true 32-bit ports (``repro.baselines.xor32``).

Shape claims asserted:

- ALP_rd-32 achieves real compression on every model (< 32 bits/value,
  in the paper's 26..31 band) and is the *only* floating-point encoding
  that does,
- the 32-bit XOR schemes land at or above 32 bits with Patas the worst
  (the paper's ordering),
- ALP_rd-32 beats the general-purpose codec on these weights, or comes
  within 10% (paper: 28.1 vs 29.7),
- round-trips are bit-exact.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.baselines.xor32 import (
    chimp32_compress,
    chimp32_decompress,
    gorilla32_compress,
    gorilla32_decompress,
    patas32_compress,
    patas32_decompress,
)
from repro.bench.report import format_table, shape_check
from repro.core.float32 import compress_f32, decompress_f32
from repro.data import MODELS, get_model_weights
from repro.data.paper_reference import TABLE7_ML_BITS

XOR32 = {
    "gorilla": (gorilla32_compress, gorilla32_decompress),
    "chimp": (chimp32_compress, chimp32_decompress),
    "patas": (patas32_compress, patas32_decompress),
}

#: Values per model for the (pure-Python) XOR comparators.
XOR_SAMPLE = 40_000


def _measure():
    out = {}
    for name, spec in MODELS.items():
        weights = get_model_weights(name)
        column = compress_f32(weights)
        decoded = decompress_f32(column)
        assert np.array_equal(
            decoded.view(np.uint32), weights.view(np.uint32)
        ), f"{name} round-trip failed"
        gp_bits = (
            len(zlib.compress(weights.tobytes(), 6)) * 8 / weights.size
        )
        entry = {
            "scheme": column.scheme,
            "alprd": column.bits_per_value(),
            "gp": gp_bits,
            "params": spec.synth_params,
        }
        sample = weights[:XOR_SAMPLE]
        for xor_name, (compress_fn, decompress_fn) in XOR32.items():
            encoded = compress_fn(sample)
            restored = decompress_fn(encoded)
            assert np.array_equal(
                restored.view(np.uint32), sample.view(np.uint32)
            ), (name, xor_name)
            entry[xor_name] = encoded.bits_per_value()
        out[name] = entry
    return out


def test_table7_ml_weights(benchmark, emit):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    rows = []
    for name, _spec in MODELS.items():
        r = results[name]
        paper = TABLE7_ML_BITS[name]
        rows.append(
            [
                name,
                r["params"],
                f"{r['gorilla']:.1f}|{paper['gorilla']:.1f}",
                f"{r['chimp']:.1f}|{paper['chimp']:.1f}",
                f"{r['patas']:.1f}|{paper['patas']:.1f}",
                f"{r['alprd']:.1f}|{paper['alprd']:.1f}",
                f"{r['gp']:.1f}|{paper['zstd']:.1f}",
            ]
        )

    checks = [
        shape_check(
            "ALP_rd-32 engages on every model",
            all(results[m]["scheme"] == "alprd" for m in MODELS),
        ),
        shape_check(
            "ALP_rd-32 achieves compression on every model "
            "(< 32 bits/value)",
            all(results[m]["alprd"] < 32.0 for m in MODELS),
        ),
        shape_check(
            "ALP_rd-32 lands in the paper's band (26..31 bits/value)",
            all(26.0 <= results[m]["alprd"] <= 31.0 for m in MODELS),
        ),
        shape_check(
            "no 32-bit XOR scheme achieves compression (>= 31.5 bits)",
            all(
                results[m][x] >= 31.5
                for m in MODELS
                for x in ("gorilla", "chimp", "patas")
            ),
        ),
        shape_check(
            "Patas-32 is the worst XOR scheme, as in the paper",
            all(
                results[m]["patas"]
                >= max(results[m]["gorilla"], results[m]["chimp"])
                for m in MODELS
            ),
        ),
        shape_check(
            "ALP_rd-32 within 10% of (or better than) the general-purpose "
            "codec",
            all(
                results[m]["alprd"] <= results[m]["gp"] * 1.10
                for m in MODELS
            ),
        ),
    ]

    report = format_table(
        [
            "model",
            "params",
            "gorilla|paper",
            "chimp|paper",
            "patas|paper",
            "alprd32|paper",
            "gp|paper-zstd",
        ],
        rows,
        title="Table 7 — 32-bit ML weights (synthetic tensors), "
        "measured|paper bits/value",
    )
    report += "\n" + "\n".join(checks)
    emit("table7_ml_weights", report)
    assert all(c.startswith("[PASS]") for c in checks), "\n" + "\n".join(checks)
