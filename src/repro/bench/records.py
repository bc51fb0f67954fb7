"""Machine-readable benchmark records (the ``BENCH_*.json`` format).

The text tables under ``benchmarks/results/`` are for humans; CI and
trend tooling consume this JSON instead.  One document holds a list of
:class:`BenchRecord` — one per (dataset, codec) — plus the run
configuration and a *calibration* throughput measured in the same
process (a codec-shaped per-vector numpy workload — see
:func:`repro.bench.harness.calibration_mbps`), so that speed
comparisons across machines can use the machine-relative ``*_rel``
fields rather than raw MB/s.

Document layout (``SCHEMA_VERSION`` = 1)::

    {
      "kind": "alp-repro-bench",
      "schema_version": 1,
      "created_unix": 1754000000.0,
      "environment": {"python": "...", "numpy": "...", "platform": "..."},
      "config": {"n": 16384, "repeats": 3, ...},
      "calibration_mbps": 9000.0,
      "records": [
        {
          "dataset": "City-Temp", "codec": "alp", "n": 16384,
          "bits_per_value": 10.7, "compression_ratio": 5.98,
          "compress_mbps": 350.0, "decompress_mbps": 2100.0,
          "compress_rel": 0.039, "decompress_rel": 0.23,
          "spans": {"compressor.compress": {"count": 1, ...}, ...},
          "counters": {"alp.vectors_encoded": 16, ...}
        }, ...
      ]
    }

``spans`` / ``counters`` are the :mod:`repro.obs` snapshot of one
instrumented compress + decompress of that record's column, giving the
per-stage breakdown the regression gate and EXPERIMENTS.md discuss.

A checked-in *baseline* record may also carry ``bounds``: the limits
the regression gate (:mod:`repro.bench.gate`) holds the current run to,
stored next to the numbers they bound.  Keys name a record field or a
counter; each value is one of::

    {"worse": "higher" | "lower", "tolerance": 0.5}   # relative
    {"min": 2.0}                                      # absolute floor
    {"min": 2.0, "of": ["served", "loadgen"]}         # ratio floor

The relative form fails when the current value is worse than the
baseline by more than ``tolerance`` (measured as worse / better - 1);
``min`` fails below the floor; with ``of`` the floor applies to the
ratio of the current value to the same field of the named (dataset,
codec) record of the same run.

:func:`validate_document` is deliberately dependency-free (no
jsonschema): it returns a list of human-readable problems, empty when
the document conforms.
"""

from __future__ import annotations

import json
import math
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

SCHEMA_VERSION = 1
DOCUMENT_KIND = "alp-repro-bench"

#: Required numeric fields of one record (all must be finite and >= 0).
RECORD_NUMERIC_FIELDS = (
    "bits_per_value",
    "compression_ratio",
    "compress_mbps",
    "decompress_mbps",
    "compress_rel",
    "decompress_rel",
)

#: Optional memory-accounting fields (absent in pre-zero-copy documents
#: and in records that did not measure them).  ``peak_rss_bytes`` is the
#: process high-water mark (``ru_maxrss``); ``large_allocs`` is the
#: tracemalloc-derived count of large-allocation-equivalents per
#: measured operation (see :func:`repro.bench.harness.traced_large_allocs`)
#: — the field the trajectory watches so a reintroduced payload copy
#: shows up as a number, not a vibe.
RECORD_MEMORY_FIELDS = ("peak_rss_bytes", "large_allocs")

#: Counter-name suffix of the fused-vs-decode-first throughput ratios
#: (``kernels/q-*``, ``kernels/io``) the gate floors and the trajectory
#: tracks.
SPEEDUP_SUFFIX = "_speedup_vs_decode"


@dataclass(frozen=True)
class BenchRecord:
    """One (dataset, codec) measurement with its per-stage breakdown."""

    dataset: str
    codec: str
    n: int
    bits_per_value: float
    compression_ratio: float
    compress_mbps: float
    decompress_mbps: float
    compress_rel: float
    decompress_rel: float
    spans: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    peak_rss_bytes: int | None = None
    large_allocs: int | None = None
    bounds: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "dataset": self.dataset,
            "codec": self.codec,
            "n": self.n,
            "bits_per_value": self.bits_per_value,
            "compression_ratio": self.compression_ratio,
            "compress_mbps": self.compress_mbps,
            "decompress_mbps": self.decompress_mbps,
            "compress_rel": self.compress_rel,
            "decompress_rel": self.decompress_rel,
            "spans": self.spans,
            "counters": self.counters,
        }
        for name in RECORD_MEMORY_FIELDS:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.bounds:
            out["bounds"] = self.bounds
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "BenchRecord":
        return cls(
            dataset=raw["dataset"],
            codec=raw["codec"],
            n=int(raw["n"]),
            bits_per_value=float(raw["bits_per_value"]),
            compression_ratio=float(raw["compression_ratio"]),
            compress_mbps=float(raw["compress_mbps"]),
            decompress_mbps=float(raw["decompress_mbps"]),
            compress_rel=float(raw["compress_rel"]),
            decompress_rel=float(raw["decompress_rel"]),
            spans=dict(raw.get("spans", {})),
            counters=dict(raw.get("counters", {})),
            peak_rss_bytes=(
                int(raw["peak_rss_bytes"])
                if raw.get("peak_rss_bytes") is not None
                else None
            ),
            large_allocs=(
                int(raw["large_allocs"])
                if raw.get("large_allocs") is not None
                else None
            ),
            bounds=dict(raw.get("bounds", {})),
        )

    @property
    def key(self) -> tuple[str, str]:
        """Identity of the measurement inside a document."""
        return (self.dataset, self.codec)


def environment_info() -> dict:
    """Interpreter/library/platform fingerprint stored in the document."""
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def build_document(
    records: list[BenchRecord],
    config: dict,
    calibration_mbps: float,
) -> dict:
    """Assemble a schema-conforming document from finished records."""
    return {
        "kind": DOCUMENT_KIND,
        "schema_version": SCHEMA_VERSION,
        "created_unix": time.time(),
        "environment": environment_info(),
        "config": dict(config),
        "calibration_mbps": calibration_mbps,
        "records": [record.to_dict() for record in records],
    }


def write_bench_json(
    path: str | Path,
    records: list[BenchRecord],
    config: dict,
    calibration_mbps: float,
) -> dict:
    """Write a ``BENCH_*.json`` document; returns the written dict."""
    document = build_document(records, config, calibration_mbps)
    problems = validate_document(document)
    if problems:
        raise ValueError(
            "refusing to write non-conforming bench JSON:\n  "
            + "\n  ".join(problems)
        )
    Path(path).write_text(json.dumps(document, indent=2) + "\n")
    return document


def read_bench_json(path: str | Path) -> tuple[dict, list[BenchRecord]]:
    """Load and validate a ``BENCH_*.json``; returns (document, records)."""
    document = json.loads(Path(path).read_text())
    problems = validate_document(document)
    if problems:
        raise ValueError(
            f"{path} is not a valid bench document:\n  "
            + "\n  ".join(problems)
        )
    records = [BenchRecord.from_dict(raw) for raw in document["records"]]
    return document, records


def validate_document(document: object) -> list[str]:
    """Structural validation; returns a list of problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    if document.get("kind") != DOCUMENT_KIND:
        problems.append(f"kind must be {DOCUMENT_KIND!r}")
    if document.get("schema_version") != SCHEMA_VERSION:
        problems.append(f"schema_version must be {SCHEMA_VERSION}")
    calibration = document.get("calibration_mbps")
    if not isinstance(calibration, (int, float)) or calibration <= 0:
        problems.append("calibration_mbps must be a positive number")
    if not isinstance(document.get("config"), dict):
        problems.append("config must be an object")
    if not isinstance(document.get("environment"), dict):
        problems.append("environment must be an object")
    records = document.get("records")
    if not isinstance(records, list) or not records:
        problems.append("records must be a non-empty list")
        return problems
    seen: set[tuple[str, str]] = set()
    for i, record in enumerate(records):
        problems.extend(_validate_record(i, record, seen))
    return problems


def _validate_record(
    index: int, record: object, seen: set[tuple[str, str]]
) -> list[str]:
    where = f"records[{index}]"
    if not isinstance(record, dict):
        return [f"{where} is not an object"]
    problems = []
    for name in ("dataset", "codec"):
        if not isinstance(record.get(name), str) or not record.get(name):
            problems.append(f"{where}.{name} must be a non-empty string")
    if not isinstance(record.get("n"), int) or record.get("n", 0) <= 0:
        problems.append(f"{where}.n must be a positive integer")
    for name in RECORD_NUMERIC_FIELDS:
        value = record.get(name)
        if not _is_number(value) or value < 0:
            problems.append(
                f"{where}.{name} must be a finite non-negative number"
            )
    for name in ("spans", "counters"):
        if not isinstance(record.get(name), dict):
            problems.append(f"{where}.{name} must be an object")
    for name in RECORD_MEMORY_FIELDS:
        value = record.get(name)
        if value is not None and (
            isinstance(value, bool)
            or not isinstance(value, int)
            or value < 0
        ):
            problems.append(
                f"{where}.{name} must be a non-negative integer when present"
            )
    if "bounds" in record:
        problems.extend(_validate_bounds(where, record["bounds"]))
    key = (record.get("dataset"), record.get("codec"))
    if all(isinstance(part, str) for part in key):
        if key in seen:
            problems.append(f"{where} duplicates (dataset, codec) {key}")
        seen.add(key)  # type: ignore[arg-type]
    return problems


def _is_number(value: object) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _validate_bounds(where: str, bounds: object) -> list[str]:
    if not isinstance(bounds, dict):
        return [f"{where}.bounds must be an object"]
    problems = []
    for name, bound in bounds.items():
        at = f"{where}.bounds[{name!r}]"
        if not isinstance(bound, dict):
            problems.append(f"{at} must be an object")
        elif set(bound) == {"worse", "tolerance"}:
            if bound["worse"] not in ("higher", "lower"):
                problems.append(f"{at}.worse must be 'higher' or 'lower'")
            if not _is_number(bound["tolerance"]) or bound["tolerance"] < 0:
                problems.append(
                    f"{at}.tolerance must be a finite non-negative number"
                )
        elif set(bound) in ({"min"}, {"min", "of"}):
            if not _is_number(bound["min"]):
                problems.append(f"{at}.min must be a finite number")
            of = bound.get("of")
            if of is not None and not (
                isinstance(of, list)
                and len(of) == 2
                and all(isinstance(part, str) and part for part in of)
            ):
                problems.append(
                    f"{at}.of must be a [dataset, codec] pair of strings"
                )
        else:
            problems.append(
                f"{at} must be {{worse, tolerance}}, {{min}} or {{min, of}}"
            )
    return problems
