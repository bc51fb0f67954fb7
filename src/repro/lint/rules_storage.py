"""RL7 — ``bytes(...)`` payload materialization inside the storage layer.

The zero-copy read path hands row-group payloads around as
``memoryview`` slices of the (possibly mmap-backed) file image:
:meth:`TableFileReader.chunk_payload` returns a view, CRC32C runs
directly over buffers, and ``deserialize_rowgroup`` reads from any
object supporting the buffer protocol.  One ``bytes(view)`` call
quietly reintroduces the full-payload copy the whole path exists to
avoid — and nothing at runtime notices; reads just get slower and the
"zero-copy" claim in ``docs/PERFORMANCE.md`` silently rots.

This rule rejects single-argument ``bytes(x)`` calls anywhere under
``repro/storage/`` when ``x`` is an expression (a name, attribute,
subscript, call result, …).  Copy-free spellings stay legal:

- ``bytes(8)`` / ``bytes()`` — size-based zero-fill construction,
- ``bytes([0x41, 0x4c])`` — literal byte lists (format magic),
- ``bytes(it, "utf-8")`` — the multi-argument encode form.

A justified copy (e.g. detaching a payload from a reader about to
close) takes a ``# reprolint: ignore[RL7]`` with a reason, which is
exactly the greppable audit trail we want for every surviving copy.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Rule, Violation


def _is_copyless_argument(node: ast.expr) -> bool:
    """Arguments to ``bytes(...)`` that never copy a payload."""
    if isinstance(node, ast.Constant):
        return True  # bytes(8), bytes(b"..."): size/literal construction
    if isinstance(node, (ast.List, ast.Tuple)):
        # bytes([0x41, 0x4c, 0x50, 0x43]) — literal magic, not a payload.
        return all(isinstance(elt, ast.Constant) for elt in node.elts)
    return False


class StorageCopyRule(Rule):
    """RL7: payload-materializing ``bytes(...)`` under ``repro/storage``."""

    code = "RL7"
    name = "storage-copy"
    description = (
        "bytes(...) materializes a payload copy inside repro/storage; "
        "keep the memoryview (crc32c and deserialize_rowgroup accept "
        "buffers directly)"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return len(ctx.effective) >= 2 and ctx.effective[:2] == (
            "repro",
            "storage",
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Name) and func.id == "bytes"):
                continue
            if len(node.args) != 1 or node.keywords:
                continue  # bytes() / bytes(it, encoding): no buffer copy
            argument = node.args[0]
            if _is_copyless_argument(argument):
                continue
            yield self.violation(
                ctx,
                node,
                "bytes(...) copies the payload; the zero-copy read path "
                "passes memoryview slices through (crc32c and "
                "deserialize_rowgroup accept any buffer) — copy only "
                "with a justified # reprolint: ignore[RL7]",
            )
