"""RL10 — memoryview escape analysis for the zero-copy read path.

Row-group payloads are ``memoryview`` slices of the reader's (possibly
mmap-backed) file image: valid only while the reader is open.  PR 7's
``BufferLifetimeError`` catches a *close* with live exported views, but
nothing catches a view that quietly outlives its scope — stored into an
object or module container, yielded from a generator after the owning
``with`` reader would resume-and-close around it, or captured by a
closure that runs later.  Every one of those is a use-after-close (or a
refused close) waiting for the right interleaving.

A *view* is a name bound from ``<reader>.rowgroup_payload(...)``,
``<reader>.chunk_payload(...)`` or ``memoryview(...)`` (slices of a view are views: subscripts of a tracked
name count too).  Under ``repro/server`` and ``repro/storage`` this rule
flags:

- **store escapes** — assigning a view (or a slice of one) to a
  ``self.*`` attribute or into a subscript/attribute container, or
  passing it to a ``self.*``-receiver container method
  (``append``/``add``/``insert``/``setdefault``);
- **yield escapes** — ``yield``-ing a view whose reader was opened by a
  ``with`` in the *same* function: the consumer can close the reader
  between resumptions (a reader method yielding views of ``self`` is
  the owner's documented API and is not flagged);
- **closure captures** — a nested ``def``/``lambda`` referencing a view
  name from the enclosing function: it can run after the view dies.

The owner itself (``TableFileReader`` binding
``memoryview(self._mmap)`` to ``self._data``) is the one legitimate
store — it carries a justified ``# reprolint: ignore[RL10]``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Rule, Violation

_CONTAINER_METHODS = frozenset(
    {"add", "append", "appendleft", "insert", "setdefault"}
)


def _is_view_source(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in (
        "rowgroup_payload",
        "chunk_payload",
    ):
        return True
    if isinstance(func, ast.Name) and func.id == "memoryview":
        return True
    return False


def _base_name(expr: ast.AST) -> str | None:
    """The root name of ``v`` / ``v[i:j]`` — slices of views are views."""
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _with_reader_names(func: ast.AST) -> set[str]:
    """Names bound by ``with ... as r`` items in this function."""
    names: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.optional_vars, ast.Name):
                    names.add(item.optional_vars.id)
    return names


class _FunctionViews:
    """Syntactic view tracking for one function body."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.func = func
        self.views: dict[str, ast.Call] = {}
        #: view name -> receiver name for ``r.rowgroup_payload`` views.
        self.owners: dict[str, str] = {}
        self.with_names = _with_reader_names(func)
        for node in self._own_nodes():
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                if len(node.targets) == 1 and isinstance(
                    node.targets[0], ast.Name
                ):
                    call = node.value
                    if _is_view_source(call):
                        name = node.targets[0].id
                        self.views[name] = call
                        if isinstance(call.func, ast.Attribute):
                            owner = call.func.value
                            if isinstance(owner, ast.Name):
                                self.owners[name] = owner.id

    def _own_nodes(self) -> Iterator[ast.AST]:
        """Nodes of this function body, not of nested functions."""
        stack: list[ast.AST] = list(ast.iter_child_nodes(self.func))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def _is_view_expr(self, expr: ast.AST | None) -> str | None:
        if expr is None:
            return None
        if isinstance(expr, ast.Call) and _is_view_source(expr):
            return "<payload view>"
        name = _base_name(expr)
        if name is not None and name in self.views:
            return name
        return None

    def findings(self) -> Iterator[tuple[ast.AST, str]]:
        yield from self._store_escapes()
        yield from self._yield_escapes()
        yield from self._closure_captures()

    def _store_escapes(self) -> Iterator[tuple[ast.AST, str]]:
        for node in self._own_nodes():
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                name = self._is_view_expr(node.value)
                if name is None:
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        yield (
                            node,
                            f"payload view {name!r} stored into "
                            f"{ast.unparse(target)!r} outlives its "
                            "reader's buffer; copy (bytes(...)) or keep "
                            "it function-local",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _CONTAINER_METHODS
                    and isinstance(func.value, (ast.Attribute, ast.Name))
                ):
                    receiver = func.value
                    is_self_container = (
                        isinstance(receiver, ast.Attribute)
                        and isinstance(receiver.value, ast.Name)
                        and receiver.value.id == "self"
                    )
                    if not is_self_container:
                        continue
                    for arg in node.args:
                        name = self._is_view_expr(arg)
                        if name is not None:
                            yield (
                                node,
                                f"payload view {name!r} stored into "
                                f"self container via .{func.attr}(); it "
                                "outlives the reader's buffer",
                            )

    def _yield_escapes(self) -> Iterator[tuple[ast.AST, str]]:
        for node in self._own_nodes():
            if not isinstance(node, (ast.Yield, ast.YieldFrom)):
                continue
            name = self._is_view_expr(node.value)
            if name is None:
                continue
            owner: str | None = None
            value = node.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and isinstance(value.func.value, ast.Name)
            ):
                owner = value.func.value.id
                name = "<payload view>"
            else:
                owner = self.owners.get(name)
            if owner is not None and owner in self.with_names:
                yield (
                    node,
                    f"payload view {name!r} yielded out of the ``with`` "
                    f"scope of reader {owner!r}: the consumer can close "
                    "the reader between resumptions",
                )

    def _closure_captures(self) -> Iterator[tuple[ast.AST, str]]:
        if not self.views:
            return
        for node in self._own_nodes():
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            bound = {
                arg.arg
                for arg in (
                    list(node.args.args)
                    + list(node.args.posonlyargs)
                    + list(node.args.kwonlyargs)
                )
            }
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Name)
                    and isinstance(inner.ctx, ast.Load)
                    and inner.id in self.views
                    and inner.id not in bound
                ):
                    label = (
                        f"def {node.name}"
                        if isinstance(
                            node, (ast.FunctionDef, ast.AsyncFunctionDef)
                        )
                        else "lambda"
                    )
                    yield (
                        node,
                        f"payload view {inner.id!r} captured by closure "
                        f"({label}): it can run after the view's reader "
                        "closed; pass the data as an argument or copy",
                    )
                    break


class ViewEscapeRule(Rule):
    """RL10: payload memoryviews must not outlive their reader."""

    code = "RL10"
    name = "view-escape"
    description = (
        "payload memoryviews (rowgroup_payload / memoryview) must not be "
        "stored into self/module containers, yielded past the owning "
        "with-scope, or captured by closures under repro/server and "
        "repro/storage"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return len(ctx.effective) >= 2 and ctx.effective[0] == "repro" and (
            ctx.effective[1] in ("server", "storage")
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                tracker = _FunctionViews(node)
                for anchor, message in tracker.findings():
                    yield self.violation(ctx, anchor, message)
