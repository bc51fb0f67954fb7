"""RL8 — lock discipline: guarded fields, blocking-under-lock, ordering.

PR 5/7 made the serving path concurrent: `DecodedVectorCache`,
`BufferPool` and `TableFileReader` all guard mutable state with a
`threading.Lock`.  Three hazards survive review by convention only:

1. **Guarded-field consistency.**  A field mutated under ``with
   self._lock`` in one method and bare in another is a data race with a
   50%-clean test suite.  Any ``self.X`` *mutated* while a lock is held
   (outside ``__init__``) marks ``X`` guarded; every other mutation of
   ``X`` in that class must then also hold a lock.
2. **Blocking or awaiting while a lock is held.**  ``time.sleep``, the
   ``open`` builtin, ``socket.*``/``subprocess.*`` calls or an ``await``
   reachable with a lock held serializes every other thread (or task)
   behind one sleeper.  The lock-held set is computed on the CFG, so a
   sleep after ``with self._lock:`` exits is fine and a sleep inside an
   ``if`` under the ``with`` is not.
3. **Lock-acquisition order.**  Acquiring B while holding A puts the
   edge A→B into a run-wide graph (name-resolved across classes and
   files: holding A while *calling* a method known to take B also
   counts, modulo a generic-name skip list).  A cycle in that graph is a
   potential deadlock; acquiring a lock already held is reported
   immediately (``threading.Lock`` is not re-entrant).

A lock is anything ``with``-entered whose final name segment contains
``lock`` (``self._lock``, ``self._integrity_lock``, a local ``lock``).
The cross-file graph accumulates between :meth:`Rule.begin_run` and
:meth:`Rule.finalize`; suppressing RL8 on the acquiring ``with`` line
keeps that site's edges out of the graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.cfg import (
    CFG,
    WITH_ENTER,
    WITH_EXIT,
    Block,
    ForwardAnalysis,
    block_awaits,
    build_cfg,
    iter_evaluated,
    run_forward,
)
from repro.lint.engine import FileContext, Rule, Violation

#: Callee names too generic to resolve by name across classes.
_GENERIC_CALLEES = frozenset(
    {
        "acquire",
        "add",
        "append",
        "clear",
        "close",
        "get",
        "items",
        "join",
        "keys",
        "open",
        "pop",
        "put",
        "read",
        "release",
        "run",
        "send",
        "set",
        "start",
        "stop",
        "update",
        "values",
        "wait",
        "write",
    }
)

#: Methods whose bodies run before/outside concurrent publication.
_UNGUARDED_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


def _dotted(expr: ast.AST) -> str | None:
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _lock_name(expr: ast.AST) -> str | None:
    """The dotted name of a lock-like ``with`` item, if it is one."""
    dotted = _dotted(expr)
    if dotted is None:
        return None
    if "lock" in dotted.rsplit(".", 1)[-1].lower():
        return dotted
    return None


class _HeldLocks(ForwardAnalysis):
    """May-held lock set: with-enter adds (on completion), exit removes."""

    def transfer(
        self, block: Block, state: frozenset[object]
    ) -> frozenset[object]:
        if block.item is None or block.kind not in (WITH_ENTER, WITH_EXIT):
            return state
        name = _lock_name(block.item.context_expr)
        if name is None:
            return state
        if block.kind == WITH_ENTER:
            return state | {name}
        return state - {name}


def _blocking_reason(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "open()"
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        owner, attr = func.value.id, func.attr
        if owner == "time" and attr == "sleep":
            return "time.sleep()"
        if owner in ("socket", "subprocess"):
            return f"{owner}.{attr}()"
        if owner == "os" and attr in ("fsync", "fdatasync"):
            return f"os.{attr}()"
    return None


def _callee_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


@dataclass(frozen=True)
class _Site:
    path: str
    line: int


@dataclass
class _FuncScope:
    func: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None


def _function_scopes(tree: ast.Module) -> Iterator[_FuncScope]:
    """Every function with its directly enclosing class (or None)."""

    def walk(node: ast.AST, class_name: str | None) -> Iterator[_FuncScope]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield _FuncScope(child, class_name)
                yield from walk(child, None)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
            else:
                yield from walk(child, class_name)

    yield from walk(tree, None)


class LockDisciplineRule(Rule):
    """RL8: guarded fields, blocking under lock, lock-order cycles."""

    code = "RL8"
    name = "lock-discipline"
    description = (
        "lock discipline under repro/server, repro/storage and repro/obs: "
        "fields guarded somewhere must be guarded everywhere, no "
        "blocking call or await while a lock is held, and the cross-"
        "class lock-acquisition-order graph must stay acyclic"
    )

    def __init__(self) -> None:
        self.begin_run()

    def begin_run(self) -> None:
        #: (held, acquired) -> first acquisition site.
        self._edges: dict[tuple[str, str], _Site] = {}
        #: method name -> locks that calling it may acquire.
        self._summaries: dict[str, set[str]] = {}
        #: calls made while holding a lock, resolved in finalize().
        self._pending: list[tuple[str, str, _Site]] = []

    def applies_to(self, ctx: FileContext) -> bool:
        if not ctx.effective or ctx.effective[0] != "repro":
            return False
        if len(ctx.effective) >= 2 and ctx.effective[1] in ("server", "storage"):
            return True
        return ctx.effective[-1] == "obs.py"

    # -- per-file pass -----------------------------------------------------

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        mutations: dict[
            str, list[tuple[str, bool, ast.AST, str]]
        ] = {}  # class -> [(field, locked, node, method)]
        for scope in _function_scopes(ctx.tree):
            func = scope.func
            cfg = build_cfg(func)
            held = run_forward(cfg, _HeldLocks())
            acquired_here: set[str] = set()
            for block in cfg.blocks:
                state = held.get(block.index)
                if state is None:
                    continue  # unreachable
                locks = sorted(str(name) for name in state)
                if block.kind == WITH_ENTER and block.item is not None:
                    name = _lock_name(block.item.context_expr)
                    if name is not None:
                        acquired_here.add(
                            self._canonical(name, scope, ctx)
                        )
                        if name in state:
                            yield self.violation(
                                ctx,
                                block.node or func,
                                f"lock {name!r} is acquired while already "
                                "held on some path; threading.Lock is not "
                                "re-entrant — this deadlocks",
                            )
                        elif locks:
                            self._record_edges(
                                locks, name, block, scope, ctx
                            )
                if not locks:
                    continue
                yield from self._check_blocking(block, locks, func, ctx)
                self._record_calls(block, locks, scope, ctx)
            if acquired_here:
                summary = self._summaries.setdefault(func.name, set())
                summary |= acquired_here
            if scope.class_name is not None:
                self._collect_mutations(
                    cfg, held, scope, mutations.setdefault(scope.class_name, [])
                )
        yield from self._check_guarded_fields(ctx, mutations)

    def _check_blocking(
        self,
        block: Block,
        locks: list[str],
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        ctx: FileContext,
    ) -> Iterator[Violation]:
        held = ", ".join(repr(lock) for lock in locks)
        if block.kind in (WITH_ENTER, WITH_EXIT) and block.item is not None:
            # Entering/leaving ``async with <lock>`` awaits by design;
            # only suspension points *inside* the critical section count.
            if _lock_name(block.item.context_expr) is not None:
                return
        for mark in block_awaits(block):
            yield self.violation(
                ctx,
                mark,
                f"await while holding {held} in {func.name!r}: every "
                "other task serializes behind this suspension point",
            )
        for sub in iter_evaluated(block):
            if isinstance(sub, ast.Call):
                reason = _blocking_reason(sub)
                if reason is not None:
                    yield self.violation(
                        ctx,
                        sub,
                        f"blocking {reason} while holding {held} in "
                        f"{func.name!r}; move the blocking work outside "
                        "the lock",
                    )

    # -- guarded fields ----------------------------------------------------

    def _collect_mutations(
        self,
        cfg: CFG,
        held: dict[int, frozenset[object]],
        scope: _FuncScope,
        out: list[tuple[str, bool, ast.AST, str]],
    ) -> None:
        for block in cfg.blocks:
            state = held.get(block.index)
            if state is None:
                continue
            node = block.node
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign) and block.kind == "stmt":
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and (
                block.kind == "stmt"
            ):
                targets = [node.target]
            elif isinstance(node, ast.Delete) and block.kind == "stmt":
                targets = list(node.targets)
            for target in targets:
                base = target
                # ``self.x[k] = v`` mutates the container held in x.
                while isinstance(base, ast.Subscript):
                    base = base.value
                if (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "self"
                ):
                    out.append(
                        (base.attr, bool(state), node or base, scope.func.name)
                    )

    def _check_guarded_fields(
        self,
        ctx: FileContext,
        mutations: dict[str, list[tuple[str, bool, ast.AST, str]]],
    ) -> Iterator[Violation]:
        for class_name, entries in sorted(mutations.items()):
            guarded = {
                fname
                for fname, locked, _, method in entries
                if locked and method not in _UNGUARDED_METHODS
            }
            for fname, locked, node, method in entries:
                if (
                    fname in guarded
                    and not locked
                    and method not in _UNGUARDED_METHODS
                ):
                    yield self.violation(
                        ctx,
                        node,
                        f"field 'self.{fname}' of {class_name!r} is "
                        f"mutated under a lock elsewhere but bare in "
                        f"{method!r}; hold the lock (or rename if it is "
                        "not shared state)",
                    )

    # -- cross-file lock-order graph ---------------------------------------

    def _canonical(self, raw: str, scope: _FuncScope, ctx: FileContext) -> str:
        if raw.startswith("self.") and scope.class_name is not None:
            return f"{scope.class_name}.{raw[5:]}"
        return f"{ctx.basename}:{raw}"

    def _rl8_suppressed(self, ctx: FileContext, line: int) -> bool:
        codes = ctx.suppressions.get(line)
        return codes is not None and ("*" in codes or self.code in codes)

    def _record_edges(
        self,
        held: list[str],
        acquired_raw: str,
        block: Block,
        scope: _FuncScope,
        ctx: FileContext,
    ) -> None:
        line = block.line
        if self._rl8_suppressed(ctx, line):
            return
        site = _Site(str(ctx.path), line)
        acquired = self._canonical(acquired_raw, scope, ctx)
        for lock in held:
            edge = (self._canonical(lock, scope, ctx), acquired)
            if edge[0] != edge[1]:
                self._edges.setdefault(edge, site)

    def _record_calls(
        self,
        block: Block,
        locks: list[str],
        scope: _FuncScope,
        ctx: FileContext,
    ) -> None:
        line = block.line
        if self._rl8_suppressed(ctx, line):
            return
        site = _Site(str(ctx.path), line)
        for sub in iter_evaluated(block):
            if not isinstance(sub, ast.Call):
                continue
            callee = _callee_name(sub)
            if (
                callee is None
                or callee in _GENERIC_CALLEES
                or callee.startswith("__")
            ):
                continue
            for lock in locks:
                self._pending.append(
                    (self._canonical(lock, scope, ctx), callee, site)
                )

    def finalize(self) -> Iterator[Violation]:
        edges = dict(self._edges)
        for held, callee, site in self._pending:
            for acquired in sorted(self._summaries.get(callee, ())):
                if acquired != held:
                    edges.setdefault((held, acquired), site)
        graph: dict[str, list[str]] = {}
        for src, dst in sorted(edges):
            graph.setdefault(src, []).append(dst)
        seen_cycles: set[frozenset[str]] = set()
        for start in sorted(graph):
            cycle = self._find_cycle(graph, start)
            if cycle is None or frozenset(cycle) in seen_cycles:
                continue
            seen_cycles.add(frozenset(cycle))
            site = edges.get((cycle[0], cycle[1])) or next(iter(edges.values()))
            order = " -> ".join(cycle + [cycle[0]])
            yield Violation(
                rule=self.code,
                path=site.path,
                line=site.line,
                col=1,
                message=(
                    f"lock-order cycle {order}: two threads taking these "
                    "locks in opposite order deadlock; pick one global "
                    "order (or suppress the acquiring line with a "
                    "rationale)"
                ),
            )

    @staticmethod
    def _find_cycle(
        graph: dict[str, list[str]], start: str
    ) -> list[str] | None:
        path: list[str] = []
        on_path: set[str] = set()
        done: set[str] = set()

        def visit(node: str) -> list[str] | None:
            if node in on_path:
                return path[path.index(node) :]
            if node in done:
                return None
            path.append(node)
            on_path.add(node)
            for nxt in graph.get(node, ()):
                found = visit(nxt)
                if found is not None:
                    return found
            path.pop()
            on_path.discard(node)
            done.add(node)
            return None

        return visit(start)
