"""The repo must stay reprolint-clean, and the name registry truthful.

These tests pin the clean state reached in this PR: any new violation in
``src/``, ``tests/`` or ``benchmarks/`` fails the suite (same signal as
the ``lint-static`` CI job, but runnable offline), and the observability
name registry is cross-checked against both the code and the docs.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.lint.engine import lint_paths
from repro.lint.names import (
    ALL_METRIC_NAMES,
    COUNTER_NAMES,
    GAUGE_NAMES,
    SPAN_NAMES,
)

ROOT = Path(__file__).resolve().parents[1]


def test_repo_lints_clean():
    targets = [ROOT / name for name in ("src", "tests", "benchmarks")]
    violations = lint_paths([p for p in targets if p.exists()], root=ROOT)
    rendered = "\n".join(v.render() for v in violations)
    assert violations == [], f"reprolint violations:\n{rendered}"


def test_server_package_is_rl6_clean():
    # The serving layer's core contract — the event loop never blocks —
    # is pinned statically: RL6 must be registered and find nothing in
    # the real server package (the seeded violations live in fixtures).
    from repro.lint import ALL_RULES, AsyncBlockingRule

    assert any(isinstance(rule, AsyncBlockingRule) for rule in ALL_RULES)
    violations = lint_paths(
        [ROOT / "src" / "repro" / "server"],
        root=ROOT,
        rules=[AsyncBlockingRule()],
    )
    rendered = "\n".join(v.render() for v in violations)
    assert violations == [], f"blocking calls in coroutines:\n{rendered}"


def test_server_and_storage_are_concurrency_clean():
    # The concurrency/ownership contracts added with RL8–RL10 must find
    # nothing real (the seeded violations live in fixtures; the two
    # owner-stores in tablefile carry justified suppressions).
    from repro.lint import (
        LockDisciplineRule,
        ResourceLinearityRule,
        ViewEscapeRule,
    )

    violations = lint_paths(
        [ROOT / "src" / "repro"],
        root=ROOT,
        rules=[LockDisciplineRule(), ResourceLinearityRule(), ViewEscapeRule()],
    )
    rendered = "\n".join(v.render() for v in violations)
    assert violations == [], f"concurrency/ownership violations:\n{rendered}"


def test_cli_json_output_matches_schema(capsys):
    """Full structural validation of the machine-readable output.

    The envelope is versioned (``schema_version``) so downstream
    tooling can detect shape changes; this test is the schema's
    executable definition.
    """
    from repro.lint import ALL_RULES
    from repro.lint.cli import JSON_SCHEMA_VERSION, main as lint_main

    code = lint_main(
        [
            str(ROOT / "tests" / "lint_fixtures"),
            "--root",
            str(ROOT),
            "--format",
            "json",
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)

    assert isinstance(payload, dict)
    assert set(payload) == {"schema_version", "rules", "violations"}
    assert payload["schema_version"] == JSON_SCHEMA_VERSION == 1

    known_codes = sorted(rule.code for rule in ALL_RULES)
    assert payload["rules"] == known_codes

    assert isinstance(payload["violations"], list) and payload["violations"]
    for entry in payload["violations"]:
        assert set(entry) == {"rule", "path", "line", "col", "message"}
        assert entry["rule"] in known_codes
        assert isinstance(entry["path"], str) and entry["path"]
        assert isinstance(entry["line"], int) and entry["line"] >= 1
        assert isinstance(entry["col"], int) and entry["col"] >= 0
        assert isinstance(entry["message"], str) and entry["message"]
    # Deterministic ordering: path, then line, col, rule.
    keys = [
        (e["path"], e["line"], e["col"], e["rule"])
        for e in payload["violations"]
    ]
    assert keys == sorted(keys)


def _scan_used_names() -> dict[str, set[str]]:
    used: dict[str, set[str]] = {"span": set(), "counter": set(), "gauge": set()}
    kinds = {"span": "span", "counter_add": "counter", "gauge_set": "gauge"}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in kinds
                and node.args
            ):
                continue
            arg = node.args[0]
            literals = []
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                literals = [arg.value]
            elif isinstance(arg, ast.IfExp):
                literals = [
                    part.value
                    for part in (arg.body, arg.orelse)
                    if isinstance(part, ast.Constant)
                    and isinstance(part.value, str)
                ]
            used[kinds[node.func.attr]].update(literals)
    return used


def test_registry_matches_code():
    used = _scan_used_names()
    assert used["span"] == set(SPAN_NAMES)
    assert used["counter"] == set(COUNTER_NAMES)
    assert used["gauge"] == set(GAUGE_NAMES)


def test_integrity_names_registered():
    # The storage-integrity metrics must stay registered — the verify
    # CLI and the degraded-scan report depend on them.
    assert "tablefile.verify" in SPAN_NAMES
    for name in (
        "tablefile.checksum_failures",
        "tablefile.chunks_quarantined",
        "tablefile.values_quarantined",
    ):
        assert name in COUNTER_NAMES


def test_registry_names_are_documented():
    doc = (ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    missing = sorted(name for name in ALL_METRIC_NAMES if name not in doc)
    assert missing == [], f"undocumented metric names: {missing}"
