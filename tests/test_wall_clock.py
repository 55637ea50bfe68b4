"""Time is one injected authority: only two places in the package read
the wall clock, ``inventory.utcnow`` (the default every injectable clock
names) and ``acme.ca._service_identity`` (the CA's HTTPS certificate,
which OpenSSL checks against wall time)."""

from __future__ import annotations

import ast
from pathlib import Path

import iotpki

PACKAGE = Path(iotpki.__file__).parent
ALLOWED = {("inventory.py", "utcnow"), ("acme/ca.py", "_service_identity")}
# Dotted-name endings of calls that read the wall clock.
WALL_CLOCK_CALLS = (
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today", "time.time", "time.time_ns",
)


def dotted(node: ast.expr) -> str:
    """``a.b.c`` for a chain of names and attributes, else ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    return ""


def wall_clock_reads(source: str) -> list[tuple[str, int, str]]:
    """(enclosing function, line, callee) of each wall-clock call in one
    module's source. A default argument that names ``utcnow`` is not a
    call."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            name = dotted(node.func)
            if name.split(".")[-1] == "utcnow" or name.endswith(WALL_CLOCK_CALLS):
                found.append((function, node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_only_two_places_read_the_wall_clock():
    readers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for function, line, name in wall_clock_reads(path.read_text(encoding="utf-8")):
            if (module, function) not in ALLOWED:
                readers.append(f"{module}:{line} {function} calls {name}()")
    assert readers == []


SAMPLE = """
import datetime as dt, time


def injected(clock=utcnow, pause=time.sleep):
    started = time.perf_counter()
    return PolicyBuilder().time(clock()).build_client_verifier(), started


def reads():
    return dt.datetime.now(dt.timezone.utc), utcnow(), time.time()
"""


def test_scan_sees_calls_not_references():
    assert [(f, n) for f, _, n in wall_clock_reads(SAMPLE)] == [
        ("reads", "dt.datetime.now"), ("reads", "utcnow"), ("reads", "time.time"),
    ]
