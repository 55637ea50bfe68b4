"""Shared test setup: with CI set in the environment, hypothesis runs
derandomized and prints a reproduction blob for every failure, so a
property that fails in CI fails the same way on a developer machine.
``--hypothesis-profile=thorough`` does the same with 2,000 examples per
property, for float edge cases too rare for the default 100.
A test during which a server's request handler raised fails. The
``far_zone`` fixture runs a test with the host nine hours east of UTC."""

import os
import socketserver
import time
import traceback

import pytest

try:
    from hypothesis import settings
except ImportError:  # the suites that use hypothesis report the missing import
    pass
else:
    settings.register_profile("ci", derandomize=True, print_blob=True)
    settings.register_profile("thorough", derandomize=True, print_blob=True, max_examples=2000)
    if os.environ.get("CI"):
        settings.load_profile("ci")


@pytest.fixture
def far_zone(monkeypatch):
    """The host's local zone at UTC+9 for one test. A POSIX zone string
    needs no zone database, so the shift takes effect on any host."""
    monkeypatch.setenv("TZ", "JST-9")
    time.tzset()
    assert time.timezone == -9 * 3600
    yield
    monkeypatch.undo()
    time.tzset()


@pytest.fixture(autouse=True)
def handler_errors_fail_the_test():
    """socketserver only prints a handler's traceback from the serving
    thread; record each one, and fail the test that saw it."""
    seen = []
    handle_error = socketserver.BaseServer.handle_error

    def record(server, request, client_address):
        seen.append(f"{type(server).__name__} for {client_address}:\n{traceback.format_exc()}")
        handle_error(server, request, client_address)

    socketserver.BaseServer.handle_error = record
    try:
        yield
    finally:
        socketserver.BaseServer.handle_error = handle_error
    assert not seen, "a server's request handler raised:\n" + "\n".join(seen)
