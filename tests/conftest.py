"""Shared test setup: with CI set in the environment, hypothesis runs
derandomized and prints a reproduction blob for every failure, so a
property that fails in CI fails the same way on a developer machine."""

import os

try:
    from hypothesis import settings
except ImportError:  # the suites that use hypothesis report the missing import
    pass
else:
    settings.register_profile("ci", derandomize=True, print_blob=True)
    if os.environ.get("CI"):
        settings.load_profile("ci")
