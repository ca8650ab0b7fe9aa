import contextlib
import io
import time

import pytest
from hypothesis import settings

from molscope.cli import main as cli_main

# The same examples on every run and machine, and no example database.
settings.register_profile("molscope", derandomize=True, database=None)
settings.load_profile("molscope")


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit code, stdout bytes, seconds)."""
    buf = io.StringIO()
    started = time.monotonic()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue().encode(), time.monotonic() - started


@pytest.fixture(scope="session")
def cli():
    return run_cli


@pytest.fixture(scope="session")
def report_cache():
    """Memoized structured-report runs shared by the acceptance tests, so
    the determinism criterion can reuse the same executions the per-topic
    criteria assert on."""
    cache = {}

    def run(name, argv, threads):
        key = (name, threads)
        if key not in cache:
            cache[key] = run_cli(
                list(argv) + ["--format", "structured", "--threads", str(threads)]
            )
        return cache[key]

    return run
