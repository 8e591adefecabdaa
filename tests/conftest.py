"""Settings and helpers shared by every test module."""

import atexit
import shutil
import tempfile
import threading
import tracemalloc

import pytest

try:
    import hypothesis
    import hypothesis.configuration
except ImportError:  # the property tests skip themselves without it
    hypothesis = None

if hypothesis is not None:
    # the same examples on every run, and no example database
    hypothesis.settings.register_profile("gbmlab", derandomize=True,
                                         database=None)
    hypothesis.settings.load_profile("gbmlab")
    # hypothesis still caches the constants it reads from the sources; keep
    # that cache out of the working tree, for this session only
    _home = tempfile.mkdtemp(prefix="hypothesis-")
    atexit.register(shutil.rmtree, _home, ignore_errors=True)
    hypothesis.configuration.set_hypothesis_home_dir(_home)


def traced_peak(fn) -> int:
    """Bytes by which ``fn()``'s peak traced allocation exceeds what was
    allocated when it started (``tracemalloc``)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture
def forced_threads(monkeypatch):
    """Two workers for ``pde._last_level``, both on the first CPU of the
    affinity set, whatever the host; the list of every thread started
    while the test runs."""
    from gbmlab import pde

    cpu = pde._cpus()[0]
    monkeypatch.setattr(pde, "_cpus", lambda: [cpu, cpu])
    started, start = [], threading.Thread.start

    def spy(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started
