"""Settings shared by every test module."""

import atexit
import shutil
import tempfile

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
