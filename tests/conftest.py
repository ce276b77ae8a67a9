"""Test-suite settings shared by every module."""

import atexit
import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis keeps its files (the source-constants cache among them) in a
# temporary directory removed at exit, so a test run leaves no
# ``.hypothesis/`` behind.
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="cdslab-hypothesis-")
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)
set_hypothesis_home_dir(_HYPOTHESIS_HOME)

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
