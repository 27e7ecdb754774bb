"""Test-wide settings: hypothesis draws the same examples on every run and
keeps no example database, so the suite is reproducible.  Hypothesis also
caches the constants it reads from local modules, during collection; that
cache goes to a temporary directory removed at exit, so a test run writes
no .hypothesis/ into the working tree."""
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("zipcone", derandomize=True, database=None)
settings.load_profile("zipcone")

_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)
