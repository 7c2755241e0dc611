"""Shared test settings.

Hypothesis runs derandomized, with no example database and no deadline:
every run draws the same examples and does not fail on a slow first call
(the first eigensolve imports scipy).  Its remaining storage, a cache of
constants read from local modules at collection, goes to a temporary
directory removed at exit, so a test run writes no ``.hypothesis/``
directory into the checkout.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("hermetic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("hermetic")


def pytest_configure(config):
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)
