"""Shared test settings.

With the ``CI`` environment variable set (GitHub Actions sets it), the
hypothesis tests run derandomized: every run draws the same examples, so a
failure repeats exactly.  Local runs stay random and keep exploring.

Recent hypothesis versions load a profile like this one by themselves
under CI; registering it here gives every version the same behaviour.
"""

import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci", derandomize=True, database=None, print_blob=True,
    suppress_health_check=[HealthCheck.too_slow])
if os.environ.get("CI"):
    settings.load_profile("ci")
