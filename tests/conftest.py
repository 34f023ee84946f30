"""Hypothesis profiles.

``--hypothesis-profile=ci`` draws the same examples on every run and keeps
no example database, so a failure in CI reproduces anywhere. Runs without
the flag keep Hypothesis' default profile.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
