"""Hypothesis profiles for the test suite.

``ci`` derandomizes the draws, so a property run in CI sees the same
examples every time, and lifts the per-example deadline, which shared
runners miss for reasons unrelated to the code. Select it with
``pytest --hypothesis-profile=ci``.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
