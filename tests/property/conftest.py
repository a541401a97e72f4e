"""Hypothesis profiles for the property suites.

The default profile keeps local runs fast and derandomized: every
machine searches the same examples, so the Tier-1 gate gives the same
verdict everywhere. The ``ci`` profile spends a larger example budget
on a random search (the CI verify job exports
``HYPOTHESIS_PROFILE=ci``) and prints the reproduction blob of any
failure, so it can be replayed with ``@reproduce_failure``. Per-test
``@settings(max_examples=...)`` decorations still apply where present
— the profile only changes the defaults, the search and the deadline
policy.
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "default", max_examples=50, deadline=None, derandomize=True
)
settings.register_profile(
    "ci",
    max_examples=200,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)

settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
