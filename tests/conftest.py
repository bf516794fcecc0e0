"""Hypothesis profiles for the property tests.

`HYPOTHESIS_PROFILE=ci` loads a derandomized profile, so every run draws
the same examples; CI sets it so that a property test cannot flake there.
Without the variable, local runs keep Hypothesis's random search.
"""

import os

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without Hypothesis
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
