from __future__ import annotations

import warnings

from hypothesis import settings

# hypothesis imports this module from its report hook when a test fails; some
# of its dependencies warn on import, which under -W error ends the session.
# Importing it here, with those warnings silenced, keeps the rest running.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

settings.register_profile("suite", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("suite")
