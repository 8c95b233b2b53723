"""One hypothesis profile for every property test under ``tests/``.

Examples are derandomized, so each run draws the same cases. No deadline
applies, since per-example timings vary on small shared hosts, and no
example database is written.
"""

from hypothesis import settings

settings.register_profile("acrocode", deadline=None, derandomize=True, database=None)
settings.load_profile("acrocode")
