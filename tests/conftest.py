"""Test settings every module shares: one hypothesis profile.

No example has a deadline, since the first examples of a test pay for
price-table memos and a slow machine is not a failure.  A failure prints
its reproduction blob, so one seen only on another machine can be replayed
with `@reproduce_failure`.
"""

from hypothesis import settings

settings.register_profile("fair-engine", deadline=None, print_blob=True)
settings.load_profile("fair-engine")
