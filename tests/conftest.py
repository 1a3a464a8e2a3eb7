import os

from hypothesis import settings

# CI runs tier-1 with HYPOTHESIS_PROFILE=ci: a derandomized search and no
# example database, so a property test cannot fail a change because of a
# random draw in code the change did not touch.  Local runs keep the
# default random search.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
