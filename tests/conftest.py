"""Suite-wide settings: hypothesis draws the same examples on every run."""

from hypothesis import settings

# derandomize seeds each property test from its own source, so tier-1 stays
# deterministic; deadline=None because the first call of a test pays imports;
# database=None keeps no example store between runs.
settings.register_profile("rotubes", derandomize=True, deadline=None, database=None)
settings.load_profile("rotubes")
