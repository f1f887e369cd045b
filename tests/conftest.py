from hypothesis import settings

# Every run draws the same examples, so a property test that fails fails the
# same way each time; example timings on a loaded machine are not a
# correctness signal, so there is no deadline. A test's own @settings still
# overrides either.
settings.register_profile("pfge", derandomize=True, deadline=None)
settings.load_profile("pfge")
