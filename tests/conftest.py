from hypothesis import settings

# Seeded runs with no per-example deadline: property tests give the same
# examples on every run, and a slow host cannot turn them into timing
# failures.  No example database, so runs leave no files behind.
settings.register_profile("parafusion", derandomize=True, deadline=None, database=None)
settings.load_profile("parafusion")
