from hypothesis import settings

# Seeded runs with no per-example deadline: property tests give the same
# examples on every run, and a slow host cannot turn them into timing
# failures.  No example database, so runs leave no files behind.
settings.register_profile("parafusion", derandomize=True, deadline=None, database=None)
# Ten times the examples, for a deeper run of chosen files:
# pytest --hypothesis-profile=ci-deep tests/test_linalg_properties.py
settings.register_profile("ci-deep", settings.get_profile("parafusion"), max_examples=1000)
settings.load_profile("parafusion")
