from hypothesis import HealthCheck, settings

# Tier-1 draws the same examples on every run, so that it passes or fails on the code alone.
# The "explore" profile draws fresh examples each run, for a separate CI step:
#   python -m pytest -m hypothesis --hypothesis-profile=explore
settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
    database=None,
)
settings.register_profile("explore", settings.get_profile("default"), derandomize=False)
settings.load_profile("default")
