from hypothesis import HealthCheck, settings

# Every property runs the same examples on every run, with no deadline; a
# test's own settings give only its max_examples (test_package.py checks).
settings.register_profile(
    "default",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")
