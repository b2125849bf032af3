from __future__ import annotations

from hypothesis import HealthCheck, settings

settings.register_profile(
    "fast",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
# Long runs for hunting flakes: pytest --hypothesis-profile=thorough
settings.register_profile(
    "thorough",
    max_examples=3000,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("fast")
