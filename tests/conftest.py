from __future__ import annotations

import os

# One BLAS thread, set before anything imports numpy: the suite's timing
# bounds then do not depend on how many threads other processes leave free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import HealthCheck, settings  # noqa: E402

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
