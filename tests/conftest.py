import pytest
from hypothesis import settings

from qsprep import amplifier, pipeline

# reproducible property tests whose examples may run a whole preparation
settings.register_profile("qsprep", derandomize=True, deadline=None)
settings.load_profile("qsprep")


@pytest.fixture(autouse=True)
def _empty_run_memos():
    # a test that counts table stages, plans or amplifications sees only
    # what its own runs computed
    pipeline._STAGES.clear()
    amplifier._plan.cache_clear()
    amplifier._amplified.cache_clear()
