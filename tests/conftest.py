import pytest
from hypothesis import settings

from qsprep import pipeline

# reproducible property tests whose examples may run a whole preparation
settings.register_profile("qsprep", derandomize=True, deadline=None)
settings.load_profile("qsprep")


@pytest.fixture(autouse=True)
def _empty_stage_memo():
    # a test that counts table stages sees only the stages its own runs computed
    pipeline._STAGES.clear()
