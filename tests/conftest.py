from hypothesis import settings

# reproducible property tests whose examples may run a whole preparation
settings.register_profile("qsprep", derandomize=True, deadline=None)
settings.load_profile("qsprep")
