from hypothesis import settings

# Reproducible property tests with no per-example time limit: the training-heavy
# ones can exceed hypothesis's default 200 ms deadline on a slow machine.
settings.register_profile("kbfg", deadline=None, derandomize=True)
settings.load_profile("kbfg")
