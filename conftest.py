import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))

try:
    from hypothesis import settings
except ImportError:  # the property tests need hypothesis; nothing else does
    pass
else:
    # `pytest --hypothesis-profile=ci` draws the same examples on every run
    # and never fails on timing; local runs stay randomised.
    settings.register_profile("ci", derandomize=True, deadline=None)
