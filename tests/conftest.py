import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))
# The benchmark's generators and output checker, shared with the tests.
sys.path.insert(1, str(Path(__file__).parent.parent / "bench"))

# The properties draw the same examples on every run, with no clock and no
# example database, and set only how many they draw. The "explore" profile
# (pytest --hypothesis-profile=explore) draws new ones on every run, and a
# failure prints the blob that reproduces it.
settings.register_profile("fixed", derandomize=True, deadline=None, database=None)
settings.register_profile("explore", deadline=None, database=None, print_blob=True)
settings.load_profile("fixed")


def pytest_runtest_logreport(report):
    """Print one pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    status = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {name}: {status}")
