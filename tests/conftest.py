import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
# The benchmark's generators and output checker, shared with the tests.
sys.path.insert(1, str(Path(__file__).parent.parent / "bench"))


def pytest_runtest_logreport(report):
    """Print one pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    status = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {name}: {status}")
