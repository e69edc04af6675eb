"""Shared test configuration."""
import sys

from hypothesis import HealthCheck, settings

# each run draws fresh examples; a failure prints its @reproduce_failure
# blob, so one found where the example database is thrown away (CI) can be
# replayed elsewhere
settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # replay the acceptance-gate verdicts where they survive output capture
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if results:
        terminalreporter.section("acceptance criteria")
        for cid, status in results:
            terminalreporter.write_line(f"ACCEPTANCE {cid} {status}")
