"""Shared pytest plumbing: derandomized hypothesis, and one line per
acceptance criterion."""

import re

from hypothesis import settings

# property tests draw the same examples on every run (and keep no example
# database), like the seeded generators of the other randomized tests
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

_LABELS = {
    1: "source-free run matches d'Alembert to 1e-12",
    2: "energy drift is second order and below 1e-5",
    3: "Picard iterates contract at ratio <= 0.9",
    4: "certified sup bound holds and the monitor trips",
    5: "polar and complex solvers cross-validate",
    6: "conservation residuals refine, order >= 0.8",
    7: "marker Riccati closed form to 1e-8, invariants hold",
    8: "breaking time within 1 percent, density floor prevents breaking",
    9: "action gradient matches strong form, order >= 1.7",
    10: "slow-scale reduction error shrinks with epsilon",
    11: "potential gate accepts good wells, rejects s^2",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            m = re.search(r"test_criterion_(\d+)", getattr(rep, "nodeid", ""))
            if m is None:
                continue
            num = int(m.group(1))
            if status == "passed" and outcomes.get(num) != "FAIL":
                outcomes[num] = "PASS"
            else:
                outcomes[num] = outcomes[num] if status == "passed" else "FAIL"
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(outcomes):
        terminalreporter.write_line(
            "criterion %2d [%s] %s" % (num, outcomes[num], _LABELS.get(num, "")))
