"""Session hooks: acceptance criterion 8 reads the property suites' outcomes.

When ``test_properties.py`` is collected in the same session, criterion 8 is
ordered last and reports the outcomes of those items, so each suite runs once
per session.  When it is not collected, criterion 8 runs the suites itself.
"""

import pytest

PROPERTIES = "test_properties.py"
CRITERION_8 = "test_criterion_8_randomized_properties"

#: Outcome per collected property item: "passed", "failed" or "skipped".
_outcomes: dict[str, str | None] = {}


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(items):
    """Move criterion 8 to the end and note the property items that will
    run; trylast, so deselection has already happened."""
    items.sort(key=lambda item: item.name == CRITERION_8)
    _outcomes.clear()
    _outcomes.update((item.nodeid, None) for item in items if item.path.name == PROPERTIES)


def pytest_runtest_logreport(report):
    if report.nodeid not in _outcomes:
        return
    if report.failed:
        _outcomes[report.nodeid] = "failed"
    elif report.skipped or report.when == "call":
        _outcomes[report.nodeid] = _outcomes[report.nodeid] or report.outcome


@pytest.fixture
def property_outcomes() -> dict[str, str | None]:
    """The property items of this session and their outcomes (None for an
    item that has not run); empty when none was collected."""
    return dict(_outcomes)
