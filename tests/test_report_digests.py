"""Every report of the 136 files of ``report_digests.py`` is pinned.

``tests/data/report_digests.txt`` is that script's output: per file, the
exit code and the sha256 of its report without ``timing_seconds``.  The
test recomputes the lines in this process and names each file whose report
or exit code differs, or that is missing on either side.  A change that
alters a report re-pins the file (see ``report_digests.py``) and says so.
"""

from pathlib import Path

import report_digests

PINNED = Path(__file__).resolve().parent / "data" / "report_digests.txt"


def test_every_report_is_pinned():
    pinned = dict(line.split(" ", 1) for line in PINNED.read_text().splitlines())
    got = dict(line.split(" ", 1) for line in report_digests.digests())
    assert len(pinned) == 136
    differ = sorted(name for name in pinned.keys() | got.keys() if pinned.get(name) != got.get(name))
    assert not differ, f"reports that differ from {PINNED.name}: {differ}"
