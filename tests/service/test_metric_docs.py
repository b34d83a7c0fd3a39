"""Every metric the code emits has a row in a docs metrics table.

An operator looks metric names up in the catalogue tables of
``docs/observability.md`` and ``docs/fleet.md``; a metric emitted under
``src/`` with no row there is one they cannot read. Every ``"repro_*"``
string literal under ``src/`` is a metric name except the few listed in
:data:`NOT_METRICS`.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TABLES = ("docs/observability.md", "docs/fleet.md")

#: ``"repro_*"`` literals under ``src/`` that name no metric.
NOT_METRICS = {
    "repro_stats": "the key of the CLI's periodic stats JSON line",
}

LITERAL = re.compile(r'"(repro_\w+)"')
NAME = re.compile(r"`(repro_\w+)`")


def _emitted() -> set[str]:
    names: set[str] = set()
    for path in (ROOT / "src").rglob("*.py"):
        names.update(LITERAL.findall(path.read_text()))
    return names


def _tabled() -> set[str]:
    names: set[str] = set()
    for doc in TABLES:
        for line in (ROOT / doc).read_text().splitlines():
            if line.startswith("|"):
                names.update(NAME.findall(line))
    return names


def test_every_emitted_metric_has_a_table_row():
    missing = sorted(_emitted() - set(NOT_METRICS) - _tabled())
    assert not missing, f"no metrics-table row in {TABLES} for: {missing}"


def test_the_exclusions_are_still_emitted():
    """A stale exclusion would hide a metric that reused its name."""
    assert set(NOT_METRICS) <= _emitted()
