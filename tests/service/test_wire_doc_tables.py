"""The wire spec and the codec name the same tags.

``docs/wire-protocol.md`` lists every message in tables headed
``| tag | message | ...``. Each tag the code knows — the data-plane tags
and every row of the control-plane layout table — must have a row there
with the same hex value and name (compared case-insensitively, with
``_`` and spaces read as ``-``), and every row there must name a tag the
code knows.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.service.serialization import CONTROL_MESSAGES, TAG_NAMES

SPEC = Path(__file__).resolve().parents[2] / "docs" / "wire-protocol.md"
_ROW = re.compile(r"^\|\s*0x([0-9A-Fa-f]{2})\s*\|\s*([^|]+?)\s*\|")


def documented_tags() -> dict[int, str]:
    """Tag -> normalized name, from every ``| tag | message |`` table."""
    rows: dict[int, str] = {}
    in_table = False
    for line in SPEC.read_text(encoding="utf-8").splitlines():
        if re.match(r"^\|\s*tag\s*\|\s*message\s*\|", line):
            in_table = True
            continue
        if not line.startswith("|"):
            in_table = False
            continue
        match = _ROW.match(line) if in_table else None
        if match:
            tag = int(match.group(1), 16)
            assert tag not in rows, f"tag 0x{tag:02x} documented twice"
            rows[tag] = re.sub(r"[\s_]+", "-", match.group(2).lower())
    return rows


def test_every_codec_tag_is_documented_by_value_and_name():
    documented = documented_tags()
    for tag, name in TAG_NAMES.items():
        assert documented.get(tag) == name, (
            f"tag 0x{tag:02x} ({name}) has no matching row in {SPEC.name}"
        )
    assert set(CONTROL_MESSAGES) <= set(documented)


def test_every_documented_tag_is_known_to_the_codec():
    for tag, name in documented_tags().items():
        assert TAG_NAMES.get(tag) == name, (
            f"{SPEC.name} documents tag 0x{tag:02x} ({name}), "
            "which the codec does not know"
        )
