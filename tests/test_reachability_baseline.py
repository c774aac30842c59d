"""The committed reachability baseline stays well-formed without the
ten-minute audit: every listed definition still exists, carries a known
reason, and ``tools/reachability.py`` flags a definition it does not
list."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "reachability", REPO / "tools" / "reachability.py"
)
reachability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reachability)

BASELINE = json.loads(reachability.BASELINE.read_text())


def test_every_entry_has_a_known_reason():
    for entry in BASELINE["unreached"]:
        assert entry["reason"] in reachability.REASONS, entry
        if entry["reason"] == "awaiting-driver":
            assert entry.get("direction"), entry


def test_every_entry_names_a_definition_that_exists():
    for entry in BASELINE["unreached"]:
        path = reachability.SRC / entry["file"]
        names = {qualname for _, qualname, _, _ in
                 reachability.definitions(path)}
        assert entry["name"] in names, entry


def test_summary_counts_match_the_entries():
    tests_only = [e for e in BASELINE["unreached"] if e["tests"]]
    assert BASELINE["unreached_outside_tests"] == len(BASELINE["unreached"])
    assert BASELINE["tests_only"] == len(tests_only)
    assert BASELINE["tests_only_lines"] == sum(e["lines"] for e in tests_only)


def test_nothing_reached_is_protocol_only():
    nothing = [e for e in BASELINE["unreached"] if not e["tests"]]
    assert {e["reason"] for e in nothing} <= {"protocol"}


@pytest.mark.parametrize("change", ["none", "new", "reached"])
def test_drift_returns_only_definitions_the_baseline_lacks(change, capsys):
    unreached = [dict(e) for e in BASELINE["unreached"]]
    new = {"file": "repro/x.py", "name": "f", "lines": 3, "tests": True}
    if change == "new":
        unreached.append(new)
    elif change == "reached":
        unreached.pop()
    assert reachability.drift(unreached, BASELINE) == (
        [new] if change == "new" else []
    )
    printed = capsys.readouterr().out
    assert ("NEW unreached: repro/x.py f" in printed) == (change == "new")
    assert ("now reached:" in printed) == (change == "reached")
