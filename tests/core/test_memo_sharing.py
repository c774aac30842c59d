"""The B-tree's parse memo changes no result.

Each B-tree keeps a memo of parsed pages, keyed by page image and
bounded by ``btree._PARSE_MEMO_LIMIT``; the name table's leaf views
live on its entries.  It is the one parse memo shared by everything a
volume does, so neither a memo that holds one entry nor a second
volume running in the same process may change what a volume does.
Hypothesis draws op streams over names that share prefixes, with
renames putting one entry's bytes under a second name, and runs them
three ways: alone at the default limit (the reference), with the limit
at 1, and as two volumes' streams interleaved in one process.  Every
op's result, the simulated clock and the disk image must match the
reference.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fsd import FSD
from repro.crashcheck.scenarios import CRASH_SCALE
from repro.disk.disk import SimDisk
from repro.errors import FsError
from repro.harness.fingerprint import disk_digest

NAMES = ("a", "ab", "abc", "abd", "b/x", "b/xy", "b/xyz")
PREFIXES = ("", "a", "ab", "b/", "b/x")
CONTENTS = (b"", b"short", b"p" * 700, b"q" * 1500)

CREATE = st.tuples(st.just("create"), st.sampled_from(NAMES),
                   st.integers(0, len(CONTENTS) - 1))
# A few creates first, so that most of the ops after them find a file.
OPS = st.builds(
    lambda creates, rest: creates + rest,
    st.lists(CREATE, min_size=1, max_size=8),
    st.lists(
        st.one_of(
            CREATE,
            st.tuples(st.just("overwrite"), st.sampled_from(NAMES),
                      st.integers(0, len(CONTENTS) - 1)),
            st.tuples(st.just("rename"), st.sampled_from(NAMES),
                      st.integers(0, len(NAMES) - 1)),
            st.tuples(st.just("delete"), st.sampled_from(NAMES), st.just(0)),
            st.tuples(st.just("list"), st.just(""),
                      st.integers(0, len(PREFIXES) - 1)),
            st.tuples(st.just("read"), st.sampled_from(NAMES), st.just(0)),
        ),
        max_size=32,
    ),
)

def _apply(fs: FSD, op: tuple) -> object:
    kind, name, arg = op
    try:
        if kind == "create":
            return fs.create(name, CONTENTS[arg]).props.version
        if kind == "overwrite":
            fs.write(fs.open(name), 0, CONTENTS[arg])
            return "written"
        if kind == "rename":
            return fs.rename(name, NAMES[arg]).props.version
        if kind == "delete":
            return fs.delete(name).version
        if kind == "list":
            return [
                (props.name, props.version, props.byte_size)
                for props in fs.list(PREFIXES[arg])
            ]
        return fs.read(fs.open(name))
    except FsError as error:
        return type(error).__name__


class _Volume:
    """One formatted volume running one op stream."""

    def __init__(self, ops: list) -> None:
        self.disk = SimDisk(geometry=CRASH_SCALE.geometry)
        FSD.format(self.disk, CRASH_SCALE.fsd_params)
        self.fs = FSD.mount(self.disk)
        self.ops = list(ops)
        self.results: list = []

    def step(self) -> bool:
        if len(self.results) == len(self.ops):
            return False
        self.results.append(_apply(self.fs, self.ops[len(self.results)]))
        return True

    def finish(self) -> tuple:
        self.fs.unmount()
        return self.results, self.disk.clock.now_ms, disk_digest(self.disk)


def _alone(ops: list) -> tuple:
    volume = _Volume(ops)
    while volume.step():
        pass
    return volume.finish()


@settings(max_examples=60, deadline=None)
@given(first=OPS, second=OPS)
def test_memo_sharing_cannot_change_a_result(first, second):
    reference = (_alone(first), _alone(second))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.btree.btree._PARSE_MEMO_LIMIT", 1)
        assert _alone(first) == reference[0]

    one, two = _Volume(first), _Volume(second)
    while one.step() | two.step():
        pass
    assert (one.finish(), two.finish()) == reference
