"""Unit and property tests for FSD value types and codecs."""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from repro.core.types import (
    FileKind,
    FileProperties,
    MAX_INLINE_RUNS,
    MAX_NAME_BYTES,
    Run,
    RunTable,
    decode_continuation,
    decode_key,
    decode_main_entry,
    encode_continuation,
    encode_key,
    encode_main_entry,
    make_uid,
    validate_name,
    version_range,
    _reference_encode_main_entry,
)
from repro.errors import FsError


class TestRun:
    def test_end_and_contains(self):
        run = Run(10, 5)
        assert run.end == 15
        assert 10 in run and 14 in run
        assert 9 not in run and 15 not in run

    @pytest.mark.parametrize("start,count", [(-1, 5), (0, 0), (3, -2)])
    def test_invalid_rejected(self, start, count):
        with pytest.raises(ValueError):
            Run(start, count)


class TestRunTable:
    def test_total_sectors(self):
        table = RunTable([Run(0, 3), Run(10, 2)])
        assert table.total_sectors == 5

    def test_sector_of_page_across_runs(self):
        table = RunTable([Run(100, 3), Run(200, 2)])
        assert [table.sector_of_page(p) for p in range(5)] == [
            100, 101, 102, 200, 201,
        ]

    def test_sector_of_page_out_of_range(self):
        with pytest.raises(FsError):
            RunTable([Run(0, 2)]).sector_of_page(2)

    def test_extents_for_spans_runs(self):
        table = RunTable([Run(100, 3), Run(200, 4)])
        extents = table.extents_for(1, 4)
        assert extents == [Run(101, 2), Run(200, 2)]

    def test_extents_for_whole_file(self):
        table = RunTable([Run(5, 2), Run(9, 1)])
        assert table.extents_for(0, 3) == [Run(5, 2), Run(9, 1)]

    def test_append_coalesces_adjacent(self):
        table = RunTable()
        table.append(Run(10, 2))
        table.append(Run(12, 3))
        assert table.runs == [Run(10, 5)]

    def test_append_keeps_gaps(self):
        table = RunTable()
        table.append(Run(10, 2))
        table.append(Run(20, 1))
        assert len(table.runs) == 2

    def test_truncate_exact_boundary(self):
        table = RunTable([Run(0, 3), Run(10, 3)])
        freed = table.truncate_sectors(3)
        assert freed == [Run(10, 3)]
        assert table.runs == [Run(0, 3)]

    def test_truncate_mid_run(self):
        table = RunTable([Run(0, 6)])
        freed = table.truncate_sectors(2)
        assert freed == [Run(2, 4)]
        assert table.runs == [Run(0, 2)]
        assert table.total_sectors == 2

    def test_truncate_to_zero(self):
        table = RunTable([Run(0, 2), Run(5, 2)])
        freed = table.truncate_sectors(0)
        assert freed == [Run(0, 2), Run(5, 2)]
        assert table.runs == []

    def test_copy_is_shallow_safe(self):
        table = RunTable([Run(0, 1)])
        clone = table.copy()
        clone.append(Run(5, 1))
        assert len(table.runs) == 1


class TestNameValidation:
    def test_valid(self):
        assert validate_name("dir/file.txt") == b"dir/file.txt"

    @pytest.mark.parametrize("bad", ["", "x" * 65, "nul\x00name"])
    def test_invalid(self, bad):
        with pytest.raises(FsError):
            validate_name(bad)


class TestKeyCodec:
    def test_roundtrip(self):
        key = encode_key("a/b.txt", 3, 1)
        assert decode_key(key) == ("a/b.txt", 3, 1)

    def test_versions_sort_numerically(self):
        assert encode_key("f", 2) < encode_key("f", 10)
        assert encode_key("f", 255) < encode_key("f", 256)

    def test_chunks_follow_their_entry(self):
        main = encode_key("f", 1, 0)
        chunk = encode_key("f", 1, 1)
        next_version = encode_key("f", 2, 0)
        assert main < chunk < next_version

    def test_prefix_matches_all_versions(self):
        start, stop = version_range("f")
        for key in (encode_key("f", 0), encode_key("f", 0xFFFF, 0xFFFF)):
            assert start <= key < stop
        for other in ("e", "f\x01", "f0", "fx", "g"):
            key = encode_key(other, 1)
            assert not start <= key < stop, other

    def test_out_of_range_version(self):
        with pytest.raises(FsError):
            encode_key("f", 70000)

    @given(
        name=st.text(
            alphabet=st.characters(
                blacklist_characters="\x00",
                min_codepoint=32,
                blacklist_categories=("Cs",),  # no surrogates
            ),
            min_size=1,
            max_size=20,
        ),
        version=st.integers(min_value=0, max_value=0xFFFF),
        chunk=st.integers(min_value=0, max_value=0xFFFF),
    )
    def test_roundtrip_property(self, name, version, chunk):
        if len(name.encode("utf-8")) > 64:
            return
        assert decode_key(encode_key(name, version, chunk)) == (
            name, version, chunk,
        )


class TestEntryCodecs:
    def _props(self, **overrides) -> FileProperties:
        base = dict(
            name="dir/file",
            version=2,
            uid=make_uid(3, 99),
            kind=FileKind.LOCAL,
            byte_size=12345,
            create_time_ms=100.5,
            last_used_ms=200.25,
            keep=4,
            leader_addr=777,
        )
        base.update(overrides)
        return FileProperties(**base)

    def test_main_entry_roundtrip(self):
        props = self._props()
        runs = RunTable([Run(778, 10), Run(900, 14)])
        value = encode_main_entry(props, runs)
        back, back_runs, total = decode_main_entry("dir/file", 2, value)
        assert back == props
        assert back_runs.runs == runs.runs
        assert total == 2

    def test_inline_run_cap(self):
        runs = RunTable([Run(i * 10, 1) for i in range(MAX_INLINE_RUNS + 5)])
        value = encode_main_entry(self._props(), runs)
        _, inline, total = decode_main_entry("dir/file", 2, value)
        assert len(inline.runs) == MAX_INLINE_RUNS
        assert total == MAX_INLINE_RUNS + 5

    def test_symlink_entry(self):
        props = self._props(kind=FileKind.SYMLINK, remote_target="server/x")
        value = encode_main_entry(props, RunTable())
        back, _, _ = decode_main_entry("dir/file", 2, value)
        assert back.kind == FileKind.SYMLINK
        assert back.remote_target == "server/x"

    def test_continuation_roundtrip(self):
        runs = [Run(5, 2), Run(50, 7)]
        assert decode_continuation(encode_continuation(runs)) == runs

    def test_with_updates(self):
        props = self._props()
        updated = props.with_updates(byte_size=1)
        assert updated.byte_size == 1
        assert props.byte_size == 12345  # original untouched


def _utf8_prefix(text: str, limit: int) -> str:
    """The longest prefix of ``text`` whose UTF-8 encoding fits
    ``limit`` bytes."""
    return text.encode("utf-8")[:limit].decode("utf-8", "ignore")


properties = st.builds(
    FileProperties,
    name=st.just("dir/file"),
    version=st.integers(0, 0xFFFF),
    uid=st.integers(0, 2**64 - 1),
    kind=st.sampled_from(FileKind),
    byte_size=st.integers(0, 2**64 - 1),
    create_time_ms=st.floats(width=64),
    last_used_ms=st.floats(width=64),
    keep=st.integers(0, 0xFF),
    leader_addr=st.integers(0, 2**32 - 1),
    remote_target=st.text(max_size=MAX_NAME_BYTES).map(
        lambda text: _utf8_prefix(text, MAX_NAME_BYTES)
    ),
)
run_tables = st.lists(
    st.builds(Run, st.integers(0, 2**32 - 1), st.integers(1, 0xFFFF)),
    max_size=MAX_INLINE_RUNS + 24,
).map(RunTable)


class TestMainEntryEncoder:
    """``encode_main_entry`` packs with precompiled structs and must
    emit exactly the bytes of the Packer-based reference.  A round trip
    alone cannot tell: two same-width fields swapped in both the encoder
    and the decoder still read back."""

    @given(props=properties, runs=run_tables)
    @example(
        props=FileProperties(
            "dir/file", 1, 1, FileKind.SYMLINK, 0, 0.0, 0.0, 0, 0,
            "\u00e9" * (MAX_NAME_BYTES // 2),
        ),
        runs=RunTable([Run(index, 1) for index in range(MAX_INLINE_RUNS + 1)]),
    )
    def test_fast_encoder_matches_reference(self, props, runs):
        assert encode_main_entry(props, runs) == _reference_encode_main_entry(
            props, runs
        )

    @given(
        props=properties,
        runs=run_tables,
        target=st.text(min_size=MAX_NAME_BYTES + 1, max_size=2 * MAX_NAME_BYTES),
    )
    def test_overlong_target_is_refused_by_both(self, props, runs, target):
        props = props.with_updates(remote_target=target)
        with pytest.raises(ValueError):
            encode_main_entry(props, runs)
        with pytest.raises(ValueError):
            _reference_encode_main_entry(props, runs)


class TestUid:
    def test_unique_across_boots(self):
        assert make_uid(1, 5) != make_uid(2, 5)

    def test_unique_within_boot(self):
        assert make_uid(1, 5) != make_uid(1, 6)

    def test_sequence_masked_to_40_bits(self):
        assert make_uid(0, 1 << 41) == make_uid(0, 0)
