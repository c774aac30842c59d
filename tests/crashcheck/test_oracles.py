"""Tests for the recovery oracles and their namespace model."""

from __future__ import annotations

import pytest

from repro.core.fsd import FSD
from repro.crashcheck import (
    CacheCoherenceOracle,
    Op,
    OracleContext,
    SemanticOracle,
    StructuralOracle,
    default_oracles,
    explore,
)
from repro.crashcheck.oracles import (
    ABSENT,
    allowed_versions,
    model_apply,
    model_state,
)
from repro.crashcheck.workload import AppliedOp


def ctx_for(
    committed: list[Op], pending: list[Op] | None = None
) -> OracleContext:
    applied = [
        AppliedOp(op=op, index=index, start_io=0, end_io=0)
        for index, op in enumerate(pending or [])
    ]
    return OracleContext(
        boundary=0,
        variant="unit",
        committed=model_state(committed),
        pending=applied,
    )


class TestNamespaceModel:
    def test_create_stacks_versions(self):
        stacks = model_state(
            [Op("create", "a", b"v1"), Op("create", "a", b"v2")]
        )
        assert stacks["a"] == [b"v1", b"v2"]

    def test_delete_exposes_older_version(self):
        stacks = model_state(
            [
                Op("create", "a", b"v1"),
                Op("create", "a", b"v2"),
                Op("delete", "a"),
            ]
        )
        assert stacks["a"] == [b"v1"]

    def test_delete_last_version_removes_name(self):
        stacks = model_state([Op("create", "a", b"v1"), Op("delete", "a")])
        assert "a" not in stacks

    def test_keep_trims_old_versions(self):
        stacks = {}
        for index in range(4):
            model_apply(stacks, Op("create", "a", bytes([index]), keep=2))
        assert stacks["a"] == [b"\x02", b"\x03"]

    def test_truncate_keeps_a_prefix_of_the_newest_version(self):
        stacks = model_state(
            [
                Op("create", "a", b"old"),
                Op("create", "a", b"abcdef"),
                Op("truncate", "a", size=2),
            ]
        )
        assert stacks["a"] == [b"old", b"ab"]

    def test_set_keep_trims_old_versions(self):
        stacks = model_state(
            [Op("create", "a", bytes([index])) for index in range(4)]
            + [Op("set_keep", "a", keep=2)]
        )
        assert stacks["a"] == [b"\x02", b"\x03"]

    def test_force_is_a_namespace_noop(self):
        assert model_state([Op("create", "a", b"x"), Op("force")]) == {
            "a": [b"x"]
        }


class TestAllowedStates:
    def test_committed_name_has_exactly_one_state(self):
        ctx = ctx_for([Op("create", "a", b"data")])
        assert ctx.allowed_states()["a"] == {b"data"}

    def test_pending_create_may_be_absent_or_whole(self):
        ctx = ctx_for([], pending=[Op("create", "a", b"new")])
        assert ctx.allowed_states()["a"] == {ABSENT, b"new"}

    def test_pending_delete_admits_both_sides(self):
        ctx = ctx_for(
            [Op("create", "a", b"old")], pending=[Op("delete", "a")]
        )
        assert ctx.allowed_states()["a"] == {b"old", ABSENT}

    def test_pending_recreate_admits_each_intermediate_top(self):
        ctx = ctx_for(
            [Op("create", "a", b"v1")],
            pending=[Op("create", "a", b"v2"), Op("delete", "a")],
        )
        # before / after the create / after the delete (back to v1)
        assert ctx.allowed_states()["a"] == {b"v1", b"v2"}


class TestPendingGroups:
    """:func:`allowed_versions` over several pending groups, as a fault
    campaign leaves them: each crash's lost ops are a per-name prefix
    of their own, whatever an earlier crash kept."""

    V1 = {"a": [b"v1"]}

    def test_one_group_is_a_prefix(self):
        steps = [(Op("create", "a", b"v2"), 1), (Op("delete", "a"), 1)]
        assert allowed_versions(self.V1, steps)["a"] == {
            (1, b"v1"), (2, b"v2")
        }

    def test_a_later_group_may_land_what_an_earlier_one_lost(self):
        steps = [(Op("create", "a", b"v2"), 1), (Op("delete", "a"), 2)]
        assert allowed_versions(self.V1, steps)["a"] == {
            (1, b"v1"), (2, b"v2"), (0, ABSENT)
        }

    def test_an_op_that_took_effect_applies_to_every_branch(self):
        steps = [(Op("delete", "a"), 1), (Op("create", "a", b"v3"), None)]
        assert allowed_versions(self.V1, steps)["a"] == {
            (2, b"v3"), (1, b"v3")
        }


class TestSemanticOracle:
    def make_fs(self, disk, scenario_ops):
        from repro.crashcheck.scenarios import CRASH_SCALE

        FSD.format(disk, CRASH_SCALE.fsd_params)
        fs = FSD.mount(disk)
        for op in scenario_ops:
            if op.kind == "create":
                fs.create(op.name, op.data)
            elif op.kind == "delete":
                fs.delete(op.name)
        fs.force()
        return fs

    @pytest.fixture
    def crash_disk(self):
        from repro.disk.disk import SimDisk
        from repro.crashcheck.scenarios import CRASH_SCALE

        return SimDisk(geometry=CRASH_SCALE.geometry)

    def test_clean_state_passes(self, crash_disk):
        ops = [Op("create", "a", b"alpha"), Op("create", "b", b"beta")]
        fs = self.make_fs(crash_disk, ops)
        assert SemanticOracle().check(fs, ctx_for(ops)) == []

    def test_lost_committed_file_reported(self, crash_disk):
        fs = self.make_fs(crash_disk, [Op("create", "a", b"alpha")])
        ctx = ctx_for(
            [Op("create", "a", b"alpha"), Op("create", "gone", b"poof")]
        )
        problems = SemanticOracle().check(fs, ctx)
        assert any("'gone' lost by recovery" in p for p in problems)

    def test_unexpected_file_reported(self, crash_disk):
        fs = self.make_fs(
            crash_disk, [Op("create", "a", b"x"), Op("create", "ghost", b"!")]
        )
        problems = SemanticOracle().check(fs, ctx_for([Op("create", "a", b"x")]))
        assert any("unexpected file 'ghost'" in p for p in problems)

    def test_corrupted_committed_content_reported(self, crash_disk):
        fs = self.make_fs(crash_disk, [Op("create", "a", b"actual bytes")])
        ctx = ctx_for([Op("create", "a", b"expected bytes!!")])
        problems = SemanticOracle().check(fs, ctx)
        assert any("committed content corrupted" in p for p in problems)

    def test_partial_uncommitted_state_reported(self, crash_disk):
        fs = self.make_fs(crash_disk, [Op("create", "a", b"half")])
        ctx = ctx_for([], pending=[Op("create", "a", b"whole payload")])
        problems = SemanticOracle().check(fs, ctx)
        assert any("partial/garbled uncommitted" in p for p in problems)

    def test_absent_pending_create_is_fine(self, crash_disk):
        fs = self.make_fs(crash_disk, [Op("create", "a", b"x")])
        ctx = ctx_for(
            [Op("create", "a", b"x")], pending=[Op("create", "b", b"later")]
        )
        assert SemanticOracle().check(fs, ctx) == []


    def test_lost_older_version_reported(self, crash_disk):
        fs = self.make_fs(crash_disk, [Op("create", "a", b"v2")])
        ctx = ctx_for([Op("create", "a", b"v1"), Op("create", "a", b"v2")])
        problems = SemanticOracle().check(fs, ctx)
        assert problems == [
            "versions of 'a': recovered 1 under that content, "
            "expected one of [2]"
        ]

    def test_resurrected_trimmed_version_reported(self, crash_disk):
        ops = [Op("create", "a", b"v1"), Op("create", "a", b"v2")]
        fs = self.make_fs(crash_disk, ops)
        ctx = ctx_for(ops + [Op("set_keep", "a", keep=1)])
        problems = SemanticOracle().check(fs, ctx)
        assert any("versions of 'a': recovered 2" in p for p in problems)

    def test_pending_trim_may_be_absent_or_whole(self, crash_disk):
        ops = [Op("create", "a", b"v1"), Op("create", "a", b"v2")]
        fs = self.make_fs(crash_disk, ops)
        ctx = ctx_for(ops, pending=[Op("set_keep", "a", keep=1)])
        assert ctx.allowed_versions()["a"] == {(2, b"v2"), (1, b"v2")}
        assert SemanticOracle().check(fs, ctx) == []


class TestStructuralOracle:
    def test_clean_volume_passes(self, fsd):
        fsd.create("s/a", b"data")
        fsd.force()
        assert StructuralOracle().check(fsd, ctx_for([])) == []

    def test_strict_vam_leak_reported(self, fsd):
        fsd.create("s/a", b"data")
        fsd.delete("s/a")  # shadow-freed: leaked until commit
        problems = StructuralOracle(strict_vam=True).check(fsd, ctx_for([]))
        assert any("leaked" in p for p in problems)
        assert StructuralOracle(strict_vam=False).check(fsd, ctx_for([])) == []


class TestWarmMetadataCache:
    """The metadata twin of the cache-coherence oracle: recovery leaves
    replayed name-table pages resident, and every clean resident page
    must equal both of its home copies."""

    def recovered(self, fsd):
        for index in range(20):
            fsd.create(f"warm/f{index:02d}", b"w" * (90 * index + 1))
        fsd.force()
        fsd.crash()
        return FSD.mount(fsd.disk)

    def test_recovered_mount_is_warm_and_coherent(self, fsd):
        fs = self.recovered(fsd)
        assert fs.mount_report.cache_warm_pages > 0
        assert fs.cache.clean_nt_pages()
        assert StructuralOracle().check(fs, ctx_for([])) == []

    def test_incoherent_warm_page_is_reported(self, fsd):
        fs = self.recovered(fsd)
        page_no, data = fs.cache.clean_nt_pages()[-1]
        for address in fs.layout.nt_page_addresses(page_no):
            fs.disk.poke(address, bytes(len(data)))
        problems = StructuralOracle().check(fs, ctx_for([]))
        assert any(
            f"page {page_no}: clean cached image differs" in p
            for p in problems
        )


class TestCacheCoherenceOracle:
    def make_cached_fs(self, disk):
        from repro.crashcheck.scenarios import CRASH_SCALE

        FSD.format(disk, CRASH_SCALE.fsd_params)
        return FSD.mount(disk, data_cache_pages=32, readahead_pages=8)

    @pytest.fixture
    def crash_disk(self):
        from repro.disk.disk import SimDisk
        from repro.crashcheck.scenarios import CRASH_SCALE

        return SimDisk(geometry=CRASH_SCALE.geometry)

    def test_cold_mount_with_cache_passes(self, crash_disk):
        fs = self.make_cached_fs(crash_disk)
        fs.create("a", b"alpha" * 300)
        fs.force()
        fs.crash()
        recovered = FSD.mount(crash_disk, data_cache_pages=32)
        assert CacheCoherenceOracle().check(recovered, ctx_for([])) == []

    def test_cache_off_mount_passes_trivially(self, crash_disk):
        from repro.crashcheck.scenarios import CRASH_SCALE

        FSD.format(crash_disk, CRASH_SCALE.fsd_params)
        fs = FSD.mount(crash_disk, readahead_pages=0)
        fs.create("a", b"alpha" * 300)
        reads = fs.ops.reads
        assert CacheCoherenceOracle().check(fs, ctx_for([])) == []
        assert fs.ops.reads == reads  # nothing is ever held: nothing to read

    def test_default_mount_is_checked_through_the_buffer(self, crash_disk):
        fs = self.make_cached_fs(crash_disk)
        fs.create("a", b"alpha" * 900)
        fs.force()
        fs.crash()
        recovered = FSD.mount(crash_disk)
        assert CacheCoherenceOracle().check(recovered, ctx_for([])) == []
        buffer = recovered.data_cache
        assert buffer.readahead_used == buffer.readahead_issued > 0

    def test_flags_a_buffer_that_serves_a_stale_image(
        self, crash_disk, monkeypatch
    ):
        fs = self.make_cached_fs(crash_disk)
        fs.create("a", b"alpha" * 900)
        fs.force()
        fs.crash()
        recovered = FSD.mount(crash_disk)
        keep = recovered.data_cache.store
        monkeypatch.setattr(
            recovered.data_cache,
            "store",
            lambda address, sectors, uid, prefetched=False: keep(
                address, [b"stale"] * len(sectors), uid, prefetched
            ),
        )
        problems = CacheCoherenceOracle().check(recovered, ctx_for([]))
        assert any("diverges from the platter" in p for p in problems)

    def test_flags_pages_surviving_into_the_checked_mount(self, crash_disk):
        """A warm cache at oracle time means pre-crash pages crossed
        the crash boundary — exactly the leak the oracle exists for."""
        fs = self.make_cached_fs(crash_disk)
        fs.create("a", b"alpha" * 300)
        fs.read(fs.open("a"))
        problems = CacheCoherenceOracle().check(fs, ctx_for([]))
        assert any("survived the crash" in p for p in problems)

    def test_sweep_with_cache_enabled_passes(self):
        summary = explore(
            "quickstart", max_points=16, data_cache_pages=64
        )
        assert summary.ok, [str(v) for v in summary.violations]
        assert summary.checked > 0


class TestDefaultOracles:
    def test_order_and_names(self):
        oracles = default_oracles()
        assert [oracle.name for oracle in oracles] == [
            "structural",
            "cache-coherence",
            "semantic",
        ]
