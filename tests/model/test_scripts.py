"""Unit tests for the per-operation model scripts."""

from __future__ import annotations

import pytest

from repro.core.layout import NT_TWIN_SKEW
from repro.disk.geometry import TRIDENT_T300
from repro.disk.timing import TRIDENT_TIMING
from repro.model.evaluate import predict, predict_all
from repro.model.scripts import (
    SEQUENTIAL_THINK_MS,
    SOURCE_FILE_PAGES,
    ModelAssumptions,
    all_scripts,
    cfs_small_create,
    fsd_nt_page_miss,
    fsd_open,
    fsd_sequential_page_read,
    fsd_small_create,
    fsd_small_delete,
)


def evaluate(script) -> float:
    return script.evaluate(TRIDENT_TIMING, TRIDENT_T300)


class TestAssumptions:
    def test_record_sectors_matches_paper(self):
        assume = ModelAssumptions(pages_per_record=14)
        assert assume.record_sectors == 33.0

    def test_defaults_sane(self):
        assume = ModelAssumptions()
        assert 0 < assume.leaf_miss_probability < 1
        assert assume.ops_per_commit >= 1


class TestScriptCatalogue:
    def test_all_scripts_present(self):
        scripts = all_scripts()
        for name in (
            "cfs small create", "cfs open", "cfs open+read", "cfs read page",
            "cfs small delete", "cfs list (per file)",
            "fsd small create", "fsd open", "fsd open+read", "fsd read page",
            "fsd small delete", "fsd list (per file)",
        ):
            assert name in scripts

    def test_all_predictions_positive(self):
        for name, prediction in predict_all(
            all_scripts(), TRIDENT_TIMING, TRIDENT_T300
        ).items():
            assert prediction.predicted_ms > 0, name
            assert prediction.cpu_free_ms >= 0, name
            assert prediction.cpu_free_ms <= prediction.predicted_ms + 1e-9


class TestPaperShapeInModel:
    """The model alone must already predict Table 2's winners."""

    def test_fsd_beats_cfs_everywhere_metadata(self):
        scripts = all_scripts()
        for op in ("small create", "open", "open+read", "small delete"):
            assert evaluate(scripts[f"fsd {op}"]) < evaluate(
                scripts[f"cfs {op}"]
            ), op

    def test_read_page_identical(self):
        scripts = all_scripts()
        assert evaluate(scripts["fsd read page"]) == pytest.approx(
            evaluate(scripts["cfs read page"])
        )

    def test_cfs_create_dominated_by_revolutions(self):
        assume = ModelAssumptions()
        script = cfs_small_create(assume)
        rows = script.breakdown(TRIDENT_TIMING, TRIDENT_T300)
        revolution_ms = sum(ms for label, ms in rows if label == "revolution")
        assert revolution_ms > 0.3 * evaluate(script)

    def test_group_commit_amortization_visible(self):
        solo = ModelAssumptions(ops_per_commit=1.0)
        grouped = ModelAssumptions(ops_per_commit=16.0)
        assert evaluate(fsd_small_create(grouped)) < evaluate(
            fsd_small_create(solo)
        )

    def test_fsd_open_mostly_cpu_when_hitting(self):
        assume = ModelAssumptions(leaf_miss_probability=0.0)
        prediction = predict(fsd_open(assume), TRIDENT_TIMING, TRIDENT_T300)
        assert prediction.cpu_free_ms == pytest.approx(0.0)
        assert prediction.predicted_ms < 1.0

    def test_a_window_after_page_0s_waits_a_revolution(self):
        """Page 0's read carries the leader and the first window after
        a latency, so a source file within one window costs each later
        page only the think.  With a 16-page window the last 7 pages
        take one more window, which waits a full revolution: its first
        sector is the one after the previous transfer."""
        assume = ModelAssumptions()
        cpu, pages = assume.cpu, SOURCE_FILE_PAGES
        sector = TRIDENT_TIMING.sector_time_ms(TRIDENT_T300.sectors_per_track)
        latency = TRIDENT_TIMING.latency_ms

        def first_read(sectors: int) -> float:
            return (
                cpu.io_setup_ms + sectors * cpu.per_sector_copy_ms
                + latency + sectors * sector
            )

        think = SEQUENTIAL_THINK_MS * (pages - 1) / pages
        assert evaluate(fsd_sequential_page_read(assume, 30)) == (
            pytest.approx(think + first_read(pages + 1) / pages)
        )
        rest = pages - 1 - 16
        window = (
            cpu.io_setup_ms + rest * cpu.per_sector_copy_ms
            + TRIDENT_TIMING.rotation_ms + rest * sector
        )
        assert evaluate(fsd_sequential_page_read(assume, 16)) == (
            pytest.approx(think + (first_read(18) + window) / pages)
        )

    def test_name_table_miss_reads_copy_b_in_the_same_pass(self):
        """Copy B is ``NT_TWIN_SKEW`` slots round copy A's cylinder:
        when copy A's transfer ends its slot is two sector times away,
        the 0.55 ms of set-up fit inside that gap, and the read is the
        gap and a transfer, 1.7 ms — no seek, no lost revolution (a
        twin in an extent of its own cost 25.0 ms)."""
        assume = ModelAssumptions()
        rows = fsd_nt_page_miss(assume).breakdown(TRIDENT_TIMING, TRIDENT_T300)
        sector = TRIDENT_TIMING.sector_time_ms(TRIDENT_T300.sectors_per_track)
        assert 0.55 < (NT_TWIN_SKEW - 1) * sector
        copy_b = rows[-2][1] + rows[-1][1]
        assert copy_b == pytest.approx(NT_TWIN_SKEW * sector)
        assert copy_b == pytest.approx(1.67, abs=0.01)
        # One slot less and the set-up would still fit — by 6 µs, which
        # the head switch of a real drive (0.30 ms) overruns.
        assert 0.0 < (NT_TWIN_SKEW - 2) * sector - 0.55 < 0.01

    def test_every_fsd_miss_is_the_page_miss_script(self):
        assume = ModelAssumptions()
        miss = fsd_nt_page_miss(assume).steps
        for build in (fsd_open, fsd_small_create, fsd_small_delete):
            assert build(assume).miss_steps == miss
