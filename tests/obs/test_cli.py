"""The ``repro stats`` / ``repro trace`` subcommands and
``crashcheck --metrics``."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.obs.export import parse_jsonl, validate_timeline


@pytest.fixture
def image(tmp_path) -> str:
    path = str(tmp_path / "vol.img")
    assert main(["mkfs", path]) == 0
    return path


class TestStats:
    def test_reports_five_plus_layers_nonzero(self, image, capsys):
        capsys.readouterr()
        assert main(["stats", image]) == 0
        out = capsys.readouterr().out
        for layer in ("wal", "commit", "cache", "btree", "vam", "fsd"):
            assert f"[{layer}]" in out

    def test_json_mode_emits_parseable_metrics(self, image, capsys):
        capsys.readouterr()
        assert main(["stats", image, "--json", "--ops", "30"]) == 0
        records = parse_jsonl(capsys.readouterr().out)
        assert records
        by_name = {r["name"]: r for r in records}
        assert by_name["fsd.creates"]["value"] > 0
        assert by_name["wal.records_appended"]["type"] == "counter"
        layers = {
            name.split(".", 1)[0]
            for name, record in by_name.items()
            if record["type"] == "counter" and record["value"] > 0
        }
        assert len(layers) >= 5

    def test_data_cache_summary_in_text_output(self, image, capsys):
        capsys.readouterr()
        assert main(
            ["stats", image, "--ops", "40", "--data-cache-pages", "128"]
        ) == 0
        out = capsys.readouterr().out
        assert "cache.data.hits" in out
        assert "cache.data.hit_ratio" in out
        assert "data cache: hit ratio" in out
        assert "read-ahead accuracy" in out

    def test_data_cache_metrics_in_json_output(self, image, capsys):
        capsys.readouterr()
        assert main(
            [
                "stats", image, "--json", "--ops", "40",
                "--data-cache-pages", "128", "--readahead", "8",
            ]
        ) == 0
        by_name = {
            r["name"]: r for r in parse_jsonl(capsys.readouterr().out)
        }
        assert by_name["cache.data.hits"]["value"] > 0
        assert by_name["cache.data.hit_ratio"]["type"] == "gauge"
        assert 0.0 < by_name["cache.data.hit_ratio"]["value"] <= 1.0
        assert by_name["cache.data.readahead_issued"]["value"] > 0
        assert (
            by_name["cache.data.readahead_accuracy"]["type"] == "gauge"
        )

    def test_mount_line_splits_a_recovery_into_its_phases(self, image, capsys):
        import re

        from repro.core.fsd import FSD
        from repro.disk.image import load_disk, save_disk

        disk = load_disk(image)
        fs = FSD.mount(disk)
        for index in range(40):
            fs.create(f"obs/crash-{index:02d}", b"x" * 700)
        fs.force()
        fs.crash()
        save_disk(disk, image)
        capsys.readouterr()
        assert main(["stats", image, "--ops", "5"]) == 0
        line = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("mount: ")
        )
        total, *phases = (float(v) for v in re.findall(r"[\d.]+", line))
        assert len(phases) == 5
        assert sum(phases) == pytest.approx(total, abs=0.3)
        root_read, scan, redo, vam, root_write = phases
        assert scan > 0 and redo > 0 and vam > 0

    def test_name_table_line_reports_the_list_prefetch(self, image, capsys):
        from repro.core.fsd import FSD
        from repro.disk.image import load_disk, save_disk

        disk = load_disk(image)
        fs = FSD.mount(disk)
        for index in range(300):
            fs.create(f"obs/old-{index:03d}", b"x" * 100)
        fs.unmount()
        save_disk(disk, image)
        capsys.readouterr()
        assert main(["stats", image, "--ops", "10"]) == 0
        out = capsys.readouterr().out
        for counter in ("pages", "transfers", "gap_sectors"):
            assert f"nt.prefetch_{counter}" in out
        line = next(
            line for line in out.splitlines()
            if line.startswith("name table:")
        )
        assert "demand misses; prefetch:" in line
        pages = int(line.split("prefetch: ")[1].split()[0])
        assert pages > 20
        # What a demand miss cost: mean and count of nt.double_read_ms.
        assert "nt.double_read_ms" in out
        mean_ms, _, _, count = line.split("double read: mean ")[1].split()[:4]
        assert 0.0 < float(mean_ms) < 50.0 and int(count) > 0

    def test_name_table_line_reports_the_shape_a_hand_walk_finds(
        self, image, capsys
    ):
        """``stats --save`` and ``verify`` print the shape that
        ``BTree.check_invariants()`` measures; the same image walked by
        hand, node by node, gives the same numbers."""
        import re

        from repro.btree.node import Node
        from repro.core.fsd import FSD
        from repro.disk.image import load_disk, save_disk

        disk = load_disk(image)
        fs = FSD.mount(disk)
        for index in range(300):
            fs.create(f"obs/old-{index:03d}", b"x" * 100)
        fs.unmount()
        save_disk(disk, image)
        capsys.readouterr()
        assert main(["stats", image, "--ops", "10", "--save"]) == 0
        stats_out = capsys.readouterr().out
        assert main(["verify", image]) == 0
        verify_out = capsys.readouterr().out

        fs = FSD.mount(load_disk(image))
        tree = fs.name_table.tree
        sizes: dict[bool, list[int]] = {True: [], False: []}
        height, level = 0, [tree._root]
        while level:
            height += 1
            nodes = [Node.from_bytes(tree.pager.read(page)) for page in level]
            for node in nodes:
                sizes[node.is_leaf].append(node.serialized_size())
            level = [child for node in nodes for child in node.children]
        leaves, interior = sizes[True], sizes[False]
        expected = (
            f"name table: {len(fs.list())} entries on {len(leaves)} leaves, "
            f"{sum(leaves) / (512 * len(leaves)):.0%} full, height {height} "
            f"({len(interior)} interior nodes, "
            f"{sum(interior) / (512 * len(interior)):.0%} full)"
        )
        assert height >= 2 and len(leaves) > 30
        assert expected in verify_out.splitlines()
        assert any(
            line.startswith(expected + "; ") for line in stats_out.splitlines()
        )
        gauges = dict(re.findall(r"btree\.shape_(\w+) +([\d.]+)", stats_out))
        assert int(gauges["leaves"]) == len(leaves)
        assert int(gauges["height"]) == height

    def test_metadata_cache_line_reports_pinned_and_reserve(
        self, image, capsys
    ):
        import re

        capsys.readouterr()
        assert main(["stats", image, "--ops", "60"]) == 0
        out = capsys.readouterr().out
        for metric in ("cache.pinned_pages", "cache.pinned_peak",
                       "cache.clean_pages", "cache.misses_leaf"):
            assert metric in out
        line = next(
            line for line in out.splitlines()
            if line.startswith("metadata cache:")
        )
        match = re.fullmatch(
            r"metadata cache: (\d+) pinned \(peak (\d+)\) of (\d+), "
            r"reserve (\d+) held (\d+) times, "
            r"(\d+) of (\d+) misses interior, "
            r"(\d+) evictions \((\d+) cold\)",
            line,
        )
        assert match, line
        (
            pinned, peak, capacity, reserve, _, interior, misses,
            evictions, cold,
        ) = map(int, match.groups())
        assert 0 < pinned <= peak
        assert reserve == capacity // 4
        assert interior <= misses
        assert cold <= evictions

    def test_cache_off_run_has_no_cache_summary(self, image, capsys):
        """The paper's mount (no read-ahead, nothing retained) records
        no lookup, so there is no ratio to print."""
        capsys.readouterr()
        assert main(["stats", image, "--ops", "20", "--readahead", "0"]) == 0
        out = capsys.readouterr().out
        assert not any(
            line.startswith("data cache:") for line in out.splitlines()
        )
        assert "cache.data." not in out

    def test_default_mount_reports_buffer_hits_and_accuracy(
        self, image, capsys
    ):
        capsys.readouterr()
        assert main(["stats", image, "--ops", "20"]) == 0
        out = capsys.readouterr().out
        assert "cache.data.readahead_accuracy" in out
        line = next(
            line for line in out.splitlines()
            if line.startswith("data cache: hit ratio")
        )
        assert "sectors), read-ahead accuracy" in line
        assert "prefetched)" in line

    def test_data_cache_line_gives_the_mean_window(self, image, capsys):
        """Prefetch transfers are counted apart from the sectors they
        fetch, so the data-cache line gives the mean window without a
        tracer."""
        import re

        capsys.readouterr()
        assert main(["stats", image, "--ops", "40"]) == 0
        out = capsys.readouterr().out
        counters = dict(
            line.split() for line in out.splitlines()
            if line.strip().startswith("cache.data.readahead_")
        )
        issued = int(counters["cache.data.readahead_issued"])
        windows = int(counters["cache.data.readahead_windows"])
        assert 0 < windows < issued
        line = next(
            line for line in out.splitlines()
            if line.startswith("data cache: hit ratio")
        )
        match = re.search(
            r"of (\d+) prefetched\) in (\d+) windows "
            r"of ([\d.]+) sectors$",
            line,
        )
        assert match, line
        assert (int(match[1]), int(match[2])) == (issued, windows)
        assert float(match[3]) == pytest.approx(issued / windows, abs=0.05)

    def test_probe_does_not_save_image(self, image, capsys):
        from pathlib import Path

        before = Path(image).read_bytes()
        assert main(["stats", image, "--ops", "10"]) == 0
        assert Path(image).read_bytes() == before
        assert main(["stats", image, "--ops", "10", "--save"]) == 0
        assert Path(image).read_bytes() != before


class TestTrace:
    def test_text_tree_shows_nested_ops(self, image, capsys):
        capsys.readouterr()
        assert main(["trace", image, "--ops", "8"]) == 0
        out = capsys.readouterr().out
        assert "fsd.mount" in out
        assert "fsd.create" in out
        assert "commit.force" in out

    def test_json_timeline_validates(self, image, capsys):
        capsys.readouterr()
        assert main(["trace", image, "--ops", "8", "--json"]) == 0
        records = parse_jsonl(capsys.readouterr().out)
        assert validate_timeline(records) == []
        types = {r["type"] for r in records}
        assert types == {"span", "io"}
        starts = [r["start_ms"] for r in records]
        assert starts == sorted(starts)

    def test_json_out_file(self, image, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        assert main(
            ["trace", image, "--ops", "5", "--json", "--out", str(out_path)]
        ) == 0
        records = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
            if line.strip()
        ]
        assert validate_timeline(records) == []


class TestCrashcheckMetrics:
    def test_metrics_flag_prints_recovery_totals(self, capsys):
        assert (
            main(
                [
                    "crashcheck",
                    "--scenario",
                    "quickstart",
                    "--max-points",
                    "12",
                    "--quiet",
                    "--metrics",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "recovery metrics across" in out
        assert "recovery.records_replayed" in out
        assert "recovery.vam_rebuilds" in out
        assert "recovery.replay" in out and "spans" in out
