"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import argparse
import hashlib

import pytest

from repro.__main__ import build_parser, main
from repro.core.layout import VolumeLayout
from repro.disk.image import load_disk, save_disk
from repro.harness.scenarios import SMALL
from repro.serial import Packer
from tests.conftest import vam_logging_root


@pytest.fixture
def image(tmp_path) -> str:
    path = str(tmp_path / "vol.img")
    assert main(["mkfs", path]) == 0
    return path


class TestMkfs:
    def test_creates_image(self, tmp_path, capsys):
        path = str(tmp_path / "new.img")
        assert main(["mkfs", path]) == 0
        out = capsys.readouterr().out
        assert "formatted" in out


class TestPutGetLsRm:
    def test_roundtrip(self, image, tmp_path, capsys):
        source = tmp_path / "hello.txt"
        source.write_bytes(b"hello cedar cli")
        assert main(["put", image, str(source), "doc/hello.txt"]) == 0
        target = tmp_path / "out.txt"
        assert main(["get", image, "doc/hello.txt", str(target)]) == 0
        assert target.read_bytes() == b"hello cedar cli"

    def test_ls(self, image, tmp_path, capsys):
        source = tmp_path / "a"
        source.write_bytes(b"data")
        main(["put", image, str(source), "dir/a"])
        main(["put", image, str(source), "dir/b"])
        capsys.readouterr()
        assert main(["ls", image, "dir/"]) == 0
        out = capsys.readouterr().out
        assert "dir/a" in out and "dir/b" in out
        assert "2 file(s)" in out

    def test_rm(self, image, tmp_path, capsys):
        source = tmp_path / "a"
        source.write_bytes(b"data")
        main(["put", image, str(source), "victim"])
        assert main(["rm", image, "victim"]) == 0
        capsys.readouterr()
        main(["ls", image])
        assert "victim" not in capsys.readouterr().out

    def test_get_missing_file(self, image, capsys):
        assert main(["get", image, "ghost"]) == 2
        assert "error" in capsys.readouterr().err

    def test_versions_accumulate(self, image, tmp_path, capsys):
        source = tmp_path / "a"
        source.write_bytes(b"v1")
        main(["put", image, str(source), "f"])
        source.write_bytes(b"v2!")
        main(["put", image, str(source), "f"])
        capsys.readouterr()
        target = tmp_path / "out"
        main(["get", image, "f", str(target)])
        assert target.read_bytes() == b"v2!"


class TestCrashRecovery:
    def test_crash_then_recover(self, image, tmp_path, capsys):
        source = tmp_path / "a"
        source.write_bytes(b"survives the crash")
        assert main(["put", image, str(source), "keep"]) == 0
        source.write_bytes(b"crashy write")
        assert main(["put", image, str(source), "crashy", "--crash"]) == 0
        capsys.readouterr()
        # Next command recovers the dirty volume.
        assert main(["ls", image]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "keep" in out

    def test_info_and_verify(self, image, tmp_path, capsys):
        source = tmp_path / "a"
        source.write_bytes(b"x" * 2_000)
        main(["put", image, str(source), "checked"])
        capsys.readouterr()
        assert main(["info", image]) == 0
        out = capsys.readouterr().out
        assert "geometry" in out and "files    : 1" in out
        assert main(["verify", image]) == 0
        assert "volume is clean" in capsys.readouterr().out


class TestCliEdges:
    def test_put_missing_local_file(self, image, capsys):
        assert main(["put", image, "/nonexistent/file", "x"]) == 2
        assert "error" in capsys.readouterr().err

    def test_get_to_stdout(self, image, tmp_path, capsys):
        source = tmp_path / "a"
        source.write_bytes(b"to-stdout")
        main(["put", image, str(source), "f"])
        capsys.readouterr()
        assert main(["get", image, "f"]) == 0

    def test_rm_missing(self, image, capsys):
        assert main(["rm", image, "ghost"]) == 2

    def test_load_garbage_image(self, tmp_path, capsys):
        path = tmp_path / "junk.img"
        path.write_bytes(b"not an image")
        assert main(["ls", str(path)]) == 2

    def test_previous_format_image_is_refused(self, image, tmp_path, capsys):
        """An image formatted before the "FSD2" placement: every
        mounting command and ``salvage`` say so and exit 2."""
        disk = load_disk(image)
        layout = VolumeLayout.compute(disk.geometry, SMALL.fsd_params)
        for address in (layout.root_a, layout.root_b):
            body = disk.peek(address)[4:]
            disk.poke(address, Packer().u32(0x46534431).bytes() + body)
        save_disk(disk, image)
        rebuilt = tmp_path / "rebuilt.img"
        for command in (
            ["ls", image], ["info", image], ["verify", image],
            ["stats", image], ["salvage", image, str(rebuilt)],
        ):
            capsys.readouterr()
            assert main(command) == 2
            err = capsys.readouterr().err
            assert "FSD1" in err and "FSD2" in err and "re-format" in err
        assert not rebuilt.exists()

    def test_vam_logging_image_is_refused(self, image, capsys):
        """An image formatted with VAM logging: the mounting commands
        say so and exit 2, and the image is left as it was."""
        disk = load_disk(image)
        layout = VolumeLayout.compute(disk.geometry, SMALL.fsd_params)
        for address in (layout.root_a, layout.root_b):
            disk.poke(address, vam_logging_root(disk.peek(address)))
        save_disk(disk, image)
        with open(image, "rb") as handle:
            before = handle.read()
        for command in (["ls", image], ["info", image], ["verify", image]):
            capsys.readouterr()
            assert main(command) == 2
            err = capsys.readouterr().err
            assert "VAM logging" in err and "re-format" in err
        with open(image, "rb") as handle:
            assert handle.read() == before

    def test_t300_size(self, tmp_path, capsys):
        path = str(tmp_path / "big.img")
        assert main(["mkfs", path, "--size", "t300"]) == 0
        out = capsys.readouterr().out
        # ~306 MB (291 MiB) Trident-class volume.
        assert "291 MB" in out


class TestCrashcheck:
    def test_list_scenarios(self, capsys):
        assert main(["crashcheck", "--list"]) == 0
        out = capsys.readouterr().out
        assert "quickstart" in out and "churn" in out and "wrap" in out

    def test_bounded_sweep_passes(self, capsys):
        assert (
            main(["crashcheck", "--scenario", "quickstart", "--max-points", "30"])
            == 0
        )
        out = capsys.readouterr().out
        assert "all recovery oracles passed" in out
        assert "30 selected" in out

    def test_exit_nonzero_on_oracle_failure(self, monkeypatch, capsys):
        import repro.core.recovery as recovery

        monkeypatch.setattr(recovery, "TEST_DROP_LAST_RECORD", True)
        assert (
            main(["crashcheck", "--scenario", "quickstart", "--max-points", "60"])
            == 1
        )
        out = capsys.readouterr().out
        assert "VIOLATION" in out
        assert "violation(s)" in out


class TestMountFlags:
    """Every mounting subcommand takes the three mount flags through
    the one ``add_mount_arguments`` / ``mount_options`` pair."""

    MOUNTING = {
        "put": ["put", "v.img", "local", "name"],
        "get": ["get", "v.img", "name"],
        "ls": ["ls", "v.img"],
        "rm": ["rm", "v.img", "name"],
        "info": ["info", "v.img"],
        "verify": ["verify", "v.img"],
        "traffic": ["traffic", "v.img"],
        "chaos": ["chaos"],
        "stats": ["stats", "v.img"],
        "trace": ["trace", "v.img"],
        "crashcheck": ["crashcheck"],
    }

    @pytest.mark.parametrize("command", sorted(MOUNTING))
    def test_namespace_maps_onto_mount_options(self, command):
        from repro.core.fsd import MountOptions
        from repro.mount_cli import mount_options

        parser = build_parser()
        argv = self.MOUNTING[command]
        assert mount_options(parser.parse_args(argv)) == MountOptions()
        flags = ["--data-cache-pages", "8",
                 "--readahead", "0", "--checkpoint-ms", "250"]
        assert mount_options(parser.parse_args(argv + flags)) == MountOptions(
            data_cache_pages=8,
            readahead_pages=0,
            checkpoint_interval_ms=250.0,
        )

    def test_declared_flags_are_exactly_the_three(self):
        import argparse

        from repro.mount_cli import add_mount_arguments

        parser = argparse.ArgumentParser(add_help=False)
        add_mount_arguments(parser)
        declared = {
            flag for action in parser._actions
            for flag in action.option_strings
        }
        assert declared == {
            "--data-cache-pages", "--readahead", "--checkpoint-ms",
        }

    @pytest.mark.parametrize(
        "command", ["ls", "traffic", "chaos", "crashcheck"]
    )
    def test_no_dispatch_order_flag(self, command, capsys):
        """``--sched`` went with the reordering policies: argparse
        refuses it on every subcommand that mounts."""
        with pytest.raises(SystemExit) as refused:
            main(self.MOUNTING[command] + ["--sched", "scan"])
        assert refused.value.code == 2
        assert "--sched" in capsys.readouterr().err

    def test_chaos_readahead_reaches_the_mount(self, tmp_path):
        """``repro chaos --readahead N`` used to be parsed and dropped."""
        campaign = ["chaos", "--quiet", "--clients", "6", "--ops", "6",
                    "--faults", "10", "--crashes", "1"]
        default, paper = tmp_path / "default.json", tmp_path / "paper.json"
        assert main(campaign + ["--json", str(default)]) == 0
        assert main(campaign + ["--readahead", "0", "--json", str(paper)]) == 0
        assert default.read_bytes() != paper.read_bytes()

    def test_chaos_profile_fixes_the_campaign_but_not_the_seed(self, tmp_path):
        """``--profile churn`` overrides the traffic and fault flags;
        ``--seed`` still picks the campaign."""
        reports = {}
        for name, extra in (("one", []), ("flags", ["--clients", "9"]),
                            ("other", ["--seed", "2"])):
            path = tmp_path / f"{name}.json"
            argv = ["chaos", "--quiet", "--profile", "churn", "--seed", "1"]
            assert main(argv + extra + ["--json", str(path)]) == 0
            reports[name] = path.read_bytes()
        assert reports["one"] == reports["flags"]
        assert reports["one"] != reports["other"]
        assert b'"clients": 1,' in reports["one"]


def _interface(
    parser: argparse.ArgumentParser, command: str = "", summary: str = ""
) -> dict:
    """Subcommand (``"bench diff"`` for a nested one) -> sha256 prefix
    of what it declares: its one-line help, description and every
    argument's flags, destination, arity, choices, default, type,
    metavar and help.  Unlike ``--help`` text this does not vary with
    the Python version."""
    rows, out = [summary, parser.description], {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {c.dest: c.help for c in action._choices_actions}
            for name, child in action.choices.items():
                out.update(_interface(
                    child, f"{command} {name}".strip(), helps[name]
                ))
            rows.append(sorted(action.choices))
            continue
        rows.append((
            type(action).__name__, action.option_strings, action.dest,
            action.nargs, sorted(action.choices) if action.choices else None,
            action.default, getattr(action.type, "__name__", None),
            action.metavar, action.help,
        ))
    if command:
        out[command] = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    return out


class TestSubcommands:
    """``repro profile`` was deleted: the traced ``benchmarks/e2e`` run
    reports host time per layer, and ``python -m cProfile`` is in the
    standard library.  ``repro soak`` went too: its campaign is
    ``repro chaos --profile churn``.  No other subcommand changed."""

    #: ``_interface(build_parser())`` of the last commit that had
    #: ``profile``, less that one entry, with the default of every
    #: mounting subcommand's ``--readahead`` since moved from 16 to 30
    #: (``DEFAULT_READAHEAD_PAGES``, one track), ``crashcheck
    #: --scenario`` since offering ``keep_trim``, ``soak`` since gone
    #: and ``chaos`` since taking ``--profile``.
    INTERFACE = {
        "mkfs": "8ea9183f2e281398",
        "put": "ee5d3617c2482127",
        "get": "c588e62002354845",
        "ls": "8d56ab26c871f5f5",
        "rm": "9b504e05aa5ca8fd",
        "info": "ca60a116ee5a5161",
        "verify": "2f6e437f0d272438",
        "salvage": "fc43f319302b1b74",
        "traffic": "4602bdc6694291b1",
        "chaos": "ec27066fccf939ac",
        "crashcheck": "e721690de2ccf9b6",
        "stats": "8bf4b3fcd7b98173",
        "trace": "eddd5fa8a1315791",
        "bench": "0364525dcac157d1",
        "bench diff": "b7037bfe6d6d9b3d",
    }

    def test_profile_is_refused(self, capsys):
        with pytest.raises(SystemExit) as refused:
            main(["profile", "makedo"])
        assert refused.value.code == 2
        assert "'profile'" in capsys.readouterr().err

    def test_soak_is_refused(self, capsys):
        with pytest.raises(SystemExit) as refused:
            main(["soak"])
        assert refused.value.code == 2
        assert "'soak'" in capsys.readouterr().err

    def test_help_does_not_list_profile(self, capsys):
        with pytest.raises(SystemExit) as shown:
            main(["--help"])
        assert shown.value.code == 0
        assert "profile" not in capsys.readouterr().out

    def test_other_subcommands_are_unchanged(self):
        assert _interface(build_parser()) == self.INTERFACE
