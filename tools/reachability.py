"""Which functions of ``src/repro`` does anything but the test suite reach?

Usage: python tools/reachability.py [out.json]

Runs every entry point of the program, each in a child interpreter, and
records which ``src/repro`` functions it called:

* the nine ``examples/``;
* ``tools/capture_fingerprints.py``, default and ``--readahead 0``;
* ``pytest --benchmark-disable benchmarks`` (the e2e smoke test too);
* ``tests/test_cli.py`` and ``tests/obs/test_cli.py``;
* the commands of ``.github/workflows/ci.yml`` other than its three
  test-suite runs;
* each CLI subcommand, with and without ``--json`` / ``--attrib``;
* the five ``benchmarks/e2e`` workloads with ``--trace 1``.

Then it runs the tier-1 suite (``pytest tests``) the same way and joins
both record sets to the ``def`` statements of ``src/repro`` by (file,
first line counting decorators, name) — what a code object carries as
``co_filename``, ``co_firstlineno`` and ``co_name``.  A definition no
entry point reached is listed with its length in lines and whether a test
reached it; a definition nested in one already listed is not counted
again.

Two traps decide how calls are recorded.  ``cProfile.enable()``
replaces any ``sys.setprofile`` hook, and the e2e harness and several
tests profile, so the recorder is a ``sys.settrace`` /
``threading.settrace`` hook; a ``sitecustomize`` module put first on
``PYTHONPATH`` installs it, so child processes (the e2e runner's
``measure.py``, the smoke test's ``run.py``) record as well.
pytest-benchmark's ``pedantic`` switches every tracer off around the
benchmarked body, so the benchmarks run with ``--benchmark-disable``.

Every file an entry point writes goes to a temporary directory.  The whole
run takes about ten minutes on a 2-core box; a wall-clock gate may
fail under the tracer, and the tail of any failing command is printed.

``tools/reachability_baseline.json`` holds the audit as committed: every
definition no entry point reaches, each with the ``reason`` it stays
(one of ``REASONS``).  When that file exists the run prints its drift
against it (definitions newly unreached, newly reached, or whose length
or test reach changed) and exits 1 if a definition the baseline does
not list is now unreached.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"
BASELINE = REPO / "tools" / "reachability_baseline.json"

#: why a definition may stay unreached by every entry point.
REASONS = {
    "fault-path": "an error or rare path no driver triggers",
    "fake": "a test double's surface",
    "reference": "the reference a fast path is tested against",
    "test-api": "a read-only view tests use instead of private state",
    "frozen-by-e2e": "named by benchmarks/e2e, which only a benchmark "
                     "change may edit",
    "protocol": "a protocol or base-class stub",
    "awaiting-driver": "real behaviour a ROADMAP direction will drive",
}

E2E_WORKLOADS = ("makedo_build", "traffic_steady", "traffic_burst",
                 "read_stream", "crash_recovery")

EXAMPLES = ("crash_recovery_demo", "fault_injection_tour",
            "group_commit_tuning", "in_place_update", "makedo_build",
            "performance_model", "quickstart", "remote_caching",
            "trace_analysis")

#: written into the child interpreters' ``sitecustomize``: keep every
#: code object a call event names, write the package's ones at exit.
SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_seen = set()
_add = _seen.add


def _record(frame, event, arg):
    _add(frame.f_code)


def _dump():
    sys.settrace(None)
    prefix = {package!r}
    lines = sorted({{
        f"{{os.path.realpath(code.co_filename)}}\\t"
        f"{{code.co_firstlineno}}\\t{{code.co_name}}"
        for code in _seen
        if os.path.realpath(code.co_filename).startswith(prefix)
    }})
    if lines:
        name = f"{{os.getpid()}}-{{id(_seen):x}}.txt"
        with open(os.path.join({records!r}, name), "w") as fh:
            fh.write("\\n".join(lines) + "\\n")


sys.settrace(_record)
threading.settrace(_record)
atexit.register(_dump)
'''


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def repro(*args: str) -> list[str]:
    return python("-m", "repro", *args)


def pytest(*args: str) -> list[str]:
    return python("-m", "pytest", "-q", "-p", "no:cacheprovider", *args)


def entry_points(work: Path) -> dict[str, list[tuple[list[str], dict]]]:
    """Every entry point by group: ``(argv, extra environment)`` pairs, run
    in order from ``work`` (the CLI commands share its images)."""
    bench_outs = {
        "BENCH_ATTRIB_OUT": str(work / "attrib.json"),
        "BENCH_CHAOS_OUT": str(work / "chaos_bench.json"),
        "BENCH_CONCURRENCY_OUT": str(work / "concurrency.json"),
        "BENCH_DATA_CACHE_OUT": str(work / "data_cache.json"),
        "BENCH_RUNTIME_OUT": str(work / "runtime.json"),
    }
    bench = str(REPO / "benchmarks")
    baselines = REPO / "benchmarks" / "baselines"
    local = str(work / "local.txt")
    return {
        "examples": [
            (python(str(REPO / "examples" / f"{name}.py")), {})
            for name in EXAMPLES
        ],
        "fingerprints": [
            (python(str(REPO / "tools" / "capture_fingerprints.py"),
                    str(work / "fp.json")), {}),
            (python(str(REPO / "tools" / "capture_fingerprints.py"),
                    str(work / "fp_paper.json"), "--readahead", "0"), {}),
        ],
        "benchmarks": [
            (pytest("--benchmark-disable", bench), bench_outs),
        ],
        "cli tests": [
            (pytest(str(REPO / "tests" / "test_cli.py"),
                    str(REPO / "tests" / "obs" / "test_cli.py")), {}),
        ],
        "ci": [
            (repro("crashcheck", "--scenario", "quickstart",
                   "--max-points", "50"), {}),
            (repro("crashcheck", "--scenario", "concurrent_burst",
                   "--max-points", "50"), {}),
            (repro("crashcheck", "--scenario", "concurrent_burst",
                   "--data-cache-pages", "16", "--checkpoint-ms", "250",
                   "--max-points", "50"), {}),
            (repro("crashcheck", "--scenario", "mid_checkpoint",
                   "--data-cache-pages", "16"), {}),
            (repro("crashcheck", "--scenario", "keep_trim",
                   "--data-cache-pages", "16"), {}),
            (pytest("--benchmark-disable", "-s",
                    f"{bench}/test_data_cache.py"),
             {**bench_outs, "BENCH_DATA_CACHE_SCALE": "small",
              "BENCH_DATA_CACHE_MODULES": "6",
              "BENCH_DATA_CACHE_BASELINE":
                  str(baselines / "BENCH_data_cache_small.json")}),
            (pytest("--benchmark-disable", "-s",
                    f"{bench}/test_concurrency.py"),
             {**bench_outs, "BENCH_CONCURRENCY_SCALE": "small",
              "BENCH_CONCURRENCY_OPS": "1200",
              "BENCH_CONCURRENCY_BASELINE":
                  str(baselines / "BENCH_concurrency_small.json")}),
            (pytest("--benchmark-disable", "-s",
                    f"{bench}/test_attribution_overhead.py"),
             {**bench_outs, "BENCH_ATTRIB_OPS": "600",
              "BENCH_ATTRIB_ROUNDS": "5",
              "BENCH_ATTRIB_OVERHEAD_LIMIT": "1.15"}),
            (pytest("--benchmark-disable", "-s",
                    f"{bench}/test_runtime.py"), bench_outs),
            (repro("bench", "diff", str(REPO / "BENCH_runtime.json"),
                   bench_outs["BENCH_RUNTIME_OUT"], "--threshold", "0.10",
                   "--fail-over", "1.50"), {}),
            (pytest("--benchmark-disable", "-s",
                    f"{bench}/test_recovery_times.py",
                    f"{bench}/test_double_write_ablation.py",
                    f"{bench}/test_robustness_matrix.py"), bench_outs),
            (repro("chaos", "--quiet", "--profile", "churn", "--seed", "1",
                   "--json", "chaos-churn-1.json"), {}),
            (repro("chaos", "--quiet", "--profile", "churn", "--seed", "12",
                   "--json", "chaos-churn-12.json"), {}),
            (repro("chaos", "--quiet", "--json", "chaos-report.json",
                   "--bench", "BENCH_chaos_ci.json"), {}),
            (repro("chaos", "--quiet", "--mirror", "--seed", "2024",
                   "--json", "chaos-mirror.json"), {}),
            (repro("bench", "diff", str(REPO / "BENCH_chaos.json"),
                   "BENCH_chaos_ci.json", "--threshold", "0.05",
                   "--fail-over", "0.0"), {}),
        ],
        "cli": [
            (repro("--help"), {}),
            (repro("mkfs", "v.img"), {}),
            (repro("mkfs", "t300.img", "--size", "t300"), {}),
            (repro("put", "v.img", local, "doc/a"), {}),
            (repro("put", "v.img", local, "doc/a"), {}),
            (repro("put", "v.img", local, "doc/b", "--crash"), {}),
            (repro("ls", "v.img"), {}),
            (repro("ls", "v.img", "doc/"), {}),
            (repro("get", "v.img", "doc/a", str(work / "out.txt")), {}),
            (repro("get", "v.img", "doc/a"), {}),
            (repro("info", "v.img"), {}),
            (repro("verify", "v.img"), {}),
            (repro("rm", "v.img", "doc/a"), {}),
            (repro("salvage", "v.img", "rebuilt.img"), {}),
            (repro("stats", "v.img"), {}),
            (repro("stats", "v.img", "--json"), {}),
            (repro("trace", "v.img"), {}),
            (repro("trace", "v.img", "--json"), {}),
            (repro("trace", "v.img", "--folded", "--out", "folded.txt"), {}),
            (repro("traffic", "v.img"), {}),
            (repro("traffic", "v.img", "--json"), {}),
            (repro("traffic", "v.img", "--attrib", "--slo-ms", "50"), {}),
            (repro("crashcheck", "--list"), {}),
            (repro("crashcheck", "--max-points", "20", "--metrics"), {}),
            (repro("chaos", "--profile", "churn"), {}),
            (repro("chaos"), {}),
            (repro("bench", "diff", str(REPO / "BENCH_chaos.json"),
                   str(REPO / "BENCH_chaos.json")), {}),
        ],
        "e2e": [
            (python(str(REPO / "benchmarks" / "e2e" / "run.py"),
                    "--workload", name, "--seed", "1", "--seconds", "10",
                    "--trace", "1"), {})
            for name in E2E_WORKLOADS
        ],
        "tests": [
            (pytest(str(REPO / "tests")), {}),
        ],
    }


def record(group: str, commands, work: Path, hook: Path, records: Path):
    """Run one group's commands under the recorder; returns
    ``(reached keys, [(command, exit status, seconds)])``."""
    for stale in records.iterdir():
        stale.unlink()
    runs = []
    for argv, extra in commands:
        env = dict(os.environ, **extra)
        env["PYTHONPATH"] = os.pathsep.join([str(hook), str(SRC)])
        started = time.monotonic()
        done = subprocess.run(argv, cwd=work, env=env, text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)
        seconds = time.monotonic() - started
        shown = " ".join(Path(a).name if a == sys.executable else a
                         for a in argv)
        runs.append((shown, done.returncode, round(seconds, 1)))
        print(f"  [{group}] exit {done.returncode} {seconds:6.1f} s  {shown}",
              flush=True)
        if done.returncode:
            # Wall-clock gates can trip under the tracer; say which.
            for line in done.stdout.splitlines()[-12:]:
                print(f"      | {line}")
    reached = set()
    for path in records.iterdir():
        for line in path.read_text().splitlines():
            filename, first, name = line.split("\t")
            reached.add((filename, int(first), name))
    return reached, runs


def definitions(path: Path):
    """Every ``def`` of a module, outermost first: ``(key, qualname,
    lines, parent key or None)``."""
    tree = ast.parse(path.read_text(), str(path))
    filename = str(path.resolve())
    out = []

    def visit(node, prefix: str, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                key = (filename, first, child.name)
                qualname = prefix + child.name
                out.append((key, qualname, child.end_lineno - first + 1,
                            parent))
                visit(child, qualname + ".<locals>.", key)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", parent)
            else:
                visit(child, prefix, parent)

    visit(tree, "", None)
    return out


def join(reached: set, tested: set) -> tuple[list[dict], int, int]:
    """The outermost definitions no entry point reached, and the count and
    length of all definitions."""
    unreached, listed = [], set()
    count = lines = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        for key, qualname, length, parent in definitions(path):
            count += 1
            lines += length if parent is None else 0
            if key in reached:
                continue
            listed.add(key)
            if parent in listed:
                continue
            unreached.append({
                "file": str(path.relative_to(SRC)),
                "line": key[1],
                "name": qualname,
                "lines": length,
                "tests": key in tested,
            })
    return unreached, count, lines


def drift(unreached: list[dict], baseline: dict) -> list[dict]:
    """Print how ``unreached`` differs from the committed baseline;
    returns the definitions the baseline does not list."""
    known = {(e["file"], e["name"]): e for e in baseline["unreached"]}
    now = {(e["file"], e["name"]): e for e in unreached}
    new = [entry for key, entry in now.items() if key not in known]
    for entry in new:
        print(f"NEW unreached: {entry['file']} {entry['name']} "
              f"({entry['lines']} lines, "
              f"{'tests' if entry['tests'] else 'nothing'} reach it)")
    for key, entry in known.items():
        if key not in now:
            print(f"now reached: {entry['file']} {entry['name']} "
                  f"(baseline: {entry['reason']})")
        elif (now[key]["lines"], now[key]["tests"]) != (
                entry["lines"], entry["tests"]):
            print(f"changed: {entry['file']} {entry['name']} "
                  f"{entry['lines']} -> {now[key]['lines']} lines, tests "
                  f"{entry['tests']} -> {now[key]['tests']}")
    print(f"drift against {BASELINE.name}: {len(new)} new, "
          f"{sum(key not in now for key in known)} now reached")
    return new


def main() -> int:
    out = Path(sys.argv[1] if len(sys.argv) > 1 else "reachability.json")
    if len(sys.argv) > 2 or out.name.startswith("-"):
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="reachability-") as temp:
        temp = Path(temp)
        hook, records, work = temp / "hook", temp / "records", temp / "work"
        for directory in (hook, records, work):
            directory.mkdir()
        (work / "local.txt").write_text("hello\n" * 300)
        (hook / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
            package=str(PACKAGE.resolve()), records=str(records)))
        reached: set = set()
        tested: set = set()
        commands: dict[str, list] = {}
        for group, group_commands in entry_points(work).items():
            keys, runs = record(group, group_commands, work, hook, records)
            (tested if group == "tests" else reached).update(keys)
            commands[group] = runs
    unreached, count, lines = join(reached, tested)
    tests_only = [d for d in unreached if d["tests"]]
    nothing = [d for d in unreached if not d["tests"]]
    document = {
        "definitions": count,
        "lines": lines,
        "unreached_outside_tests": len(unreached),
        "tests_only_lines": sum(d["lines"] for d in tests_only),
        "nothing_lines": sum(d["lines"] for d in nothing),
        "commands": commands,
        "unreached": unreached,
    }
    out.write_text(json.dumps(document, indent=1) + "\n")
    for entry in unreached:
        print(f"{entry['file']}:{entry['line']:<5} {entry['lines']:>4} lines "
              f"{'tests' if entry['tests'] else 'none '}  {entry['name']}")
    failed = [run for runs in commands.values() for run in runs if run[1]]
    print(f"{len(unreached)} of {count} definitions reached by no entry "
          f"point: {document['tests_only_lines']} lines reached by tests only, "
          f"{document['nothing_lines']} by nothing; "
          f"{len(failed)} command(s) exited non-zero; wrote {out}")
    if BASELINE.exists() and drift(unreached,
                                   json.loads(BASELINE.read_text())):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
