"""Tests for ``repro bench diff``: flattening, direction heuristics,
verdict classification, and the CLI exit contract."""

from __future__ import annotations

import json

from repro.harness.benchdiff import (
    cmd_bench_diff,
    diff,
    diff_lines,
    direction,
    flatten,
)


class _Args:
    def __init__(self, before, after, threshold=0.02, fail_over=None):
        self.before = before
        self.after = after
        self.threshold = threshold
        self.fail_over = fail_over


class TestFlatten:
    def test_nested_dicts_become_dotted_paths(self):
        flat = flatten({"a": {"b": {"c": 1}}, "d": 2.5})
        assert flat == {"a.b.c": 1.0, "d": 2.5}

    def test_lists_of_dicts_are_indexed(self):
        flat = flatten({"rows": [{"x": 1}, {"x": 2}]})
        assert flat == {"rows.0.x": 1.0, "rows.1.x": 2.0}

    def test_strings_and_bools_are_skipped(self):
        flat = flatten({"name": "bench", "ok": True, "n": 3})
        assert flat == {"n": 3.0}


class TestDirection:
    def test_latency_is_lower_better(self):
        assert direction("latency.p95_ms") == "lower"
        assert direction("run.elapsed_ms") == "lower"
        assert direction("cache.misses") == "lower"

    def test_throughput_is_higher_better(self):
        assert direction("throughput_ops_per_s") == "higher"
        assert direction("commit.batching_factor") == "higher"
        assert direction("cache.hit_ratio") == "higher"

    def test_identity_fields_are_neutral(self):
        assert direction("seed") == "neutral"
        assert direction("schema_version") == "neutral"
        assert direction("clients") == "neutral"

    def test_last_component_decides(self):
        # parent mentions latency, leaf is a count: neutral wins
        assert direction("latency.count") == "neutral"


class TestDiff:
    def test_small_moves_are_noise(self):
        rows = diff({"p95_ms": 100.0}, {"p95_ms": 101.0})
        assert rows == []

    def test_latency_up_is_a_regression(self):
        rows = diff({"p95_ms": 100.0}, {"p95_ms": 150.0})
        assert rows[0]["verdict"] == "regressed"
        assert rows[0]["change"] == 0.5

    def test_latency_down_is_an_improvement(self):
        rows = diff({"p95_ms": 100.0}, {"p95_ms": 50.0})
        assert rows[0]["verdict"] == "improved"

    def test_throughput_down_is_a_regression(self):
        rows = diff(
            {"throughput_ops_per_s": 200.0},
            {"throughput_ops_per_s": 100.0},
        )
        assert rows[0]["verdict"] == "regressed"

    def test_neutral_metric_is_changed(self):
        rows = diff({"seed": 1}, {"seed": 2}, threshold=0.0)
        assert rows[0]["verdict"] == "changed"

    def test_added_and_removed(self):
        rows = diff({"gone": 1.0}, {"new": 2.0})
        verdicts = {row["metric"]: row["verdict"] for row in rows}
        assert verdicts == {"gone": "removed", "new": "added"}

    def test_null_leaf_is_removed_or_added_never_judged(self):
        """``None`` means "no such measurement" (a mean over nothing):
        it must not read as 0 and so as a -100 % improvement."""
        measured, never = {"mean_ttr_ms": 8085.0}, {"mean_ttr_ms": None}
        [gone] = diff(measured, never)
        assert (gone["verdict"], gone["change"]) == ("removed", None)
        [back] = diff(never, measured)
        assert (back["verdict"], back["change"]) == ("added", None)
        assert diff(never, never) == []

    def test_chaos_doc_without_a_restored_slo_is_no_improvement(self):
        from repro.workloads.chaos import ChaosReport, chaos_bench_doc

        def doc(ttr):
            recovery = {"recover_ms": 1500.0, "time_to_restored_slo_ms": ttr}
            return chaos_bench_doc(ChaosReport(
                seed=1, clients=1, ops_issued=10, ops_completed=10,
                faults_injected=0, faults_by_kind={}, crashes=1,
                crashes_armed=1, volume_lost=False,
                traffic={"availability": {"recoveries": [recovery]}},
            ))

        assert doc(None)["mean_time_to_restored_slo_ms"] is None
        verdicts = {
            row["metric"]: row["verdict"] for row in diff(doc(8085.0), doc(None))
        }
        assert verdicts == {"mean_time_to_restored_slo_ms": "removed"}

    def test_regressions_sort_first_by_magnitude(self):
        rows = diff(
            {"a_ms": 10.0, "b_ms": 10.0, "c_ms": 10.0},
            {"a_ms": 12.0, "b_ms": 30.0, "c_ms": 5.0},
        )
        assert [row["metric"] for row in rows] == ["b_ms", "a_ms", "c_ms"]


class TestCli:
    def _write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_identical_documents_exit_zero(self, tmp_path, capsys):
        doc = {"p95_ms": 10.0}
        rc = cmd_bench_diff(_Args(
            self._write(tmp_path, "a.json", doc),
            self._write(tmp_path, "b.json", doc),
        ))
        assert rc == 0
        assert "no metric moved" in capsys.readouterr().out

    def test_regression_without_fail_over_still_exits_zero(
        self, tmp_path, capsys
    ):
        rc = cmd_bench_diff(_Args(
            self._write(tmp_path, "a.json", {"p95_ms": 10.0}),
            self._write(tmp_path, "b.json", {"p95_ms": 20.0}),
        ))
        assert rc == 0
        assert "!!" in capsys.readouterr().out

    def test_fail_over_gates_regressions(self, tmp_path, capsys):
        rc = cmd_bench_diff(_Args(
            self._write(tmp_path, "a.json", {"p95_ms": 10.0}),
            self._write(tmp_path, "b.json", {"p95_ms": 20.0}),
            fail_over=0.5,
        ))
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_fail_over_ignores_improvements(self, tmp_path, capsys):
        rc = cmd_bench_diff(_Args(
            self._write(tmp_path, "a.json", {"p95_ms": 20.0}),
            self._write(tmp_path, "b.json", {"p95_ms": 10.0}),
            fail_over=0.1,
        ))
        assert rc == 0


class TestLines:
    def test_marks_and_summary(self):
        rows = diff({"p95_ms": 10.0, "hit_ratio": 0.5},
                    {"p95_ms": 20.0, "hit_ratio": 0.9})
        lines = diff_lines(rows, 0.02)
        text = "\n".join(lines)
        assert "!! p95_ms" in text
        assert "ok hit_ratio" in text
        assert "1 regressed" in text and "1 improved" in text
