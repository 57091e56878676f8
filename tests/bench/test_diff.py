"""repro-bench-diff: the crypto-op regression gate and its CLI."""

import json

import pytest

from repro.bench.diff import (BENCH_OPS_TOLERANCE, DEFAULT_OPS_MIN_COUNT,
                              diff_benches, format_deltas, load_bench, main)


def _write_bench(directory, name, payload):
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _entry(ops, mean_s=0.01):
    return {"timing": {"mean_s": mean_s, "p50_s": mean_s,
                       "p95_s": mean_s * 1.5, "ops_per_s": 1.0 / mean_s,
                       "rounds": 5},
            "crypto_ops": ops}


_META = {"git_commit": "deadbeefcafe1234", "timestamp_utc":
         "2026-08-08T00:00:00+00:00", "python": "3.11.0",
         "smoke": "1", "shards": ""}


@pytest.fixture
def dirs(tmp_path):
    baseline = tmp_path / "baseline"
    current = tmp_path / "current"
    baseline.mkdir()
    current.mkdir()
    return baseline, current


class TestDiffBenches:
    def test_identical_runs_produce_no_deltas(self, dirs):
        baseline, current = dirs
        payload = {"test_search": _entry({"chain_step": 1000, "hmac": 50})}
        base = _write_bench(baseline, "table1_search", payload)
        cur = _write_bench(current, "table1_search", payload)
        assert diff_benches({"table1_search": base},
                            {"table1_search": cur}) == []

    def test_20pct_chain_step_growth_is_gated_regression(self, dirs):
        baseline, current = dirs
        base = _write_bench(baseline, "table1_search",
                            {"test_search": _entry({"chain_step": 1000})})
        cur = _write_bench(current, "table1_search",
                           {"test_search": _entry({"chain_step": 1200})})
        deltas = diff_benches({"table1_search": base},
                              {"table1_search": cur})
        [delta] = deltas
        assert delta.metric == "ops.chain_step"
        assert delta.gated and delta.regressed
        assert delta.change == pytest.approx(0.20)

    def test_growth_below_absolute_floor_never_gates(self, dirs):
        # 3 -> 5 calls is +67% but under the 32-call floor: noise.
        baseline, current = dirs
        base = _write_bench(baseline, "table1_search",
                            {"test_search": _entry({"modexp": 3})})
        cur = _write_bench(current, "table1_search",
                           {"test_search": _entry({"modexp": 5})})
        [delta] = diff_benches({"table1_search": base},
                               {"table1_search": cur})
        assert not delta.regressed
        assert delta.current - delta.baseline < DEFAULT_OPS_MIN_COUNT

    def test_op_shrinking_reports_but_never_gates(self, dirs):
        baseline, current = dirs
        base = _write_bench(baseline, "table1_search",
                            {"test_search": _entry({"hmac": 1000})})
        cur = _write_bench(current, "table1_search",
                           {"test_search": _entry({"hmac": 500})})
        [delta] = diff_benches({"table1_search": base},
                               {"table1_search": cur})
        assert not delta.regressed  # improvements pass the gate

    def test_new_op_above_floor_gates(self, dirs):
        baseline, current = dirs
        base = _write_bench(baseline, "table1_search",
                            {"test_search": _entry({"hmac": 100})})
        cur = _write_bench(current, "table1_search",
                           {"test_search": _entry({"hmac": 100,
                                                   "modexp": 64})})
        [delta] = diff_benches({"table1_search": base},
                               {"table1_search": cur})
        assert delta.metric == "ops.modexp"
        assert delta.regressed
        assert delta.note == "new op"

    def test_scheduling_sensitive_bench_gets_wider_tolerance(self, dirs):
        baseline, current = dirs
        grown = {"test_clients": _entry({"prf_eval": 1300})}
        base_doc = {"test_clients": _entry({"prf_eval": 1000})}
        base = _write_bench(baseline, "concurrent_clients", base_doc)
        cur = _write_bench(current, "concurrent_clients", grown)
        # +30% would gate a tight bench but stays inside the 50% override.
        assert "concurrent_clients" in BENCH_OPS_TOLERANCE
        [delta] = diff_benches({"concurrent_clients": base},
                               {"concurrent_clients": cur})
        assert not delta.regressed
        base2 = _write_bench(baseline, "table1_search", base_doc)
        cur2 = _write_bench(current, "table1_search", grown)
        [delta2] = diff_benches({"table1_search": base2},
                                {"table1_search": cur2})
        assert delta2.regressed

    def test_missing_bench_and_test_gate(self, dirs):
        baseline, current = dirs
        base = _write_bench(baseline, "table1_search",
                            {"test_a": _entry({"hmac": 10}),
                             "test_b": _entry({"hmac": 10})})
        cur = _write_bench(current, "table1_search",
                           {"test_a": _entry({"hmac": 10})})
        gone_base = _write_bench(baseline, "forward_privacy",
                                 {"test_fp": _entry({"hmac": 10})})
        deltas = diff_benches(
            {"table1_search": base, "forward_privacy": gone_base},
            {"table1_search": cur})
        notes = {d.note for d in deltas if d.regressed}
        assert notes == {"bench missing from current run",
                         "test missing from current run"}

    def test_meta_keys_and_new_tests_are_informational(self, dirs):
        baseline, current = dirs
        base = _write_bench(baseline, "table1_search",
                            {"test_a": _entry({"hmac": 10}),
                             "_meta": _META})
        cur = _write_bench(current, "table1_search",
                           {"test_a": _entry({"hmac": 10}),
                            "test_new": _entry({"hmac": 99}),
                            "_meta": dict(_META, git_commit="0000")})
        deltas = diff_benches({"table1_search": base},
                              {"table1_search": cur})
        [delta] = deltas  # _meta never compared; the new test is info-only
        assert delta.note == "new test (no baseline)"
        assert not delta.gated and not delta.regressed

    def test_timing_informational_by_default_gated_on_request(self, dirs):
        baseline, current = dirs
        base = _write_bench(baseline, "table1_search",
                            {"test_a": _entry({}, mean_s=0.010)})
        cur = _write_bench(current, "table1_search",
                           {"test_a": _entry({}, mean_s=0.020)})
        pair = ({"table1_search": base}, {"table1_search": cur})
        informational = diff_benches(*pair)
        assert informational and not any(d.regressed for d in informational)
        gated = diff_benches(*pair, gate_timing=True)
        regressed = {d.metric for d in gated if d.regressed}
        assert "timing.mean_s" in regressed
        assert "timing.ops_per_s" in regressed  # halved throughput


class TestFormatting:
    def test_delta_table_flags_regressions(self, dirs):
        baseline, current = dirs
        base = _write_bench(baseline, "table1_search",
                            {"test_a": _entry({"chain_step": 1000})})
        cur = _write_bench(current, "table1_search",
                           {"test_a": _entry({"chain_step": 1500})})
        table = format_deltas(diff_benches({"table1_search": base},
                                           {"table1_search": cur}))
        assert "REGRESSED" in table
        assert "+50.0%" in table

    def test_empty_diff_prints_clean_line(self):
        assert "no differences" in format_deltas([])

    def test_load_bench_rejects_non_object(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_bench(str(path))


class TestCli:
    def _args(self, baseline, current, *extra):
        return ["--baseline-dir", str(baseline),
                "--current-dir", str(current), *extra]

    def test_exit_zero_on_clean_compare(self, dirs, capsys):
        baseline, current = dirs
        payload = {"test_a": _entry({"chain_step": 1000}), "_meta": _META}
        _write_bench(baseline, "table1_search", payload)
        _write_bench(current, "table1_search", payload)
        assert main(self._args(baseline, current)) == 0
        out = capsys.readouterr().out
        assert "no gated regressions" in out
        assert "commit deadbeefcafe" in out

    def test_exit_one_on_injected_chain_step_regression(
            self, dirs, capsys, tmp_path):
        baseline, current = dirs
        _write_bench(baseline, "table1_search",
                     {"test_a": _entry({"chain_step": 1000})})
        _write_bench(current, "table1_search",
                     {"test_a": _entry({"chain_step": 1200})})  # +20%
        out_path = tmp_path / "deltas.txt"
        json_path = tmp_path / "deltas.json"
        code = main(self._args(baseline, current,
                               "--output", str(out_path),
                               "--json", str(json_path)))
        assert code == 1
        assert "1 gated regression(s)" in capsys.readouterr().out
        assert "REGRESSED" in out_path.read_text()
        doc = json.loads(json_path.read_text())
        assert doc["regressions"] == 1
        assert doc["deltas"][0]["metric"] == "ops.chain_step"

    def test_improved_tally_is_flagged_but_exits_zero(
            self, dirs, capsys, tmp_path):
        baseline, current = dirs
        _write_bench(baseline, "table1_search",
                     {"test_a": _entry({"chain_step": 1000, "modexp": 40})})
        # chain_step -50% is past the gate; modexp -20 is under the floor.
        _write_bench(current, "table1_search",
                     {"test_a": _entry({"chain_step": 500, "modexp": 20})})
        json_path = tmp_path / "deltas.json"
        code = main(self._args(baseline, current, "--json", str(json_path)))
        assert code == 0
        out = capsys.readouterr().out
        assert "IMPROVED" in out
        assert "1 gated improvement(s)" in out
        doc = json.loads(json_path.read_text())
        assert doc["regressions"] == 0
        assert doc["improvements"] == 1
        flags = {d["metric"]: d["improved"] for d in doc["deltas"]}
        assert flags == {"ops.chain_step": True, "ops.modexp": False}

    def test_exit_two_on_missing_dirs_and_unknown_bench(self, dirs, capsys):
        baseline, current = dirs
        assert main(self._args(baseline / "nope", current)) == 2
        assert main(self._args(baseline, current / "nope")) == 2
        assert main(self._args(baseline, current)) == 2  # no baselines
        _write_bench(baseline, "table1_search",
                     {"test_a": _entry({"hmac": 1})})
        assert main(self._args(baseline, current, "nonexistent")) == 2
        assert "no baseline for nonexistent" in capsys.readouterr().err

    def test_positional_selection_restricts_the_gate(self, dirs):
        baseline, current = dirs
        clean = {"test_a": _entry({"hmac": 100})}
        _write_bench(baseline, "table1_search", clean)
        _write_bench(current, "table1_search", clean)
        _write_bench(baseline, "batching",
                     {"test_b": _entry({"chain_step": 1000})})
        _write_bench(current, "batching",
                     {"test_b": _entry({"chain_step": 2000})})
        assert main(self._args(baseline, current)) == 1
        assert main(self._args(baseline, current, "table1_search")) == 0

    def test_threshold_flags_reach_the_gate(self, dirs):
        baseline, current = dirs
        _write_bench(baseline, "table1_search",
                     {"test_a": _entry({"hmac": 1000})})
        _write_bench(current, "table1_search",
                     {"test_a": _entry({"hmac": 1050})})  # +5%
        assert main(self._args(baseline, current)) == 0
        assert main(self._args(baseline, current,
                               "--ops-threshold", "0.01")) == 1
