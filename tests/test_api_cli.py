"""Tests of the ``python -m repro`` command line interface."""

from __future__ import annotations

import json

import pytest

from repro.api.cli import main
from repro.stg.writer import write_g


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_lists_registry_benchmarks(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        names = out.split()
        assert "handshake_seq" in names and "muller_pipeline_4" in names


class TestSynthesize:
    def test_benchmark_by_name(self, capsys):
        code, out, _ = run_cli(capsys, "synthesize", "handshake_seq", "--level", "5")
        assert code == 0
        assert "circuit handshake_seq" in out
        assert "backend: structural" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "synthesize", "sequencer", "--json", "--map")
        assert code == 0
        data = json.loads(out)
        assert data["backend"] == "structural"
        assert data["synthesize"]["literals"] > 0
        assert data["map"]["total_area"] > 0

    def test_statebased_backend(self, capsys):
        code, out, _ = run_cli(
            capsys, "synthesize", "handshake_seq", "--backend", "statebased", "--json"
        )
        assert code == 0
        assert json.loads(out)["backend"] == "statebased"

    def test_file_input_and_report_output(self, capsys, tmp_path):
        from repro.benchmarks.classic import load_classic

        spec_path = tmp_path / "spec.g"
        spec_path.write_text(write_g(load_classic("sequencer")))
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "synthesize", str(spec_path), "-o", str(report_path)
        )
        assert code == 0
        data = json.loads(report_path.read_text())
        assert data["spec"] == "sequencer"  # the .model name wins over the file name

    def test_unknown_spec_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "synthesize", "no_such_benchmark")
        assert code == 2
        assert "error" in err

    def test_malformed_file_is_a_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.g"
        bad.write_text(".model x\n.end\n")
        code, _, err = run_cli(capsys, "synthesize", str(bad))
        assert code == 2
        assert "malformed" in err

    def test_uncertified_csc_is_a_synthesis_error(self, capsys):
        code, _, err = run_cli(capsys, "synthesize", "latch_ctrl")
        assert code == 2
        assert "CSC" in err

    def test_state_space_limit_is_a_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "synthesize",
            "handshake_seq",
            "--backend",
            "statebased",
            "--max-markings",
            "2",
        )
        assert code == 2
        assert "state-space limit" in err


class TestVerifyAndCompare:
    def test_verify_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "sequencer", "--assume-csc")
        assert code == 0
        assert "speed independent: True" in out

    def test_compare_matches(self, capsys):
        """Acceptance criterion: both backends agree on a registry benchmark."""
        code, out, _ = run_cli(capsys, "compare", "sequencer", "--assume-csc")
        assert code == 0
        assert "MATCH" in out
        assert "checked markings" in out

    def test_compare_json(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "handshake_seq", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["matching"] is True


class TestExport:
    def test_verilog_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "export", "sequencer", "--format", "verilog")
        assert code == 0
        from repro.gates import validate_verilog

        validate_verilog(out)
        assert "module sequencer" in out

    def test_blif_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "export", "glatch_3", "--format", "blif",
                               "--level", "2")
        assert code == 0
        from repro.gates import parse_blif

        parsed = parse_blif(out)
        assert "y" in parsed["outputs"]

    def test_json_output_file(self, capsys, tmp_path):
        from repro.gates import GateNetlist

        path = tmp_path / "netlist.json"
        code, out, _ = run_cli(
            capsys, "export", "sequencer", "--format", "json", "-o", str(path)
        )
        assert code == 0
        assert "wrote json netlist" in out
        netlist = GateNetlist.from_json(json.loads(path.read_text()))
        assert set(netlist.outputs) == {"r1", "r2", "ack"}

    def test_eqn_with_builtin_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "export", "parallelizer", "--format", "eqn",
            "--lib", "two-input-only",
        )
        assert code == 0
        from repro.gates import parse_eqn

        parse_eqn(out)
        assert "two-input-only" in out

    def test_library_json_file(self, capsys, tmp_path):
        from repro.gates import two_input_library

        lib_path = tmp_path / "lib.json"
        lib_path.write_text(json.dumps(two_input_library().to_json()))
        code, out, _ = run_cli(
            capsys, "export", "sequencer", "--lib", str(lib_path)
        )
        assert code == 0

    def test_unknown_library_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "export", "sequencer", "--lib", "nope")
        assert code == 2
        assert "unknown gate library" in err

    def test_synthesize_verify_mapped_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "synthesize", "glatch_3", "--level", "2", "--verify-mapped"
        )
        assert code == 0
        assert "mapped netlist equivalent: True" in out

    def test_verify_mapped_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "sequencer", "--mapped", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["verify"]["speed_independent"] is True
        assert data["verify_mapped"]["equivalent"] is True


class TestParser:
    def test_missing_command_exits_with_usage(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_bad_level_rejected(self):
        with pytest.raises(SystemExit):
            main(["synthesize", "fig1", "--level", "9"])


class TestJsonRoundTrip:
    def test_synthesize_json_reloads_identically(self, capsys):
        """Satellite: the --json document is versioned and lossless."""
        from repro.api.artifacts import ARTIFACT_VERSION, Report

        code, out, _ = run_cli(
            capsys, "synthesize", "sequencer", "--json", "--map", "--verify"
        )
        assert code == 0
        data = json.loads(out)
        assert data["format"] == "repro-report"
        assert data["version"] == ARTIFACT_VERSION
        assert data["synthesize"]["version"] == ARTIFACT_VERSION
        report = Report.from_json(data)
        assert report.to_json() == data

    def test_output_file_reloads_identically(self, capsys, tmp_path):
        from repro.api.artifacts import Report

        path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "synthesize", "glatch_3", "-o", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        assert Report.from_json(data).to_json() == data


class TestCacheCommand:
    def test_stats_clear_prewarm(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code, out, _ = run_cli(capsys, "cache", "stats", "--store", store)
        assert code == 0
        assert "entries: 0" in out

        code, out, _ = run_cli(
            capsys, "cache", "prewarm", "glatch_3", "--store", store, "--map"
        )
        assert code == 0
        assert "prewarmed 1/1" in out

        code, out, _ = run_cli(capsys, "cache", "stats", "--store", store, "--json")
        assert code == 0
        stats = json.loads(out)
        assert stats["entries"] > 0
        assert stats["per_stage"]["synthesize"] == 1
        assert stats["bytes"] > 0

        # a synthesize with matching (default) options through the same
        # store is a pure store resolution — prewarm keys must line up
        from repro.api import Pipeline, SynthesisOptions

        pipeline = Pipeline(store=store)
        pipeline.run("glatch_3", SynthesisOptions(), map_technology=True)
        assert pipeline.stage_calls["synthesize"] == 0
        assert pipeline.stage_calls["map"] == 0

        code, out, _ = run_cli(capsys, "cache", "clear", "--store", store)
        assert code == 0
        assert "removed" in out
        code, out, _ = run_cli(capsys, "cache", "stats", "--store", store, "--json")
        assert json.loads(out)["entries"] == 0

    def test_clear_honours_a_spec_pattern(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code, _, _ = run_cli(capsys, "cache", "prewarm", "glatch_3", "--store", store)
        assert code == 0
        code, _, _ = run_cli(capsys, "cache", "prewarm", "sequencer", "--store", store)
        assert code == 0
        code, out, _ = run_cli(
            capsys, "cache", "clear", "glatch_*", "--store", store
        )
        assert code == 0 and "glatch_*" in out
        code, out, _ = run_cli(capsys, "cache", "stats", "--store", store, "--json")
        stats = json.loads(out)
        assert stats["entries"] > 0  # the sequencer entries survived

    def test_stats_rejects_a_pattern(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "cache", "stats", "glatch_*", "--store", str(tmp_path / "s")
        )
        assert code == 2
        assert "no pattern" in err

    def test_stats_against_a_live_server_shows_its_store(self, capsys, tmp_path):
        """``cache stats --url`` surfaces the store session and quarantine
        telemetry of a running server instead of opening a local store."""
        import threading

        from repro.api import Pipeline
        from repro.api.client import Client
        from repro.api.server import create_server
        from repro.api.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        pipeline = Pipeline(store=store)
        server = create_server(port=0, pipeline=pipeline)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            client = Client(url)
            client.synthesize("sequencer", assume_csc=True)
            # evicted memory: the repeat reads go to the store
            pipeline.evict_cache()
            client.synthesize("sequencer", assume_csc=True)  # store hits

            code, out, _ = run_cli(capsys, "cache", "stats", "--url", url)
            assert code == 0
            assert f"store: {store.root}" in out
            assert "session:" in out and "hits" in out

            code, out, _ = run_cli(capsys, "cache", "stats", "--url", url, "--json")
            assert code == 0
            payload = json.loads(out)
            session = payload["store"]["session"]
            assert session["hits"] > 0 and session["writes"] > 0
            assert "quarantined_entries" in payload["store"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_stats_url_without_a_store_degrades_gracefully(self, capsys):
        import threading

        from repro.api import Pipeline
        from repro.api.server import create_server

        server = create_server(port=0, store=None, pipeline=Pipeline())
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            code, out, _ = run_cli(capsys, "cache", "stats", "--url", url)
            assert code == 0
            assert "no store attached" in out
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_prewarm_unknown_glob_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "cache", "prewarm", "zzz_no_such_*", "--store", str(tmp_path / "s"),
        )
        assert code == 2
        assert "no registry benchmark" in err

    def test_store_speeds_up_repeat_cli_invocations(self, capsys, tmp_path):
        """Two CLI runs share artifacts through --store (fresh Pipelines)."""
        store = str(tmp_path / "store")
        code, first, _ = run_cli(
            capsys, "synthesize", "sequencer", "--store", store, "--json"
        )
        assert code == 0
        code, second, _ = run_cli(
            capsys, "synthesize", "sequencer", "--store", store, "--json"
        )
        assert code == 0
        first_doc, second_doc = json.loads(first), json.loads(second)
        # identical artifacts (including exact timings: they were loaded)
        assert second_doc["synthesize"] == first_doc["synthesize"]

    def test_no_store_disables_persistence(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "default-store"))
        code, _, _ = run_cli(capsys, "synthesize", "fig1", "--no-store")
        assert code == 0
        assert not (tmp_path / "default-store").exists()

    def test_gap_no_store_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "default-store"))
        code, out, _ = run_cli(capsys, "gap", "--spec", "fig6", "--no-store", "--json")
        assert code == 0
        assert json.loads(out)[0]["sound"] is True
        assert not (tmp_path / "default-store").exists()
