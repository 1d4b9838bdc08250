"""Tests for :mod:`repro.corpus` — generator, checks, shrinker, campaign."""

from __future__ import annotations

import json
import random

import pytest

from repro.api.spec import Spec
from repro.corpus.campaign import CampaignConfig, run_campaign
from repro.corpus.checks import run_check_suite
from repro.corpus.generator import (
    GeneratorConfig,
    build_from_recipe,
    classify_stg,
    generate_corpus,
    generate_spec,
    random_stg,
)
from repro.corpus.idioms import IDIOMS, build_idiom
from repro.corpus.quarantine import CorpusQuarantine
from repro.corpus.shrink import shrink_recipe, shrink_stg
from repro.petri.reachability import (
    _reference_build_reachability_graph,
    build_reachability_graph,
)
from repro.stg.parser import parse_g
from repro.stg.writer import write_g

FAST = GeneratorConfig(max_markings=300)


# ---------------------------------------------------------------------- #
# Idioms
# ---------------------------------------------------------------------- #


class TestIdioms:
    @pytest.mark.parametrize("name", sorted(IDIOMS))
    def test_every_idiom_is_live_consistent_and_bounded(self, name):
        _, param_spec = IDIOMS[name]
        params = {key: low for key, (low, high) in param_spec.items()}
        stg = build_idiom(name, "u_", params)
        classification = classify_stg(stg, max_markings=300)
        assert classification is not None
        assert classification.consistent, name
        assert classification.live, name

    @pytest.mark.parametrize("name", sorted(IDIOMS))
    def test_idioms_round_trip_through_g_format(self, name):
        stg = build_idiom(name, "u_")
        text = write_g(stg)
        again = write_g(parse_g(text))
        assert text == again

    def test_credit_handshake_is_k_bounded(self):
        stg = build_idiom("credit_handshake", "u_", {"credit": 3})
        classification = classify_stg(stg, max_markings=300)
        assert classification.klass == "k-bounded"

    def test_prefixes_keep_instances_disjoint(self):
        first = build_idiom("independent_cell", "a_")
        second = build_idiom("independent_cell", "b_")
        assert not set(first.signal_names) & set(second.signal_names)
        assert not set(first.transitions) & set(second.transitions)


# ---------------------------------------------------------------------- #
# Generator
# ---------------------------------------------------------------------- #


class TestGenerator:
    def test_same_seed_same_corpus(self):
        first = [cs.spec.content_hash for cs in generate_corpus(8, seed=11, config=FAST)]
        second = [cs.spec.content_hash for cs in generate_corpus(8, seed=11, config=FAST)]
        assert first == second

    def test_different_seeds_differ(self):
        first = [cs.spec.content_hash for cs in generate_corpus(6, seed=1, config=FAST)]
        second = [cs.spec.content_hash for cs in generate_corpus(6, seed=2, config=FAST)]
        assert first != second

    def test_recipe_replays_to_identical_spec(self):
        for index in range(8):
            corpus_spec = generate_spec(23, index, FAST)
            replayed = build_from_recipe(corpus_spec.recipe)
            spec = Spec.from_stg(replayed, name=corpus_spec.spec.name)
            assert spec.content_hash == corpus_spec.spec.content_hash

    def test_recipes_are_json_transportable(self):
        for index in range(6):
            corpus_spec = generate_spec(31, index, FAST)
            recipe = json.loads(json.dumps(corpus_spec.recipe))
            replayed = build_from_recipe(recipe)
            spec = Spec.from_stg(replayed, name=corpus_spec.spec.name)
            assert spec.content_hash == corpus_spec.spec.content_hash

    def test_corpus_mixes_classes_and_validity(self):
        corpus = list(generate_corpus(20, seed=7, config=FAST))
        klasses = {cs.klass for cs in corpus}
        assert "safe" in klasses
        assert "k-bounded" in klasses
        for cs in corpus:
            stg = cs.spec.stg
            reference = _reference_build_reachability_graph(
                stg.net, stg.initial_marking, FAST.max_markings
            )
            safe = all(m.is_safe() for m in reference.markings)
            assert cs.klass == ("safe" if safe else "k-bounded"), cs.spec.name
        assert any(cs.consistent for cs in corpus)
        assert any(not cs.consistent for cs in corpus)

    def test_generated_specs_respect_state_budget(self):
        for corpus_spec in generate_corpus(10, seed=3, config=FAST):
            assert corpus_spec.states <= FAST.max_markings

    def test_classify_rejects_unbounded_nets(self):
        from repro.stg.signals import SignalType
        from repro.stg.stg import STG

        stg = STG("grow")
        stg.add_signal("a", SignalType.OUTPUT)
        stg.add_transition("a+")
        stg.add_transition("a-")
        stg.add_place("p0", tokens=1)
        stg.add_place("sink")
        stg.add_arc("p0", "a+")
        stg.add_arc("a+", "p0")
        stg.add_arc("a+", "sink")  # pure producer: unbounded
        stg.add_arc("p0", "a-")
        stg.add_arc("a-", "p0")
        assert classify_stg(stg, max_markings=50) is None


class TestRandomStg:
    """The promoted randomized-STG machinery keeps its PR 4 semantics."""

    def test_deterministic_under_seeded_rng(self):
        first = write_g(random_stg(random.Random(5)))
        second = write_g(random_stg(random.Random(5)))
        assert first == second

    def test_allow_unsafe_yields_multi_token_marking(self):
        rng = random.Random(9)
        stg = random_stg(rng, allow_unsafe=True)
        assert any(stg.initial_marking.tokens(p) > 1 for p in stg.initial_marking)


# ---------------------------------------------------------------------- #
# Round-trip property over generated STGs (writer/parser satellite)
# ---------------------------------------------------------------------- #


class TestGeneratedRoundTrip:
    def test_generated_corpus_round_trips_canonically(self):
        for corpus_spec in generate_corpus(15, seed=13, config=FAST):
            text = corpus_spec.spec.text
            assert write_g(parse_g(text)) == text

    def test_multi_token_markings_survive_round_trip(self):
        stg = build_idiom("credit_handshake", "u_", {"credit": 4})
        text = write_g(stg)
        assert "=4" in text
        again = parse_g(text)
        assert again.initial_marking.tokens("u_pool") == 4
        assert write_g(again) == text

    def test_explicit_place_does_not_collapse_into_implicit_twin(self):
        # an explicit single-pred/single-succ place parallel to an implicit
        # place of the same transition pair must stay explicit, or the two
        # collide into one place on re-parse (the PR 7 writer fix)
        from repro.stg.signals import SignalType
        from repro.stg.stg import STG

        stg = STG("twin")
        stg.add_signal("r", SignalType.INPUT)
        stg.add_signal("a", SignalType.OUTPUT)
        for label in ("r+", "a+", "r-", "a-"):
            stg.add_transition(label)
        stg.add_arc("r+", "a+")
        stg.add_arc("a+", "r-")
        stg.add_arc("r-", "a-")
        stg.add_arc("a-", "r+")
        stg.net.set_initial_tokens("<a-,r+>", 1)
        stg.add_place("pool", tokens=3)
        stg.add_arc("a-", "pool")
        stg.add_arc("pool", "r+")
        text = write_g(stg)
        again = parse_g(text)
        assert again.initial_marking.tokens("pool") == 3
        assert again.initial_marking.tokens("<a-,r+>") == 1
        assert again.net.num_places() == stg.net.num_places()
        assert write_g(again) == text

    def test_unusual_signal_names_round_trip(self):
        from repro.stg.signals import SignalType
        from repro.stg.stg import STG

        stg = STG("odd")
        for signal in ("req_1", "ack.x", "d[3]"):
            stg.add_signal(signal, SignalType.OUTPUT)
        labels = [f"{s}{d}" for s in ("req_1", "ack.x", "d[3]") for d in "+-"]
        for label in labels:
            stg.add_transition(label)
        for i, label in enumerate(labels):
            stg.add_arc(label, labels[(i + 1) % len(labels)])
        stg.net.set_initial_tokens(f"<{labels[-1]},{labels[0]}>", 1)
        text = write_g(stg)
        again = parse_g(text)
        assert set(again.signal_names) == set(stg.signal_names)
        assert write_g(again) == text


# ---------------------------------------------------------------------- #
# Check suite
# ---------------------------------------------------------------------- #


class TestCheckSuite:
    @pytest.mark.parametrize("name", ["fig1", "sequencer", "muller_pipeline_4"])
    def test_benchmarks_pass_every_differential(self, name):
        report = run_check_suite(Spec.from_benchmark(name), max_markings=800)
        assert report.ok, [f.to_dict() for f in report.failures]
        assert report.synthesized

    def test_generated_corpus_passes_clean(self):
        for corpus_spec in generate_corpus(10, seed=7, config=FAST):
            report = run_check_suite(corpus_spec.spec, max_markings=300)
            assert report.ok, (
                corpus_spec.spec.name,
                [f.to_dict() for f in report.failures],
            )

    def test_force_flip_is_caught_and_marked_injected(self):
        report = run_check_suite(
            Spec.from_benchmark("sequencer"), max_markings=800, force_flip=True
        )
        assert not report.ok
        assert any(f.check == "mapped" and f.injected for f in report.failures)

    def test_corpus_flip_fault_site_drives_the_flip(self):
        from repro.api.faults import FaultInjector

        spec = Spec.from_benchmark("sequencer")
        always = FaultInjector.parse("seed=1;corpus.flip=1")
        report = run_check_suite(spec, max_markings=800, faults=always)
        assert any(f.injected for f in report.failures)
        never = FaultInjector.parse("seed=1;corpus.flip=0")
        report = run_check_suite(spec, max_markings=800, faults=never)
        assert report.ok

    def test_report_is_picklable_and_has_done_event_fields(self):
        import pickle

        report = run_check_suite(Spec.from_benchmark("fig1"), max_markings=400)
        clone = pickle.loads(pickle.dumps(report))
        assert clone.spec_hash == report.spec_hash
        assert "states" in clone.event_detail()
        assert clone.total_seconds >= 0


# ---------------------------------------------------------------------- #
# Shrinker
# ---------------------------------------------------------------------- #


class TestShrink:
    def test_shrinks_to_single_cell_under_forced_flip(self):
        recipe = {
            "kind": "compose",
            "name": "big",
            "idioms": [
                {"name": "independent_cell", "prefix": "a_", "params": {}},
                {"name": "muller_stage_chain", "prefix": "b_", "params": {"stages": 3}},
            ],
            "rewires": [],
            "mutations": [],
        }

        def failing(stg):
            spec = Spec.from_stg(stg, name="shrink")
            report = run_check_suite(spec, max_markings=300, force_flip=True)
            return any(f.check == "mapped" for f in report.failures)

        reduced = shrink_recipe(recipe, failing)
        assert len(reduced["idioms"]) == 1
        minimal = shrink_stg(build_from_recipe(reduced), failing)
        # 1-minimal: one handshake cell (2 signals, 4 transitions)
        assert len(minimal.signal_names) <= 2
        assert len(minimal.transitions) <= 4
        assert failing(minimal)

    def test_param_reduction_shrinks_idiom_size(self):
        recipe = {
            "kind": "compose",
            "name": "deep",
            "idioms": [
                {"name": "muller_stage_chain", "prefix": "m_", "params": {"stages": 3}},
            ],
            "rewires": [],
            "mutations": [],
        }

        def failing(stg):
            return bool(stg.non_input_signals)  # any output-bearing STG "fails"

        reduced = shrink_recipe(recipe, failing)
        assert reduced["idioms"][0]["params"]["stages"] == 1

    def test_shrink_stg_lowers_token_counts(self):
        stg = build_idiom("credit_handshake", "u_", {"credit": 5})

        def failing(candidate):
            return "u_pool" in candidate.places

        minimal = shrink_stg(stg, failing)
        assert minimal.initial_marking.tokens("u_pool") == 1

    def test_shrink_never_returns_invalid_stg(self):
        corpus_spec = generate_spec(17, 0, FAST)

        def failing(stg):
            return True  # everything "fails": maximal reduction pressure

        minimal = shrink_stg(corpus_spec.spec.stg, failing)
        text = write_g(minimal)
        assert write_g(parse_g(text)) == text


# ---------------------------------------------------------------------- #
# Campaign
# ---------------------------------------------------------------------- #


class TestCampaign:
    def test_clean_campaign_has_no_findings(self, tmp_path):
        report = run_campaign(
            CampaignConfig(
                count=8, seed=7, jobs=0, max_markings=300,
                quarantine=CorpusQuarantine(tmp_path / "q"), shrink=False,
            )
        )
        assert report.ok
        assert report.checked == 8
        assert not (tmp_path / "q").exists()

    def test_seeded_campaign_digest_is_pinned(self, tmp_path):
        """The defaults of ``repro fuzz run --count 25 --seed 7``."""
        report = run_campaign(
            CampaignConfig(count=25, seed=7, quarantine=CorpusQuarantine(tmp_path / "q"))
        )
        assert report.ok
        assert report.digest == "156cb97173c250d4"

    def test_digest_is_deterministic_and_jobs_independent(self, tmp_path):
        sequential = run_campaign(
            CampaignConfig(count=6, seed=5, jobs=0, max_markings=300, shrink=False)
        )
        pooled = run_campaign(
            CampaignConfig(count=6, seed=5, jobs=2, max_markings=300, shrink=False)
        )
        assert sequential.digest == pooled.digest
        assert sequential.checked == pooled.checked == 6

    def test_injected_fault_is_shrunk_quarantined_and_replays(self, tmp_path):
        quarantine = CorpusQuarantine(tmp_path / "q")
        report = run_campaign(
            CampaignConfig(
                count=8, seed=7, jobs=0, max_markings=300,
                faults="seed=3;corpus.flip=1", quarantine=quarantine, shrink=True,
            )
        )
        assert not report.ok
        injected = [f for f in report.findings if f.injected]
        assert injected
        assert all(f.quarantined for f in injected)
        entries = quarantine.entries()
        assert entries
        for entry in entries:
            assert entry.reason["force_flip"] is True
            assert entry.expect == "failure"
            # the filed artifact is canonical .g text
            text = entry.path.read_text()
            assert write_g(parse_g(text)) == text
        results = list(quarantine.replay())
        assert results and all(r.ok for r in results)

    def test_time_budget_bounds_generation(self):
        report = run_campaign(
            CampaignConfig(
                count=10_000, seed=1, jobs=0, max_markings=200,
                time_budget=0.3, shrink=False,
            )
        )
        assert report.budget_exhausted
        assert report.generated < 10_000


# ---------------------------------------------------------------------- #
# CLI surface
# ---------------------------------------------------------------------- #


class TestFuzzCli:
    def test_fuzz_run_json(self, tmp_path, capsys):
        from repro.api.cli import main

        code = main([
            "fuzz", "run", "--count", "5", "--seed", "7",
            "--max-markings", "300", "--json",
            "--quarantine", str(tmp_path / "q"),
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["checked"] == 5
        assert payload["digest"]

    def test_fuzz_run_exits_nonzero_on_findings(self, tmp_path, capsys):
        from repro.api.cli import main

        code = main([
            "fuzz", "run", "--count", "8", "--seed", "7",
            "--max-markings", "300", "--faults", "seed=3;corpus.flip=1",
            "--quarantine", str(tmp_path / "q"), "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["ok"] is False
        replay = main(["fuzz", "replay", "--quarantine", str(tmp_path / "q")])
        assert replay == 0

    def test_fuzz_gen_writes_spec_files(self, tmp_path, capsys):
        from repro.api.cli import main

        code = main([
            "fuzz", "gen", "--count", "3", "--seed", "5",
            "--max-markings", "300", "--json", "-o", str(tmp_path / "specs"),
        ])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 3
        for row in rows:
            stg = parse_g((tmp_path / "specs" / f"{row['name']}.g").read_text())
            graph = build_reachability_graph(stg.net, max_markings=400)
            assert len(graph) == row["states"]

    def test_list_json_reports_classes(self, capsys):
        from repro.api.cli import main

        assert main(["list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_name = {row["name"]: row for row in rows}
        assert by_name["sequencer"]["class"] == "safe"
        assert by_name["philosophers_3"]["transitions"] > 0
        assert all(
            {"name", "signals", "transitions", "places", "class"} <= set(row)
            for row in rows
        )
