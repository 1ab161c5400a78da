"""Golden outputs: the deterministic reports hash to pinned SHA-256 values.

A change meant to leave every report byte as it is keeps these hashes.  A
change that alters report bytes on purpose updates the hash here and says
why in its change note.
"""

import hashlib

from slice_sentinel import scenarios
from slice_sentinel.cli import main
from slice_sentinel.scenarios import (
    SCENARIO_IDS,
    bench_flow_setup,
    build_world,
    bench_signature_latency,
    run_scenario,
)

SCENARIOS_AND_BENCHES_SHA256 = "10193eabd4ab869cf25d9e6390f5a037c245819f940cba85f154b279715fca28"
ML_OUTPUTS_SHA256 = "084a5e56424a551ad07ac0503ce7619fab085f8214ea1992271eccedff3f865e"
# Naive Bayes on all six features, noise columns included, with no selection.
ML_NB_ALL_FEATURES_SHA256 = "fe2d10211e12ba6d4b28ea577678f212c52043f60b61e8ad10a0348bdb987ef5"
# The activity log of every world each scenario builds at seed 0, as JSON lines.
ACTIVITY_LOGS_SHA256 = "4acddd60d00c675f4156a060f05f8c0aaffc778e3370d05bc71170bb12ca9d67"


def test_scenario_and_bench_reports_match_golden_hash():
    digest = hashlib.sha256()
    for seed in (0, 7, 13):
        for scenario_id in SCENARIO_IDS:
            digest.update(run_scenario(scenario_id, seed=seed).to_json().encode())
    digest.update(bench_flow_setup(sizes=(20, 40), security="both", runs=3, seed=17).to_json().encode())
    digest.update(
        bench_signature_latency(counts=(0, 25), runs=3, packets=20, seed=17).to_json().encode()
    )
    assert digest.hexdigest() == SCENARIOS_AND_BENCHES_SHA256


def test_activity_log_jsonl_matches_golden_hash(monkeypatch):
    managers = []

    def recording_build_world(config, seed):
        managers.append(build_world(config, seed))
        return managers[-1]

    monkeypatch.setattr(scenarios, "build_world", recording_build_world)
    digest = hashlib.sha256()
    for scenario_id in SCENARIO_IDS:
        managers.clear()
        run_scenario(scenario_id, seed=0)
        assert managers, scenario_id
        for manager in managers:
            digest.update(manager.log.to_jsonl().encode())
    assert digest.hexdigest() == ACTIVITY_LOGS_SHA256


def test_ml_outputs_match_golden_hash(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SLICE_SENTINEL_OUT", raising=False)
    digest = hashlib.sha256()
    for classifier in ("nb", "dt"):
        for selector in ("chi:5", "ensemble:4"):
            out = tmp_path / f"{classifier}-{selector.replace(':', '-')}"
            code = main(["ml", "--synthetic", "--classifier", classifier, "--select", selector,
                         "--seed", "0", "--out", str(out)])
            assert code == 0
            digest.update((out / "metrics.json").read_bytes())
            digest.update((out / "roc.csv").read_bytes())
    capsys.readouterr()
    assert digest.hexdigest() == ML_OUTPUTS_SHA256


def test_ml_nb_on_all_features_matches_golden_hash(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SLICE_SENTINEL_OUT", raising=False)
    out = tmp_path / "nb-all"
    code = main(["ml", "--synthetic", "--classifier", "nb", "--rows", "6000",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    digest = hashlib.sha256((out / "metrics.json").read_bytes() + (out / "roc.csv").read_bytes())
    assert digest.hexdigest() == ML_NB_ALL_FEATURES_SHA256
