"""Command line behavior: exit codes, outputs and reproducibility."""

import csv
import hashlib
import json

import pytest

from slice_sentinel import cli
from slice_sentinel.anomaly import synthetic_flow_dataset
from slice_sentinel.cli import main
from slice_sentinel.fabric import Drop, FlowKey, FlowMod, FlowRule, Provenance, apply_flow_mod
from slice_sentinel.policy import EV_AUDIT_PERFORMED, ActivityLog
from slice_sentinel.scenarios import build_world, load_default_config


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _edited(name, edit):
    document = load_default_config(name)
    edit(document)
    return document


# (option, malformed document): each must be rejected where it is parsed.
MALFORMED_CONFIGS = {
    "policy-entry-not-object": ("--policies", [1]),
    "policy-actions-not-list": (
        "--policies", _edited("policies.json", lambda d: d[0].update(actions=5))
    ),
    "node-without-id": (
        "--topology", _edited("topology.json", lambda d: d["nodes"][0].pop("id"))
    ),
    "link-without-b": (
        "--topology", _edited("topology.json", lambda d: d["links"][0].pop("b"))
    ),
    "slice-hosts-not-list": (
        "--topology", _edited("topology.json", lambda d: d["slices"][0].update(hosts=5))
    ),
    "action-security-not-list": (
        "--policies", _edited("policies.json", lambda d: d[0]["actions"][0].update(security=5))
    ),
    "policy-action-no-destination-serves": (
        "--policies", _edited("policies.json", lambda d: d[0]["actions"].append(
            {"Service": "Unserved", "Slice-id": "VLAN300"}))
    ),
    "nodes-not-list": ("--topology", {"nodes": 5}),
    "node-id-not-string": ("--topology", {"nodes": [{"id": ["A"]}]}),
    "topology-empty-list": ("--topology", []),
    "topology-empty-object": ("--topology", {}),
    "topology-without-scenario-node": ("--topology", {"nodes": [{"id": "A"}]}),
    "signature-without-id": ("--signatures", [{"pattern_hex": "00"}]),
    "scenario-config-not-object": ("--scenario-config", [1]),
}

# (option, file text, message): each bad input file exits 2 with its message.
BAD_INPUT_FILES = {
    "config-not-json": ("--topology", "{", "topology file {path} is not valid JSON"),
    "topology-entry-not-object": (
        "--topology", json.dumps({"nodes": [5]}), "nodes entry must be an object, got 5"
    ),
    "unknown-node-kind": (
        "--topology", json.dumps({"nodes": [{"id": "A", "kind": "router"}]}),
        "unknown node kind 'router'"
    ),
    "duplicate-slice-vlan": (
        "--topology",
        json.dumps(_edited("topology.json", lambda d: d["slices"].append(dict(d["slices"][0])))),
        "duplicate slice vlan 100",
    ),
    "link-latency-not-integer": (
        "--topology",
        json.dumps(_edited("topology.json", lambda d: d["links"][0].update(latency_ms=1.7))),
        "link UE1-OVS1 latency_ms must be an integer >= 0, got 1.7",
    ),
    "policy-action-not-object": (
        "--policies", json.dumps(_edited("policies.json", lambda d: d[0].update(actions=[5]))),
        "policy '02': action must be an object, got 5",
    ),
    "policy-action-without-service": (
        "--policies",
        json.dumps(_edited("policies.json", lambda d: d[0]["actions"][0].pop("Service"))),
        "policy '02': action needs Service and Slice-id",
    ),
    "policy-unknown-security-requirement": (
        "--policies",
        json.dumps(_edited("policies.json", lambda d: d[0]["actions"][0].update(security=["x"]))),
        "policy '02': unknown security requirements ['x']",
    ),
    "policy-user-not-object": (
        "--policies", json.dumps(_edited("policies.json", lambda d: d[0].update(user="alice"))),
        "policy '02': user must be an object",
    ),
    "policy-empty-actions": (
        "--policies", json.dumps(_edited("policies.json", lambda d: d[0].update(actions=[]))),
        "policy '02': empty actions",
    ),
    "policy-document-not-array": ("--policies", "{}", "policy document must be a JSON array"),
    "signature-document-not-array": (
        "--signatures", "{}", "signature document must be a JSON array"
    ),
    "signature-entry-not-object": (
        "--signatures", "[5]", "signature entry must be an object, got 5"
    ),
    "dataset-without-label": ("--dataset", "a,b\n1,2\n", "dataset CSV needs a 'label' column"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT_FILES))
def test_a_bad_input_file_exits_2_with_its_message(case, tmp_path, capsys):
    option, text, message = BAD_INPUT_FILES[case]
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    command = ["ml"] if option == "--dataset" else ["run", "attack1"]
    code = main([*command, option, str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {message.format(path=path)}")
    assert not (tmp_path / "o").exists()


class TestRunCommand:
    def test_attack1_with_bundled_configs_passes(self, tmp_path, capsys):
        code = main(["run", "attack1", "--seed", "7", "--out", str(tmp_path / "o"),
                     "--scenario-config", str(_fast_config(tmp_path))])
        assert code == 0
        report = read_json(tmp_path / "o" / "report.json")
        assert report["verdict"] is True
        assert report["details"]["unauthorized_drops"] == report["packets"]["dropped_at_entry"]
        assert "PASS" in capsys.readouterr().out

    def test_missing_topology_file_exits_2(self, tmp_path, capsys):
        code = main(["run", "attack1", "--topology", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_conflicting_destination_mapping_exits_2(self, tmp_path, capsys):
        policies = load_default_config("policies.json")
        policies[-1]["actions"] = [{"Service": "Other", "Slice-id": "VLAN300"}]
        path = tmp_path / "conflicting.json"
        path.write_text(json.dumps(policies))
        code = main(["run", "attack1", "--policies", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "10.0.0.8" in err and "(200, 'Service1')" in err and "(300, 'Other')" in err
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_exits_2_with_message(self, case, tmp_path, capsys):
        option, document = MALFORMED_CONFIGS[case]
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(document))
        code = main(["run", "attack1", option, str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o" / "report.json").exists()

    def test_a_node_the_topology_lacks_is_named(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"nodes": [{"id": "A"}]}))
        code = main(["run", "attack1", "--topology", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "error: the topology has no node 'OVS1'\n"

    def test_attack2_without_blacklist_feedback_exits_1(self, tmp_path):
        knob = tmp_path / "knob.json"
        knob.write_text(json.dumps(
            {"blacklist_feedback": False, "attack_packets": 300, "benign_packets": 10}
        ))
        code = main(["run", "attack2", "--scenario-config", str(knob),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("scenario, params, message", [
        ("attack1", {"attack_packets": 0}, "'attack_packets' must be an integer >= 1, got 0"),
        ("attack1", {"attack_packets": -3}, "'attack_packets' must be an integer >= 1, got -3"),
        ("attack1", {"attack_packets": True},
         "'attack_packets' must be an integer >= 1, got True"),
        ("attack1", {"benign_packets": 0}, "'benign_packets' must be an integer >= 1, got 0"),
        ("attack2", {"benign_packets": 0}, "'benign_packets' must be an integer >= 1, got 0"),
        ("fsf_path", {"packets": 0}, "'packets' must be an integer >= 1, got 0"),
        ("attack2", {"blacklist_feedback": "no"},
         "'blacklist_feedback' must be true or false, got 'no'"),
        ("attack3", {"tampered_hosts": "SVC3"},
         "'tampered_hosts' must be a list of node ids, got 'SVC3'"),
    ], ids=["attack1-no-attack", "attack1-negative-attack", "attack1-bool-attack",
            "attack1-no-benign", "attack2-no-benign", "fsf_path-no-packets",
            "attack2-feedback-string", "attack3-tampered-string"])
    def test_a_bad_scenario_parameter_exits_2_naming_it(
        self, scenario, params, message, tmp_path, capsys
    ):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        code = main(["run", scenario, "--scenario-config", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"error: scenario config {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("scenario, params, unread", [
        ("attack1", {"attack_packet": 0, "benign_packets": 10}, "'attack_packet'"),
        ("shellshock", {"packets": 3, "tampered_hosts": []}, "'packets', 'tampered_hosts'"),
        ("fsf_path", {"attack_packets": 5}, "'attack_packets'"),
    ], ids=["attack1-misspelled", "shellshock-two-unread", "fsf_path-flood-key"])
    def test_a_config_key_the_scenario_does_not_read_exits_2_naming_it(
        self, scenario, params, unread, tmp_path, capsys
    ):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        code = main(["run", scenario, "--scenario-config", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario config key(s) {unread} are not read by {scenario}")
        assert not (tmp_path / "o").exists()

    def test_manifest_and_events_written(self, tmp_path):
        out = tmp_path / "o"
        main(["run", "shellshock", "--out", str(out)])
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "run"
        assert manifest["seed"] == 0
        assert (out / "events.jsonl").exists()
        for line in (out / "events.jsonl").read_text().splitlines():
            json.loads(line)

    def test_verbose_prints_the_events_it_writes(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "attack3", "--verbose", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        events = (out / "events.jsonl").read_text(encoding="utf-8").splitlines()
        assert events
        assert printed[:-1] == events
        assert printed[-1].startswith("attack3: PASS ")

    def test_rerun_with_same_manifest_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        fast = _fast_config(tmp_path)
        for out in (out_a, out_b):
            assert main(["run", "attack2", "--seed", "13", "--out", str(out),
                         "--scenario-config", str(fast)]) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "events.jsonl").read_bytes() == (out_b / "events.jsonl").read_bytes()

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("SLICE_SENTINEL_OUT", str(target))
        main(["run", "fsf_path", "--out", str(tmp_path / "ignored")])
        assert (target / "report.json").exists()
        assert not (tmp_path / "ignored").exists()


class TestBenchCommand:
    def test_flow_setup_outputs_parse(self, tmp_path):
        out = tmp_path / "b"
        code = main(["bench", "flow-setup", "--sizes", "10,20", "--runs", "2",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        report = read_json(out / "bench.json")
        assert {e["n"] for e in report["entries"]} == {10, 20}
        csv_lines = (out / "bench.csv").read_text().splitlines()
        assert csv_lines[0] == "n,security,mean_ms,stdev_ms"
        assert len(csv_lines) == 1 + len(report["entries"])

    def test_signature_bench_outputs_parse(self, tmp_path):
        out = tmp_path / "b"
        code = main(["bench", "signatures", "--counts", "0,10", "--runs", "2",
                     "--packets", "10", "--out", str(out)])
        assert code == 0
        assert read_json(out / "bench.json")["kind"] == "signatures"

    def test_bad_sizes_exit_2(self, tmp_path, capsys):
        code = main(["bench", "flow-setup", "--sizes", "ten,twenty", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("options, message", [
        (["flow-setup", "--runs", "0"], "runs must be >= 1"),
        (["flow-setup", "--sizes", "0"], "fleet size must be >= 1"),
        (["flow-setup", "--sizes", "10,0"], "fleet size must be >= 1"),
        (["signatures", "--runs", "0"], "runs must be >= 1"),
        (["signatures", "--packets", "0"], "packets must be >= 1"),
        (["signatures", "--counts=-1"], "signature count must be >= 0"),
        (["flow-setup", "--sizes", ","], "sizes must not be empty"),
        (["signatures", "--counts", ","], "counts must not be empty"),
    ], ids=["flow-setup-runs-0", "flow-setup-size-0", "flow-setup-size-10-then-0",
            "signatures-runs-0", "signatures-packets-0", "signatures-count-negative",
            "flow-setup-sizes-empty", "signatures-counts-empty"])
    def test_a_bad_bench_parameter_exits_2_with_its_message(
        self, options, message, tmp_path, capsys
    ):
        out = tmp_path / "b"
        code = main(["bench", *options, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestMlCommand:
    def test_synthetic_nb_with_chi_selection(self, tmp_path):
        out = tmp_path / "m"
        code = main(["ml", "--synthetic", "--classifier", "nb", "--select", "chi:5",
                     "--rows", "600", "--out", str(out)])
        assert code == 0
        payload = read_json(out / "metrics.json")
        metrics = payload["metrics"]
        assert abs(metrics["tpr"] + metrics["fnr"] - 100.0) <= 1e-6
        assert abs(metrics["tnr"] + metrics["fpr"] - 100.0) <= 1e-6
        assert len(payload["selected_features"]) == 5
        roc_lines = (out / "roc.csv").read_text().splitlines()
        assert roc_lines[0] == "fpr,tpr"

    def test_decision_tree_classifier(self, tmp_path):
        code = main(["ml", "--synthetic", "--classifier", "dt", "--rows", "400",
                     "--out", str(tmp_path / "m")])
        assert code == 0
        payload = read_json(tmp_path / "m" / "metrics.json")
        assert payload["metrics"]["accuracy"] >= 95.0

    def test_manifest_records_the_tree_depth(self, tmp_path):
        out = tmp_path / "m"
        code = main(["ml", "--synthetic", "--classifier", "dt", "--max-depth", "3",
                     "--rows", "400", "--out", str(out)])
        assert code == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "ml"
        assert manifest["args"]["classifier"] == "dt"
        assert manifest["args"]["max_depth"] == 3

    def test_unknown_classifier_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["ml", "--classifier", "unknownX", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_a_dataset_file_is_named_in_the_metrics(self, tmp_path):
        data = synthetic_flow_dataset(n_rows=200, seed=3)
        path = tmp_path / "flows.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(data.feature_names + ["label"])
            for row, label in zip(data.features, data.labels):
                writer.writerow([repr(float(v)) for v in row] + [int(label)])
        out = tmp_path / "m"
        assert main(["ml", "--dataset", str(path), "--out", str(out)]) == 0
        payload = read_json(out / "metrics.json")
        assert payload["dataset"] == str(path)
        assert payload["rows"]["train"] + payload["rows"]["test"] == 200

    def test_missing_dataset_file_exits_2(self, tmp_path):
        code = main(["ml", "--dataset", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
        assert code == 2

    def test_empty_dataset_file_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = main(["ml", "--dataset", str(empty), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize("cell, column", [
        ("nan", "byte_rate"), ("inf", "byte_rate"), ("-inf", "packet_rate"), ("inf", "label"),
    ])
    def test_non_finite_dataset_cell_exits_2_naming_row_and_column(
        self, cell, column, tmp_path, capsys
    ):
        header = ["packet_rate", "byte_rate", "label"]
        rows = [["10", "800", "0"], ["12", "900", "0"], ["95", "9000", "1"], ["90", "8800", "1"]]
        rows[2][header.index(column)] = cell
        path = tmp_path / "flows.csv"
        path.write_text("".join(",".join(r) + "\n" for r in [header] + rows), encoding="utf-8")
        code = main(["ml", "--dataset", str(path), "--out", str(tmp_path / "m")])
        assert code == 2
        assert f"row 3, column '{column}'" in capsys.readouterr().err
        assert not (tmp_path / "m" / "metrics.json").exists()

    @pytest.mark.parametrize("options, message", [
        pytest.param(["--classifier", "dt", "--max-depth", "-1"],
                     "max_depth must be None or an integer >= 0, got -1", id="dt-negative"),
        pytest.param(["--classifier", "nb", "--max-depth", "3"],
                     "--max-depth applies only to --classifier dt", id="nb"),
        pytest.param(["--max-depth", "0"],
                     "--max-depth applies only to --classifier dt", id="default-nb"),
    ])
    def test_meaningless_max_depth_exits_2(self, options, message, tmp_path, capsys):
        out = tmp_path / "m"
        code = main(["ml", "--synthetic", "--rows", "200", *options, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "metrics.json").exists()

    @pytest.mark.parametrize("selector, message", [
        ("pca-7", "selector must look like chi:K or ensemble:K, got 'pca-7'"),
        ("chi:x", "selector k must be an integer, got 'x'"),
    ], ids=["no-colon", "k-not-int"])
    def test_bad_selector_exits_2(self, selector, message, tmp_path, capsys):
        code = main(["ml", "--synthetic", "--rows", "200", "--select", selector,
                     "--out", str(tmp_path / "m")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _count_verifies(monkeypatch) -> list:
    """Count ``ActivityLog.verify`` calls: one entry per call."""
    calls = []
    verify = ActivityLog.verify

    def counting(log):
        calls.append(log)
        return verify(log)

    monkeypatch.setattr(ActivityLog, "verify", counting)
    return calls


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestAuditCommand:
    def test_clean_fabric_audits_clean(self, tmp_path, monkeypatch, capsys):
        verifies = _count_verifies(monkeypatch)
        out = tmp_path / "a"
        code = main(["audit", "--node", "OVS1", "--out", str(out)])
        assert code == 0
        result = read_json(out / "audit.json")
        assert result["clean"] is True
        assert "clean" in capsys.readouterr().out
        # The log is verified and folded once per audit command; the bytes
        # are the ones written when the diff read its own fold.
        assert len(verifies) == 1
        assert sha256_of(out / "audit.json") == (
            "0f2d6a24a534463863132beb3cac49ff06d1f902836db65b3d4f3db840ffb29b")
        assert sha256_of(out / "audit_diff.txt") == (
            "237432cd1f115e6c6e804f884f0bca006f0e49595840cd0edce50c2cee1a70b9")

    def test_unknown_node_exits_2(self, tmp_path, capsys):
        code = main(["audit", "--node", "GHOST", "--out", str(tmp_path)])
        assert code == 2

    def test_diff_shows_the_observed_table_before_the_restore(self, tmp_path, monkeypatch, capsys):
        def tampered_world(config, seed):
            manager = build_world(config, seed)
            injected = FlowRule("atk-cli", FlowKey(src_ip="10.0.0.66"), Drop(), priority=77)
            apply_flow_mod(manager.fabric, "OVS1", FlowMod.add(injected), Provenance.EXTERNAL)
            return manager

        monkeypatch.setattr(cli, "build_world", tampered_world)
        verifies = _count_verifies(monkeypatch)
        out = tmp_path / "a"
        assert main(["audit", "--node", "OVS1", "--out", str(out)]) == 1
        assert len(verifies) == 1
        assert sha256_of(out / "audit.json") == (
            "ba8cf82d359b8b54e71a2ca493c989684af71e4227171279d52d8eb7aaba517e")
        assert sha256_of(out / "audit_diff.txt") == (
            "b126c66f4c02d638c71023b2f6959688eb3a195cbcc0898b5ac5dd99d25cbdb0")
        assert [r["rule_id"] for r in read_json(out / "audit.json")["extra_rules"]] == ["atk-cli"]
        rows = (out / "audit_diff.txt").read_text(encoding="utf-8").splitlines()[2:]
        observed = [row[:58] for row in rows]
        trusted = [row[61:] for row in rows]
        assert any("atk-cli" in cell for cell in observed)
        assert not any("atk-cli" in cell for cell in trusted)

    def test_activity_log_is_exported_next_to_the_report(self, tmp_path, monkeypatch, capsys):
        def tampered_world(config, seed):
            manager = build_world(config, seed)
            injected = FlowRule("atk-cli", FlowKey(src_ip="10.0.0.66"), Drop(), priority=77)
            apply_flow_mod(manager.fabric, "OVS1", FlowMod.add(injected), Provenance.EXTERNAL)
            return manager

        monkeypatch.setattr(cli, "build_world", tampered_world)
        out = tmp_path / "a"
        assert main(["audit", "--node", "OVS1", "--out", str(out)]) == 1
        path = out / "activity.jsonl"
        log = ActivityLog.load(path)
        assert log.verify()
        assert log.to_jsonl() == path.read_text(encoding="utf-8")
        audits = log.events(EV_AUDIT_PERFORMED)
        assert [(a["node"], a["extra"]) for a in audits] == [("OVS1", ["atk-cli"])]
        assert [r.rule_id for r in log.expected_switch_state("OVS1")] == ["default-punt"]


def _fast_config(tmp_path):
    path = tmp_path / "fast.json"
    if not path.exists():
        path.write_text(json.dumps({"attack_packets": 300, "benign_packets": 10}))
    return path
