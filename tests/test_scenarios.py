"""Scenario harness tests: oracles, determinism, accounting and benchmarks."""

import pytest

from slice_sentinel.controller import ManagerConfig
from slice_sentinel.fabric import Packet, Punted
from slice_sentinel.scenarios import (
    FLOW_SETUP_JITTER_US,
    SCENARIO_IDS,
    TrafficDriver,
    bench_flow_setup,
    bench_signature_latency,
    run_scenario,
)

from conftest import build_world

FAST = {
    "attack1": {"attack_packets": 300, "benign_packets": 20},
    "attack2": {"attack_packets": 300, "benign_packets": 20},
}


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_every_scenario_passes_its_oracle(scenario_id):
    report = run_scenario(scenario_id, config=FAST.get(scenario_id), seed=3)
    assert report.verdict is True, report.details


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_packet_accounting_identity(scenario_id):
    report = run_scenario(scenario_id, config=FAST.get(scenario_id), seed=5)
    packets = report.packets
    assert packets["injected"] == (
        packets["delivered"] + packets["dropped_at_entry"] + packets["dropped_in_slice"]
    )


def test_a_flow_the_controller_cannot_resolve_is_an_unresolved_punt(
    topology_doc, policy_doc, signature_doc
):
    """A guest device with no generic host to route to: the controller
    installs nothing, so the re-injected packet is punted again."""
    topology_doc["slices"] = [
        s for s in topology_doc["slices"] if s["vlan"] != ManagerConfig.generic_slice
    ]
    _fabric, _repo, manager = build_world(topology_doc, policy_doc, signature_doc)
    driver = TrafficDriver(manager)
    stranger = Packet(
        src_ip="10.0.0.77", dst_ip="10.0.0.8", src_mac="de:ad:be:ef",
        dst_mac="00:09:00:BB", payload=b"hi", flow_id="f-stranger",
    )
    trace = driver.send(stranger, ("OVS1", 1), "guest")
    assert trace.outcome == Punted(node="OVS1")
    assert driver.counts == {"guest": {
        "delivered": 0, "dropped_at_entry": 1, "dropped_in_slice": 0, "injected": 1,
        "reasons": {"unresolved-punt": 1},
    }}
    assert driver.packet_totals() == {
        "injected": 1, "delivered": 0, "dropped_at_entry": 1, "dropped_in_slice": 0,
    }


def test_unknown_scenario_id_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("attack99")


class TestDeterminism:
    @pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
    def test_same_seed_and_config_is_byte_identical(self, scenario_id):
        config = FAST.get(scenario_id)
        first = run_scenario(scenario_id, config=config, seed=11).to_json()
        second = run_scenario(scenario_id, config=config, seed=11).to_json()
        assert first == second

    def test_different_seeds_may_differ_but_still_pass(self):
        for seed in (1, 2, 3):
            assert run_scenario("attack2", config=FAST["attack2"], seed=seed).verdict


class TestIsolation:
    def test_attack1_benign_delivery_equals_control(self):
        report = run_scenario("attack1", config=FAST["attack1"], seed=9)
        benign = report.details["streams"]["benign"]
        assert benign["delivered"] == report.details["control_benign_delivered"]

    def test_attack2_benign_delivery_equals_control(self):
        report = run_scenario("attack2", config=FAST["attack2"], seed=9)
        benign = report.details["streams"]["benign"]
        assert benign["delivered"] == report.details["control_benign_delivered"]


class TestAttack2Feedback:
    def test_disabling_blacklist_feedback_fails_the_oracle(self):
        config = {**FAST["attack2"], "blacklist_feedback": False}
        report = run_scenario("attack2", config=config, seed=3)
        assert report.verdict is False
        # without reconfiguration the validator keeps alerting instead
        assert report.details["alerts_for_device"] > 1


class TestShellshockCausality:
    def test_signature_drop_and_control_delivery(self):
        report = run_scenario("shellshock", seed=4)
        assert report.details["signature_drops"] >= 1
        assert report.details["control_delivered"] == 5
        assert report.details["attacker_isolated"] is True


class TestFlowmodAudit:
    def test_exactly_the_injected_rule_and_restoration(self):
        report = run_scenario("flowmod_audit", seed=6)
        first_audit = report.audits[0]
        assert [r["rule_id"] for r in first_audit["extra_rules"]] == ["atk-3346"]
        assert first_audit["missing_rules"] == []
        assert report.audits[1]["clean"] is True


class TestBenchFlowSetup:
    def test_means_non_decreasing_and_security_overhead_positive(self):
        report = bench_flow_setup(sizes=(20, 40, 60), security="both", runs=3, seed=1)
        off = {e["n"]: e["mean_ms"] for e in report.entries if e["security"] == "off"}
        on = {e["n"]: e["mean_ms"] for e in report.entries if e["security"] == "on"}
        sizes = sorted(off)
        assert all(off[a] <= off[b] for a, b in zip(sizes, sizes[1:]))
        assert all(on[a] <= on[b] for a, b in zip(sizes, sizes[1:]))
        assert all(on[n] >= off[n] for n in sizes)

    def test_single_gnodeb_costs_the_round_trip_plus_the_cost_model(self):
        # One gNodeB never queues, so a setup is the round trip plus the
        # modelled stage costs plus one jitter draw, shared by on and off.
        cfg = ManagerConfig()
        security_us = (
            cfg.profile_extract_us + cfg.compose_us + cfg.deploy_us
            + cfg.access_check_us + cfg.flow_validation_base_us
        )
        # round trip, path, then two rules at each of the two switches
        base_us = 2 * cfg.dispatch_us() + cfg.path_compute_us + 4 * cfg.rule_install_us
        for seed in (0, 1, 5):
            report = bench_flow_setup(sizes=(1,), security="both", runs=2, seed=seed)
            mean_ms = {e["security"]: e["mean_ms"] for e in report.entries}
            assert mean_ms["on"] - mean_ms["off"] == pytest.approx(security_us / 1000.0)
            assert base_us / 1000.0 <= mean_ms["off"] <= (base_us + FLOW_SETUP_JITTER_US) / 1000.0

    def test_report_is_deterministic_and_round_trips(self):
        a = bench_flow_setup(sizes=(10,), security="both", runs=2, seed=5)
        b = bench_flow_setup(sizes=(10,), security="both", runs=2, seed=5)
        assert a.to_json() == b.to_json()
        assert "n,security,mean_ms" in a.to_csv()


class TestBenchSignatures:
    def test_latency_monotone_in_signature_count(self):
        report = bench_signature_latency(counts=(0, 10, 100, 1000), runs=2, packets=20, seed=2)
        means = [e["mean_ms"] for e in report.entries]
        assert means == sorted(means)
        # a linear scan over zero signatures costs the baseline alone
        assert report.entries[0]["mean_ms"] == pytest.approx(report.details["baseline_ms"])

    def test_scan_cost_grows_linearly(self):
        report = bench_signature_latency(counts=(10, 1000), runs=2, packets=20, seed=2)
        small, large = report.entries[0]["mean_ms"], report.entries[1]["mean_ms"]
        assert large > small
        # 1000 signatures scan about 100x the patterns of 10
        assert large / small == pytest.approx(100, rel=0.25)

    def test_matching_signature_position_controls_scan_depth(self):
        # Scan-order oracle: a hit placed first ends the scan immediately; the
        # same hit placed last forces a full sweep.
        from slice_sentinel.fabric import Packet
        from slice_sentinel.security_functions import (
            FlowValidatorState, Signature, validate_flow,
        )

        def run(position: int) -> int:
            sigs = [Signature(f"s{j:04d}", bytes([0xF0, j % 10])) for j in range(1000)]
            sigs[position] = Signature(f"s{position:04d}", b"MATCH")
            state = FlowValidatorState(signatures=sigs)
            packet = Packet(src_ip="a", dst_ip="b", src_mac="m", dst_mac="n",
                            payload=b"xx MATCH xx", flow_id="f")
            return validate_flow(state, packet).signatures_scanned

        assert run(0) == 1
        assert run(999) == 1000
