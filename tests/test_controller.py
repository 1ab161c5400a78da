"""Security manager tests: flow setup, alert handling, attestation gating,
handover and key provisioning."""

import json
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slice_sentinel import policy as pol
from slice_sentinel.controller import ManagerConfig, ProvisioningError, UnknownDeviceError
from slice_sentinel.fabric import (
    Delivered,
    Dropped,
    Drop,
    FlowKey,
    FlowMod,
    FlowRule,
    NodeKind,
    Packet,
    Provenance,
    PuntEvent,
    Punted,
    UnknownNodeError,
    apply_flow_mod,
    canonical_json,
    inject_packet,
    report_flow_rules,
)
from slice_sentinel.policy import (
    EV_ACCESS_DENIED,
    EV_ALERT_RAISED,
    EV_DEVICE_BLACKLISTED,
    EV_FUNCTIONS_DEPLOYED,
    EV_PROFILE_EXTRACTED,
    EV_SERVICE_DEPLOYED,
    LogEntry,
    LogIntegrityError,
    extract_profile,
    parse_policy_rule,
)
from slice_sentinel.scenarios import UE_MACS, TrafficDriver, load_default_config
from slice_sentinel.security_functions import (
    AccessVerdict,
    Alert,
    TrustVerdict,
    check_slice_access,
)

from conftest import build_world, drive


def ue_packet(ue: int, dst_ip: str, flow: str, payload: bytes = b"data", ts: int = 0) -> Packet:
    return Packet(
        src_ip=f"10.0.0.{ue}",
        dst_ip=dst_ip,
        src_mac=UE_MACS[ue],
        dst_mac="00:09:00:BB",
        payload=payload,
        flow_id=flow,
        virtual_timestamp=ts,
    )


OVS1_UE_PORT = {1: 1, 2: 2, 3: 3, 4: 4}


def processors(fabric) -> dict:
    """The deployed ingress processors, by node id."""
    return {n: node.processor for n, node in fabric.nodes.items() if node.processor is not None}


def ciphers(fabric) -> dict:
    """The flow ciphers of each node that holds one, by node id."""
    return {n: node.ciphers for n, node in fabric.nodes.items() if node.ciphers}


class TestNewFlow:
    def test_first_flow_deploys_permits_and_installs_bidirectional_rules(self, world):
        fabric, repo, manager = world
        packet = ue_packet(1, "10.0.0.8", "flow-ue1")
        trace, decision = drive(fabric, manager, packet, ("OVS1", 1))
        assert decision.verdict == "permitted"
        record = manager.flows[decision.flow_id]
        assert record.slice_id == 200 and record.service == "Service1"
        assert trace.outcome == Delivered(host="SVC1")
        assert fabric.nodes["OVS1"].processor is not None
        # forward and reverse rules at both OVS1 and CORE1
        nodes = [node for node, _rid in manager.flows["flow-ue1"].rules]
        assert nodes.count("OVS1") == 2 and nodes.count("CORE1") == 2
        assert len(record.rules) == 2 * (len(record.path) - 1)
        # the reverse path works too
        reply = Packet(
            src_ip="10.0.0.8", dst_ip="10.0.0.1", src_mac="00:09:00:BB",
            dst_mac="00:09:00:AA", payload=b"ack", flow_id="flow-ue1-rev",
        )
        back = inject_packet(fabric, reply, ("CORE1", 1))
        assert back.outcome == Delivered(host="UE1")

    def test_second_device_of_same_user_skips_extraction(self, world):
        fabric, repo, manager = world
        drive(fabric, manager, ue_packet(1, "10.0.0.8", "f-ue1"), ("OVS1", 1))
        extractions_before = len(manager.log.events(EV_PROFILE_EXTRACTED))
        assert extractions_before == 1
        trace, decision = drive(fabric, manager, ue_packet(2, "10.0.0.7", "f-ue2"), ("OVS1", 2))
        assert decision.verdict == "permitted"
        assert decision.extraction_performed is False
        assert len(manager.log.events(EV_PROFILE_EXTRACTED)) == extractions_before
        assert trace.outcome == Delivered(host="SVC2")

    def test_deployment_covers_all_devices_of_the_user(self, world):
        fabric, repo, manager = world
        drive(fabric, manager, ue_packet(1, "10.0.0.8", "f-ue1"), ("OVS1", 1))
        dep = fabric.nodes["OVS1"].processor
        assert dep.access.allowed["00:09:00:AA"] == {(200, "Service1")}
        assert dep.access.allowed["00:09:00:AC"] == {(300, "Service2")}

    def test_unregistered_device_routes_to_generic_slice(self, world):
        fabric, repo, manager = world
        stranger = Packet(
            src_ip="10.0.0.77", dst_ip="10.0.0.8", src_mac="de:ad:be:ef",
            dst_mac="00:09:00:BB", payload=b"hi", flow_id="f-stranger",
        )
        trace, decision = drive(fabric, manager, stranger, ("OVS1", 1))
        assert decision.verdict == "generic"
        assert manager.flows[decision.flow_id].slice_id == 4094
        assert trace.outcome == Delivered(host="SVC4")

    def test_a_guest_flow_without_a_generic_host_is_an_error(
        self, topology_doc, policy_doc, signature_doc
    ):
        topology_doc["slices"] = [
            s for s in topology_doc["slices"] if s["vlan"] != ManagerConfig.generic_slice
        ]
        fabric, _repo, manager = build_world(topology_doc, policy_doc, signature_doc)
        tables = {n: node.table.rules() for n, node in fabric.nodes.items()}
        stranger = Packet(
            src_ip="10.0.0.77", dst_ip="10.0.0.8", src_mac="de:ad:be:ef",
            dst_mac="00:09:00:BB", payload=b"hi", flow_id="f-stranger",
        )
        trace, decision = drive(fabric, manager, stranger, ("OVS1", 1))
        assert decision.verdict == "error"
        assert decision.error == "no host in generic slice 4094"
        assert "f-stranger" not in manager.flows
        # No rule went in, so the next packet is punted again rather than
        # carried into the core to drop there.
        assert {n: node.table.rules() for n, node in fabric.nodes.items()} == tables
        assert trace.outcome == Punted(node="OVS1")

    def test_unauthorized_request_denied_and_dropped_at_entry(self, world):
        fabric, repo, manager = world
        # carol's printer is registered for the home slice only
        printer = ue_packet(3, "10.0.0.8", "f-printer")
        trace, decision = drive(fabric, manager, printer, ("OVS1", 3))
        assert decision.verdict == "deny-unauthorized"
        assert "f-printer" not in manager.flows
        assert trace.outcome == Dropped(node="OVS1", reason="deny-unauthorized")

    def test_a_packet_without_flow_id_is_named_by_its_addresses(self, world):
        fabric, repo, manager = world
        _trace, decision = drive(fabric, manager, ue_packet(1, "10.0.0.8", ""), ("OVS1", 1))
        assert decision.flow_id == "10.0.0.1->10.0.0.8"
        assert list(manager.flows) == ["10.0.0.1->10.0.0.8"]
        # The controller's denial entry carries the same default id.
        _trace, denied = drive(fabric, manager, ue_packet(3, "10.0.0.8", ""), ("OVS1", 3))
        assert denied.verdict == "deny-unauthorized"
        first_denial = manager.log.events(pol.EV_ACCESS_DENIED)[0]
        assert first_denial["flow_id"] == "10.0.0.3->10.0.0.8"

    def test_no_route_reported_as_error(self, topology_doc, policy_doc, world):
        fabric, repo, manager = world
        # island host: registered service IP with no attached node
        from slice_sentinel.policy import parse_policy_rule
        repo.register(parse_policy_rule({
            "id": "99", "hostip": "10.0.0.1", "hostmac": "00:09:00:AA",
            "destip": "10.99.0.1",
            "user": {"id": "alice"}, "contract_id": "C-ALICE-1",
            "actions": [{"Service": "Ghost", "Slice-id": "VLAN200"}],
        }))
        packet = ue_packet(1, "10.99.0.1", "f-ghost")
        _trace, decision = drive(fabric, manager, packet, ("OVS1", 1))
        assert decision.verdict == "error"
        assert "no host" in decision.error

    def test_a_destination_host_without_links_is_no_route(
        self, topology_doc, policy_doc, signature_doc
    ):
        topology = {**topology_doc, "nodes": [
            *topology_doc["nodes"], {"id": "ISLAND", "kind": "host", "ip": "10.99.0.1"},
        ]}
        fabric, repo, manager = build_world(topology, policy_doc, signature_doc)
        from slice_sentinel.policy import parse_policy_rule
        repo.register(parse_policy_rule({
            "id": "99", "hostip": "10.0.0.1", "hostmac": "00:09:00:AA",
            "destip": "10.99.0.1",
            "user": {"id": "alice"}, "contract_id": "C-ALICE-1",
            "actions": [{"Service": "Island", "Slice-id": "VLAN200"}],
        }))
        trace = inject_packet(fabric, ue_packet(1, "10.99.0.1", "f-island"), ("OVS1", 1))
        assert trace.outcome == Punted(node="OVS1")
        installs = len(manager.log.events(pol.EV_RULE_INSTALLED))
        before = {n: report_flow_rules(fabric, n) for n in fabric.nodes}
        decision = manager.new_flow(fabric.punt_events.popleft())
        assert decision.verdict == "error"
        assert decision.error == "no route from OVS1 to ISLAND"
        assert "f-island" not in manager.flows
        assert {n: report_flow_rules(fabric, n) for n in fabric.nodes} == before
        assert len(manager.log.events(pol.EV_RULE_INSTALLED)) == installs


class TestNewFlowSecurityOff:
    @pytest.fixture
    def plain_world(self, topology_doc, policy_doc, signature_doc):
        fabric, repo, manager = build_world(topology_doc, policy_doc, signature_doc)
        manager.config = replace(manager.config, security_enabled=False)
        return fabric, repo, manager

    def test_registered_device_is_permitted_on_its_path_rules_alone(self, plain_world):
        fabric, repo, manager = plain_world
        log_before = len(manager.log)
        trace, decision = drive(fabric, manager, ue_packet(1, "10.0.0.8", "f-plain"), ("OVS1", 1))
        cfg = manager.config
        assert decision.verdict == "permitted"
        record = manager.flows[decision.flow_id]
        assert (record.slice_id, record.service) == (200, "Service1")
        assert decision.extraction_performed is False
        rules = manager.flows["f-plain"].rules
        nodes = [node for node, _rid in rules]
        assert nodes.count("OVS1") == 2 and nodes.count("CORE1") == 2
        for node, rule_id in rules:
            assert rule_id in {r.rule_id for r in fabric.nodes[node].table.rules()}
        assert decision.cost_us == (
            cfg.dispatch_us() + cfg.path_compute_us + 4 * cfg.rule_install_us
        )
        assert manager.log.events(EV_PROFILE_EXTRACTED) == []
        assert fabric.nodes["OVS1"].processor is None
        assert len(manager.log) == log_before + 4  # the four rule installs only
        assert trace.outcome == Delivered(host="SVC1")

    def test_destination_without_a_host_is_an_error(self, plain_world):
        fabric, repo, manager = plain_world
        _trace, decision = drive(fabric, manager, ue_packet(1, "10.99.0.1", "f-ghost"), ("OVS1", 1))
        assert decision.verdict == "error"
        assert decision.error == "no host for destination 10.99.0.1"
        assert "f-ghost" not in manager.flows
        assert decision.cost_us == manager.config.dispatch_us()


def test_security_enabled_is_the_one_manager_setting():
    assert [f.name for f in fields(ManagerConfig)] == ["security_enabled"]


class TestComposeDeployment:
    def test_profile_with_two_devices_lands_both(self, world):
        fabric, repo, manager = world
        dep = manager.deploy_functions("OVS1", "alice")
        assert set(dep.access.allowed) == {"00:09:00:AA", "00:09:00:AC"}
        assert dep.access.allowed == extract_profile(repo, "alice")
        assert fabric.nodes["OVS1"].processor is dep

    def test_no_profile_gives_generic_only_deployment(self, world):
        fabric, repo, manager = world
        dep = manager.deploy_functions("OVS1", None)
        assert dep.access.allowed == {}
        # with no allowed pairs every device, registered or not, rides generic
        probe = ue_packet(1, "10.0.0.8", "f")
        assert check_slice_access(dep.access, probe, (200, "Service1")) == AccessVerdict.ROUTE_GENERIC


class TestAlertHandling:
    def test_alert_blacklists_device_and_replaces_rules_with_drops(self, world):
        fabric, repo, manager = world
        drive(fabric, manager, ue_packet(4, "10.0.0.8", "f-sensor"), ("OVS1", 4))
        alert = Alert(
            source="flow-validator", device_id="00:09:00:AE", flow_id="f-sensor",
            reason="anomaly:rate", severity="high", time_ms=5,
        )
        action = manager.alert(alert)
        assert action == "blacklisted"
        assert "00:09:00:AE" in fabric.nodes["OVS1"].processor.access.blacklist
        # subsequent packets die at the entry node
        trace = inject_packet(fabric, ue_packet(4, "10.0.0.8", "f-sensor"), ("OVS1", 4))
        assert trace.outcome == Dropped(node="OVS1", reason="deny-blacklisted")

    def test_duplicate_alert_is_idempotent(self, world):
        fabric, repo, manager = world
        drive(fabric, manager, ue_packet(4, "10.0.0.8", "f-sensor"), ("OVS1", 4))
        alert = Alert("flow-validator", "00:09:00:AE", "f-sensor", "anomaly:rate", "high", 5)
        assert manager.alert(alert) == "blacklisted"
        assert manager.alert(alert) == "noop"

    def test_unknown_device_alert_contains_it_and_tells_the_administrator_once(self, world):
        fabric, repo, manager = world
        alert = Alert("flow-validator", "no:such:mac", "f-x", "anomaly:rate", "high", 0)
        assert manager.alert(alert) == "blacklisted"
        assert "no:such:mac" in manager.global_blacklist
        assert [e["device_id"] for e in manager.log.events(EV_DEVICE_BLACKLISTED)] == ["no:such:mac"]
        assert [a["kind"] for a in manager.admin_alerts] == ["unknown-device-alert"]
        # A repeated alert is a no-op, like any other device's.
        assert manager.alert(alert) == "noop"
        assert len(manager.admin_alerts) == 1

    def test_an_unknown_device_flood_is_contained_at_the_rate_cap(
        self, topology_doc, policy_doc, signature_doc
    ):
        # Without a generic slice a guest's flow is refused, so no flow record
        # ever names the device: only the blacklist can stop its alerts.
        topology_doc["slices"] = [
            s for s in topology_doc["slices"] if s["vlan"] != ManagerConfig.generic_slice
        ]
        fabric, _repo, manager = build_world(topology_doc, policy_doc, signature_doc)
        driver = TrafficDriver(manager)
        for t in range(300):
            stranger = Packet(
                src_ip="10.0.0.77", dst_ip="10.0.0.8", src_mac="de:ad:be:ef",
                dst_mac="00:09:00:BB", payload=b"hi", flow_id="f-stranger",
                virtual_timestamp=t,
            )
            driver.send(stranger, ("OVS1", 1), "guest")
        assert len(manager.log.events(EV_ALERT_RAISED)) == 1
        assert len(manager.log.events(EV_DEVICE_BLACKLISTED)) == 1
        assert len(manager.log.events(EV_ACCESS_DENIED)) == 1
        assert [a["kind"] for a in manager.admin_alerts] == ["unknown-device-alert"]
        assert driver.counts["guest"]["reasons"]["deny-blacklisted"] == 249

    def test_periodic_tick_audits_on_the_configured_interval(self, world):
        fabric, repo, manager = world
        assert manager.tick(now_ms=0) == []  # interval not yet elapsed
        injected = FlowRule("atk-tick", FlowKey(src_ip="10.0.0.55"), Drop(), priority=9)
        apply_flow_mod(fabric, "OVS1", FlowMod.add(injected), Provenance.EXTERNAL)
        results = manager.tick(now_ms=manager.config.audit_interval_ms)
        dirty = [r for r in results if not r.clean]
        assert len(dirty) == 1 and dirty[0].node == "OVS1"
        # a tick inside the same interval does nothing
        assert manager.tick(now_ms=manager.config.audit_interval_ms + 1) == []

    def test_audit_mismatch_raises_admin_alert_and_restores(self, world):
        fabric, repo, manager = world
        drive(fabric, manager, ue_packet(1, "10.0.0.8", "f-ue1"), ("OVS1", 1))
        injected = FlowRule(
            rule_id="atk-3346",
            match=FlowKey(src_ip="10.0.0.66"),
            action=Drop(),
            priority=50,
        )
        apply_flow_mod(fabric, "OVS1", FlowMod.add(injected), Provenance.EXTERNAL)
        result = manager.audit_now("OVS1")
        assert not result.clean
        assert [r.rule_id for r in result.extra_rules] == ["atk-3346"]
        mismatch = next(a for a in manager.admin_alerts if a["kind"] == "switch-state-mismatch")
        # immutable, because the logged audit entry holds the same values
        assert mismatch["extra"] == ("atk-3346",)
        # restore converged the switch back to the trusted state
        assert manager.audit_now("OVS1").clean
        ids = [r.rule_id for r in report_flow_rules(fabric, "OVS1")]
        assert "atk-3346" not in ids


def churned_world(topology_doc, policy_doc, signature_doc):
    """Two installed flows, then three external flow-mods on two switches."""
    fabric, repo, manager = build_world(topology_doc, policy_doc, signature_doc)
    drive(fabric, manager, ue_packet(1, "10.0.0.8", "f-ue1"), ("OVS1", 1))
    drive(fabric, manager, ue_packet(2, "10.0.0.7", "f-ue2"), ("OVS1", 2))
    extra = FlowRule("atk-extra", FlowKey(src_ip="10.0.0.66"), Drop(), priority=50)
    apply_flow_mod(fabric, "OVS1", FlowMod.add(extra), Provenance.EXTERNAL)
    deleted = next(rid for node, rid in manager.flows["f-ue1"].rules if node == "CORE1")
    apply_flow_mod(fabric, "CORE1", FlowMod.delete(deleted), Provenance.EXTERNAL)
    changed_id = next(rid for node, rid in manager.flows["f-ue2"].rules if node == "OVS1")
    original = next(r for r in fabric.nodes["OVS1"].table.rules() if r.rule_id == changed_id)
    changed = replace(original, action=Drop())
    apply_flow_mod(fabric, "OVS1", FlowMod.add(changed), Provenance.EXTERNAL)
    return fabric, repo, manager


def switches_of(fabric) -> list[str]:
    return sorted(n for n, node in fabric.nodes.items() if node.kind != NodeKind.HOST)


def assert_records_name_installed_rules(fabric, manager) -> None:
    """Every (node, rule id) a flow record names is in that node's table."""
    for flow_id, record in manager.flows.items():
        for node, rule_id in record.rules:
            installed = {r.rule_id for r in fabric.nodes[node].table.rules()}
            assert rule_id in installed, (flow_id, node, rule_id)


class TestTickAudit:
    def test_tick_equals_one_audit_now_per_switch(self, topology_doc, policy_doc, signature_doc):
        _fabric, _repo, ticked = churned_world(topology_doc, policy_doc, signature_doc)
        fabric, _repo, audited = churned_world(topology_doc, policy_doc, signature_doc)
        by_tick = ticked.tick(now_ms=ticked.config.audit_interval_ms)
        by_audit = [audited.audit_now(node) for node in switches_of(fabric)]
        assert [r.to_dict() for r in by_tick] == [r.to_dict() for r in by_audit]
        found = {
            (r.node, kind)
            for r in by_tick
            for kind, rules in (
                ("extra", r.extra_rules), ("missing", r.missing_rules), ("modified", r.modified_rules)
            )
            if rules
        }
        assert found == {("OVS1", "extra"), ("OVS1", "modified"), ("CORE1", "missing")}
        assert ticked.log.to_jsonl() == audited.log.to_jsonl()
        assert ticked.admin_alerts == audited.admin_alerts

    def test_tick_verifies_the_log_once(self, world, monkeypatch):
        fabric, _repo, manager = world
        verify = manager.log.verify
        calls = []

        def counting_verify():
            calls.append(1)
            return verify()

        monkeypatch.setattr(manager.log, "verify", counting_verify)
        results = manager.tick(now_ms=manager.config.audit_interval_ms)
        assert len(results) == len(switches_of(fabric)) > 1
        assert len(calls) == 1

    def test_audit_now_verifies_the_log_once(self, world, monkeypatch):
        fabric, _repo, manager = world
        verify = manager.log.verify
        calls = []

        def counting_verify():
            calls.append(1)
            return verify()

        monkeypatch.setattr(manager.log, "verify", counting_verify)
        for n, node in enumerate(switches_of(fabric), 1):
            assert manager.audit_now(node).clean
            assert len(calls) == n

    def test_a_tick_parses_only_the_installs_and_deletes_since_the_last(
        self, topology_doc, policy_doc, signature_doc, monkeypatch
    ):
        # An entry append made carries its install or delete, so a tick
        # parses none of them; a loaded log's entries are parsed, each once.
        parsed = []

        def counting_loads(data, *args, **kwargs):
            parsed.append(data)
            return json.loads(data, *args, **kwargs)

        monkeypatch.setattr(pol, "json", SimpleNamespace(loads=counting_loads))
        fabric, _repo, manager = churned_world(topology_doc, policy_doc, signature_doc)
        interval = manager.config.audit_interval_ms
        assert not all(r.clean for r in manager.tick(now_ms=interval))
        assert parsed == []

        loaded = pol.ActivityLog.from_jsonl(manager.log.to_jsonl())
        table_entries = [
            e.data for e in loaded.entries
            if e.event["type"] in (pol.EV_RULE_INSTALLED, pol.EV_RULE_DELETED)
        ]
        assert table_entries and all(e.op is None for e in loaded.entries)
        manager.log = loaded
        parsed.clear()
        results = manager.tick(now_ms=2 * interval)
        assert len(results) == len(switches_of(fabric)) and all(r.clean for r in results)
        assert parsed == table_entries
        # New flows append installs, and no later tick parses anything.
        before = len(loaded)
        drive(fabric, manager, ue_packet(3, "10.0.0.6", "f-ue3"), ("OVS1", 3))
        drive(fabric, manager, ue_packet(4, "10.0.0.8", "f-ue4"), ("OVS1", 4))
        assert any(isinstance(e.op, FlowRule) for e in loaded.entries[before:])
        for k in (3, 4):
            assert all(r.clean for r in manager.tick(now_ms=k * interval))
        assert parsed == table_entries

    def test_a_clean_switchs_trusted_rules_are_the_installed_objects(
        self, topology_doc, policy_doc, signature_doc
    ):
        fabric, _repo, manager = churned_world(topology_doc, policy_doc, signature_doc)
        interval = manager.config.audit_interval_ms
        manager.tick(now_ms=interval)  # restores the three tampered rules
        results = manager.tick(now_ms=2 * interval)
        assert all(r.clean for r in results)
        compared = 0
        for node in switches_of(fabric):
            trusted = manager.log.expected_switch_state(node)
            observed = report_flow_rules(fabric, node)
            assert len(trusted) == len(observed)
            assert all(t is o for t, o in zip(trusted, observed))
            compared += len(trusted)
        assert compared > 0

    def test_a_second_flow_on_the_same_addresses_replaces_the_first_flows_rules(self, world):
        fabric, _repo, manager = world
        drive(fabric, manager, ue_packet(1, "10.0.0.8", "f-a"), ("OVS1", 1))
        first = list(manager.flows["f-a"].rules)
        # The first flow's rules now match every packet on these addresses,
        # so the second flow id reaches the controller only as its own punt.
        header = replace(ue_packet(1, "10.0.0.8", "f-b"), payload=b"")
        before = len(manager.log)
        assert manager.new_flow(PuntEvent(node="OVS1", port=1, packet=header)).verdict == "permitted"
        # The second flow retires the first: its deletes, then the new installs.
        second = list(manager.flows["f-b"].rules)
        logged = [
            (e["type"], e["node"], e.get("rule_id") or e["rule"]["rule_id"])
            for e in manager.log.events()[before:]
        ]
        assert logged == [(pol.EV_RULE_DELETED, n, r) for n, r in first] + [
            (pol.EV_RULE_INSTALLED, n, r) for n, r in second
        ]
        assert list(manager.flows) == ["f-b"]
        with pytest.raises(ValueError, match="unknown flow"):
            manager.provision_security("f-a")
        assert_records_name_installed_rules(fabric, manager)
        interval = manager.config.audit_interval_ms
        assert all(r.clean for r in manager.tick(now_ms=interval))
        # Blacklisting clears the one remaining flow and anchors its drop.
        alert = Alert("flow-validator", "00:09:00:AA", "f-b", "anomaly:rate", "high", 5)
        before = len(manager.log)
        assert manager.alert(alert) == "blacklisted"
        deleted = [
            (e["node"], e["rule_id"])
            for e in manager.log.events()[before:] if e["type"] == pol.EV_RULE_DELETED
        ]
        assert deleted == second
        assert_records_name_installed_rules(fabric, manager)
        results = manager.tick(now_ms=2 * interval)
        assert len(results) == len(switches_of(fabric))
        assert all(r.clean for r in results), [r.to_dict() for r in results if not r.clean]

    def test_tampered_log_fails_the_tick_before_any_audit(
        self, topology_doc, policy_doc, signature_doc
    ):
        fabric, _repo, manager = churned_world(topology_doc, policy_doc, signature_doc)
        idx = len(manager.log) // 2
        entry = manager.log.entries[idx]
        event = entry.event
        forged = canonical_json(dict(event, time_ms=event.get("time_ms", 0) + 1)).encode()
        manager.log.entries[idx] = LogEntry(entry.seq, forged, entry.prev_hash, entry.entry_hash)
        entries = len(manager.log)
        tables = {n: node.table.rules() for n, node in fabric.nodes.items()}
        alerts = list(manager.admin_alerts)
        with pytest.raises(LogIntegrityError):
            manager.tick(now_ms=manager.config.audit_interval_ms)
        assert len(manager.log) == entries
        assert {n: node.table.rules() for n, node in fabric.nodes.items()} == tables
        assert manager.admin_alerts == alerts


# One step on the bundled topologies: UE ``ue`` punts a first packet to a
# service IP under a fresh flow id (an address pair may repeat), is reported
# by an alert, or hands over to its other edge, if it has one.
FLOW_STEPS = st.lists(st.one_of(
    st.tuples(st.just("flow"), st.integers(1, 4), st.sampled_from(
        ["10.0.0.5", "10.0.0.6", "10.0.0.7", "10.0.0.8"])),
    st.tuples(st.just("alert"), st.integers(1, 4), st.none()),
    st.tuples(st.just("handover"), st.integers(1, 4), st.none()),
), max_size=12)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["topology.json", "topology_handover.json"]), FLOW_STEPS)
def test_flow_records_name_only_installed_rules(topology, steps):
    fabric, _repo, manager = build_world(
        load_default_config(topology), load_default_config("policies.json"),
        load_default_config("signatures.json"),
    )
    edges = sorted(n for n, node in fabric.nodes.items() if node.kind is NodeKind.EDGE)
    homes = {ue: [e for e in edges if fabric.port_toward(e, f"UE{ue}") is not None] for ue in UE_MACS}
    at = {ue: homes[ue][0] for ue in UE_MACS}
    interval = manager.config.audit_interval_ms
    for step, (kind, ue, dst_ip) in enumerate(steps, start=1):
        if kind == "flow":
            header = replace(ue_packet(ue, dst_ip, f"f-{step}"), payload=b"")
            port = fabric.port_toward(at[ue], f"UE{ue}")
            manager.new_flow(PuntEvent(node=at[ue], port=port, packet=header))
        elif kind == "alert":
            manager.alert(Alert("flow-validator", UE_MACS[ue], "f", "anomaly:rate", "high", 1))
        elif len(homes[ue]) > 1:
            to_edge = next(e for e in homes[ue] if e != at[ue])
            try:
                manager.handover(UE_MACS[ue], at[ue], to_edge)
                at[ue] = to_edge
            except UnknownDeviceError:
                pass  # no state at its edge yet: nothing changed
        assert_records_name_installed_rules(fabric, manager)
        results = manager.tick(now_ms=step * interval)
        assert all(r.clean for r in results), [r.to_dict() for r in results if not r.clean]


class TestAttestationGate:
    def test_clean_host_deploys(self, world):
        fabric, repo, manager = world
        assert manager.deploy_service_gated("SVC1", "Service1") == TrustVerdict.TRUSTED
        deployed = manager.log.events(EV_SERVICE_DEPLOYED)
        assert [(e["node"], e["service"]) for e in deployed] == [("SVC1", "Service1")]

    def test_tampered_host_refused_with_admin_alert(self, world):
        fabric, repo, manager = world
        fabric.set_tampered("SVC3", True)
        assert manager.deploy_service_gated("SVC3", "Service3") == TrustVerdict.COMPROMISED
        assert any(a["kind"] == "service-deployment-refused" for a in manager.admin_alerts)
        assert manager.log.events(EV_SERVICE_DEPLOYED) == []

    def test_replayed_report_rejected_as_stale(self, world):
        from slice_sentinel.fabric import measure_attestation
        from slice_sentinel.security_functions import validate_attestation

        fabric, repo, manager = world
        old = measure_attestation(fabric, "SVC1", b"n" * 16)
        fresh_nonce = b"m" * 16
        verdict = validate_attestation(fabric.nodes["SVC1"].expected_hash, old, fresh_nonce)
        assert verdict == TrustVerdict.STALE_NONCE


class TestHandover:
    def test_authorizations_conserved_and_no_new_extraction(self, handover_world):
        fabric, repo, manager = handover_world
        drive(fabric, manager, ue_packet(1, "10.0.0.8", "f-ue1"), ("OVS1", 1))
        before = frozenset(fabric.nodes["OVS1"].processor.access.allowed["00:09:00:AA"])
        extractions = len(manager.log.events(EV_PROFILE_EXTRACTED))
        manager.handover("00:09:00:AA", "OVS1", "OVS2")
        assert frozenset(fabric.nodes["OVS2"].processor.access.allowed["00:09:00:AA"]) == before
        assert len(manager.log.events(EV_PROFILE_EXTRACTED)) == extractions
        # flow continues from the new edge (UE1 attaches to OVS2 at port 5)
        port = fabric.port_toward("OVS2", "UE1")
        trace = inject_packet(fabric, ue_packet(1, "10.0.0.8", "f-ue1"), ("OVS2", port))
        assert trace.outcome == Delivered(host="SVC1")

    def test_blacklisted_device_stays_blocked_after_handover(self, handover_world):
        fabric, repo, manager = handover_world
        drive(fabric, manager, ue_packet(4, "10.0.0.8", "f-sensor"), ("OVS1", 4))
        manager.alert(Alert("flow-validator", "00:09:00:AE", "f-sensor", "anomaly:rate", "high", 1))
        manager.handover("00:09:00:AE", "OVS1", "OVS2")
        assert "00:09:00:AE" in manager.global_blacklist
        port = fabric.port_toward("OVS2", "UE4")
        trace = inject_packet(fabric, ue_packet(4, "10.0.0.8", "f-sensor"), ("OVS2", port))
        assert isinstance(trace.outcome, Dropped)
        assert trace.outcome.reason == "deny-blacklisted"

    def test_handover_to_an_edge_without_the_device_clears_its_rules(self, handover_world):
        fabric, repo, manager = handover_world
        # UE2 is linked to OVS1 only, so OVS2 has no port toward it.
        drive(fabric, manager, ue_packet(2, "10.0.0.7", "f-ue2"), ("OVS1", 2))
        record = manager.flows["f-ue2"]
        rules, path = list(record.rules), record.path
        assert rules and fabric.port_toward("OVS2", "UE2") is None
        result = manager.handover("00:09:00:AC", "OVS1", "OVS2")
        assert result.rules_reanchored == 0
        deleted = [(e["node"], e["rule_id"]) for e in manager.log.events(pol.EV_RULE_DELETED)]
        assert deleted == rules
        for node, rule_id in rules:
            assert rule_id not in {r.rule_id for r in fabric.nodes[node].table.rules()}
        assert (record.edge, record.path, record.rules) == ("OVS1", path, [])
        assert all(audit.clean for audit in manager.tick(1000))

    @pytest.fixture
    def confidential_handover_world(self, handover_topology_doc, policy_doc, signature_doc):
        """UE1, linked to both edges, has a provisioned flow from OVS1 to SVC1."""
        for rule in policy_doc:
            if rule["hostmac"] == "00:09:00:AA":
                rule["actions"][0]["security"].append("confidentiality")
        fabric, repo, manager = build_world(handover_topology_doc, policy_doc, signature_doc)
        drive(fabric, manager, ue_packet(1, "10.0.0.8", "f-ue1"), ("OVS1", 1))
        key_id = manager.provision_security("f-ue1")
        return fabric, manager, key_id

    def test_a_provisioned_flow_stays_encrypted_after_a_handover(
        self, confidential_handover_world
    ):
        fabric, manager, key_id = confidential_handover_world
        assert manager.handover("00:09:00:AA", "OVS1", "OVS2").rules_reanchored == 4
        port = fabric.port_toward("OVS2", "UE1")
        packet = ue_packet(1, "10.0.0.8", "f-ue1", payload=b"vitals")
        trace = inject_packet(fabric, packet, ("OVS2", port))
        assert trace.outcome == Delivered(host="SVC1")
        first, last = trace.events
        assert (first.node, first.to, first.encrypted) == ("OVS2", "CORE1", True)
        assert b"vitals" not in first.payload
        assert (last.to, last.encrypted, last.payload) == ("SVC1", False, b"vitals")
        # The encrypt side moved from OVS1 to OVS2; the egress kept its side.
        assert {node: set(held) for node, held in ciphers(fabric).items()} == {
            "OVS2": {"f-ue1"}, "CORE1": {"f-ue1"},
        }
        distributed = [(e["node"], e["key_id"]) for e in manager.log.events(pol.EV_KEY_DISTRIBUTED)]
        assert distributed == [("OVS1", key_id), ("CORE1", key_id), ("OVS2", key_id)]
        assert all(audit.clean for audit in manager.tick(1000))

    def test_a_handover_to_an_edge_failing_attestation_contains_a_provisioned_flow(
        self, confidential_handover_world
    ):
        fabric, manager, key_id = confidential_handover_world
        fabric.set_tampered("OVS2", True)
        assert manager.handover("00:09:00:AA", "OVS1", "OVS2").rules_reanchored == 0
        refused = [(a["flow_id"], a["node"], a["verdict"])
                   for a in manager.admin_alerts if a["kind"] == "provisioning-refused"]
        assert refused == [("f-ue1", "OVS2", "compromised")]
        assert not ciphers(fabric)
        port = fabric.port_toward("OVS2", "UE1")
        trace = inject_packet(fabric, ue_packet(1, "10.0.0.8", "f-ue1"), ("OVS2", port))
        [(_node, drop_id)] = manager.flows["f-ue1"].rules
        assert trace.outcome == Dropped(node="OVS2", reason=f"drop-rule:{drop_id}")
        assert trace.events == []
        assert all(audit.clean for audit in manager.tick(1000))

    def test_unknown_device_handover_rejected(self, handover_world):
        fabric, repo, manager = handover_world
        with pytest.raises(UnknownDeviceError):
            manager.handover("no:such:mac", "OVS1", "OVS2")

    def test_a_handover_from_or_to_an_unknown_edge_is_rejected(self, handover_world):
        fabric, repo, manager = handover_world
        drive(fabric, manager, ue_packet(1, "10.0.0.8", "f-ue1"), ("OVS1", 1))
        logged = len(manager.log)
        with pytest.raises(UnknownDeviceError):
            manager.handover("00:09:00:AA", "NOWHERE", "OVS2")
        with pytest.raises(UnknownNodeError):
            manager.handover("00:09:00:AA", "OVS1", "NOWHERE")
        assert len(manager.log) == logged
        assert fabric.nodes["OVS2"].processor is None


def test_packets_screened_alike_share_one_frozen_decision(world):
    fabric, repo, manager = world
    drive(fabric, manager, ue_packet(1, "10.0.0.8", "f-ue1"), ("OVS1", 1))
    dep = fabric.nodes["OVS1"].processor
    admitted = [dep.process(ue_packet(1, "10.0.0.8", "f-ue1", ts=t)) for t in (10, 11)]
    denied = [dep.process(ue_packet(1, "10.0.0.6", "f-home", ts=t)) for t in (12, 13)]
    assert admitted[0] is admitted[1] and admitted[0].allow
    assert denied[0] is denied[1] and denied[0].reason == "deny-unauthorized"
    with pytest.raises(FrozenInstanceError):
        admitted[0].allow = False


class TestOneDeploymentPerEdge:
    def test_deployment_is_the_ingress_processor_and_shares_the_one_blacklist(
        self, handover_world
    ):
        fabric, repo, manager = handover_world

        def assert_one_object_per_edge():
            for dep in processors(fabric).values():
                assert dep.access.blacklist is manager.global_blacklist

        drive(fabric, manager, ue_packet(1, "10.0.0.8", "f-ue1"), ("OVS1", 1))
        drive(fabric, manager, ue_packet(4, "10.0.0.8", "f-sensor"), ("OVS1", 4))
        assert_one_object_per_edge()
        manager.handover("00:09:00:AA", "OVS1", "OVS2")
        assert set(processors(fabric)) == {"OVS1", "OVS2"}
        assert_one_object_per_edge()
        manager.alert(Alert("flow-validator", "00:09:00:AE", "f-sensor", "anomaly:rate", "high", 1))
        assert_one_object_per_edge()
        assert manager.global_blacklist == {"00:09:00:AE"}

    def test_device_blacklisted_before_an_edge_is_deployed_is_denied_there(
        self, handover_world
    ):
        fabric, repo, manager = handover_world
        action = manager.alert(
            Alert("flow-validator", "00:09:00:AE", "f-sensor", "anomaly:rate", "high", 0)
        )
        assert action == "blacklisted"
        assert fabric.nodes["OVS2"].processor is None
        port = fabric.port_toward("OVS2", "UE4")
        trace, decision = drive(fabric, manager, ue_packet(4, "10.0.0.8", "f-sensor"), ("OVS2", port))
        assert decision.verdict == "deny-blacklisted"
        assert "f-sensor" not in manager.flows
        assert trace.outcome == Dropped(node="OVS2", reason="deny-blacklisted")


HEADER_SIGNATURE = {"id": "sig-evil-flow", "pattern_hex": b"flow=evil".hex(), "scope": "header"}

# device, source ip, destination ip, flow id, ingress port, expected deny reason
SCREEN_CASES = {
    "authorized": ("00:09:00:AA", "10.0.0.1", "10.0.0.8", "f-ue1", 1, None),
    "unauthorized-destination": (
        "00:09:00:AA", "10.0.0.1", "10.0.0.6", "f-ue1-home", 1, "deny-unauthorized"
    ),
    "unregistered": ("de:ad:be:ef", "10.0.0.77", "10.0.0.8", "f-guest", 2, None),
    "blacklisted": ("00:09:00:AE", "10.0.0.4", "10.0.0.8", "f-sensor", 4, "deny-blacklisted"),
    "header-signature": (
        "00:09:00:AA", "10.0.0.1", "10.0.0.8", "evil-ue1", 1, "signature:sig-evil-flow"
    ),
    # No flow id: both paths name the flow "10.0.0.3->10.0.0.8".
    "no-flow-id": ("00:09:00:AD", "10.0.0.3", "10.0.0.8", "", 3, "deny-unauthorized"),
}


@pytest.mark.parametrize("case", sorted(SCREEN_CASES))
def test_flow_setup_and_datapath_screen_a_header_alike(
    case, topology_doc, policy_doc, signature_doc
):
    """The first packet of a flow passes the edge's own functions at header
    scope: ``new_flow`` denies it exactly when ``process`` denies the same
    header at the same edge, and for the same reason."""
    device, src_ip, dst_ip, flow, port, expected = SCREEN_CASES[case]
    fabric, repo, manager = build_world(
        topology_doc, policy_doc, signature_doc + [HEADER_SIGNATURE]
    )
    if case == "blacklisted":
        manager.alert(Alert("flow-validator", device, flow, "anomaly:rate", "high", 0))
    packet = Packet(src_ip=src_ip, dst_ip=dst_ip, src_mac=device, dst_mac="00:09:00:BB",
                    payload=b"data", flow_id=flow)
    assert isinstance(inject_packet(fabric, packet, ("OVS1", port)).outcome, Punted)
    assert fabric.nodes["OVS1"].processor is None
    logged = len(manager.log)
    decision = manager.new_flow(fabric.punt_events.popleft())
    setup_logged = [e["type"] for e in manager.log.events()[logged:]
                    if e["type"] not in (EV_PROFILE_EXTRACTED, EV_FUNCTIONS_DEPLOYED)]
    logged = len(manager.log)
    ingress = fabric.nodes["OVS1"].processor.process(packet)
    datapath_logged = [e["type"] for e in manager.log.events()[logged:]]

    setup_denied = decision.verdict.startswith("deny-")
    assert setup_denied == (not ingress.allow) == (expected is not None)
    if setup_denied:
        reason = decision.error if decision.verdict == "deny-validation" else decision.verdict
        assert reason == ingress.reason == expected
    if decision.verdict == "deny-validation":
        # A validation drop is logged as its alert alone, by either path.
        assert setup_logged == datapath_logged == [EV_ALERT_RAISED]
    # An access denial is logged once, and both paths name the flow alike.
    denied = [e["flow_id"] for e in manager.log.events(pol.EV_ACCESS_DENIED)]
    access_denied = decision.verdict in ("deny-unauthorized", "deny-blacklisted")
    assert denied == ([decision.flow_id] if access_denied else [])
    assert {e["flow_id"] for e in manager.log.events(EV_ALERT_RAISED)} <= {decision.flow_id}

    # Both paths charge the screen alike: the access check, then, unless it
    # denies, validation's base cost and one scan per signature reached.
    cfg = manager.config
    sig_ids = sorted(sig.sig_id for sig in manager.signatures)
    matched = expected.removeprefix("signature:") if expected else None
    scanned = sig_ids.index(matched) + 1 if matched in sig_ids else len(sig_ids)
    screen_cost = cfg.access_check_us
    if expected not in ("deny-unauthorized", "deny-blacklisted"):
        screen_cost += cfg.flow_validation_base_us + scanned * cfg.signature_scan_us
    assert ingress.cost_us == screen_cost
    if setup_denied:
        # Set-up found no functions at OVS1, so it composed and deployed them,
        # after extracting the profile of a registered device.
        extract_us = cfg.profile_extract_us if repo.user_of_device(device) else 0
        assert decision.extraction_performed == bool(extract_us)
        assert decision.cost_us == (
            cfg.dispatch_us() + extract_us + cfg.compose_us + cfg.deploy_us + screen_cost
        )


class TestProvisionSecurity:
    def test_confidential_flow_gets_key_at_both_edges(self, world):
        fabric, repo, manager = world
        drive(fabric, manager, ue_packet(2, "10.0.0.7", "f-ue2"), ("OVS1", 2))
        key_id = manager.provision_security("f-ue2")
        assert key_id.startswith("key-")
        assert fabric.nodes["OVS1"].ciphers["f-ue2"][0] == "encrypt"
        assert fabric.nodes["CORE1"].ciphers["f-ue2"][0] == "decrypt"
        # end-to-end delivery still yields the original payload
        trace = inject_packet(fabric, ue_packet(2, "10.0.0.7", "f-ue2", payload=b"ledger"), ("OVS1", 2))
        assert trace.outcome == Delivered(host="SVC2")
        mid = [hop for hop in trace.events if hop.to == "CORE1"]
        assert all(b"ledger" not in hop.payload for hop in mid)
        final = [hop for hop in trace.events if hop.to == "SVC2"]
        assert final[0].payload == b"ledger"

    def test_a_flow_without_flow_id_is_encrypted_under_its_default_id(self, world):
        fabric, repo, manager = world
        _trace, decision = drive(fabric, manager, ue_packet(2, "10.0.0.7", ""), ("OVS1", 2))
        assert decision.flow_id == "10.0.0.2->10.0.0.7"
        manager.provision_security("10.0.0.2->10.0.0.7")
        for flow_id in ("", "10.0.0.2->10.0.0.7"):
            packet = ue_packet(2, "10.0.0.7", flow_id, payload=b"ledger")
            trace = inject_packet(fabric, packet, ("OVS1", 2))
            assert trace.outcome == Delivered(host="SVC2")
            [hop] = [hop for hop in trace.events if (hop.node, hop.to) == ("OVS1", "CORE1")]
            assert hop.encrypted, flow_id
            assert b"ledger" not in hop.payload

    def test_flow_without_confidentiality_is_a_precondition_violation(self, world):
        fabric, repo, manager = world
        drive(fabric, manager, ue_packet(1, "10.0.0.8", "f-ue1"), ("OVS1", 1))
        with pytest.raises(ValueError, match="confidentiality"):
            manager.provision_security("f-ue1")
        assert not ciphers(fabric)

    def test_compromised_egress_refuses_provisioning(self, world):
        fabric, repo, manager = world
        drive(fabric, manager, ue_packet(2, "10.0.0.7", "f-ue2"), ("OVS1", 2))
        fabric.set_tampered("CORE1", True)
        with pytest.raises(ProvisioningError, match="attestation"):
            manager.provision_security("f-ue2")
        assert any(a["kind"] == "provisioning-refused" for a in manager.admin_alerts)

    def test_an_unknown_flow_is_a_precondition_violation(self, world):
        fabric, repo, manager = world
        drive(fabric, manager, ue_packet(2, "10.0.0.7", "f-ue2"), ("OVS1", 2))
        with pytest.raises(ValueError, match="unknown flow"):
            manager.provision_security("f-nowhere")
        assert not manager.log.events(pol.EV_KEY_GENERATED)
        assert not ciphers(fabric)

    def test_a_flow_that_exits_at_its_ingress_edge_is_refused(self, world):
        fabric, repo, manager = world
        # A confidential service hosted on UE1, which hangs off the ingress
        # edge OVS1 itself: the flow never crosses a link worth encrypting.
        repo.register(parse_policy_rule({
            "id": "99", "hostip": "10.0.0.2", "hostmac": "00:09:00:AC",
            "destip": "10.0.0.1", "user": {"id": "alice"},
            "actions": [{"Service": "Local", "Slice-id": "VLAN300",
                         "security": ["confidentiality"]}],
        }))
        _trace, decision = drive(fabric, manager, ue_packet(2, "10.0.0.1", "f-local"), ("OVS1", 2))
        assert decision.verdict == "permitted"
        assert manager.flows["f-local"].path == ("OVS1", "UE1")
        with pytest.raises(ProvisioningError, match="enters and exits at 'OVS1'"):
            manager.provision_security("f-local")
        assert not manager.log.events(pol.EV_KEY_GENERATED)
        assert not ciphers(fabric)


class TestSliceAccessCompleteness:
    def test_no_delivery_outside_a_device_allowed_slices(self, world):
        # Exhaustive trace scan: every delivered packet's (device, slice) pair
        # must appear in the repository-backed allowed set, or ride the
        # generic slice.
        fabric, repo, manager = world
        allowed = {
            (rule.device_id, action.slice_id)
            for rule in repo.rules.values()
            for action in rule.actions
        }
        traffic = [
            (ue_packet(1, "10.0.0.8", "f1"), ("OVS1", 1)),   # authorized
            (ue_packet(3, "10.0.0.8", "f3"), ("OVS1", 3)),   # unauthorized
            (ue_packet(4, "10.0.0.8", "f4"), ("OVS1", 4)),   # authorized
            (ue_packet(2, "10.0.0.7", "f2"), ("OVS1", 2)),   # authorized
            (ue_packet(3, "10.0.0.7", "f5"), ("OVS1", 3)),   # unauthorized
            (Packet(src_ip="10.0.0.50", dst_ip="10.0.0.8", src_mac="aa:aa",
                    dst_mac="bb:bb", payload=b"x", flow_id="f6"), ("OVS1", 1)),  # guest
        ]
        deliveries = []
        for packet, ingress in traffic:
            for _repeat in range(3):
                trace, _ = drive(fabric, manager, packet, ingress)
                if isinstance(trace.outcome, Delivered):
                    deliveries.append((packet.src_mac, trace))
        assert deliveries  # the authorized flows did get through
        for device, trace in deliveries:
            # The fabric delivers only to a host on the packet's final slice tag.
            host = trace.outcome.host
            host_slices = {vlan for vlan, hosts in fabric.slices.items() if host in hosts}
            assert any((device, vlan) in allowed or vlan == 4094 for vlan in host_slices), (
                device, host,
            )


class TestPipelineOrdering:
    """Access control and flow validation judge the plaintext at the ingress
    edge; encryption runs only on a packet they admit, as it leaves."""

    @pytest.fixture
    def confidential_world(self, world):
        fabric, repo, manager = world
        drive(fabric, manager, ue_packet(2, "10.0.0.7", "f-ue2"), ("OVS1", 2))
        manager.provision_security("f-ue2")
        return fabric

    def test_validation_sees_the_plaintext_before_any_cipher(self, confidential_world):
        exploit = b"User-Agent: () { :;}; /bin/sh"
        trace = inject_packet(
            confidential_world, ue_packet(2, "10.0.0.7", "f-ue2", payload=exploit), ("OVS1", 2)
        )
        assert trace.outcome == Dropped(node="OVS1", reason="signature:sig-shellshock")
        assert trace.events == []

    def test_an_admitted_packet_leaves_the_edge_encrypted(self, confidential_world):
        trace = inject_packet(
            confidential_world, ue_packet(2, "10.0.0.7", "f-ue2", payload=b"ledger"), ("OVS1", 2)
        )
        assert trace.outcome == Delivered(host="SVC2")
        [hop] = [hop for hop in trace.events if (hop.node, hop.to) == ("OVS1", "CORE1")]
        assert hop.encrypted
        assert b"ledger" not in hop.payload
