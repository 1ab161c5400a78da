"""Differential test of the datapath walk against its loop reference.

``reference_inject_packet`` is the walk as it stood before hop state moved
into locals: it copies the packet once and mutates the copy hop by hop.  It
differs from that original only where an interface changed since, and in one
fix both walks take: ``FlowTable.lookup`` takes the header tuple, the cipher
step takes the fabric and node id, the ciphers and the ingress processor are
read from the node, and a punt names the port the packet arrived on at the
punting node, not the ingress port.  Two identical worlds
run the same generated traffic in lockstep, one through ``inject_packet`` and
one through the reference, and must agree on every hop, outcome, punt, clock
reading and log byte.  The reference plans nothing, so the lockstep also
checks the walk memo of ``inject_packet``: a repeated send replays a kept
walk, and the delete, replace and cipher steps change what it met.  A
kept walk is keyed by the header, not the flow id, so a second flow id on
a header that has walked replays the first flow's walk with its own
ciphers.
"""

import sys
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slice_sentinel import fabric as fabric_module
from slice_sentinel.controller import ManagerConfig, SecurityManager
from slice_sentinel.fabric import (
    MAX_HOPS,
    Delivered,
    Drop,
    Dropped,
    FlowKey,
    FlowMod,
    FlowRule,
    Forward,
    ForwardingTrace,
    IngressDecision,
    LinkHop,
    NodeKind,
    Packet,
    Provenance,
    Punted,
    PuntEvent,
    PuntToController,
    apply_flow_mod,
    build_topology,
    inject_packet,
)
from slice_sentinel.policy import load_policies
from slice_sentinel.security_functions import (
    AuthenticationError,
    FlowCipher,
    KeyGenerator,
    parse_signatures,
)

SHELLSHOCK = b"() { :;};"
SIGNATURES = [
    {"id": "sig-shellshock", "pattern_hex": SHELLSHOCK.hex()},
    {"id": "sig-evil-flow", "pattern_hex": b"flow=evil".hex(), "scope": "header"},
]
SERVICES = {"S1": ("10.9.0.1", 100), "S2": ("10.9.0.2", 200)}  # ip, slice
GENERIC_IP = "10.9.0.9"
UNKNOWN_IP = "10.9.9.9"
EXTERNAL_RULES = ["drop", "dead-port", "stray", "loop", "wrong-slice", "detour"]


# -- the reference ------------------------------------------------------------

def _reference_ciphers(fabric, node_id, flow_id, payload, encrypted, next_is_host):
    entry = fabric.nodes[node_id].ciphers.get(flow_id)
    if entry is None:
        return payload, encrypted
    mode, cipher = entry
    if mode == "encrypt" and not encrypted:
        return cipher.encrypt(payload), True
    if mode == "decrypt" and encrypted and next_is_host:
        try:
            return cipher.decrypt(payload), False
        except AuthenticationError:
            return None, encrypted
    return payload, encrypted


def reference_inject_packet(fabric, packet, ingress):
    node_id, port = ingress
    fabric.node(node_id)
    # A packet without a flow id is named by its addresses, for its ciphers
    # and its punt alike.
    flow_id = packet.flow_id or f"{packet.src_ip}->{packet.dst_ip}"
    work = Packet(packet.src_ip, packet.dst_ip, packet.src_mac, packet.dst_mac, packet.payload,
                  flow_id, packet.slice_id, packet.virtual_timestamp)
    hops = []
    encrypted = False

    processor = fabric.nodes[node_id].processor
    if processor is not None:
        decision: IngressDecision = processor.process(work)
        work.virtual_timestamp += decision.cost_us // 1000
        if not decision.allow:
            fabric.clock_ms = max(fabric.clock_ms, work.virtual_timestamp)
            return ForwardingTrace(hops, Dropped(node=node_id, reason=decision.reason))

    at = node_id
    for _hop in range(MAX_HOPS):
        node = fabric.nodes[at]
        rule = node.table.lookup(
            (work.src_ip, work.dst_ip, work.src_mac, work.dst_mac, work.slice_id, None)
        )
        if rule is None:
            outcome = Dropped(node=at, reason="no-matching-rule")
            break
        if isinstance(rule.action, PuntToController):
            work.payload = b""
            fabric.punt_events.append(PuntEvent(node=at, port=port, packet=work))
            outcome = Punted(node=at)
            break
        if isinstance(rule.action, Drop):
            outcome = Dropped(node=at, reason=f"drop-rule:{rule.rule_id}")
            break

        # Forward
        work.slice_id = rule.action.slice_id
        link = node.ports.get(rule.action.port)
        if link is None:
            outcome = Dropped(node=at, reason="dead-port")
            break
        peer_id, peer_port, latency = link
        peer = fabric.nodes[peer_id]
        payload, encrypted = _reference_ciphers(
            fabric, at, work.flow_id, work.payload, encrypted,
            next_is_host=(peer.kind == NodeKind.HOST),
        )
        if payload is None:
            outcome = Dropped(node=at, reason="auth-failed")
            break
        work.payload = payload
        work.virtual_timestamp += latency
        hops.append(LinkHop(at, peer_id, encrypted, payload))
        if peer.kind == NodeKind.HOST:
            if work.slice_id is not None and peer_id not in fabric.slices.get(work.slice_id, ()):
                outcome = Dropped(node=at, reason="slice-violation")
            else:
                outcome = Delivered(host=peer_id)
            break
        at = peer_id
        port = peer_port
    else:
        outcome = Dropped(node=at, reason="hop-limit")

    fabric.clock_ms = max(fabric.clock_ms, work.virtual_timestamp)
    return ForwardingTrace(hops, outcome)


# -- fleets and traffic -------------------------------------------------------

def fleet(ue_specs, core_latency=1):
    """Topology, policies and UEs of a small fleet.

    Each UE is ``(edge index, uplink latency, slices, {service: (user,
    security)})``: it hangs off edge ``E<index>``, which links to core C0.
    C0 links to C1; S1 hangs off C0 on slice 100, S2 and the generic host G
    off C1.  A UE without services is unregistered.  Returns the UEs as
    ``(name, edge, port, ip, mac)`` with the edge port they are attached to.
    """
    nodes = [{"id": "C0", "kind": "core"}, {"id": "C1", "kind": "core"},
             {"id": "S1", "kind": "host", "ip": SERVICES["S1"][0]},
             {"id": "S2", "kind": "host", "ip": SERVICES["S2"][0]},
             {"id": "G", "kind": "host", "ip": GENERIC_IP}]
    links = [{"a": "C0", "b": "C1", "latency_ms": core_latency},
             {"a": "C0", "b": "S1"}, {"a": "C1", "b": "S2"}, {"a": "C1", "b": "G"}]
    slices = {100: ["S1"], 200: ["S2"], 4094: ["G"]}
    policies, ues, ports = [], [], {}
    for k, (e, latency, vlans, services) in enumerate(ue_specs):
        ue, edge, ip, mac = f"U{k}", f"E{e}", f"10.0.0.{k + 1}", f"00:00:00:00:{k:02x}"
        if edge not in ports:
            nodes.append({"id": edge, "kind": "edge"})
        ports[edge] = ports.get(edge, 0) + 1
        nodes.append({"id": ue, "kind": "host", "ip": ip})
        links.append({"a": ue, "b": edge, "latency_ms": latency})
        for vlan in sorted(vlans):
            slices[vlan].append(ue)
        ues.append((ue, edge, ports[edge], ip, mac))
        for service, (user, security) in sorted(services.items()):
            dst_ip, vlan = SERVICES[service]
            policies.append({
                "id": f"p-{ue}-{service}", "hostip": ip, "hostmac": mac, "destip": dst_ip,
                "user": {"id": user, "name": user, "role": "Personal-Role", "organization": ""},
                "contract_id": f"c-{user}",
                "actions": [{"Service": service, "Slice-id": f"VLAN{vlan}",
                             "security": list(security)}],
            })
    links += [{"a": edge, "b": "C0"} for edge in ports]
    topology = {"nodes": nodes, "links": links,
                "slices": [{"vlan": v, "hosts": h} for v, h in sorted(slices.items())]}
    return topology, policies, ues


ue_specs = st.lists(
    st.tuples(
        st.integers(0, 2), st.integers(1, 2), st.sets(st.sampled_from([100, 200, 4094])),
        st.dictionaries(st.sampled_from(sorted(SERVICES)),
                        st.tuples(st.sampled_from(["amy", "ben"]),
                                  st.sampled_from([(), ("confidentiality",)]))),
    ),
    min_size=1, max_size=5,
)

DESTINATIONS = [SERVICES["S1"][0], SERVICES["S2"][0], UNKNOWN_IP]
steps = st.lists(
    st.one_of(
        # send: UE, destination, payload, flow id kind, slice tag, packets in a
        # row; "second" is a flow id no cipher step provisions
        st.tuples(st.just("send"), st.integers(0, 4), st.sampled_from(DESTINATIONS),
                  st.sampled_from([b"data", b"", SHELLSHOCK, b"x" * 300]),
                  st.sampled_from(["own", "none", "evil", "second"]),
                  st.sampled_from([None, 100, 200]),
                  st.integers(1, 3)),
        # a flood past the rate cap of 100 packets per 1000 ms
        st.tuples(st.just("flood"), st.integers(0, 4)),
        # an external rule at a switch, matching one UE (or, past the last
        # UE, every packet)
        st.tuples(st.just("rule"), st.sampled_from(EXTERNAL_RULES), st.integers(0, 4),
                  st.integers(0, 5)),
        # an external delete of a switch's rule, by its place in rule id order
        st.tuples(st.just("delete"), st.integers(0, 5), st.integers(0, 9)),
        # an external add with a rule's (match, priority): a new id, and its
        # action or a drop
        st.tuples(st.just("replace"), st.integers(0, 5), st.integers(0, 9), st.booleans()),
        # a flow cipher pair, keyed alike or (tampered) apart
        st.tuples(st.just("cipher"), st.integers(0, 4), st.booleans()),
        st.tuples(st.just("alerts")),
        st.tuples(st.just("tick")),
    ),
    max_size=25,
)


class World:
    def __init__(self, topology, policies, security_on, inject):
        self.fabric = build_topology(topology)
        self.manager = SecurityManager(
            self.fabric, load_policies(policies), signatures=parse_signatures(SIGNATURES),
            config=ManagerConfig(security_enabled=security_on), seed=0,
        )
        self.inject = inject
        self.keygens = (KeyGenerator(seed=1), KeyGenerator(seed=2))


def _external_actions(fabric, kind, node):
    """(node, action) pairs of one external-rule step."""
    def toward(at, peer, slice_id=100):
        return Forward(port=fabric.port_toward(at, peer), slice_id=slice_id)

    if kind == "drop":
        return [(node, Drop())]
    if kind == "dead-port":
        return [(node, Forward(port=99, slice_id=100))]
    if kind == "stray":  # one hop up, where no rule may match
        return [(node, toward(node, "C1" if node == "C0" else "C0"))]
    if kind == "loop":
        return [("C0", toward("C0", "C1")), ("C1", toward("C1", "C0"))]
    if kind == "detour":  # back down to an edge, which punts past the ingress
        edge = node if node.startswith("E") else min(n for n in fabric.nodes if n.startswith("E"))
        return [("C0", toward("C0", edge))]
    return [("C0", toward("C0", "S1", slice_id=200))]  # wrong-slice


def _punt_fields(punt):
    return punt.node, punt.port, astuple(punt.packet)


def _send_both(worlds, packet, ingress, delivered_to):
    """One packet through both worlds; the traces, the punts and the clock
    must agree, and the caller's packet must come back unchanged."""
    before = astuple(packet)
    new, ref = (w.inject(w.fabric, packet, ingress) for w in worlds)
    assert astuple(packet) == before
    assert [tuple(hop) for hop in new.events] == [tuple(hop) for hop in ref.events]
    assert all(type(hop) is LinkHop for hop in new.events)
    assert new.outcome == ref.outcome
    if isinstance(new.outcome, Delivered):
        # One shared outcome per host.
        assert delivered_to.setdefault(new.outcome.host, new.outcome) is new.outcome
    assert worlds[0].fabric.clock_ms == worlds[1].fabric.clock_ms
    punts = [list(w.fabric.punt_events) for w in worlds]
    assert [_punt_fields(p) for p in punts[0]] == [_punt_fields(p) for p in punts[1]]
    for punt in punts[0]:
        assert punt.packet is not packet
    for w in worlds:
        while w.fabric.punt_events:
            w.manager.new_flow(w.fabric.punt_events.popleft())
    return new


def _label(trace) -> str:
    """A drop's reason up to its first colon, else the outcome type; a punt
    that crossed links first is told apart."""
    outcome = trace.outcome
    if isinstance(outcome, Punted) and trace.events:
        return "Punted-past-ingress"
    return getattr(outcome, "reason", type(outcome).__name__).split(":")[0]


def run_lockstep(fleet_documents, security_on, plan) -> set[str]:
    """Run a plan in two identical worlds, one per walk, checking after every
    step that they agree.  Returns the ``_label`` of every outcome seen."""
    topology, policies, ues = fleet_documents
    worlds = (World(topology, policies, security_on, inject_packet),
              World(topology, policies, security_on, reference_inject_packet))
    switches = sorted(n["id"] for n in topology["nodes"] if n["kind"] != "host")
    delivered_to, seen = {}, set()
    t = 0
    for n, step in enumerate(plan):
        kind = step[0]
        if kind in ("send", "flood"):
            ue, edge, port, ip, mac = ues[step[1] % len(ues)]
            if kind == "send":
                _kind, _i, dst_ip, payload, flow_kind, slice_id, count = step
                flow_id = {"own": f"f-{ue}", "none": "", "evil": f"evil-{ue}",
                           "second": f"g-{ue}"}[flow_kind]
            else:
                dst_ip, payload, flow_id, count = SERVICES["S1"][0], b"flood", f"f-{ue}", 105
                slice_id = None
            for _ in range(count):
                t += 1
                packet = Packet(src_ip=ip, dst_ip=dst_ip, src_mac=mac, dst_mac="0e:00:00:01",
                                payload=payload, flow_id=flow_id, slice_id=slice_id,
                                virtual_timestamp=t)
                trace = _send_both(worlds, packet, (edge, port), delivered_to)
                seen.add(_label(trace))
                if isinstance(trace.outcome, Punted):
                    seen.add(_label(_send_both(worlds, packet, (edge, port), delivered_to)))
        elif kind == "rule":
            _kind, rule_kind, s, i = step
            match = FlowKey(src_ip=ues[i][3]) if i < len(ues) else FlowKey()
            for w in worlds:
                pairs = _external_actions(w.fabric, rule_kind, switches[s % len(switches)])
                for j, (node, action) in enumerate(pairs):
                    rule = FlowRule(f"x-{n:03d}-{j}", match, action, priority=50)
                    apply_flow_mod(w.fabric, node, FlowMod.add(rule), Provenance.EXTERNAL)
        elif kind in ("delete", "replace"):
            for w in worlds:
                table = w.fabric.nodes[switches[step[1] % len(switches)]].table
                rules = sorted(table.rules(), key=lambda r: r.rule_id)
                if not rules:
                    continue
                rule = rules[step[2] % len(rules)]
                if kind == "delete":
                    table.delete(rule.rule_id)
                else:
                    action = Drop() if step[3] else rule.action
                    table.add(FlowRule(f"x-{n:03d}-r", rule.match, action, rule.priority))
        elif kind == "cipher":
            _kind, i, tampered = step
            ue, edge, _port, _ip, _mac = ues[i % len(ues)]
            for w in worlds:
                good, other = w.keygens
                key = good.generate((edge, "C0"))
                peer_key = other.generate((edge, "C0")) if tampered else key
                w.fabric.set_flow_cipher(edge, f"f-{ue}", "encrypt", FlowCipher(key))
                w.fabric.set_flow_cipher("C0", f"f-{ue}", "decrypt", FlowCipher(peer_key))
        elif kind == "alerts":
            for w in worlds:
                for alert in list(w.manager.pending_alerts):
                    w.manager.alert(alert)
                w.manager.pending_alerts.clear()
        else:
            t += 1000
            for w in worlds:
                w.manager.tick(t)
        assert worlds[0].manager.log.to_jsonl() == worlds[1].manager.log.to_jsonl()
    return seen


@settings(max_examples=100, deadline=None)
@given(ue_specs, st.integers(1, 3), st.booleans(), steps)
def test_inject_packet_matches_the_loop_reference(specs, core_latency, security_on, plan):
    run_lockstep(fleet(specs, core_latency), security_on, plan)


# U0 may reach S1 (with confidentiality), U1 may reach S2, U2 is unregistered.
FIXED_FLEET = [(0, 1, {100}, {"S1": ("amy", ("confidentiality",))}),
               (0, 2, {200}, {"S2": ("ben", ())}),
               (1, 1, {4094}, {})]
FIXED_PLAN = [
    # punt, then delivered; the walk is kept from its second delivery on
    ("send", 0, SERVICES["S1"][0], b"data", "own", None, 4),
    ("delete", 0, 1),                                            # C0: U0's reverse rule
    ("send", 0, SERVICES["S1"][0], b"data", "own", None, 2),     # same winner: still kept
    ("replace", 0, 0, False),                                    # C0: U0's forward rule
    ("send", 0, SERVICES["S1"][0], b"data", "own", None, 2),     # a new winner: planned afresh
    ("delete", 0, 0),                                            # C0: that winner
    ("send", 0, SERVICES["S1"][0], b"data", "own", None, 2),     # no-matching-rule at C0
    ("tick",),                                                   # restores C0
    ("send", 0, SERVICES["S1"][0], b"data", "own", None, 2),     # delivered again
    ("send", 0, SERVICES["S2"][0], b"data", "own", None, 1),     # deny-unauthorized
    ("send", 2, UNKNOWN_IP, b"data", "none", None, 2),           # generic route to G
    ("send", 1, SERVICES["S2"][0], SHELLSHOCK, "own", None, 1),  # signature
    ("cipher", 0, True),                                         # swapped under a kept walk
    ("send", 0, SERVICES["S1"][0], b"data", "own", None, 2),     # auth-failed
    ("replace", 0, 0, False),                                    # C0: U0's forward rule
    ("send", 0, SERVICES["S1"][0], b"data", "own", None, 2),     # auth-failed, never kept
    ("cipher", 0, False),
    ("send", 0, SERVICES["S1"][0], b"data", "own", None, 2),     # encrypted, delivered
    ("send", 0, SERVICES["S1"][0], b"data", "second", None, 2),  # same kept walk, plain
    ("send", 0, SERVICES["S1"][0], b"data", "own", None, 1),     # encrypted again
    ("rule", "wrong-slice", 0, 0),                               # at C0, for U0
    ("send", 0, SERVICES["S1"][0], b"data", "own", None, 1),     # slice-violation
    ("rule", "dead-port", 2, 1),                                 # at E0, for U1
    ("send", 1, SERVICES["S2"][0], b"data", "own", None, 1),     # dead-port
    ("rule", "drop", 3, 2),                                      # at E1, for U2
    ("send", 2, UNKNOWN_IP, b"data", "none", None, 3),           # drop-rule
    ("replace", 3, -1, True),                                    # E1: that drop, under a new id
    ("send", 2, UNKNOWN_IP, b"data", "none", None, 2),           # drop-rule, naming the new id
    ("tick",),                                                   # removes the external rules
    ("rule", "stray", 3, 9),                                     # at E1, for everyone
    ("send", 2, SERVICES["S1"][0], b"data", "own", None, 1),     # no-matching-rule at C0
    ("rule", "loop", 0, 2),                                      # for U2
    ("send", 2, UNKNOWN_IP, b"data", "none", None, 1),           # hop-limit
    ("flood", 0),                                                # anomaly
    ("alerts",),
    ("send", 0, SERVICES["S1"][0], b"data", "own", None, 1),     # deny-blacklisted
    ("send", 2, SERVICES["S1"][0], b"data", "evil", None, 1),    # header signature
    ("tick",),
    ("rule", "detour", 0, 9),                                    # at C0, for everyone
    ("send", 2, UNKNOWN_IP, b"data", "none", 200, 1),            # punted at E0, tagged 100
]


def test_the_fixed_plan_reaches_every_outcome(monkeypatch):
    """Every outcome, and kept walks: most packets replay a walk planned
    for an earlier packet of their key."""
    inject, plan_walk = inject_packet, fabric_module._plan_walk
    sent, planned = [], []
    monkeypatch.setattr(fabric_module, "_plan_walk",
                        lambda *args: planned.append(1) or plan_walk(*args))
    monkeypatch.setattr(sys.modules[__name__], "inject_packet",
                        lambda *args: sent.append(1) or inject(*args))
    seen = run_lockstep(fleet(FIXED_FLEET), True, FIXED_PLAN)
    assert 0 < 4 * len(planned) < len(sent)
    assert seen == {
        "Punted", "Punted-past-ingress", "Delivered", "deny-unauthorized", "deny-blacklisted",
        "signature", "anomaly", "auth-failed", "dead-port", "no-matching-rule", "hop-limit",
        "drop-rule", "slice-violation",
    }


@pytest.mark.parametrize("inject", [inject_packet, reference_inject_packet],
                         ids=["inject_packet", "reference"])
def test_a_punt_past_the_ingress_names_the_port_it_arrived_on(inject):
    """The fixed plan's ``detour``: U2 enters E1 on port 1, C0 sends it down
    to E0, and E0 punts it.  The punt names E0's port toward C0 (3), not
    E1's ingress port, which on E0 is U0's link.  A punt that arrived from
    another switch is refused: E0 is not where U2 is attached."""
    topology, policies, ues = fleet(FIXED_FLEET)
    w = World(topology, policies, True, inject)
    _ue, edge, port, ip, mac = ues[2]
    assert (edge, port) == ("E1", 1)

    def send():
        packet = Packet(src_ip=ip, dst_ip=UNKNOWN_IP, src_mac=mac, dst_mac="0e:00:00:01",
                        payload=b"data", slice_id=200)
        return w.inject(w.fabric, packet, (edge, port))

    assert isinstance(send().outcome, Punted)  # at E1: the generic route goes in
    w.manager.new_flow(w.fabric.punt_events.popleft())
    for node, action in _external_actions(w.fabric, "detour", "C0"):
        apply_flow_mod(w.fabric, node, FlowMod.add(FlowRule("x-detour", FlowKey(), action, 50)))
    trace = send()
    assert trace.outcome == Punted(node="E0")
    punt = w.fabric.punt_events.popleft()
    toward_c0 = w.fabric.port_toward("E0", "C0")
    assert (punt.node, punt.port, toward_c0) == ("E0", 3, 3)
    assert w.fabric.nodes["E0"].ports[1][0] == "U0"

    before = {r.rule_id for r in w.fabric.nodes["E0"].table.rules()}
    decision = w.manager.new_flow(punt)
    assert decision.verdict == "error"
    assert decision.error == "punt at E0 arrived from switch C0"
    installed = [r for r in w.fabric.nodes["E0"].table.rules() if r.rule_id not in before]
    between = (FlowKey(src_ip=UNKNOWN_IP, dst_ip=ip), FlowKey(src_ip=ip, dst_ip=UNKNOWN_IP))
    assert [r for r in installed if r.match in between] == []
