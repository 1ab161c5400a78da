"""Fabric tests: topology building, forwarding, flow mods, reports, attestation."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slice_sentinel.fabric import (
    DEFAULT_PUNT_RULE_ID,
    Delivered,
    Drop,
    Dropped,
    FlowKey,
    FlowMod,
    FlowRule,
    Forward,
    Packet,
    Provenance,
    Punted,
    PuntToController,
    TopologyError,
    UnknownNodeError,
    apply_flow_mod,
    build_topology,
    canonical_json,
    canonical_rule_order,
    inject_packet,
    measure_attestation,
    report_flow_rules,
)
from slice_sentinel.security_functions import FlowCipher, KeyGenerator

from conftest import flow_rules


def small_topology() -> dict:
    """One edge switch, one core, a UE and a service host, four slices."""
    return {
        "nodes": [
            {"id": "OVS1", "kind": "edge"},
            {"id": "CORE1", "kind": "core"},
            {"id": "UE1", "kind": "host", "ip": "10.0.0.1"},
            {"id": "SVC1", "kind": "host", "ip": "10.0.0.8"},
        ],
        "links": [
            {"a": "UE1", "b": "OVS1", "latency_ms": 1},
            {"a": "OVS1", "b": "CORE1", "latency_ms": 1},
            {"a": "CORE1", "b": "SVC1", "latency_ms": 1},
        ],
        "slices": [
            {"vlan": 100, "name": "home", "hosts": []},
            {"vlan": 200, "name": "healthcare", "hosts": ["UE1", "SVC1"]},
            {"vlan": 300, "name": "financial", "hosts": []},
            {"vlan": 4094, "name": "generic", "hosts": []},
        ],
    }


def ue_packet(**overrides) -> Packet:
    base = dict(
        src_ip="10.0.0.1",
        dst_ip="10.0.0.8",
        src_mac="00:09:00:AA",
        dst_mac="00:09:00:BB",
        payload=b"hello",
        flow_id="78b34x",
    )
    base.update(overrides)
    return Packet(**base)


@st.composite
def linked_topologies(draw) -> dict:
    """Edge, core and host nodes joined by random links, parallel links and
    self-loops among them."""
    kinds = draw(st.lists(st.sampled_from(["edge", "core", "host"]), min_size=1, max_size=8))
    ids = [f"N{i}" for i in range(len(kinds))]
    ends = st.sampled_from(ids)
    links = draw(st.lists(st.tuples(ends, ends), max_size=16))
    return {
        "nodes": [{"id": node_id, "kind": kind} for node_id, kind in zip(ids, kinds)],
        "links": [{"a": a, "b": b} for a, b in links],
    }


class TestBuildTopology:
    def test_small_config_builds_with_punt_defaults(self):
        fabric = build_topology(small_topology())
        assert len(fabric.slices) == 4
        assert 200 in fabric.slices
        assert fabric.host_by_ip("10.0.0.1") == "UE1"
        assert fabric.host_by_ip("10.0.0.8") == "SVC1"
        edge_rules = fabric.nodes["OVS1"].table.rules()
        assert [r.rule_id for r in edge_rules] == [DEFAULT_PUNT_RULE_ID]
        assert isinstance(edge_rules[0].action, PuntToController)
        # core switches start empty
        assert fabric.nodes["CORE1"].table.rules() == []
        # per-node expected attestation hash fixed at build time
        assert len(fabric.nodes["OVS1"].expected_hash) == 32

    def test_empty_config_is_a_valid_empty_fabric(self):
        fabric = build_topology({})
        assert fabric.nodes == {}
        assert fabric.slices == {}

    def test_duplicate_node_id_rejected(self):
        config = {"nodes": [{"id": "OVS1", "kind": "edge"}, {"id": "OVS1", "kind": "core"}]}
        with pytest.raises(TopologyError, match="duplicate"):
            build_topology(config)

    def test_link_to_undefined_node_rejected(self):
        config = {
            "nodes": [{"id": "OVS1", "kind": "edge"}],
            "links": [{"a": "OVS1", "b": "GHOST"}],
        }
        with pytest.raises(TopologyError, match="undefined"):
            build_topology(config)

    def test_port_toward_takes_the_lowest_of_parallel_links(self):
        config = {
            "nodes": [{"id": "A", "kind": "core"}, {"id": "B", "kind": "core"},
                      {"id": "C", "kind": "core"}],
            "links": [{"a": "B", "b": "C"}, {"a": "A", "b": "B"}, {"a": "B", "b": "A"}],
        }
        fabric = build_topology(config)
        assert fabric.nodes["B"].ports == {1: ("C", 1, 1), 2: ("A", 1, 1), 3: ("A", 2, 1)}
        assert fabric.port_toward("B", "A") == 2
        assert fabric.port_toward("A", "B") == 1
        assert fabric.port_toward("A", "C") is None
        with pytest.raises(UnknownNodeError):
            fabric.port_toward("GHOST", "A")

    @settings(max_examples=200, deadline=None)
    @given(linked_topologies())
    def test_every_hop_of_a_shortest_path_has_a_port_both_ways(self, config):
        # The controller routes a flow hop by hop along shortest_path and
        # installs a forward and a reverse rule per hop, so both ports of
        # every hop must exist.
        fabric = build_topology(config)
        for src in fabric.nodes:
            for dst in fabric.nodes:
                path = fabric.shortest_path(src, dst)
                if path is None:
                    continue
                assert path[0] == src and path[-1] == dst
                for a, b in zip(path, path[1:]):
                    assert fabric.port_toward(a, b) is not None
                    assert fabric.port_toward(b, a) is not None

    def test_host_by_ip_takes_the_first_host_in_document_order(self):
        config = {"nodes": [
            {"id": "CORE", "kind": "core", "ip": "10.0.0.5"},
            {"id": "H2", "kind": "host", "ip": "10.0.0.5"},
            {"id": "H1", "kind": "host", "ip": "10.0.0.5"},
            {"id": "H0", "kind": "host"},
        ]}
        fabric = build_topology(config)
        assert fabric.host_by_ip("10.0.0.5") == "H2"
        assert fabric.host_by_ip("10.0.0.6") is None

    @pytest.mark.parametrize("config", [
        {"nodes": [{"id": "H", "kind": "host", "ip": ["10.0.0.1"]}]},
        {"nodes": [{"id": "H", "kind": "host"}], "slices": [{"vlan": 100, "hosts": [["H"]]}]},
    ])
    def test_non_string_ip_or_unhashable_slice_host_rejected(self, config):
        with pytest.raises(TopologyError):
            build_topology(config)

    def test_slice_outside_vlan_range_rejected(self):
        config = {"nodes": [], "slices": [{"vlan": 5000, "name": "bad", "hosts": []}]}
        with pytest.raises(TopologyError, match="VLAN"):
            build_topology(config)

    @pytest.mark.parametrize("latency", [-5, 1.7, True, "3", None])
    def test_link_latency_must_be_an_integer_at_least_zero(self, latency):
        config = {
            "nodes": [{"id": "A", "kind": "core"}, {"id": "B", "kind": "core"}],
            "links": [{"a": "A", "b": "B", "latency_ms": latency}],
        }
        with pytest.raises(TopologyError, match="link A-B latency_ms"):
            build_topology(config)

    def test_zero_latency_link_loads(self):
        config = {
            "nodes": [{"id": "A", "kind": "core"}, {"id": "B", "kind": "core"}],
            "links": [{"a": "A", "b": "B", "latency_ms": 0}],
        }
        assert build_topology(config).nodes["A"].ports == {1: ("B", 1, 0)}

    @pytest.mark.parametrize("vlan", [True, 100.9, "100", None])
    def test_slice_vlan_must_be_an_integer(self, vlan):
        config = {"nodes": [], "slices": [{"vlan": vlan, "name": "bad", "hosts": []}]}
        with pytest.raises(TopologyError, match="slice vlan must be an integer"):
            build_topology(config)


class TestInjectPacket:
    def test_first_packet_punts_and_emits_header_event(self):
        fabric = build_topology(small_topology())
        packet = ue_packet()
        trace = inject_packet(fabric, packet, ingress=("OVS1", 1))
        assert trace.outcome == Punted(node="OVS1")
        assert len(fabric.punt_events) == 1
        punt = fabric.punt_events[0]
        assert punt.packet.src_ip == "10.0.0.1"
        assert punt.packet.flow_id == "78b34x"
        # only the header travels to the controller, in the fabric's own copy
        assert punt.packet.payload == b""
        assert punt.packet is not packet and packet.payload == b"hello"

    def test_installed_forward_rules_deliver_with_slice_tag(self):
        fabric = build_topology(small_topology())
        match = FlowKey(src_ip="10.0.0.1", dst_ip="10.0.0.8")
        apply_flow_mod(
            fabric, "OVS1",
            FlowMod.add(FlowRule("r1", match, Forward(port=2, slice_id=200), priority=10)),
        )
        apply_flow_mod(
            fabric, "CORE1",
            FlowMod.add(FlowRule("r2", match, Forward(port=2, slice_id=200), priority=10)),
        )
        trace = inject_packet(fabric, ue_packet(), ingress=("OVS1", 1))
        # SVC1 is on slice 200 only: any other tag would be a slice-violation.
        assert trace.outcome == Delivered(host="SVC1")
        assert len(trace.events) == 2

    def test_drop_rule_stops_packet_with_no_downstream_hops(self):
        fabric = build_topology(small_topology())
        apply_flow_mod(
            fabric, "OVS1",
            FlowMod.add(FlowRule("deny", FlowKey(src_ip="10.0.0.1"), Drop(), priority=20)),
        )
        trace = inject_packet(fabric, ue_packet(), ingress=("OVS1", 1))
        assert trace.outcome == Dropped(node="OVS1", reason="drop-rule:deny")
        assert trace.events == []

    def test_unknown_ingress_node_raises(self):
        fabric = build_topology(small_topology())
        with pytest.raises(UnknownNodeError):
            inject_packet(fabric, ue_packet(), ingress=("NOPE", 1))

    def test_slice_confinement_blocks_wrong_slice_delivery(self):
        # Forward tags slice 100, but SVC1 is only attached to slice 200.
        fabric = build_topology(small_topology())
        match = FlowKey(src_ip="10.0.0.1")
        apply_flow_mod(
            fabric, "OVS1",
            FlowMod.add(FlowRule("r1", match, Forward(port=2, slice_id=100), priority=10)),
        )
        apply_flow_mod(
            fabric, "CORE1",
            FlowMod.add(FlowRule("r2", match, Forward(port=2, slice_id=100), priority=10)),
        )
        trace = inject_packet(fabric, ue_packet(), ingress=("OVS1", 1))
        assert trace.outcome == Dropped(node="CORE1", reason="slice-violation")

    def test_no_matching_rule_at_core_is_an_explicit_drop(self):
        fabric = build_topology(small_topology())
        apply_flow_mod(
            fabric, "OVS1",
            FlowMod.add(
                FlowRule("r1", FlowKey(src_ip="10.0.0.1"), Forward(port=2, slice_id=200), priority=10)
            ),
        )
        trace = inject_packet(fabric, ue_packet(), ingress=("OVS1", 1))
        assert trace.outcome == Dropped(node="CORE1", reason="no-matching-rule")

    def test_envelope_failing_authentication_at_egress_is_a_drop(self):
        # Both keys are "key-000001", but they come from different seeds.
        fabric = build_topology(small_topology())
        match = FlowKey(src_ip="10.0.0.1", dst_ip="10.0.0.8")
        for node, rule_id in (("OVS1", "r1"), ("CORE1", "r2")):
            apply_flow_mod(
                fabric, node,
                FlowMod.add(FlowRule(rule_id, match, Forward(port=2, slice_id=200), priority=10)),
            )
        endpoints = ("OVS1", "CORE1")
        fabric.set_flow_cipher(
            "OVS1", "secret", "encrypt", FlowCipher(KeyGenerator(seed=1).generate(endpoints))
        )
        fabric.set_flow_cipher(
            "CORE1", "secret", "decrypt", FlowCipher(KeyGenerator(seed=2).generate(endpoints))
        )
        trace = inject_packet(fabric, ue_packet(flow_id="secret"), ingress=("OVS1", 1))
        assert trace.outcome == Dropped(node="CORE1", reason="auth-failed")
        assert fabric.clock_ms == 1
        outcomes = [trace.outcome] + [
            inject_packet(fabric, ue_packet(flow_id=flow), ingress=("OVS1", 1)).outcome
            for flow in ("plain", "secret")
        ]
        delivered = [o for o in outcomes if isinstance(o, Delivered)]
        dropped = [o for o in outcomes if isinstance(o, Dropped)]
        assert len(delivered) == 1 and len(dropped) == 2
        assert len(outcomes) == len(delivered) + len(dropped)


class TestPriorityMatching:
    def _linear_scan_oracle(self, rules, packet):
        """Brute force: scan every rule, keep the best (priority, rule_id) match."""
        best = None
        for rule in rules:
            m = rule.match
            fields = ((m.src_ip, packet.src_ip), (m.dst_ip, packet.dst_ip),
                      (m.src_mac, packet.src_mac), (m.dst_mac, packet.dst_mac),
                      (m.slice_id, packet.slice_id))
            if all(want is None or want == got for want, got in fields):
                if best is None or (-rule.priority, rule.rule_id) < (-best.priority, best.rule_id):
                    best = rule
        return best

    def test_lookup_agrees_with_linear_scan_on_random_tables(self):
        """Random adds, replaces and deletes over all five match fields, with
        lookups in between, checked against a model table and the scan."""
        rng = random.Random(42)
        ips = [f"10.0.0.{i}" for i in range(1, 4)]
        macs = [f"00:09:00:{i:02X}" for i in range(3)]
        slices = [100, 200]

        def pick(values):
            return rng.choice(values + [None])

        def random_match():
            return FlowKey(src_ip=pick(ips), dst_ip=pick(ips), src_mac=pick(macs),
                           dst_mac=pick(macs), slice_id=pick(slices))

        def random_packet(model):
            # Half the packets fill in the wildcards of a stored match, so
            # that lookups often meet several matching rules.
            m = rng.choice(list(model.values())).match if model and rng.random() < 0.5 else FlowKey()
            return Packet(
                src_ip=m.src_ip or rng.choice(ips), dst_ip=m.dst_ip or rng.choice(ips),
                src_mac=m.src_mac or rng.choice(macs), dst_mac=m.dst_mac or rng.choice(macs),
                slice_id=m.slice_id or pick(slices),
            )

        seen = {"slot-replaced": 0, "id-rematched": 0, "deleted": 0, "cross-mask-tie": 0}
        for _case in range(200):
            fabric = build_topology(
                {"nodes": [{"id": "SW", "kind": "core"}, {"id": "H", "kind": "host", "ip": "10.0.0.99"}],
                 "links": [{"a": "SW", "b": "H"}]}
            )
            table = fabric.nodes["SW"].table
            model: dict[str, FlowRule] = {}
            for step in range(rng.randint(0, 60)):
                op = rng.random()
                if model and op < 0.15:
                    rule_id = rng.choice(sorted(model))
                    apply_flow_mod(fabric, "SW", FlowMod.delete(rule_id))
                    del model[rule_id]
                    seen["deleted"] += 1
                else:
                    rule_id, match, priority = f"r{step:03d}", random_match(), rng.randint(0, 3)
                    if model and op < 0.3:
                        # the same (match, priority) under a new rule id
                        old = model[rng.choice(sorted(model))]
                        match, priority = old.match, old.priority
                        seen["slot-replaced"] += 1
                    elif model and op < 0.45:
                        # the same rule id with a new match
                        rule_id = rng.choice(sorted(model))
                        seen["id-rematched"] += 1
                    rule = FlowRule(rule_id, match, Drop(), priority)
                    apply_flow_mod(fabric, "SW", FlowMod.add(rule))
                    model = {k: r for k, r in model.items()
                             if k == rule_id or (r.match, r.priority) != (match, priority)}
                    model[rule_id] = rule
                for _probe in range(rng.randint(0, 2)):
                    packet = random_packet(model)
                    expected = self._linear_scan_oracle(model.values(), packet)
                    header = (packet.src_ip, packet.dst_ip, packet.src_mac, packet.dst_mac,
                              packet.slice_id, None)
                    assert table.lookup(header) == expected
                    if expected is not None:
                        tied = {r.match for r in model.values()
                                if r.priority == expected.priority
                                and self._linear_scan_oracle([r], packet) is not None}
                        masks = {tuple(f is None for f in (m.src_ip, m.dst_ip, m.src_mac,
                                                           m.dst_mac, m.slice_id)) for m in tied}
                        seen["cross-mask-tie"] += len(masks) > 1
            assert {r.rule_id: r for r in table.rules()} == model
            assert len(table) == len(model)
        assert all(count > 20 for count in seen.values()), seen


class TestApplyFlowMod:
    def test_controller_rule_shows_in_report(self):
        fabric = build_topology(small_topology())
        rule = FlowRule("r1", FlowKey(src_ip="10.0.0.1"), Drop(), priority=7)
        apply_flow_mod(fabric, "OVS1", FlowMod.add(rule), Provenance.CONTROLLER)
        stored = {r.rule_id: r for r in fabric.nodes["OVS1"].table.rules()}
        assert sorted(stored) == [DEFAULT_PUNT_RULE_ID, "r1"]
        assert stored["r1"] == rule
        report = report_flow_rules(fabric, "OVS1")
        assert "r1" in [r.rule_id for r in report]

    def test_external_rule_lands_in_table_with_external_provenance(self):
        fabric = build_topology(small_topology())
        rule = FlowRule("atk", FlowKey(dst_ip="10.0.0.8"), Drop(), priority=50)
        apply_flow_mod(fabric, "OVS1", FlowMod.add(rule), Provenance.EXTERNAL)
        # The switch report does not expose provenance at all
        report = report_flow_rules(fabric, "OVS1")
        atk = next(r for r in report if r.rule_id == "atk")
        assert not hasattr(atk, "provenance")

    def test_add_with_same_match_and_priority_replaces(self):
        fabric = build_topology(small_topology())
        match = FlowKey(src_ip="10.0.0.1")
        apply_flow_mod(fabric, "OVS1", FlowMod.add(FlowRule("old", match, Drop(), priority=9)))
        apply_flow_mod(
            fabric, "OVS1",
            FlowMod.add(FlowRule("new", match, Forward(port=2, slice_id=200), priority=9)),
        )
        ids = [r.rule_id for r in fabric.nodes["OVS1"].table.rules()]
        assert sorted(ids) == [DEFAULT_PUNT_RULE_ID, "new"]

    def test_delete_unknown_rule_is_warning_noop(self):
        fabric = build_topology(small_topology())
        before = fabric.nodes["OVS1"].table.rules()
        apply_flow_mod(fabric, "OVS1", FlowMod.delete("zzz"))
        assert fabric.nodes["OVS1"].table.rules() == before

    def test_a_mod_that_carries_nothing_is_rejected(self):
        fabric = build_topology(small_topology())
        before = report_flow_rules(fabric, "OVS1")
        with pytest.raises(ValueError, match="neither a rule nor a rule id"):
            apply_flow_mod(fabric, "OVS1", FlowMod())
        assert report_flow_rules(fabric, "OVS1") == before
        assert fabric.nodes["OVS1"].table.rules() == list(before)


class TestReports:
    def test_rules_ordered_by_priority_then_id(self):
        fabric = build_topology(small_topology())
        apply_flow_mod(fabric, "CORE1", FlowMod.add(FlowRule("b", FlowKey(), Drop(), priority=5)))
        apply_flow_mod(fabric, "CORE1", FlowMod.add(FlowRule("a", FlowKey(dst_ip="x"), Drop(), priority=10)))
        report = report_flow_rules(fabric, "CORE1")
        assert [r.rule_id for r in report] == ["a", "b"]

    def test_empty_table_reports_empty(self):
        fabric = build_topology(small_topology())
        assert report_flow_rules(fabric, "CORE1") == ()

    def test_reports_are_byte_identical_without_mods(self):
        fabric = build_topology(small_topology())
        apply_flow_mod(fabric, "OVS1", FlowMod.add(FlowRule("x", FlowKey(), Drop(), priority=3)))
        first = [r.to_dict() for r in report_flow_rules(fabric, "OVS1")]
        second = [r.to_dict() for r in report_flow_rules(fabric, "OVS1")]
        assert canonical_json(first) == canonical_json(second)


def _json_containers(children):
    return st.one_of(
        st.lists(children), st.lists(children).map(tuple), st.dictionaries(st.text(), children),
    )


json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64, max_value=2**200),
        st.floats(allow_nan=True, allow_infinity=True), st.text(),
    ),
    _json_containers,
    max_leaves=20,
)


class TestCanonicalJson:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.text(), json_values), st.text())
    def test_equals_json_dumps_with_sorted_keys(self, event, event_type):
        event["type"] = event_type
        for value in (event, list(event.values())):
            assert canonical_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))

    @settings(max_examples=300, deadline=None)
    @given(flow_rules)
    def test_rule_to_json_equals_its_dicts_canonical_json(self, rule):
        assert rule.to_json() == canonical_json(rule.to_dict()) == canonical_json(rule)

    def test_a_value_json_cannot_spell_is_rejected(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            canonical_json({"type": "x", "at": object()})
        with pytest.raises(TypeError, match="not a flow action"):
            FlowRule("r", FlowKey(), "forward", 1).to_json()

    @settings(max_examples=300, deadline=None)
    @given(flow_rules)
    def test_a_rule_that_parses_back_is_its_parsed_json(self, rule):
        """``parses_back`` may refuse a rule the parse would return (a bool
        field), never accept one it would not."""
        if rule.parses_back():
            parsed = FlowRule.from_dict(json.loads(rule.to_json()))
            assert parsed == rule
            assert type(parsed.match) is FlowKey and type(parsed.action) is type(rule.action)
            assert ([type(v) for v in (parsed.rule_id, parsed.priority, *parsed.match)]
                    == [type(v) for v in (rule.rule_id, rule.priority, *rule.match)])

    @pytest.mark.parametrize("rule, exact", [
        (FlowRule("r", FlowKey(src_ip="10.0.0.1", slice_id=200), Forward(2, 200), 5), True),
        (FlowRule("r", FlowKey(), PuntToController(), 0), True),
        (FlowRule("r", FlowKey(slice_id=200.0), Drop(), 5), False),
        (FlowRule("r", FlowKey(), Forward(True, 200), 5), False),
        (FlowRule("r", FlowKey(), Drop(), True), False),
        (FlowRule("r", (None,) * 5, Drop(), 5), False),
    ], ids=["forward", "punt", "float-slice", "bool-port", "bool-priority", "plain-tuple"])
    def test_parses_back_names_exactly_typed_rules(self, rule, exact):
        assert rule.parses_back() is exact


table_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(["r1", "r2", "r3", "r4"]),
            st.sampled_from([FlowKey(), FlowKey(src_ip="10.0.0.1"), FlowKey(slice_id=200)]),
            st.integers(0, 2),
            st.sampled_from([Drop(), Forward(port=1, slice_id=200)]),
            st.sampled_from(list(Provenance)),
        ),
        st.tuples(st.just("delete"), st.sampled_from(["r1", "r2", "r3", "r4", "r9"])),
        st.tuples(st.just("report")),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(table_steps)
def test_cached_report_equals_a_fresh_canonical_build(steps):
    """Adds (with replaces by id and by (match, priority)) and deletes, by the
    controller or externally, between reports of the same table."""
    fabric = build_topology(small_topology())
    table = fabric.nodes["CORE1"].table
    for step in steps:
        if step[0] == "add":
            _kind, rule_id, match, priority, action, provenance = step
            rule = FlowRule(rule_id, match, action, priority)
            apply_flow_mod(fabric, "CORE1", FlowMod.add(rule), provenance)
        elif step[0] == "delete":
            apply_flow_mod(fabric, "CORE1", FlowMod.delete(step[1]), Provenance.EXTERNAL)
        else:
            fresh = canonical_rule_order(r for r in table.rules())
            assert report_flow_rules(fabric, "CORE1") == fresh
    fresh = canonical_rule_order(r for r in table.rules())
    assert report_flow_rules(fabric, "CORE1") == fresh


def test_a_delete_of_an_absent_rule_id_keeps_the_cached_report():
    """The controller deletes rule ids that a later flow's rules replaced by
    (match, priority); such a delete leaves the table, and its report, as
    they were."""
    fabric = build_topology(small_topology())
    table = fabric.nodes["OVS1"].table
    match = FlowKey(src_ip="10.0.0.1", dst_ip="10.0.0.8")
    apply_flow_mod(fabric, "OVS1", FlowMod.add(FlowRule("first", match, Drop(), priority=10)))
    apply_flow_mod(fabric, "OVS1", FlowMod.add(FlowRule("second", match, Drop(), priority=10)))
    before = table.reported()
    assert [r.rule_id for r in before] == ["second", DEFAULT_PUNT_RULE_ID]
    apply_flow_mod(fabric, "OVS1", FlowMod.delete("first"))
    assert table.reported() is before
    apply_flow_mod(fabric, "OVS1", FlowMod.delete("second"))
    assert [r.rule_id for r in table.reported()] == [DEFAULT_PUNT_RULE_ID]


class TestAttestation:
    def test_untampered_measurement_matches_expected(self):
        fabric = build_topology(small_topology())
        nonce = bytes(range(16))
        report = measure_attestation(fabric, "SVC1", nonce)
        assert report.measured_hash == fabric.nodes["SVC1"].expected_hash
        assert report.nonce == nonce

    def test_tampered_node_measures_differently(self):
        fabric = build_topology(small_topology())
        fabric.set_tampered("SVC1", True)
        report = measure_attestation(fabric, "SVC1", bytes(16))
        assert report.measured_hash != fabric.nodes["SVC1"].expected_hash

    def test_nonce_varies_but_measurement_does_not(self):
        fabric = build_topology(small_topology())
        r1 = measure_attestation(fabric, "SVC1", b"A" * 16)
        r2 = measure_attestation(fabric, "SVC1", b"B" * 16)
        assert r1.measured_hash == r2.measured_hash
        assert r1.nonce != r2.nonce

    def test_unknown_node_raises(self):
        fabric = build_topology(small_topology())
        with pytest.raises(UnknownNodeError):
            measure_attestation(fabric, "GHOST", bytes(16))
