"""Shared fixtures: worlds built from the bundled configuration files."""

import json
from enum import IntEnum
from importlib import resources

import pytest
from hypothesis import strategies as st

from slice_sentinel.controller import ManagerConfig, SecurityManager
from slice_sentinel.fabric import (
    Drop,
    FlowKey,
    FlowRule,
    Forward,
    PuntToController,
    Punted,
    build_topology,
    inject_packet,
)
from slice_sentinel.policy import load_policies
from slice_sentinel.security_functions import parse_signatures


def _load_config(name: str):
    ref = resources.files("slice_sentinel.configs").joinpath(name)
    return json.loads(ref.read_text(encoding="utf-8"))


@pytest.fixture
def topology_doc():
    return _load_config("topology.json")


@pytest.fixture
def handover_topology_doc():
    return _load_config("topology_handover.json")


@pytest.fixture
def policy_doc():
    return _load_config("policies.json")


@pytest.fixture
def signature_doc():
    return _load_config("signatures.json")


class Level(IntEnum):
    LOW = 1
    HIGH = 2**40


# Rule fields as generated: non-ASCII and control characters in strings,
# big ints, and the int-like values (bool, IntEnum, float) a caller may pass.
_numbers = st.one_of(
    st.integers(), st.booleans(), st.sampled_from(list(Level)),
    st.floats(allow_nan=True, allow_infinity=True),
)
_optional_text = st.one_of(st.none(), st.text())

flow_rules = st.builds(
    FlowRule,
    rule_id=st.text(),
    match=st.builds(
        FlowKey, src_ip=_optional_text, dst_ip=_optional_text, src_mac=_optional_text,
        dst_mac=_optional_text, slice_id=st.one_of(st.none(), _numbers),
    ),
    action=st.one_of(
        st.builds(Forward, port=_numbers, slice_id=_numbers),
        st.just(Drop()),
        st.just(PuntToController()),
    ),
    priority=_numbers,
)


def build_world(topology_doc, policy_doc, signature_doc):
    fabric = build_topology(topology_doc)
    repo = load_policies(policy_doc)
    manager = SecurityManager(
        fabric,
        repo,
        signatures=parse_signatures(signature_doc),
        config=ManagerConfig(),
        seed=0,
    )
    return fabric, repo, manager


@pytest.fixture
def world(topology_doc, policy_doc, signature_doc):
    return build_world(topology_doc, policy_doc, signature_doc)


@pytest.fixture
def handover_world(handover_topology_doc, policy_doc, signature_doc):
    return build_world(handover_topology_doc, policy_doc, signature_doc)


def drive(fabric, manager, packet, ingress, feedback=True):
    """Inject a packet, let the manager handle any punt, re-inject once.

    Mirrors what the scenario harness does; returns the final trace plus the
    flow decision if the controller was consulted.
    """
    trace = inject_packet(fabric, packet, ingress)
    decision = None
    while fabric.punt_events:
        punt = fabric.punt_events.popleft()
        decision = manager.new_flow(punt)
    if feedback:
        for alert in list(manager.pending_alerts):
            manager.alert(alert)
        manager.pending_alerts.clear()
    if isinstance(trace.outcome, Punted):
        trace = inject_packet(fabric, packet, ingress)
        if feedback:
            for alert in list(manager.pending_alerts):
                manager.alert(alert)
            manager.pending_alerts.clear()
    return trace, decision
