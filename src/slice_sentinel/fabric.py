"""Simulated SDN slice fabric.

Edge switches stand in for gNodeBs, core switches carry the slice paths and
hosts terminate them.  Slices are VLAN tags, forwarding is flow-table driven
with a punt-to-controller default at every edge, and every node exposes a
deterministic attestation measurement.  Time is virtual: integer milliseconds
advanced per hop plus per-security-function processing cost.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Union

VLAN_MIN = 1
VLAN_MAX = 4094
DEFAULT_PUNT_RULE_ID = "default-punt"
DEFAULT_LINK_LATENCY_MS = 1
MAX_HOPS = 64
# A fabric's walk memo holds at most this many keys; the next new key empties it.
MAX_WALKS = 8192
# The memo's entry for a key that has walked unpunted but has no kept walk.
_SEEN = object()


class TopologyError(ValueError):
    """Raised when a topology document is malformed."""


class UnknownNodeError(KeyError):
    """Raised when an operation references a node id the fabric does not know."""


class NodeKind(str, Enum):
    EDGE = "edge"
    CORE = "core"
    HOST = "host"


class Provenance(str, Enum):
    """Who sent a flow mod; ``apply_flow_mod`` accepts it and stores nothing."""

    CONTROLLER = "controller"
    EXTERNAL = "external"


def _encode_default(obj):
    if isinstance(obj, FlowRule):
        return obj.to_dict()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


if c_make_encoder is not None:
    # The C encoder that JSONEncoder(sort_keys=True, separators=(",", ":"))
    # .encode builds on every call, built once; it keeps no circular-reference
    # markers, as a log event is a tree.
    _encode = c_make_encoder(
        None, _encode_default, encode_basestring_ascii, None, ":", ",", True, False, True
    )

    def canonical_json(obj) -> str:
        """Keys sorted, no whitespace, ASCII only; a ``FlowRule`` as its dict."""
        return "".join(_encode(obj, 0))

else:
    canonical_json = json.JSONEncoder(
        sort_keys=True, separators=(",", ":"), default=_encode_default
    ).encode


def json_scalar(value) -> str:
    """``canonical_json(value)``, spelled directly for a str, an int or None."""
    if value is None:
        return "null"
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    return canonical_json(value)


# ---------------------------------------------------------------------------
# Packets and flow rules
# ---------------------------------------------------------------------------

@dataclass
class Packet:
    src_ip: str
    dst_ip: str
    src_mac: str
    dst_mac: str
    payload: bytes = b""
    flow_id: str = ""
    slice_id: Optional[int] = None
    virtual_timestamp: int = 0


def flow_id_of(packet: Packet) -> str:
    """A packet's flow id; a packet without one is named by its addresses."""
    return packet.flow_id or f"{packet.src_ip}->{packet.dst_ip}"


class FlowKey(NamedTuple):
    """Match fields of a flow rule. ``None`` means wildcard.  A named tuple:
    it is the field tuple a flow table indexes its rules by."""

    src_ip: Optional[str] = None
    dst_ip: Optional[str] = None
    src_mac: Optional[str] = None
    dst_mac: Optional[str] = None
    slice_id: Optional[int] = None


@dataclass(frozen=True)
class Forward:
    port: int
    slice_id: int


@dataclass(frozen=True)
class Drop:
    pass


@dataclass(frozen=True)
class PuntToController:
    pass


Action = Union[Forward, Drop, PuntToController]


def action_to_dict(action: Action) -> dict:
    if isinstance(action, Forward):
        return {"kind": "forward", "port": action.port, "slice_id": action.slice_id}
    if isinstance(action, Drop):
        return {"kind": "drop"}
    if isinstance(action, PuntToController):
        return {"kind": "punt"}
    raise TypeError(f"not a flow action: {action!r}")


def action_from_dict(d: dict) -> Action:
    kind = d["kind"]
    if kind == "forward":
        return Forward(port=d["port"], slice_id=d["slice_id"])
    if kind == "drop":
        return Drop()
    if kind == "punt":
        return PuntToController()
    raise ValueError(f"unknown action kind {kind!r}")


@dataclass(frozen=True)
class FlowRule:
    """A flow entry as a switch holds and reports it.  It records no sender:
    a switch cannot tell its controller's rules from injected ones."""

    rule_id: str
    match: FlowKey
    action: Action
    priority: int

    def to_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "match": self.match._asdict(),
            "action": action_to_dict(self.action),
            "priority": self.priority,
        }

    def to_json(self) -> str:
        """``canonical_json(self.to_dict())``, written from a fixed template."""
        action = self.action
        if isinstance(action, Forward):
            action_json = (f'{{"kind":"forward","port":{json_scalar(action.port)},'
                           f'"slice_id":{json_scalar(action.slice_id)}}}')
        elif isinstance(action, Drop):
            action_json = '{"kind":"drop"}'
        elif isinstance(action, PuntToController):
            action_json = '{"kind":"punt"}'
        else:
            raise TypeError(f"not a flow action: {action!r}")
        src_ip, dst_ip, src_mac, dst_mac, slice_id = self.match
        return (
            f'{{"action":{action_json},"match":{{"dst_ip":{json_scalar(dst_ip)},'
            f'"dst_mac":{json_scalar(dst_mac)},"slice_id":{json_scalar(slice_id)},'
            f'"src_ip":{json_scalar(src_ip)},"src_mac":{json_scalar(src_mac)}}},'
            f'"priority":{json_scalar(self.priority)},"rule_id":{json_scalar(self.rule_id)}}}'
        )

    def parses_back(self) -> bool:
        """Whether parsing ``to_json()`` gives back this rule exactly: each
        field is exactly of its declared type (a str or an int; None in a
        match)."""
        match = self.match
        if type(match) is not FlowKey:
            return False
        src_ip, dst_ip, src_mac, dst_mac, slice_id = match
        action = self.action
        kind = type(action)
        return (
            type(self.rule_id) is str and type(self.priority) is int
            and (src_ip is None or type(src_ip) is str)
            and (dst_ip is None or type(dst_ip) is str)
            and (src_mac is None or type(src_mac) is str)
            and (dst_mac is None or type(dst_mac) is str)
            and (slice_id is None or type(slice_id) is int)
            and (kind is Drop or kind is PuntToController or (
                kind is Forward and type(action.port) is int and type(action.slice_id) is int))
        )

    @classmethod
    def from_dict(cls, d: dict) -> "FlowRule":
        match = d["match"]
        return cls(
            rule_id=d["rule_id"],
            match=FlowKey._make([match.get(name) for name in FlowKey._fields]),
            action=action_from_dict(d["action"]),
            priority=d["priority"],
        )


def canonical_rule_order(rules: Iterable[FlowRule]) -> tuple[FlowRule, ...]:
    """Priority descending, then rule id ascending. Shared by every report."""
    return tuple(sorted(rules, key=lambda r: (-r.priority, r.rule_id)))


# ---------------------------------------------------------------------------
# Flow table
# ---------------------------------------------------------------------------

class FlowMod(NamedTuple):
    """An add carries its rule, a delete the id of the rule it removes."""

    rule: Optional[FlowRule] = None
    rule_id: Optional[str] = None

    @classmethod
    def add(cls, rule: FlowRule) -> "FlowMod":
        return cls(rule=rule)

    @classmethod
    def delete(cls, rule_id: str) -> "FlowMod":
        return cls(rule_id=rule_id)


# Wildcard mask (True where a field is matched exactly) -> the projection that
# turns a packet's fields, padded with a trailing None, into the match a rule
# with that mask is stored under.  Shared by every table.
_PROJECTIONS: dict[tuple[bool, ...], itemgetter] = {
    mask: itemgetter(*(i if exact else 5 for i, exact in enumerate(mask)))
    for mask in product((False, True), repeat=5)
}


def _projection(match: FlowKey) -> itemgetter:
    return _PROJECTIONS[(match[0] is not None, match[1] is not None, match[2] is not None,
                         match[3] is not None, match[4] is not None)]


class FlowTable:
    """Match-action table with (match, priority) uniqueness.

    Rules are indexed by tuple-space search (Srinivasan et al., SIGCOMM 1999):
    one bucket per match (a tuple of its fields), holding its rules by priority
    descending, and a count of buckets per wildcard mask.  A lookup probes one
    bucket per mask present instead of scanning every rule.

    ``version`` counts the adds and the deletes that removed a rule: a
    lookup whose table still has the version it saw would return the same
    rule again.
    """

    __slots__ = ("_rules", "_buckets", "_masks", "_reported", "version")

    def __init__(self) -> None:
        self._rules: dict[str, FlowRule] = {}
        self._buckets: dict[tuple, list[FlowRule]] = {}
        self._masks: dict[itemgetter, int] = {}
        # The rules in canonical order; None once an add or delete changes them.
        self._reported: Optional[tuple[FlowRule, ...]] = None
        self.version = 0

    def __len__(self) -> int:
        return len(self._rules)

    def rules(self) -> list[FlowRule]:
        return list(self._rules.values())

    def reported(self) -> tuple[FlowRule, ...]:
        """The table's own rules in canonical order, as the switch reports them."""
        if self._reported is None:
            self._reported = canonical_rule_order(self._rules.values())
        return self._reported

    def add(self, rule: FlowRule) -> None:
        self._reported = None
        self.version += 1
        previous = self._rules.pop(rule.rule_id, None)
        if previous is not None:
            self._unindex(previous)
        match = rule.match
        bucket = self._buckets.get(match)
        if bucket is None:
            self._buckets[match] = [rule]
            project = _projection(match)
            self._masks[project] = self._masks.get(project, 0) + 1
        else:
            i = 0
            while i < len(bucket) and bucket[i].priority > rule.priority:
                i += 1
            if i < len(bucket) and bucket[i].priority == rule.priority:
                # An add with an existing (match, priority) replaces that rule.
                del self._rules[bucket[i].rule_id]
                bucket[i] = rule
            else:
                bucket.insert(i, rule)
        self._rules[rule.rule_id] = rule

    def delete(self, rule_id: str) -> None:
        rule = self._rules.pop(rule_id, None)
        if rule is not None:
            self._reported = None
            self.version += 1
            self._unindex(rule)

    def _unindex(self, rule: FlowRule) -> None:
        match = rule.match
        bucket = self._buckets[match]
        if len(bucket) > 1:
            bucket.remove(rule)  # the stored object: no other entry has its priority
            return
        del self._buckets[match]
        project = _projection(match)
        if self._masks[project] == 1:
            del self._masks[project]
        else:
            self._masks[project] -= 1

    def lookup(self, fields: tuple) -> Optional[FlowRule]:
        """The rule a packet with these header fields hits: highest priority
        first, equal priorities break on lowest rule id.

        ``fields`` is ``(src_ip, dst_ip, src_mac, dst_mac, slice_id, None)``:
        the packet's match fields, then the ``None`` a wildcard projects to.
        """
        best = None
        for project in self._masks:
            bucket = self._buckets.get(project(fields))
            if bucket is not None:
                head = bucket[0]
                if best is None or head.priority > best.priority or (
                    head.priority == best.priority and head.rule_id < best.rule_id
                ):
                    best = head
        return best


# ---------------------------------------------------------------------------
# Attestation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttestationReport:
    measured_hash: bytes
    nonce: bytes


# ---------------------------------------------------------------------------
# Forwarding traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Delivered:
    """Built once per host by ``build_topology``; every delivery to that
    host returns the same object."""

    host: str


@dataclass(frozen=True)
class Dropped:
    node: str
    reason: str


@dataclass(frozen=True)
class Punted:
    node: str


Outcome = Union[Delivered, Dropped, Punted]


class LinkHop(NamedTuple):
    """One link a packet crossed: from ``node`` to ``to``, carrying
    ``payload`` (an envelope when ``encrypted``).  A named tuple, so it
    equals the plain tuple of its fields."""

    node: str
    to: str
    encrypted: bool
    payload: bytes


@dataclass
class ForwardingTrace:
    events: list[LinkHop]
    outcome: Outcome


@dataclass(frozen=True)
class PuntEvent:
    """A packet-in: the punted packet cut to its header (empty payload)."""

    node: str
    port: int
    packet: Packet


@dataclass(frozen=True)
class IngressDecision:
    """What an ingress security processor tells the datapath.  Frozen: a
    processor may hand the same decision to every packet it judges alike."""

    allow: bool
    reason: Optional[str] = None
    cost_us: int = 0


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------

@dataclass
class Node:
    node_id: str
    kind: NodeKind
    ip: Optional[str] = None
    tampered: bool = False
    table: FlowTable = field(default_factory=FlowTable)
    descriptor: bytes = b""
    expected_hash: bytes = b""
    # port -> (peer node id, peer port, latency ms)
    ports: dict[int, tuple[str, int, int]] = field(default_factory=dict)
    # peer node id -> lowest port linked to it
    port_to: dict[str, int] = field(default_factory=dict)


class Fabric:
    """A built topology plus its mutable runtime state.

    ``build_topology`` fixes the nodes, their kinds and links, and the
    slices; afterwards only the flow tables, the flow ciphers (changed
    through ``set_flow_cipher`` and ``pop_flow_cipher``), the ingress
    processors, the tamper flags and the clock change.  ``inject_packet``
    keeps walks on that basis (see ``_plan_walk``).
    """

    def __init__(self) -> None:
        self.nodes: dict[str, Node] = {}
        # slice vlan -> hosts on that slice
        self.slices: dict[int, frozenset[str]] = {}
        self.clock_ms: int = 0
        self.punt_events: deque[PuntEvent] = deque()
        self.ingress_processors: dict[str, object] = {}
        # node -> flow_id -> ("encrypt"|"decrypt", cipher)
        self.flow_ciphers: dict[str, dict[str, tuple[str, object]]] = {}
        self._route_cache: dict[str, dict[str, str]] = {}
        # host ip -> host node id; the first host in document order wins
        self._host_by_ip: dict[str, str] = {}
        # host node id -> the one outcome every delivery to it returns
        self._delivered: dict[str, Delivered] = {}
        # walk key -> its kept walk, or _SEEN once the key walked unpunted
        self._walks: dict[tuple, object] = {}

    # -- node helpers -------------------------------------------------------

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def host_by_ip(self, ip: str) -> Optional[str]:
        return self._host_by_ip.get(ip)

    def port_toward(self, node_id: str, peer_id: str) -> Optional[int]:
        return self.node(node_id).port_to.get(peer_id)

    def set_tampered(self, node_id: str, tampered: bool) -> None:
        self.node(node_id).tampered = tampered

    def set_ingress_processor(self, node_id: str, processor: object) -> None:
        self.node(node_id)
        self.ingress_processors[node_id] = processor

    def set_flow_cipher(self, node_id: str, flow_id: str, mode: str, cipher: object) -> None:
        if mode not in ("encrypt", "decrypt"):
            raise ValueError(f"cipher mode must be encrypt or decrypt, got {mode!r}")
        self.node(node_id)
        self.flow_ciphers.setdefault(node_id, {})[flow_id] = (mode, cipher)
        self._drop_walks()

    def pop_flow_cipher(self, node_id: str, flow_id: str) -> Optional[tuple[str, object]]:
        """Remove a flow's cipher at a node; returns its (mode, cipher) entry."""
        entry = self.flow_ciphers.get(node_id, {}).pop(flow_id, None)
        if entry is not None:
            self._drop_walks()
        return entry

    def _drop_walks(self) -> None:
        # A kept walk records the ciphers it met.  Its key has still walked
        # unpunted, so its next walk is kept again.
        self._walks = dict.fromkeys(self._walks, _SEEN)

    # -- routing ------------------------------------------------------------

    def shortest_path(self, src: str, dst: str) -> Optional[list[str]]:
        """BFS path over node ids; deterministic via sorted neighbor order."""
        self.node(src)
        self.node(dst)
        parents = self._route_cache.get(dst)
        if parents is None:
            parents = self._bfs_parents(dst)
            self._route_cache[dst] = parents
        if src not in parents and src != dst:
            return None
        path = [src]
        at = src
        while at != dst:
            at = parents[at]
            path.append(at)
        return path

    def _bfs_parents(self, dst: str) -> dict[str, str]:
        # Parent pointers toward dst, computed once per destination.
        parents: dict[str, str] = {}
        seen = {dst}
        queue = deque([dst])
        while queue:
            at = queue.popleft()
            neighbors = sorted(peer for peer, _p, _l in self.nodes[at].ports.values())
            for peer in neighbors:
                if peer not in seen:
                    seen.add(peer)
                    parents[peer] = at
                    queue.append(peer)
        return parents


def _node_descriptor(node_id: str, kind: str, ip: Optional[str]) -> bytes:
    return canonical_json({"id": node_id, "ip": ip, "kind": kind}).encode()


def _entries(config: dict, section: str, required: tuple[str, ...]):
    """The entries of one topology section, each an object with ``required``."""
    entries = config.get(section, [])
    if not isinstance(entries, list):
        raise TopologyError(f"{section} must be a list, got {entries!r}")
    for raw in entries:
        if not isinstance(raw, dict):
            raise TopologyError(f"{section} entry must be an object, got {raw!r}")
        for key in required:
            if key not in raw:
                raise TopologyError(f"{section} entry missing required field {key!r}")
        yield raw


def build_topology(config: dict) -> Fabric:
    """Build a fabric from a topology document.

    The document declares ``nodes`` (id, kind, optional ip/tampered),
    ``links`` (a, b, latency_ms) and ``slices`` (vlan, hosts; a ``name`` is
    accepted and not stored).  Edge switches start with a single
    punt-to-controller rule; everything else starts empty.  Each node's
    expected attestation hash is fixed here.
    """
    if not isinstance(config, dict):
        raise TopologyError("topology document must be a JSON object")
    fabric = Fabric()
    for raw in _entries(config, "nodes", ("id",)):
        node_id = raw["id"]
        if not isinstance(node_id, str):
            raise TopologyError(f"node id must be a string, got {node_id!r}")
        if node_id in fabric.nodes:
            raise TopologyError(f"duplicate node id {node_id!r}")
        try:
            kind = NodeKind(raw.get("kind", "core"))
        except ValueError:
            raise TopologyError(f"unknown node kind {raw.get('kind')!r}") from None
        if not isinstance(raw.get("ip", ""), str):
            raise TopologyError(f"node {node_id!r} ip must be a string, got {raw['ip']!r}")
        descriptor = _node_descriptor(node_id, kind.value, raw.get("ip"))
        node = Node(
            node_id=node_id,
            kind=kind,
            ip=raw.get("ip"),
            tampered=bool(raw.get("tampered", False)),
            descriptor=descriptor,
            expected_hash=hashlib.sha256(descriptor).digest(),
        )
        if kind == NodeKind.EDGE:
            node.table.add(
                FlowRule(
                    rule_id=DEFAULT_PUNT_RULE_ID,
                    match=FlowKey(),
                    action=PuntToController(),
                    priority=0,
                )
            )
        fabric.nodes[node_id] = node
        if kind == NodeKind.HOST:
            fabric._delivered[node_id] = Delivered(host=node_id)
            if node.ip is not None:
                fabric._host_by_ip.setdefault(node.ip, node_id)

    for link in _entries(config, "links", ("a", "b")):
        a, b = link["a"], link["b"]
        for end in (a, b):
            if end not in fabric.nodes:
                raise TopologyError(f"link references undefined node {end!r}")
        latency = link.get("latency_ms", DEFAULT_LINK_LATENCY_MS)
        if isinstance(latency, bool) or not isinstance(latency, int) or latency < 0:
            raise TopologyError(f"link {a}-{b} latency_ms must be an integer >= 0, got {latency!r}")
        node_a, node_b = fabric.nodes[a], fabric.nodes[b]
        # Ports are numbered 1, 2, ... in link order and never removed.
        port_a = len(node_a.ports) + 1
        port_b = len(node_b.ports) + 1
        node_a.ports[port_a] = (b, port_b, latency)
        node_b.ports[port_b] = (a, port_a, latency)
        node_a.port_to.setdefault(b, port_a)
        node_b.port_to.setdefault(a, port_b)

    for raw in _entries(config, "slices", ("vlan",)):
        vlan = raw["vlan"]
        if isinstance(vlan, bool) or not isinstance(vlan, int):
            raise TopologyError(f"slice vlan must be an integer, got {vlan!r}")
        if not VLAN_MIN <= vlan <= VLAN_MAX:
            raise TopologyError(f"slice id {vlan} outside VLAN range {VLAN_MIN}..{VLAN_MAX}")
        if vlan in fabric.slices:
            raise TopologyError(f"duplicate slice vlan {vlan}")
        hosts = raw.get("hosts", [])
        if not isinstance(hosts, list):
            raise TopologyError(f"slice {vlan} hosts must be a list, got {hosts!r}")
        for host in hosts:
            if isinstance(host, (list, dict)) or host not in fabric.nodes:
                raise TopologyError(f"slice {vlan} references undefined node {host!r}")
        fabric.slices[vlan] = frozenset(hosts)

    return fabric


# ---------------------------------------------------------------------------
# Fabric operations
# ---------------------------------------------------------------------------

def apply_flow_mod(
    fabric: Fabric,
    node_id: str,
    mod: FlowMod,
    provenance: Provenance = Provenance.CONTROLLER,
) -> None:
    """Add the rule a mod carries to a node's table, or delete the rule id
    it carries.  A mod that carries neither is a ``ValueError``.

    ``provenance``, who sent the mod, is accepted and not stored: a switch
    cannot tell its controller's mods from injected ones.
    """
    table = fabric.node(node_id).table
    if mod.rule is not None:
        table.add(mod.rule)
    elif mod.rule_id is not None:
        table.delete(mod.rule_id)
    else:
        raise ValueError("flow mod carries neither a rule nor a rule id")


def report_flow_rules(fabric: Fabric, node_id: str) -> tuple[FlowRule, ...]:
    """A node's rules in canonical order; a pure function of its table."""
    return fabric.node(node_id).table.reported()


def measure_attestation(fabric: Fabric, node_id: str, nonce: bytes) -> AttestationReport:
    """Measure a node's software state and echo the challenge nonce.

    The measurement is a digest of the node's descriptor; a tampered node's
    measurement diverges from the expected hash fixed at build time.
    """
    if len(nonce) != 16:
        raise ValueError("attestation nonce must be 16 bytes")
    node = fabric.node(node_id)
    material = node.descriptor + (b"|tampered" if node.tampered else b"")
    return AttestationReport(measured_hash=hashlib.sha256(material).digest(), nonce=nonce)


def _apply_cipher(
    entry: tuple[str, object], payload: bytes, encrypted: bool, next_is_host: bool
) -> tuple[Optional[bytes], bool]:
    """Run a node's (mode, cipher) entry for a flow on the outgoing payload.
    The payload comes back as ``None`` when an envelope fails authentication.
    """
    mode, cipher = entry
    if mode == "encrypt" and not encrypted:
        return cipher.encrypt(payload), True
    if mode == "decrypt" and encrypted and next_is_host:
        # local import: avoid cycle
        from .security_functions import AuthenticationError

        try:
            return cipher.decrypt(payload), False
        except AuthenticationError:
            return None, encrypted
    return payload, encrypted


def _plan_walk(
    fabric: Fabric, packet: Packet, at: str, port: int, timestamp: int, plan: Optional[list]
) -> tuple[list[LinkHop], Outcome, int]:
    """Walk a packet from node ``at``, where it arrived on ``port`` at
    ``timestamp``, through the tables to an outcome.  Returns the hops, the
    outcome and the timestamp at the end.

    The walk keeps the packet's slice tag, payload and timestamp in locals.
    A punt emits a controller event naming the port the packet arrived on
    at the punting node, and carrying a new packet cut to its header: empty
    payload, the slice tag and timestamp it had at that node.  The flow's
    ciphers and the punted header both name the flow by
    ``flow_id_of(packet)``.

    ``plan``, when given, is ``[lookups, links, None]`` and records what the
    walk met, which is the same for every packet of its walk key (the
    ingress node and port, the header fields, the slice tag and the flow
    id): ``[table, header tuple, rule it returned, table version then]`` per
    lookup, ``(node, peer, latency ms, the node's cipher entry for the flow
    or None, whether the peer is a host)`` per link crossed, and last the
    outcome, which stays None after a punt.  An envelope that fails
    authentication fails for every packet of the key while the ciphers it
    met stay, so that outcome is planned like any other.
    """
    src_ip, dst_ip, src_mac, dst_mac = packet.src_ip, packet.dst_ip, packet.src_mac, packet.dst_mac
    slice_id = packet.slice_id
    payload = packet.payload
    flow_id = flow_id_of(packet)
    nodes = fabric.nodes
    flow_ciphers = fabric.flow_ciphers
    node = nodes[at]
    hops: list[LinkHop] = []
    encrypted = False
    for _hop in range(MAX_HOPS):
        table = node.table
        fields = (src_ip, dst_ip, src_mac, dst_mac, slice_id, None)
        rule = table.lookup(fields)
        if plan is not None:
            plan[0].append([table, fields, rule, table.version])
        if rule is None:
            outcome = Dropped(node=at, reason="no-matching-rule")
            break
        action = rule.action
        if not isinstance(action, Forward):
            if isinstance(action, PuntToController):
                header = Packet(src_ip, dst_ip, src_mac, dst_mac, b"", flow_id,
                                slice_id, timestamp)
                fabric.punt_events.append(PuntEvent(node=at, port=port, packet=header))
                return hops, Punted(node=at), timestamp
            outcome = Dropped(node=at, reason=f"drop-rule:{rule.rule_id}")
            break

        slice_id = action.slice_id
        link = node.ports.get(action.port)
        if link is None:
            outcome = Dropped(node=at, reason="dead-port")
            break
        peer_id, peer_port, latency = link
        peer = nodes[peer_id]
        to_host = peer.kind is NodeKind.HOST
        ciphers = flow_ciphers.get(at)
        cipher = ciphers.get(flow_id) if ciphers else None
        if plan is not None:
            plan[1].append((at, peer_id, latency, cipher, to_host))
        if cipher is not None:
            payload, encrypted = _apply_cipher(cipher, payload, encrypted, to_host)
            if payload is None:
                outcome = Dropped(node=at, reason="auth-failed")
                break
        timestamp += latency
        # LinkHop(...), without the named tuple's Python-level __new__
        hops.append(tuple.__new__(LinkHop, (at, peer_id, encrypted, payload)))
        if to_host:
            if slice_id is not None and peer_id not in fabric.slices.get(slice_id, ()):
                outcome = Dropped(node=at, reason="slice-violation")
            else:
                outcome = fabric._delivered[peer_id]
            break
        at = peer_id
        node = peer
        port = peer_port
    else:
        outcome = Dropped(node=at, reason="hop-limit")
    if plan is not None:
        plan[2] = outcome
    return hops, outcome, timestamp


def inject_packet(fabric: Fabric, packet: Packet, ingress: tuple[str, int]) -> ForwardingTrace:
    """Push a packet into the fabric at an edge and run it to an outcome.

    The ingress node's security processor (if deployed) runs before table
    lookup; ``packet`` is never changed.  The walk (``_plan_walk``) is
    planned once per walk key and kept from the key's second unpunted walk
    on: a punted walk is never kept.  A later packet replays the kept walk
    after checking it: a table whose
    version moved is looked up again, and the walk is planned afresh unless
    the same rule wins.  The ciphers (and an ``auth-failed`` drop), the
    timestamps and the hops are per packet.  The trace holds the link hops
    the packet crossed, in order.
    """
    node_id, port = ingress
    fabric.node(node_id)
    timestamp = packet.virtual_timestamp

    processor = fabric.ingress_processors.get(node_id)
    if processor is not None:
        decision: IngressDecision = processor.process(packet)
        timestamp += decision.cost_us // 1000
        if not decision.allow:
            fabric.clock_ms = max(fabric.clock_ms, timestamp)
            return ForwardingTrace([], Dropped(node=node_id, reason=decision.reason))

    walks = fabric._walks
    key = (node_id, port, packet.src_ip, packet.dst_ip, packet.src_mac, packet.dst_mac,
           packet.slice_id, packet.flow_id)
    walk = walks.get(key)
    if walk is not None and walk is not _SEEN:
        for lookup in walk[0]:
            table = lookup[0]
            if table.version != lookup[3]:
                if table.lookup(lookup[1]) is not lookup[2]:
                    walk = _SEEN
                    break
                lookup[3] = table.version
    if walk is None or walk is _SEEN:
        plan = None if walk is None else [[], [], None]
        hops, outcome, timestamp = _plan_walk(fabric, packet, node_id, port, timestamp, plan)
        if isinstance(outcome, Punted):
            if walk is not None:
                del walks[key]
        elif plan is not None:
            walks[key] = plan
        else:
            if len(walks) >= MAX_WALKS:
                walks.clear()
            walks[key] = _SEEN
    else:
        _lookups, links, outcome = walk
        payload = packet.payload
        hops = []
        encrypted = False
        for at, peer_id, latency, cipher, to_host in links:
            if cipher is not None:
                payload, encrypted = _apply_cipher(cipher, payload, encrypted, to_host)
                if payload is None:
                    outcome = Dropped(node=at, reason="auth-failed")
                    break
            timestamp += latency
            hops.append(tuple.__new__(LinkHop, (at, peer_id, encrypted, payload)))

    fabric.clock_ms = max(fabric.clock_ms, timestamp)
    return ForwardingTrace(hops, outcome)
