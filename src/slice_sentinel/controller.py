"""Controller-hosted security manager.

One logical authority per domain: it reacts to punted first packets by
extracting the user's profile, composing slice-access and flow-validation
instances for all of that user's devices, deploying them at the edge, and
installing flow rules along the slice path.  It also reacts to alerts by
blacklisting devices, gates service deployment on attestation, provisions
per-flow encryption keys, audits switch state against the activity log, and
hands authorizations over between edges when a device moves.

5G core functions between the gNodeB and the controller are modeled as a
fixed number of message hops that cost virtual time, nothing more.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar, Optional

from . import policy as pol
from . import security_functions as sf
from .fabric import (
    Fabric,
    FlowKey,
    FlowMod,
    FlowRule,
    Forward,
    Drop,
    IngressDecision,
    NodeKind,
    Packet,
    PuntEvent,
    apply_flow_mod,
    flow_id_of,
    measure_attestation,
    report_flow_rules,
)


# The access verdicts that stop a packet at slice entry.  A tuple: its
# identity-first membership test is cheaper than hashing an enum member.
_DENIALS = (sf.AccessVerdict.DENY_UNAUTHORIZED, sf.AccessVerdict.DENY_BLACKLISTED)


class UnknownDeviceError(KeyError):
    """Raised when an operation names a device with no state at that edge."""


class ProvisioningError(Exception):
    """Raised when flow security cannot be provisioned."""


@dataclass
class ManagerConfig:
    """One setting, ``security_enabled``; the rest are fixed constants."""

    security_enabled: bool = True
    generic_slice: ClassVar[int] = 4094
    anomaly_threshold: ClassVar[int] = sf.DEFAULT_ANOMALY_THRESHOLD
    audit_interval_ms: ClassVar[int] = 1000
    # virtual-time cost model, microseconds
    dispatch_hops: ClassVar[int] = 2
    hop_cost_us: ClassVar[int] = 1000
    profile_extract_us: ClassVar[int] = 150
    compose_us: ClassVar[int] = 100
    deploy_us: ClassVar[int] = 50
    access_check_us: ClassVar[int] = 20
    flow_validation_base_us: ClassVar[int] = 20
    signature_scan_us: ClassVar[int] = 10
    path_compute_us: ClassVar[int] = 2500
    rule_install_us: ClassVar[int] = 500

    def dispatch_us(self) -> int:
        return self.dispatch_hops * self.hop_cost_us


# What a destination no rule serves stands for.
_GENERIC_PAIR = (ManagerConfig.generic_slice, "generic")


@lru_cache(maxsize=256)
def _decision(reason: Optional[str], cost_us: int) -> IngressDecision:
    """The one shared decision per (reason, cost); no reason admits.  The
    cache is bounded: reasons name signatures, and a process may load many
    signature sets."""
    return IngressDecision(reason is None, reason, cost_us)


@dataclass
class FlowRecord:
    src_ip: str
    dst_ip: str
    slice_id: int
    service: str
    security_reqs: frozenset[str]
    edge: str
    path: tuple[str, ...]
    rules: list[tuple[str, str]] = field(default_factory=list)  # (node, rule_id)


@dataclass
class FlowDecision:
    flow_id: str
    # "permitted" | "generic" | "deny-unauthorized" | "deny-blacklisted"
    # | "deny-validation" | "error"
    verdict: str
    extraction_performed: bool = False
    cost_us: int = 0
    error: Optional[str] = None


@dataclass
class HandoverResult:
    rules_reanchored: int


@dataclass(eq=False)
class IngressProcessor:
    """The security functions deployed at one edge node.  ``screen`` runs
    them, slice access check then flow validation, for the datapath hook
    ``process`` and for a punted first packet alike; an admitted packet goes
    on to the table (encryption is applied by the fabric as it leaves)."""

    manager: "SecurityManager"
    node: str
    access: sf.SliceAccessState
    validator: sf.FlowValidatorState
    covered_users: set[str] = field(default_factory=set)

    def screen(
        self, packet: Packet, headers_only: bool = False
    ) -> tuple[sf.AccessVerdict, IngressDecision]:
        """Run the slice access check and, unless it denies, flow validation.

        Logs an access denial and records any alert.  Returns the access
        verdict and the decision the datapath acts on; a denial's reason is
        the access verdict's value or the validation drop reason.
        ``headers_only`` is the scope of a punted first packet: no payload
        signatures, no rate window.
        """
        mgr = self.manager
        cfg = mgr.config
        verdict = sf.check_slice_access(
            self.access, packet, mgr.repository.service_at(packet.dst_ip) or _GENERIC_PAIR
        )
        if verdict in _DENIALS:
            mgr.log_access_denied(self.node, packet.src_mac, flow_id_of(packet), verdict.value)
            return verdict, _decision(verdict.value, cfg.access_check_us)
        result = sf.validate_flow(self.validator, packet, headers_only)
        if result.alert is not None:
            mgr.record_alert(result.alert)
        cost = (cfg.access_check_us + cfg.flow_validation_base_us
                + result.signatures_scanned * cfg.signature_scan_us)
        return verdict, _decision(result.drop_reason, cost)

    def process(self, packet: Packet) -> IngressDecision:
        return self.screen(packet)[1]


class SecurityManager:
    """Single serialized security authority over one fabric."""

    def __init__(
        self,
        fabric: Fabric,
        repository: pol.PolicyRepository,
        signatures: Optional[list[sf.Signature]] = None,
        config: Optional[ManagerConfig] = None,
        seed: int = 0,
    ) -> None:
        self.fabric = fabric
        self.repository = repository
        self.log = pol.ActivityLog()
        self.signatures = list(signatures or [])
        self.config = config or ManagerConfig()
        self.flows: dict[str, FlowRecord] = {}
        # device -> flow id -> record: the same records as ``flows``.
        self._device_flows: dict[str, dict[str, FlowRecord]] = {}
        self.global_blacklist: set[str] = set()
        self.admin_alerts: list[dict] = []
        self.pending_alerts: list[sf.Alert] = []
        self.keygen = sf.KeyGenerator(seed)
        self._rng = random.Random(seed)
        self._rule_counter = 0
        self._denial_logged: set[tuple[str, str]] = set()
        self._last_audit_ms = 0
        self._adopt_boot_state()

    # -- bootstrap -----------------------------------------------------------

    def _adopt_boot_state(self) -> None:
        # Record the boot-time tables so a clean switch audits clean.
        for node_id in sorted(self.fabric.nodes):
            node = self.fabric.nodes[node_id]
            if node.kind == NodeKind.HOST:
                continue
            for rule in sorted(node.table.rules(), key=lambda r: r.rule_id):
                self._log(pol.EV_RULE_INSTALLED, node_id, rule=rule, time_ms=0)

    # -- small helpers --------------------------------------------------------

    def _log(self, event_type: str, node: Optional[str], **fields) -> None:
        """Append one event stamped with the fabric clock; a ``time_ms``
        among ``fields`` overrides the stamp."""
        self.log.append(
            {"type": event_type, "node": node, "time_ms": self.fabric.clock_ms, **fields}
        )

    def _admin_alert(self, kind: str, detail: dict) -> None:
        self.admin_alerts.append({"kind": kind, "time_ms": self.fabric.clock_ms, **detail})

    def _next_rule_id(self) -> str:
        self._rule_counter += 1
        return f"fl-{self._rule_counter:06d}"

    def requested_pair(self, dst_ip: str) -> tuple[int, str]:
        """What (slice, service) a destination stands for; generic if unknown."""
        return self.repository.service_at(dst_ip) or _GENERIC_PAIR

    def record_alert(self, alert: sf.Alert) -> None:
        """Log an alert into the activity log and queue it for handling."""
        self._log(pol.EV_ALERT_RAISED, None, **alert.to_dict())
        self.pending_alerts.append(alert)

    def log_access_denied(self, node: str, device_id: str, flow_id: str, reason: str) -> None:
        # One log entry per (device, flow): floods must not balloon the log.
        key = (device_id, flow_id)
        if key in self._denial_logged:
            return
        self._denial_logged.add(key)
        self._log(pol.EV_ACCESS_DENIED, node, device_id=device_id, flow_id=flow_id, reason=reason)

    # -- rule installation -----------------------------------------------------

    def _install_rule(self, node: str, rule: FlowRule) -> None:
        apply_flow_mod(self.fabric, node, FlowMod.add(rule))
        self._log(pol.EV_RULE_INSTALLED, node, rule=rule)

    def _clear_rules(self, record: FlowRecord) -> None:
        """Delete every rule of a flow record, logging each deletion."""
        for node, rule_id in record.rules:
            apply_flow_mod(self.fabric, node, FlowMod.delete(rule_id))
            self._log(pol.EV_RULE_DELETED, node, rule_id=rule_id)
        record.rules.clear()

    def _route(
        self, record: FlowRecord, edge: str, port: Optional[int], dst_node: str
    ) -> Optional[int]:
        """Route a flow from ``edge``, where the device sits behind ``port``,
        to ``dst_node``: set the record's edge and path, then install per hop
        the forward rule and the reverse one back toward the device.  Returns
        the number of rules installed, or None, with the record untouched,
        when there is no port or no path."""
        fabric = self.fabric
        path = fabric.shortest_path(edge, dst_node) if port is not None else None
        if path is None:
            return None
        record.edge = edge
        record.path = path = tuple(path)
        installed = 0
        forward_key = FlowKey(src_ip=record.src_ip, dst_ip=record.dst_ip)
        reverse_key = FlowKey(src_ip=record.dst_ip, dst_ip=record.src_ip)
        # The path follows links, and every link has a port at both ends.
        for i, node in enumerate(path[:-1]):
            next_port = fabric.port_toward(node, path[i + 1])
            back_port = port if i == 0 else fabric.port_toward(node, path[i - 1])
            for key, out_port in ((forward_key, next_port), (reverse_key, back_port)):
                rule = FlowRule(
                    rule_id=self._next_rule_id(),
                    match=key,
                    action=Forward(port=out_port, slice_id=record.slice_id),
                    priority=10,
                )
                self._install_rule(node, rule)
                record.rules.append((node, rule.rule_id))
                installed += 1
        return installed

    # -- deployment -------------------------------------------------------------

    def deploy_functions(self, node: str, user_id: Optional[str]) -> IngressProcessor:
        """Build (or extend) the security functions of an edge node, register
        them as its ingress hook and log the deployment.

        With a user, the user's profile is extracted and goes in whole: every
        device of the user, every slice and service those devices are
        subscribed to.  ``None`` yields a generic-only deployment.  Every edge
        shares the one global blacklist.
        """
        dep = self.fabric.node(node).processor
        if dep is None:
            dep = IngressProcessor(
                manager=self,
                node=node,
                access=sf.SliceAccessState(blacklist=self.global_blacklist),
                validator=sf.FlowValidatorState(signatures=self.signatures),
            )
        if user_id is not None:
            self._log(pol.EV_PROFILE_EXTRACTED, node, user_id=user_id)
            for device, pairs in pol.extract_profile(self.repository, user_id).items():
                dep.access.allowed.setdefault(device, set()).update(pairs)
            dep.covered_users.add(user_id)
        self.fabric.set_ingress_processor(node, dep)
        self._log(
            pol.EV_FUNCTIONS_DEPLOYED, node,
            covered_users=sorted(dep.covered_users), devices=sorted(dep.access.allowed),
        )
        return dep

    # -- command API ---------------------------------------------------------

    def new_flow(self, punt: PuntEvent) -> FlowDecision:
        """Handle a punted first packet end to end: decide the flow, then
        route an admitted one (path, record and bidirectional rules).

        Profile extraction runs at most once per user per edge; a second
        device of an already-covered user is decided locally from the edge
        deployment without touching the repository.  A punt whose in-port
        links to another switch is refused with verdict ``"error"``.
        """
        cfg = self.config
        fabric = self.fabric
        packet = punt.packet
        device = packet.src_mac
        cost = cfg.dispatch_us()
        flow_id = flow_id_of(packet)
        extraction = False
        error = None
        dst_node = None
        reqs: frozenset[str] = frozenset()

        link = fabric.nodes[punt.node].ports.get(punt.port)
        if link is not None and fabric.nodes[link[0]].kind is not NodeKind.HOST:
            # The packet crossed links before it punted: this switch is not
            # where the device is attached, so nothing is decided here.
            verdict = "error"
            error = f"punt at {punt.node} arrived from switch {link[0]}"
        elif not cfg.security_enabled:
            # Baseline reactive forwarding: no security functions at all.
            verdict, pair = "permitted", self.requested_pair(packet.dst_ip)
        else:
            dep = fabric.nodes[punt.node].processor
            user_id = self.repository.user_of_device(device)
            if dep is None or (user_id is not None and user_id not in dep.covered_users):
                # A guest (no registered user) gets a generic-only bundle, so
                # the edge can still police and rate-cap its traffic.
                extraction = user_id is not None
                if extraction:
                    cost += cfg.profile_extract_us
                dep = self.deploy_functions(punt.node, user_id)
                cost += cfg.compose_us + cfg.deploy_us

            # The edge's own functions judge the first packet, at header scope,
            # before any rules go in.
            access, screened = dep.screen(packet, headers_only=True)
            cost += screened.cost_us
            # An access denial is its own verdict; an admitted packet may
            # still fail validation.
            verdict = access.value
            if not (screened.allow or access in _DENIALS):
                verdict, error = "deny-validation", screened.reason
            elif access is sf.AccessVerdict.PERMIT:
                pair = self.requested_pair(packet.dst_ip)
                reqs = self.repository.security_reqs(device, pair)
            elif access is sf.AccessVerdict.ROUTE_GENERIC:
                dst_node, pair = self._generic_host(), _GENERIC_PAIR
                if dst_node is None:
                    verdict, error = "error", f"no host in generic slice {cfg.generic_slice}"

        if verdict == "permitted":
            dst_node = fabric.host_by_ip(packet.dst_ip)
            if dst_node is None:
                verdict, error = "error", f"no host for destination {packet.dst_ip}"
        if dst_node is not None:
            slice_id, service = pair
            record = FlowRecord(packet.src_ip, packet.dst_ip, slice_id, service, reqs,
                                edge=punt.node, path=())
            # An older flow of the device on the same addresses matches the
            # same packets, and this flow's rules replace its rules: retire it.
            device_flows = self._device_flows.get(device)
            for old_id, old in list(device_flows.items()) if device_flows else ():
                if old_id != flow_id and (old.src_ip, old.dst_ip) == (packet.src_ip, packet.dst_ip):
                    self._clear_rules(old)
                    del self.flows[old_id], device_flows[old_id]
            installed = self._route(record, punt.node, punt.port, dst_node)
            cost += cfg.path_compute_us
            if installed is None:
                verdict, error = "error", f"no route from {punt.node} to {dst_node}"
            else:
                cost += installed * cfg.rule_install_us
                self.flows[flow_id] = self._device_flows.setdefault(device, {})[flow_id] = record
        return FlowDecision(flow_id, verdict, extraction, cost, error)

    def _generic_host(self) -> Optional[str]:
        for host in sorted(self.fabric.slices.get(self.config.generic_slice, ())):
            node = self.fabric.nodes.get(host)
            if node is not None and node.kind == NodeKind.HOST:
                return host
        return None

    def alert(self, alert: sf.Alert) -> str:
        """React to a raised alert: blacklist the device at slice entry and
        replace its flow rules with drops.  Idempotent per device.  A device
        that neither the repository nor a flow record knows is contained the
        same way, and its first containment also alerts the administrator.
        Returns ``"blacklisted"`` or ``"noop"``."""
        device = alert.device_id
        if device in self.global_blacklist:
            return "noop"

        self.global_blacklist.add(device)
        self._log(pol.EV_DEVICE_BLACKLISTED, None, device_id=device, reason=alert.reason)
        records = list(self._device_flows.get(device, {}).values())
        # Edge deployments only hold devices of repository profiles, so the
        # repository and the flow records are every device the manager knows.
        if not records and self.repository.user_of_device(device) is None:
            self._admin_alert("unknown-device-alert", {"device_id": device, "reason": alert.reason})
        for record in records:
            self._clear_rules(record)
            self._contain(record, record.edge)
        return "blacklisted"

    def _contain(self, record: FlowRecord, edge: str) -> None:
        """Anchor a flow of a blacklisted device at ``edge`` behind one
        priority-100 drop rule."""
        drop = FlowRule(
            rule_id=self._next_rule_id(),
            match=FlowKey(src_ip=record.src_ip, dst_ip=record.dst_ip),
            action=Drop(),
            priority=100,
        )
        self._install_rule(edge, drop)
        record.edge = edge
        record.rules.append((edge, drop.rule_id))

    def tick(self, now_ms: int) -> list[sf.AuditResult]:
        """Periodic duties: audit every switch once per audit interval."""
        if now_ms - self._last_audit_ms < self.config.audit_interval_ms:
            return []
        self._last_audit_ms = now_ms
        switches = sorted(
            node_id for node_id, node in self.fabric.nodes.items() if node.kind != NodeKind.HOST
        )
        # Audits append only audit and corrective entries, never installs or
        # deletes, so one fold before the first audit is the trusted state of
        # every switch for the whole tick.
        trusted = self.log.expected_switch_states(switches)
        return [self._audit(node_id, trusted[node_id]) for node_id in switches]

    def audit_now(self, node_id: str) -> sf.AuditResult:
        """Compare the switch's reported rules with the log-derived trusted
        state; on any variation alert the administrator and restore."""
        return self._audit(node_id, self.log.expected_switch_state(node_id))

    def _audit(self, node_id: str, trusted: tuple[FlowRule, ...]) -> sf.AuditResult:
        observed = report_flow_rules(self.fabric, node_id)
        result = sf.audit_flow_rules(node_id, trusted, observed)
        # Tuples: the admin alert keeps these values, and no reader of it may
        # change them.  The log is unaffected either way: append stores the
        # event's canonical bytes, not the dict.
        findings = {
            "node": node_id,
            "extra": tuple(r.rule_id for r in result.extra_rules),
            "missing": tuple(r.rule_id for r in result.missing_rules),
            "modified": tuple(e.rule_id for e, _o in result.modified_rules),
        }
        self._log(pol.EV_AUDIT_PERFORMED, **findings, clean=result.clean)
        if not result.clean:
            diff = sf.render_audit_diff(trusted, observed)
            self._admin_alert("switch-state-mismatch", {**findings, "diff": diff})
            self._restore(node_id, result)
        return result

    def _restore(self, node_id: str, result: sf.AuditResult) -> None:
        # Converge the switch back to the trusted state.  These are physical
        # corrections, not policy changes, so the trusted state itself (the
        # install/delete history) is left untouched.
        for rule in result.extra_rules:
            apply_flow_mod(self.fabric, node_id, FlowMod.delete(rule.rule_id))
        reinstalled = [*result.missing_rules, *(e for e, _o in result.modified_rules)]
        for rule in reinstalled:
            apply_flow_mod(self.fabric, node_id, FlowMod.add(rule))
        self._log(
            pol.EV_CORRECTIVE_ACTION, node_id,
            deleted=[r.rule_id for r in result.extra_rules],
            reinstalled=sorted(r.rule_id for r in reinstalled),
        )

    def deploy_service_gated(self, host: str, service: str) -> sf.TrustVerdict:
        """Attest a host with a fresh nonce; deploy the service only if the
        measured state matches the expected one.  Returns the verdict: the
        service was deployed exactly when it is ``TRUSTED``."""
        verdict = self.attest_node(host)
        if verdict == sf.TrustVerdict.TRUSTED:
            self._log(pol.EV_SERVICE_DEPLOYED, host, service=service)
            return verdict
        self._log(pol.EV_SERVICE_REFUSED, host, service=service, verdict=verdict.value)
        self._admin_alert(
            "service-deployment-refused",
            {"node": host, "service": service, "verdict": verdict.value},
        )
        return verdict

    def attest_node(self, node_id: str) -> sf.TrustVerdict:
        node = self.fabric.node(node_id)
        nonce = self._rng.randbytes(16)
        report = measure_attestation(self.fabric, node_id, nonce)
        return sf.validate_attestation(node.expected_hash, report, nonce)

    def handover(self, device_id: str, from_edge: str, to_edge: str) -> HandoverResult:
        """Move a device's authorizations from one edge to another.

        Entries are copied, never re-extracted: the repository is not
        consulted and no profile extraction event appears in the log.  A
        re-routed flow with provisioned ciphers takes them to its new edge
        and egress once each endpoint new to the key passes attestation;
        one that fails is contained at the new edge instead, with a
        ``provisioning-refused`` alert.  The old endpoints keep no cipher.
        """
        to_dep = self.fabric.node(to_edge).processor
        # An unknown from_edge has no state, like an edge with no processor.
        from_dep = getattr(self.fabric.nodes.get(from_edge), "processor", None)
        blacklisted = device_id in self.global_blacklist
        if from_dep is None or (device_id not in from_dep.access.allowed and not blacklisted):
            raise UnknownDeviceError(f"device {device_id!r} has no state at {from_edge!r}")

        if to_dep is None:
            to_dep = self.deploy_functions(to_edge, None)
        if device_id in from_dep.access.allowed:
            to_dep.access.allowed[device_id] = set(from_dep.access.allowed[device_id])
        window = from_dep.validator.windows.get(device_id)
        if window is not None:
            to_dep.validator.windows[device_id] = window.copy()

        reanchored = 0
        for flow_id, record in self._device_flows.get(device_id, {}).items():
            if record.edge != from_edge:
                continue
            old_endpoints = (record.edge, record.path[-2])
            ciphers = [self.fabric.pop_flow_cipher(node, flow_id) for node in old_endpoints]
            self._clear_rules(record)
            if blacklisted:
                # Carry the containment, not the connectivity.
                self._contain(record, to_edge)
                continue
            src_node = self.fabric.host_by_ip(record.src_ip)
            port = self.fabric.port_toward(to_edge, src_node) if src_node is not None else None
            installed = self._route(record, to_edge, port, record.path[-1])
            if installed is None:
                continue
            endpoints = (record.edge, record.path[-2])
            if None not in ciphers and endpoints[0] != endpoints[1]:
                new = [node for node in endpoints if node not in old_endpoints]
                if self._attest_endpoints(flow_id, new) is not None:
                    self._clear_rules(record)
                    self._contain(record, to_edge)
                    continue
                for node, (mode, cipher) in zip(endpoints, ciphers):
                    self.fabric.set_flow_cipher(node, flow_id, mode, cipher)
                    if node in new:
                        self._log(pol.EV_KEY_DISTRIBUTED, node, key_id=cipher.key_id)
            reanchored += installed
        self._log(pol.EV_HANDOVER, to_edge, device_id=device_id, **{"from": from_edge, "to": to_edge})
        return HandoverResult(rules_reanchored=reanchored)

    def provision_security(self, flow_id: str) -> str:
        """Generate and distribute a per-flow key; encrypt at the ingress
        edge, decrypt at the component attached to the destination."""
        record = self.flows.get(flow_id)
        if record is None:
            raise ValueError(f"unknown flow {flow_id!r}")
        if "confidentiality" not in record.security_reqs:
            raise ValueError(
                f"flow {flow_id!r} service {record.service!r} does not require confidentiality"
            )
        ingress = record.edge
        egress = record.path[-2]
        if ingress == egress:
            raise ProvisioningError(
                f"flow {flow_id!r} enters and exits at {ingress!r}; nothing to secure"
            )
        refused = self._attest_endpoints(flow_id, (ingress, egress))
        if refused is not None:
            endpoint, verdict = refused
            raise ProvisioningError(f"endpoint {endpoint!r} failed attestation ({verdict.value})")
        key = self.keygen.generate((ingress, egress))
        self._log(pol.EV_KEY_GENERATED, None, key_id=key.key_id, endpoints=[ingress, egress])
        self.fabric.set_flow_cipher(ingress, flow_id, "encrypt", sf.FlowCipher(key))
        self.fabric.set_flow_cipher(egress, flow_id, "decrypt", sf.FlowCipher(key))
        for endpoint in (ingress, egress):
            self._log(pol.EV_KEY_DISTRIBUTED, endpoint, key_id=key.key_id)
        return key.key_id

    def _attest_endpoints(
        self, flow_id: str, endpoints
    ) -> Optional[tuple[str, sf.TrustVerdict]]:
        """Attest the nodes that are to hold a flow's key, in order.  The
        first that fails alerts the administrator and is returned with its
        verdict; None when all pass."""
        for endpoint in endpoints:
            verdict = self.attest_node(endpoint)
            if verdict != sf.TrustVerdict.TRUSTED:
                self._admin_alert(
                    "provisioning-refused",
                    {"flow_id": flow_id, "node": endpoint, "verdict": verdict.value},
                )
                return endpoint, verdict
        return None
