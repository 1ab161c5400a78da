"""Slice access policies and the trusted activity log.

The policy repository stores per-device slice/service authorizations in the
JSON shape used by the controller (``hostip``/``hostmac``/``destip``/
``Slice-id``/``Service`` field names), indexes them by device and by user,
and answers the lookups the security manager makes at flow setup.  Only what
the manager reads is stored; descriptive keys are accepted and dropped.
The activity log is a hash-chained, tamper-evident record of controller
actions from which the expected state of any switch can be reconstructed.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .fabric import (
    VLAN_MAX,
    VLAN_MIN,
    FlowRule,
    FlowTable,
    canonical_json,
    json_scalar,
)

VALID_SECURITY_REQS = frozenset(
    {"confidentiality", "integrity", "authentication", "accountability"}
)

_SLICE_ID_RE = re.compile(r"VLAN([0-9]+)")


class PolicyError(ValueError):
    """Raised when a policy document violates the schema."""


# ---------------------------------------------------------------------------
# Policy rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolicyAction:
    service: str
    slice_id: int
    security_reqs: frozenset[str] = frozenset()


@dataclass(frozen=True)
class PolicyRule:
    policy_id: str
    # The MAC is the authoritative device identity; the IP may change.
    device_id: str
    dest_ip: str
    user_id: str
    actions: tuple[PolicyAction, ...]


def _parse_slice_id(raw) -> int:
    m = _SLICE_ID_RE.fullmatch(raw) if isinstance(raw, str) else None
    if m is None:
        raise PolicyError(f"unknown slice reference {raw!r} (expected VLAN<n>)")
    vlan = int(m.group(1))
    if not VLAN_MIN <= vlan <= VLAN_MAX:
        raise PolicyError(f"unknown slice reference {raw!r} (VLAN outside {VLAN_MIN}..{VLAN_MAX})")
    return vlan


def _parse_action(raw: dict, policy_id: str) -> PolicyAction:
    if not isinstance(raw, dict):
        raise PolicyError(f"policy {policy_id!r}: action must be an object, got {raw!r}")
    if "Service" not in raw or "Slice-id" not in raw:
        raise PolicyError(f"policy {policy_id!r}: action needs Service and Slice-id")
    security = raw.get("security", [])
    if not isinstance(security, list) or not all(isinstance(r, str) for r in security):
        raise PolicyError(
            f"policy {policy_id!r}: security must be a list of strings, got {security!r}"
        )
    reqs = frozenset(security)
    bad = reqs - VALID_SECURITY_REQS
    if bad:
        raise PolicyError(f"policy {policy_id!r}: unknown security requirements {sorted(bad)}")
    lists = sorted(k for k in ("whitelist", "blacklist") if k in raw)
    if lists:
        raise PolicyError(
            f"policy {policy_id!r}: per-destination {' and '.join(lists)} is not enforced; "
            "remove it from the action"
        )
    return PolicyAction(
        service=raw["Service"],
        slice_id=_parse_slice_id(raw["Slice-id"]),
        security_reqs=reqs,
    )


def parse_policy_rule(raw: dict) -> PolicyRule:
    if not isinstance(raw, dict):
        raise PolicyError(f"policy entry must be an object, got {raw!r}")
    for key in ("id", "hostip", "hostmac", "destip", "actions"):
        if key not in raw:
            raise PolicyError(f"policy entry missing required field {key!r}")
    policy_id = str(raw["id"])
    if not isinstance(raw["actions"], list):
        raise PolicyError(f"policy {policy_id!r}: actions must be a list")
    user_raw = raw.get("user", {})
    if not isinstance(user_raw, dict):
        raise PolicyError(f"policy {policy_id!r}: user must be an object")
    actions = tuple(_parse_action(a, policy_id) for a in raw["actions"])
    if not actions:
        raise PolicyError(f"policy {policy_id!r}: empty actions")
    return PolicyRule(
        policy_id=policy_id,
        device_id=raw["hostmac"],
        dest_ip=raw["destip"],
        user_id=str(user_raw.get("id", f"anon-{raw['hostmac']}")),
        actions=actions,
    )


# ---------------------------------------------------------------------------
# Security profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SecurityProfile:
    user_id: str
    # device_id -> {(slice_id, service)}, unioned over all the user's rules
    allowed: dict[str, frozenset[tuple[int, str]]]


# ---------------------------------------------------------------------------
# Repository
# ---------------------------------------------------------------------------

class PolicyRepository:
    """Indexed store of policy rules, keyed by device and by user."""

    def __init__(self) -> None:
        # policy id -> rule, in registration order
        self.rules: dict[str, PolicyRule] = {}
        self._by_mac: dict[str, list[PolicyRule]] = {}
        self._by_user: dict[str, list[PolicyRule]] = {}
        self._service_at: dict[str, tuple[int, str]] = {}

    def register(self, rule: PolicyRule) -> None:
        """Add one rule; used by loading and by out-of-band registration.

        A destination IP hosts one (slice, service): a rule whose first action
        maps a known destination to another pair is rejected before any index
        changes.
        """
        if rule.policy_id in self.rules:
            raise PolicyError(f"duplicate policy id {rule.policy_id!r}")
        action = rule.actions[0]
        pair = (action.slice_id, action.service)
        hosted = self._service_at.get(rule.dest_ip)
        if hosted is not None and hosted != pair:
            raise PolicyError(
                f"policy {rule.policy_id!r}: destination {rule.dest_ip} already hosts "
                f"{hosted}, cannot also host {pair}"
            )
        self.rules[rule.policy_id] = rule
        self._by_mac.setdefault(rule.device_id, []).append(rule)
        self._by_user.setdefault(rule.user_id, []).append(rule)
        self._service_at[rule.dest_ip] = pair

    def user_of_device(self, device_mac: str) -> Optional[str]:
        rules = self._by_mac.get(device_mac)
        return rules[0].user_id if rules else None

    def security_reqs(self, device_mac: str, pair: tuple[int, str]) -> frozenset[str]:
        """Requirements a device's policies attach to one (slice, service) pair."""
        for rule in self._by_mac.get(device_mac, []):
            for action in rule.actions:
                if (action.slice_id, action.service) == pair:
                    return action.security_reqs
        return frozenset()

    def device_known(self, device_mac: str) -> bool:
        return device_mac in self._by_mac

    def service_at(self, dest_ip: str) -> Optional[tuple[int, str]]:
        """The (slice, service) a destination IP hosts, if any rule names it."""
        return self._service_at.get(dest_ip)


def load_policies(document: list) -> PolicyRepository:
    """Build a repository from a parsed policy JSON array."""
    if not isinstance(document, list):
        raise PolicyError("policy document must be a JSON array")
    repo = PolicyRepository()
    for raw in document:
        repo.register(parse_policy_rule(raw))
    # A pair no destination serves could never be requested at flow setup.
    served = set(repo._service_at.values())
    for rule in repo.rules.values():
        for action in rule.actions:
            pair = (action.slice_id, action.service)
            if pair not in served:
                raise PolicyError(
                    f"policy {rule.policy_id!r}: no rule's destip serves {pair}; "
                    "a destination hosts the first action's pair only"
                )
    return repo


def extract_profile(repo: PolicyRepository, user_id: str) -> Optional[SecurityProfile]:
    """Assemble the full profile of a user: all devices, all slices, all services.

    Returns ``None`` when the user has no rules; callers treat that as
    the guest case, not as an error.
    """
    rules = repo._by_user.get(user_id)
    if not rules:
        return None
    allowed: dict[str, set[tuple[int, str]]] = {}
    for rule in rules:
        allowed.setdefault(rule.device_id, set()).update(
            (action.slice_id, action.service) for action in rule.actions
        )
    return SecurityProfile(
        user_id=user_id, allowed={d: frozenset(p) for d, p in allowed.items()}
    )


# ---------------------------------------------------------------------------
# Activity log
# ---------------------------------------------------------------------------

GENESIS_HASH = bytes(32)

EV_RULE_INSTALLED = "rule-installed"
EV_RULE_DELETED = "rule-deleted"
EV_PROFILE_EXTRACTED = "profile-extracted"
EV_FUNCTIONS_DEPLOYED = "security-functions-deployed"
EV_ALERT_RAISED = "alert-raised"
EV_ACCESS_DENIED = "access-denied"
EV_DEVICE_BLACKLISTED = "device-blacklisted"
EV_KEY_GENERATED = "key-generated"
EV_KEY_DISTRIBUTED = "key-distributed"
EV_SERVICE_DEPLOYED = "service-deployed"
EV_SERVICE_REFUSED = "service-refused"
EV_AUDIT_PERFORMED = "audit-performed"
EV_CORRECTIVE_ACTION = "corrective-action"
EV_HANDOVER = "handover"


class LogIntegrityError(Exception):
    """Raised when the activity log's hash chain does not verify."""


@dataclass(frozen=True, slots=True)
class LogEntry:
    seq: int
    # The event's canonical JSON: the bytes the entry hash covers.
    data: bytes
    prev_hash: bytes
    entry_hash: bytes
    # Set by ``append`` alone, for an install or a delete: the node, and the
    # ``FlowRule`` installed or the rule id deleted, as ``data`` spells them.
    # Neither the constructor nor ``dataclasses.replace`` sets them, so an
    # entry made any other way is folded from its bytes.
    op_node: Optional[str] = field(default=None, init=False, compare=False, repr=False)
    op: FlowRule | str | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def event(self) -> dict:
        """A fresh parse of ``data``; changing it changes nothing in the log."""
        return json.loads(self.data)


def _entry_hash(seq: int, data: bytes, prev_hash: bytes) -> bytes:
    return hashlib.sha256(seq.to_bytes(8, "big") + data + prev_hash).digest()


_HEX_DIGEST = re.compile(r"[0-9a-fA-F]{64}")


def _parse_entry(line: str, lineno: int) -> LogEntry:
    """One ``to_jsonl`` line as an entry; ``ValueError`` if it is malformed."""

    def bad(why: str) -> ValueError:
        return ValueError(f"activity log line {lineno}: {why}")

    try:
        d = json.loads(line)
    except ValueError as exc:
        raise bad(f"not JSON ({exc})") from None
    if not isinstance(d, dict):
        raise bad("not a JSON object")
    missing = [k for k in ("seq", "event", "prev_hash", "entry_hash") if k not in d]
    if missing:
        raise bad(f"missing {', '.join(missing)}")
    if type(d["seq"]) is not int:
        raise bad(f"seq must be an integer, got {d['seq']!r}")
    for key in ("prev_hash", "entry_hash"):
        if not isinstance(d[key], str) or not _HEX_DIGEST.fullmatch(d[key]):
            raise bad(f"{key} must be 64 hex characters, got {d[key]!r}")
    event = d["event"]
    if not isinstance(event, dict) or "type" not in event:
        raise bad("event must be an object with a 'type' field")
    # Re-encoding the parsed event gives back the canonical bytes its hash
    # covers, however the line spelled them.
    return LogEntry(
        seq=d["seq"],
        data=canonical_json(event).encode(),
        prev_hash=bytes.fromhex(d["prev_hash"]),
        entry_hash=bytes.fromhex(d["entry_hash"]),
    )


# LogEntry is frozen: append stores its op fields through their slots.
_set_op_node = LogEntry.op_node.__set__
_set_op = LogEntry.op.__set__


class ActivityLog:
    """Hash-chained append-only log of controller actions."""

    def __init__(self) -> None:
        self.entries: list[LogEntry] = []
        # Every node's table folded over entries[:count], where
        # entries[count - 1] hashed to head when it was folded.
        self._tables: dict[str, FlowTable] = {}
        self._watermark: tuple[int, bytes] = (0, GENESIS_HASH)

    def __len__(self) -> int:
        return len(self.entries)

    def append(self, event: dict) -> LogEntry:
        """Hash one event onto the chain.  A ``rule-installed`` event may carry
        its ``FlowRule`` itself; the stored bytes are those of its dict, and
        the entry keeps the rule (or a delete's rule id) and its node."""
        if "type" not in event:
            raise ValueError("activity log events need a 'type' field")
        seq = len(self.entries)
        prev = self.entries[-1].entry_hash if self.entries else GENESIS_HASH
        kind = event["type"]
        op = None
        if kind == EV_RULE_INSTALLED:
            rule = event.get("rule")
            if type(rule) is FlowRule:
                op = rule
        elif kind == EV_RULE_DELETED:
            rule_id = event.get("rule_id")
            if type(rule_id) is str:
                op = rule_id
        if type(op) is FlowRule and len(event) == 4 and "node" in event and "time_ms" in event:
            # canonical_json of exactly {type, node, time_ms, rule}, keys sorted.
            data = (
                f'{{"node":{json_scalar(event["node"])},"rule":{op.to_json()},'
                f'"time_ms":{json_scalar(event["time_ms"])},"type":"rule-installed"}}'
            ).encode()
        else:
            data = canonical_json(event).encode()
        # Positional: keyword arguments cost the frozen __init__ more.
        entry = LogEntry(seq, data, prev, _entry_hash(seq, data, prev))
        if op is not None:
            node = event.get("node")
            if type(node) is str:
                _set_op_node(entry, node)
                _set_op(entry, op)
        self.entries.append(entry)
        return entry

    def verify(self) -> bool:
        # _entry_hash, inlined: this loop re-hashes the whole chain per audit.
        sha256 = hashlib.sha256
        prev = GENESIS_HASH
        for i, entry in enumerate(self.entries):
            if entry.seq != i or entry.prev_hash != prev:
                return False
            if entry.entry_hash != sha256(i.to_bytes(8, "big") + entry.data + prev).digest():
                return False
            prev = entry.entry_hash
        return True

    def events(self, event_type: Optional[str] = None) -> list[dict]:
        events = [e.event for e in self.entries]
        if event_type is None:
            return events
        return [event for event in events if event.get("type") == event_type]

    def expected_switch_state(self, node_id: str) -> tuple[FlowRule, ...]:
        """Fold rule install/delete events for a node into its canonical rules."""
        return self.expected_switch_states([node_id])[node_id]

    def expected_switch_states(self, node_ids: Iterable[str]) -> dict[str, tuple[FlowRule, ...]]:
        """Verify the whole chain, then fold the entries past the watermark.

        The trusted state is a flow table per node: an install adds to it
        and a delete removes from it, so an install replaces the rule with
        the same id and the one with the same (match, priority).  A verified
        chain commits every entry to the hash of the last one, so the folded
        tables are still the trusted state of the first ``count`` entries
        exactly when entry ``count - 1`` still has the watermark's hash.
        Otherwise the chain was rewritten and the fold starts over.  Each
        table keeps its canonical rules until an entry changes them.

        An entry ``append`` made for a delete, or for an install whose rule
        survives a JSON round trip exactly (``FlowRule.parses_back``), is folded
        from the node and rule or rule id it carries, so a clean switch's
        trusted rules are the very objects the controller installed.  Only
        other entries are parsed: those loaded by ``from_jsonl``, forged or
        rechained ones, and installs that carried a dict or an inexact rule.
        """
        if not self.verify():
            raise LogIntegrityError("activity log hash chain is broken")
        entries = self.entries
        tables, (count, head) = self._tables, self._watermark
        if count == 0 or count > len(entries) or entries[count - 1].entry_hash != head:
            tables, count = {}, 0
        # Until the fold completes, the log holds no folded state to trust.
        self._watermark = (0, GENESIS_HASH)
        for i in range(count, len(entries)):
            entry = entries[i]
            op = entry.op
            # What append kept is what the bytes spell: no parse needed.
            if type(op) is str:
                table = tables.get(entry.op_node)
                if table is not None:
                    table.delete(op)
                continue
            if op is not None and op.parses_back():
                tables.setdefault(entry.op_node, FlowTable()).add(op)
                continue
            data = entry.data
            # Only an install or delete changes the state, and its stored
            # bytes spell the type with "rule-" unless they escape it (a
            # backslash) or are UTF-16/32, which json.loads also reads (NULs).
            if b"rule-" in data or b"\\" in data or b"\x00" in data:
                event = json.loads(data)
                if event["type"] == EV_RULE_INSTALLED:
                    rule = FlowRule.from_dict(event["rule"])
                    tables.setdefault(event["node"], FlowTable()).add(rule)
                elif event["type"] == EV_RULE_DELETED:
                    table = tables.get(event["node"])
                    if table is not None:
                        table.delete(event["rule_id"])
        self._tables = tables
        if entries:
            self._watermark = (len(entries), entries[-1].entry_hash)
        states = {}
        for node_id in node_ids:
            table = tables.get(node_id)
            states[node_id] = table.reported() if table is not None else ()
        return states

    # -- persistence (JSON lines, one entry per line) ------------------------

    def to_jsonl(self) -> str:
        """One canonical JSON object per entry, keys sorted, with the event's
        stored bytes spliced in as they were hashed."""
        return "".join(
            f'{{"entry_hash":"{e.entry_hash.hex()}","event":{e.data.decode()},'
            f'"prev_hash":"{e.prev_hash.hex()}","seq":{e.seq}}}\n'
            for e in self.entries
        )

    @classmethod
    def from_jsonl(cls, text: str) -> "ActivityLog":
        """Parse ``to_jsonl`` output.  A malformed line raises ``ValueError``
        naming it; whether the chain holds is left to ``verify``."""
        log = cls()
        for lineno, line in enumerate(text.splitlines(), 1):
            if line.strip():
                log.entries.append(_parse_entry(line, lineno))
        return log

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    @classmethod
    def load(cls, path) -> "ActivityLog":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_jsonl(fh.read())
