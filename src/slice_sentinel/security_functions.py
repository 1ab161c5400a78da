"""The deployable security functions.

Each function here is a small, explicitly stated piece of state plus a pure
check: slice access control with blacklist precedence, signature and
rate-window flow validation, attestation verification, flow-rule audit
against the trusted rules, symmetric key generation and authenticated flow
encryption.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Optional

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .fabric import FlowRule, Packet, action_to_dict, flow_id_of

KEY_BYTES = 16
NONCE_BYTES = 12
ENVELOPE_MAGIC = b"FSE1"

ANOMALY_WINDOW_MS = 1000
DEFAULT_ANOMALY_THRESHOLD = 100


# ---------------------------------------------------------------------------
# Slice access control
# ---------------------------------------------------------------------------

class AccessVerdict(Enum):
    # The admitting values are the flow verdicts new_flow returns.
    PERMIT = "permitted"
    DENY_UNAUTHORIZED = "deny-unauthorized"
    DENY_BLACKLISTED = "deny-blacklisted"
    ROUTE_GENERIC = "generic"


@dataclass
class SliceAccessState:
    """Per-node access control: which device may enter which (slice, service)."""

    allowed: dict[str, set[tuple[int, str]]] = field(default_factory=dict)
    blacklist: set[str] = field(default_factory=set)


def check_slice_access(
    state: SliceAccessState, packet: Packet, requested: tuple[int, str]
) -> AccessVerdict:
    """Decide whether a packet may enter the requested (slice, service).

    Blacklist wins over everything; unregistered devices are routed to the
    generic slice instead of being dropped.
    """
    device = packet.src_mac
    if device in state.blacklist:
        return AccessVerdict.DENY_BLACKLISTED
    pairs = state.allowed.get(device)
    if pairs is None:
        return AccessVerdict.ROUTE_GENERIC
    if requested in pairs:
        return AccessVerdict.PERMIT
    return AccessVerdict.DENY_UNAUTHORIZED


# ---------------------------------------------------------------------------
# Flow validation: signatures plus anomaly window
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Signature:
    sig_id: str
    pattern: bytes
    scope: str = "payload"  # "payload" | "header"


def parse_signatures(document: list) -> list[Signature]:
    if not isinstance(document, list):
        raise ValueError("signature document must be a JSON array")
    sigs = []
    seen = set()
    for raw in document:
        if not isinstance(raw, dict):
            raise ValueError(f"signature entry must be an object, got {raw!r}")
        for key in ("id", "pattern_hex"):
            if key not in raw:
                raise ValueError(f"signature entry missing required field {key!r}")
        sig_id = raw["id"]
        if sig_id in seen:
            raise ValueError(f"duplicate signature id {sig_id!r}")
        seen.add(sig_id)
        scope = raw.get("scope", "payload")
        if scope not in ("payload", "header"):
            raise ValueError(f"signature {sig_id!r}: unknown scope {scope!r}")
        sigs.append(Signature(sig_id=sig_id, pattern=bytes.fromhex(raw["pattern_hex"]), scope=scope))
    return sigs


def packet_header_bytes(packet: Packet) -> bytes:
    return (
        f"{packet.src_ip}>{packet.dst_ip}|{packet.src_mac}>{packet.dst_mac}"
        f"|slice={packet.slice_id}|flow={flow_id_of(packet)}"
    ).encode()


@dataclass(frozen=True)
class Alert:
    source: str
    device_id: str
    flow_id: str
    reason: str
    severity: str
    time_ms: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class FlowValidationResult:
    # None forwards the packet; otherwise "signature:<id>" or "anomaly"
    drop_reason: Optional[str]
    alert: Optional[Alert]
    signatures_scanned: int


@dataclass
class FlowValidatorState:
    """Signature set plus per-device packet-rate windows.

    Signatures are scanned in id order and the first match wins.  The rate
    window is a sliding count of packets per device over
    ``ANOMALY_WINDOW_MS`` simulated milliseconds; the packet that pushes the
    count past ``DEFAULT_ANOMALY_THRESHOLD`` is dropped.
    """

    signatures: list[Signature] = field(default_factory=list)
    windows: dict[str, deque] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.signatures = sorted(self.signatures, key=lambda s: s.sig_id)


def validate_flow(
    state: FlowValidatorState, packet: Packet, headers_only: bool = False
) -> FlowValidationResult:
    """Run signature scan then anomaly scoring for one packet.

    With ``headers_only`` the payload signatures and the rate window are
    skipped; that mode serves flow-setup decisions where only the header has
    reached the controller.
    """
    device = packet.src_mac
    header = None  # built at the first header-scope signature
    scanned = 0
    for sig in state.signatures:
        scanned += 1
        if sig.scope == "header":
            if header is None:
                header = packet_header_bytes(packet)
            haystack = header
        elif headers_only:
            continue
        else:
            haystack = packet.payload
        if sig.pattern and sig.pattern in haystack:
            drop = alert_reason = f"signature:{sig.sig_id}"
            break
    else:
        if headers_only:
            return FlowValidationResult(None, None, scanned)
        window = state.windows.get(device)
        if window is None:
            window = state.windows[device] = deque()
        now = packet.virtual_timestamp
        cutoff = now - ANOMALY_WINDOW_MS
        while window and window[0] <= cutoff:
            window.popleft()
        window.append(now)
        if len(window) <= DEFAULT_ANOMALY_THRESHOLD:
            return FlowValidationResult(None, None, scanned)
        drop, alert_reason = "anomaly", "anomaly:rate"

    alert = Alert(
        source="flow-validator",
        device_id=device,
        flow_id=flow_id_of(packet),
        reason=alert_reason,
        severity="high",
        time_ms=packet.virtual_timestamp,
    )
    return FlowValidationResult(drop, alert, scanned)


# ---------------------------------------------------------------------------
# Attestation validation
# ---------------------------------------------------------------------------

class TrustVerdict(Enum):
    TRUSTED = "trusted"
    COMPROMISED = "compromised"
    STALE_NONCE = "stale-nonce"


def validate_attestation(expected_hash: bytes, report, nonce: bytes) -> TrustVerdict:
    """Compare a measured attestation report against the expected hash.

    Freshness is judged first: a report answering a different nonce is
    stale regardless of its hash.
    """
    if report.nonce != nonce:
        return TrustVerdict.STALE_NONCE
    if report.measured_hash != expected_hash:
        return TrustVerdict.COMPROMISED
    return TrustVerdict.TRUSTED


# ---------------------------------------------------------------------------
# Flow-rule audit
# ---------------------------------------------------------------------------

@dataclass
class AuditResult:
    node: str
    extra_rules: tuple[FlowRule, ...]
    missing_rules: tuple[FlowRule, ...]
    modified_rules: tuple[tuple[FlowRule, FlowRule], ...]  # (expected, observed)

    @property
    def clean(self) -> bool:
        return not (self.extra_rules or self.missing_rules or self.modified_rules)

    def to_dict(self) -> dict:
        return {
            "node": self.node,
            "clean": self.clean,
            "extra_rules": [r.to_dict() for r in self.extra_rules],
            "missing_rules": [r.to_dict() for r in self.missing_rules],
            "modified_rules": [
                {"expected": e.to_dict(), "observed": o.to_dict()}
                for e, o in self.modified_rules
            ],
        }


def audit_flow_rules(
    node: str, trusted: tuple[FlowRule, ...], observed: tuple[FlowRule, ...]
) -> AuditResult:
    """Diff a node's observed rules against its trusted expected rules.

    Rules are keyed by id: observed-only ids are extra, trusted-only ids are
    missing, shared ids with different content are modified.
    """
    if trusted == observed:
        return AuditResult(node=node, extra_rules=(), missing_rules=(), modified_rules=())
    expected = {r.rule_id: r for r in trusted}
    seen = {r.rule_id: r for r in observed}
    extra = tuple(r for r in observed if r.rule_id not in expected)
    missing = tuple(r for r in trusted if r.rule_id not in seen)
    modified = tuple(
        (expected[rid], seen[rid])
        for rid in sorted(expected.keys() & seen.keys())
        if expected[rid] != seen[rid]
    )
    return AuditResult(node=node, extra_rules=extra, missing_rules=missing, modified_rules=modified)


def render_audit_diff(trusted: tuple[FlowRule, ...], observed: tuple[FlowRule, ...]) -> str:
    """Two-column side-by-side rendering: observed switch rules | trusted rules."""
    width = 58

    def lines(rules):
        out = [f"{r.priority:>5}  {r.rule_id}  {action_to_dict(r.action)}" for r in rules]
        return out or ["(empty table)"]

    left = lines(observed)
    right = lines(trusted)
    rows = max(len(left), len(right))
    left += [""] * (rows - len(left))
    right += [""] * (rows - len(right))
    header = f"{'A) switch report':<{width}} | B) trusted report"
    rule = "-" * width + "-+-" + "-" * width
    body = []
    for l, r in zip(left, right):
        marker = " " if l == r else "!"
        body.append(f"{l:<{width}} {marker} {r}")
    return "\n".join([header, rule] + body)


# ---------------------------------------------------------------------------
# Key generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetricKey:
    key_id: str
    key_bytes: bytes

    def __post_init__(self) -> None:
        if len(self.key_bytes) != KEY_BYTES:
            raise ValueError(f"key must be {KEY_BYTES} bytes")


class KeyGenerator:
    """Deterministic 128-bit key source: SHA-256 counter DRBG over a seed.

    Reproducible for a given seed, with unique key ids per instance.
    """

    def __init__(self, seed: int = 0) -> None:
        self._state = hashlib.sha256(b"key-generator|" + str(seed).encode()).digest()
        self._counter = 0

    def generate(self, endpoints: tuple[str, str]) -> SymmetricKey:
        a, b = endpoints
        if a == b:
            raise ValueError(f"key endpoints must be distinct, got {a!r} twice")
        self._counter += 1
        material = self._state + self._counter.to_bytes(8, "big")
        key = hashlib.sha256(material).digest()[:KEY_BYTES]
        return SymmetricKey(key_id=f"key-{self._counter:06d}", key_bytes=key)


# ---------------------------------------------------------------------------
# Flow encryption
# ---------------------------------------------------------------------------

class AuthenticationError(Exception):
    """Raised when an envelope fails authentication; never returns garbage."""


class FlowCipher:
    """Per-flow cipher handle: one key plus a per-packet nonce counter.

    An envelope is ``ENVELOPE_MAGIC``, the key id's length (2 bytes, big
    endian), the key id, the 96-bit nonce, then the AES-128-GCM ciphertext
    and tag, with the key id as associated data (NIST SP 800-38D).
    """

    def __init__(self, key: SymmetricKey) -> None:
        self._nonce_counter = 0
        self._aead = AESGCM(key.key_bytes)
        self._key_id = key.key_id.encode()
        self._header = ENVELOPE_MAGIC + len(self._key_id).to_bytes(2, "big") + self._key_id

    def encrypt(self, payload: bytes) -> bytes:
        self._nonce_counter += 1
        nonce = self._nonce_counter.to_bytes(NONCE_BYTES, "big")
        return self._header + nonce + self._aead.encrypt(nonce, payload, self._key_id)

    def decrypt(self, envelope: bytes) -> bytes:
        header = self._header
        if not envelope.startswith(header):
            raise AuthenticationError("not an envelope under this cipher's key")
        body = len(header) + NONCE_BYTES
        if len(envelope) < body:
            raise AuthenticationError("truncated envelope")
        try:
            return self._aead.decrypt(envelope[len(header):body], envelope[body:], self._key_id)
        except InvalidTag as exc:
            raise AuthenticationError("envelope failed authentication") from exc
