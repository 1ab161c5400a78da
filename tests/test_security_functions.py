"""Security function unit tests: access control, flow validation, attestation,
rule audit, key generation and flow encryption."""

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slice_sentinel import security_functions
from slice_sentinel.fabric import (
    Drop,
    FlowKey,
    FlowRule,
    Packet,
    canonical_rule_order,
)
from slice_sentinel.security_functions import (
    AccessVerdict,
    AuditResult,
    AuthenticationError,
    ENVELOPE_MAGIC,
    NONCE_BYTES,
    FlowCipher,
    FlowValidatorState,
    KeyGenerator,
    Signature,
    SliceAccessState,
    TrustVerdict,
    audit_flow_rules,
    check_slice_access,
    parse_signatures,
    render_audit_diff,
    validate_attestation,
    validate_flow,
)

SHELLSHOCK = b"() { :;};"
TAG_BYTES = 16  # AES-GCM's full-length tag

# FlowCipher(KeyGenerator(seed=1).generate(("A", "B"))).encrypt(b"wire format"):
# magic "FSE1", key id length 10, "key-000001", nonce 1, ciphertext and tag.
PINNED_ENVELOPE = bytes.fromhex(
    "46534531" "000a" "6b65792d303030303031" "000000000000000000000001"
    "7e9bf289653f099fa5eb53" "367009d11d92acccb8a514bbf791045f"
)


def packet(mac="00:09:00:AA", payload=b"", ts=0, flow="f1", src_ip="10.0.0.1"):
    return Packet(
        src_ip=src_ip, dst_ip="10.0.0.8", src_mac=mac, dst_mac="00:09:00:BB",
        payload=payload, flow_id=flow, virtual_timestamp=ts,
    )


class TestSliceAccess:
    def test_registered_device_outside_its_slices_denied(self):
        state = SliceAccessState(allowed={"printer": {(100, "Service3")}})
        verdict = check_slice_access(state, packet(mac="printer"), requested=(200, "Service1"))
        assert verdict == AccessVerdict.DENY_UNAUTHORIZED

    def test_blacklist_beats_everything(self):
        state = SliceAccessState(allowed={"sensor": {(200, "Service1")}}, blacklist={"sensor"})
        verdict = check_slice_access(state, packet(mac="sensor"), requested=(200, "Service1"))
        assert verdict == AccessVerdict.DENY_BLACKLISTED

    def test_unknown_device_routes_generic(self):
        state = SliceAccessState()
        verdict = check_slice_access(state, packet(mac="stranger"), requested=(200, "Service1"))
        assert verdict == AccessVerdict.ROUTE_GENERIC

    def test_allowed_pair_permits(self):
        state = SliceAccessState(allowed={"ue1": {(200, "Service1")}})
        assert check_slice_access(state, packet(mac="ue1"), (200, "Service1")) == AccessVerdict.PERMIT


MIXED_SIGNATURES = [
    Signature("d-head", b"slice=7", "header"),
    Signature("c-pay", b"BAD", "payload"),
    Signature("b-head", b"flow=evil", "header"),
    Signature("a-pay", b"PAY", "payload"),
]
PAYLOAD_SIGNATURES = [s for s in MIXED_SIGNATURES if s.scope == "payload"]

# signatures, payload, flow id, slice, headers_only
#   -> drop reason, signatures scanned, header builds
VALIDATION_CASES = {
    "payload-match-before-any-header-signature":
        (MIXED_SIGNATURES, b"xPAYx", "f1", None, False, "signature:a-pay", 1, 0),
    "payload-match-after-a-header-signature":
        (MIXED_SIGNATURES, b"BAD", "f1", None, False, "signature:c-pay", 3, 1),
    "header-match": (MIXED_SIGNATURES, b"", "evil", None, False, "signature:b-head", 2, 1),
    "second-header-signature-reuses-the-header":
        (MIXED_SIGNATURES, b"", "f1", 7, False, "signature:d-head", 4, 1),
    "clean": (MIXED_SIGNATURES, b"ok", "f1", None, False, None, 4, 1),
    "headers-only-skips-payload-signatures":
        (MIXED_SIGNATURES, b"PAY", "f1", None, True, None, 4, 1),
    "headers-only-header-match":
        (MIXED_SIGNATURES, b"", "evil", None, True, "signature:b-head", 2, 1),
    "payload-signatures-only": (PAYLOAD_SIGNATURES, b"ok", "f1", None, False, None, 2, 0),
    "payload-signatures-only-headers-only":
        (PAYLOAD_SIGNATURES, b"PAY", "f1", None, True, None, 2, 0),
}


class TestFlowValidation:
    def test_shellshock_payload_dropped_by_signature(self):
        state = FlowValidatorState(signatures=[Signature("sig-shellshock", SHELLSHOCK, "payload")])
        exploit = b"GET /cgi-bin/status HTTP/1.1\r\nUser-Agent: () { :;}; /bin/id\r\n"
        result = validate_flow(state, packet(payload=exploit))
        assert result.drop_reason == "signature:sig-shellshock"
        assert result.alert is not None
        assert result.alert.reason == "signature:sig-shellshock"

    def test_every_pass_is_one_shared_frozen_result(self):
        sigs = [Signature("sig-shellshock", SHELLSHOCK, "payload"),
                Signature("sig-evil", b"flow=evil", "header")]
        state = FlowValidatorState(signatures=sigs)
        passes = [validate_flow(state, packet(payload=b"hello", ts=t)) for t in (1, 2)]
        passes.append(validate_flow(state, packet(payload=SHELLSHOCK), headers_only=True))
        assert passes[0] is passes[1] is passes[2]
        assert (passes[0].drop_reason, passes[0].alert, passes[0].signatures_scanned) == (None, None, 2)
        # Another validator of the same signature set shares it too.
        assert validate_flow(FlowValidatorState(signatures=sigs[::-1]), packet()) is passes[0]
        with pytest.raises(FrozenInstanceError):
            passes[0].drop_reason = "signature:sig-shellshock"

    def test_benign_packet_forwards_with_empty_signature_set(self):
        state = FlowValidatorState()
        result = validate_flow(state, packet(payload=b"hello"))
        assert result.drop_reason is None
        assert result.alert is None

    def test_first_matching_signature_by_id_order_wins(self):
        state = FlowValidatorState(
            signatures=[
                Signature("sig-b", b"attack", "payload"),
                Signature("sig-a", b"attack", "payload"),
            ],
        )
        result = validate_flow(state, packet(payload=b"attack here"))
        assert result.drop_reason == "signature:sig-a"
        assert result.signatures_scanned == 1

    def test_rate_threshold_crossing_matches_counter_oracle(self):
        # Oracle: simulate the window as a plain list over the schedule; the
        # first packet whose in-window count exceeds the threshold must drop.
        threshold, window_ms = 100, 1000
        schedule = [i for i in range(500)]  # 1 packet per ms: 500/s vs 100/s cap
        counts = []
        for i, t in enumerate(schedule):
            in_window = [u for u in schedule[: i + 1] if u > t - window_ms]
            counts.append(len(in_window))
        expected_first_drop = next(i for i, c in enumerate(counts) if c > threshold)

        state = FlowValidatorState()
        reasons = [validate_flow(state, packet(ts=t)).drop_reason for t in schedule]
        first_drop = next(i for i, r in enumerate(reasons) if r == "anomaly")
        assert first_drop == expected_first_drop == threshold

    def test_below_threshold_never_drops(self):
        state = FlowValidatorState()
        for t in range(0, 2000, 20):  # 50 packets per second
            result = validate_flow(state, packet(ts=t))
            assert result.drop_reason is None

    @pytest.mark.parametrize("case", sorted(VALIDATION_CASES))
    def test_mixed_scope_first_match_and_scan_count(self, case, monkeypatch):
        """First match by id order, ``signatures_scanned`` against a hand
        count (a payload signature skipped at header scope still counts), and
        the header built once, at the first header-scope signature reached."""
        signatures, payload, flow, slice_id, headers_only, reason, scanned, built = (
            VALIDATION_CASES[case]
        )
        builds = []
        header_bytes = security_functions.packet_header_bytes

        def counting(pkt):
            builds.append(pkt)
            return header_bytes(pkt)

        monkeypatch.setattr(security_functions, "packet_header_bytes", counting)
        probe = packet(payload=payload, flow=flow)
        probe.slice_id = slice_id
        result = validate_flow(FlowValidatorState(signatures=signatures), probe, headers_only)
        assert result.drop_reason == reason
        assert result.signatures_scanned == scanned
        assert len(builds) == built

    def test_a_packet_without_a_flow_id_is_named_by_its_addresses(self):
        # The id the fabric and the controller give such a flow: 10.0.0.1->10.0.0.8.
        by_header = FlowValidatorState(
            signatures=[Signature("h-flow", b"flow=10.0.0.1->10.0.0.8", "header")]
        )
        result = validate_flow(by_header, packet(flow=""), headers_only=True)
        assert result.drop_reason == "signature:h-flow"
        assert result.alert.flow_id == "10.0.0.1->10.0.0.8"
        by_rate = FlowValidatorState()
        alerts = [validate_flow(by_rate, packet(flow="")).alert for _ in range(101)]
        assert alerts[-1].flow_id == "10.0.0.1->10.0.0.8"

    def test_parse_signatures_rejects_duplicates_and_bad_scope(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_signatures([{"id": "s", "pattern_hex": "00"}, {"id": "s", "pattern_hex": "01"}])
        with pytest.raises(ValueError, match="scope"):
            parse_signatures([{"id": "s", "pattern_hex": "00", "scope": "weird"}])


class TestAttestationValidation:
    class FakeReport:
        def __init__(self, measured_hash, nonce):
            self.measured_hash = measured_hash
            self.nonce = nonce

    def test_matching_hash_and_nonce_is_trusted(self):
        expected = b"h" * 32
        report = self.FakeReport(expected, b"n" * 16)
        assert validate_attestation(expected, report, b"n" * 16) == TrustVerdict.TRUSTED

    def test_hash_mismatch_is_compromised(self):
        report = self.FakeReport(b"x" * 32, b"n" * 16)
        assert validate_attestation(b"h" * 32, report, b"n" * 16) == TrustVerdict.COMPROMISED

    def test_replayed_nonce_is_stale_even_with_correct_hash(self):
        expected = b"h" * 32
        report = self.FakeReport(expected, b"old-nonce-123456")
        assert validate_attestation(expected, report, b"new-nonce-654321") == TrustVerdict.STALE_NONCE


def reported(rule_id, priority=10, src_ip=None, action=None):
    return FlowRule(
        rule_id=rule_id,
        match=FlowKey(src_ip=src_ip),
        action=action or Drop(),
        priority=priority,
    )


def make_reports(trusted_rules, observed_rules):
    return canonical_rule_order(trusted_rules), canonical_rule_order(observed_rules)


class TestRuleAudit:
    def test_identical_reports_are_clean(self):
        rules = [reported("r1"), reported("r2", priority=5)]
        trusted, observed = make_reports(rules, rules)
        result = audit_flow_rules("OVS1", trusted, observed)
        assert result.clean

    def test_injected_rule_is_the_exact_extra_set(self):
        base = [reported("r1"), reported("r2", priority=5)]
        injected = reported("atk-3346", priority=50, src_ip="10.0.0.66")
        trusted, observed = make_reports(base, base + [injected])
        result = audit_flow_rules("OVS1", trusted, observed)
        assert result.extra_rules == (injected,)
        assert result.missing_rules == ()
        assert result.modified_rules == ()

    def test_silently_retained_rule_shows_as_extra(self):
        # Controller deleted r1 (folded out of the trusted report) but the
        # switch kept it.
        kept = reported("r1")
        trusted, observed = make_reports([reported("r2", priority=5)],
                                         [kept, reported("r2", priority=5)])
        result = audit_flow_rules("OVS1", trusted, observed)
        assert result.extra_rules == (kept,)

    def test_modified_rule_detected(self):
        trusted, observed = make_reports(
            [reported("r1", priority=10)], [reported("r1", priority=99)]
        )
        result = audit_flow_rules("OVS1", trusted, observed)
        assert len(result.modified_rules) == 1
        expected, seen = result.modified_rules[0]
        assert expected.priority == 10 and seen.priority == 99

    def test_diff_rendering_mentions_both_windows(self):
        trusted, observed = make_reports([reported("r1")], [reported("r1"), reported("x")])
        text = render_audit_diff(trusted, observed)
        assert "A) switch report" in text and "B) trusted report" in text
        assert "x" in text


rule_ids = st.lists(
    st.text(alphabet="abcdef0123456789", min_size=3, max_size=8),
    min_size=0, max_size=40, unique=True,
)


@settings(max_examples=100, deadline=None)
@given(rule_ids, st.integers(0, 9))
def test_audit_exactness_property(ids, split):
    # For disjoint T and X: audit(T, T|X).extra == X exactly.
    rules = [reported(rid, priority=(hash(rid) % 5)) for rid in ids]
    trusted_rules, injected = rules[split:], rules[:split]
    trusted, observed = make_reports(trusted_rules, trusted_rules + injected)
    result = audit_flow_rules("OVS1", trusted, observed)
    assert set(result.extra_rules) == set(injected)
    assert result.missing_rules == ()
    assert result.modified_rules == ()


@settings(max_examples=100, deadline=None)
@given(rule_ids, rule_ids)
def test_audit_symmetry_property(ids_a, ids_b):
    a = [reported(rid) for rid in ids_a]
    b = [reported(rid) for rid in ids_b]
    ra, oa = make_reports(a, b)
    rb, ob = make_reports(b, a)
    forward = audit_flow_rules("OVS1", ra, oa)
    backward = audit_flow_rules("OVS1", rb, ob)
    assert set(forward.extra_rules) == set(backward.missing_rules)
    assert set(forward.missing_rules) == set(backward.extra_rules)


class TestKeyGeneration:
    def test_same_seed_reproduces_same_keys(self):
        a = KeyGenerator(seed=7).generate(("OVS1", "CORE1"))
        b = KeyGenerator(seed=7).generate(("OVS1", "CORE1"))
        assert a.key_bytes == b.key_bytes
        assert a.key_id == b.key_id
        assert len(a.key_bytes) == 16

    def test_consecutive_keys_differ(self):
        gen = KeyGenerator(seed=7)
        k1 = gen.generate(("OVS1", "CORE1"))
        k2 = gen.generate(("OVS1", "CORE1"))
        assert k1.key_id != k2.key_id
        assert k1.key_bytes != k2.key_bytes

    def test_no_collisions_over_ten_thousand_keys(self):
        gen = KeyGenerator(seed=3)
        seen_bytes = set()
        seen_ids = set()
        for _ in range(10_000):
            key = gen.generate(("A", "B"))
            seen_bytes.add(key.key_bytes)
            seen_ids.add(key.key_id)
        assert len(seen_bytes) == 10_000
        assert len(seen_ids) == 10_000

    def test_identical_endpoints_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            KeyGenerator().generate(("OVS1", "OVS1"))


class TestFlowEncryption:
    def test_round_trip_identity(self):
        key = KeyGenerator(seed=1).generate(("A", "B"))
        cipher = FlowCipher(key)
        for payload in (b"", b"x", b"hello world", bytes(range(256)) * 4):
            envelope = cipher.encrypt(payload)
            assert cipher.decrypt(envelope) == payload

    def test_ciphertext_differs_from_plaintext(self):
        key = KeyGenerator(seed=1).generate(("A", "B"))
        envelope = FlowCipher(key).encrypt(b"confidential-reading")
        assert b"confidential-reading" not in envelope

    def test_any_flipped_ciphertext_byte_fails_authentication(self):
        key = KeyGenerator(seed=1).generate(("A", "B"))
        envelope = FlowCipher(key).encrypt(b"payload under test")
        for i in range(len(envelope) - len(b"payload under test") - TAG_BYTES, len(envelope)):
            corrupted = bytearray(envelope)
            corrupted[i] ^= 0x01
            with pytest.raises(AuthenticationError):
                FlowCipher(key).decrypt(bytes(corrupted))

    def test_wrong_key_fails_authentication(self):
        gen = KeyGenerator(seed=1)
        key_a = gen.generate(("A", "B"))
        key_b = gen.generate(("A", "B"))
        envelope = FlowCipher(key_a).encrypt(b"secret")
        with pytest.raises(AuthenticationError):
            FlowCipher(key_b).decrypt(envelope)

    def test_envelope_bytes_are_pinned(self):
        cipher = FlowCipher(KeyGenerator(seed=1).generate(("A", "B")))
        assert cipher.encrypt(b"wire format") == PINNED_ENVELOPE
        assert cipher.decrypt(PINNED_ENVELOPE) == b"wire format"

    @pytest.mark.parametrize("cut", [
        3,                          # inside the magic
        9,                          # inside the key id
        16 + NONCE_BYTES // 2,      # inside the nonce
        16 + NONCE_BYTES,           # the whole header and nonce, nothing after
        len(PINNED_ENVELOPE) - 1,   # inside the tag
    ])
    def test_truncated_envelope_fails_authentication(self, cut):
        cipher = FlowCipher(KeyGenerator(seed=1).generate(("A", "B")))
        with pytest.raises(AuthenticationError):
            cipher.decrypt(PINNED_ENVELOPE[:cut])

    def test_bytes_without_the_magic_fail_authentication(self):
        cipher = FlowCipher(KeyGenerator(seed=1).generate(("A", "B")))
        with pytest.raises(AuthenticationError):
            cipher.decrypt(b"FSE2" + PINNED_ENVELOPE[len(ENVELOPE_MAGIC):])
        with pytest.raises(AuthenticationError):
            cipher.decrypt(b"wire format")

    def test_unique_nonce_per_packet(self):
        key = KeyGenerator(seed=2).generate(("A", "B"))
        cipher = FlowCipher(key)
        header = len(ENVELOPE_MAGIC) + 2 + len(key.key_id)
        nonces = {cipher.encrypt(b"p")[header:header + NONCE_BYTES] for _ in range(100)}
        assert len(nonces) == 100


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=2048))
def test_encrypt_decrypt_identity_property(payload):
    key = KeyGenerator(seed=9).generate(("A", "B"))
    assert FlowCipher(key).decrypt(FlowCipher(key).encrypt(payload)) == payload



def full_diff(trusted, observed):
    """Reference: the audit as a dict diff by rule id, with no shortcut."""
    expected = {r.rule_id: r for r in trusted}
    seen = {r.rule_id: r for r in observed}
    return AuditResult(
        node="OVS1",
        extra_rules=tuple(r for r in observed if r.rule_id not in expected),
        missing_rules=tuple(r for r in trusted if r.rule_id not in seen),
        modified_rules=tuple((expected[rid], seen[rid]) for rid in sorted(expected.keys() & seen.keys())
                             if expected[rid] != seen[rid]),
    )


@settings(max_examples=200, deadline=None)
@given(rule_ids, st.randoms(use_true_random=False))
def test_audit_equals_the_full_diff(ids, rng):
    rules = [reported(rid, priority=rng.randint(0, 3)) for rid in ids]
    permuted = rng.sample(ids, len(ids))
    changed = {rid for rid in ids if rng.random() < 0.3}
    pairs = {
        "identical": [reported(r.rule_id, r.priority) for r in rules],
        "permuted-id": [reported(rid, r.priority) for rid, r in zip(permuted, rules)],
        "modified": [reported(r.rule_id, r.priority + (r.rule_id in changed)) for r in rules],
    }
    for name, observed_rules in pairs.items():
        trusted, observed = make_reports(rules, observed_rules)
        assert audit_flow_rules("OVS1", trusted, observed) == full_diff(trusted, observed), name
    # The same rules out of canonical order are clean too.
    shuffled = tuple(rng.sample(rules, len(rules)))
    trusted, _observed = make_reports(rules, rules)
    assert audit_flow_rules("OVS1", trusted, shuffled) == full_diff(trusted, shuffled)
    assert audit_flow_rules("OVS1", trusted, shuffled).clean
