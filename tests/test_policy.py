"""Policy repository, profile extraction and the activity log."""

import hashlib
import json
import random
from dataclasses import fields, replace
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slice_sentinel import policy
from slice_sentinel.controller import SecurityManager
from slice_sentinel.fabric import (
    Drop,
    FlowKey,
    FlowRule,
    Packet,
    build_topology,
    canonical_json,
)
from slice_sentinel.policy import (
    EV_ALERT_RAISED,
    EV_AUDIT_PERFORMED,
    EV_CORRECTIVE_ACTION,
    EV_RULE_DELETED,
    EV_RULE_INSTALLED,
    ActivityLog,
    LogEntry,
    LogIntegrityError,
    PolicyError,
    extract_profile,
    load_policies,
    parse_policy_rule,
)
from slice_sentinel.security_functions import AccessVerdict, check_slice_access

from conftest import flow_rules


def sample_policy_doc() -> list:
    return [
        {
            "id": "02",
            "hostip": "10.0.0.1",
            "hostmac": "00:09:00:AA",
            "destip": "10.0.0.8",
            "dstmac": "00:09:00:BB",
            "flowid": "78b34x",
            "user": {"id": "alice", "name": "Alice", "role": "employee", "organization": "OrgX"},
            "contract_id": "C-1",
            "actions": [{"Service": "Service1", "Slice-id": "VLAN200", "security": ["integrity"]}],
        },
        {
            "id": "03",
            "hostip": "10.0.0.2",
            "hostmac": "00:09:00:AC",
            "destip": "10.0.0.7",
            "user": {"id": "alice", "name": "Alice", "role": "employee", "organization": "OrgX"},
            "contract_id": "C-1",
            "actions": [
                {"Service": "Service2", "Slice-id": "VLAN300",
                 "security": ["confidentiality", "integrity"]}
            ],
        },
    ]


class TestLoadPolicies:
    def test_sample_entry_maps_device_to_service_and_slice(self):
        repo = load_policies(sample_policy_doc())
        rule = next(iter(repo.rules.values()))
        assert rule.policy_id == "02"
        assert rule.device_id == "00:09:00:AA"
        assert rule.user_id == "alice"
        assert rule.actions[0].service == "Service1"
        assert rule.actions[0].slice_id == 200
        assert repo.service_at("10.0.0.8") == (200, "Service1")

    def test_empty_document_gives_empty_repo_and_unknown_matches(self):
        repo = load_policies([])
        assert repo.rules == {}
        assert repo.service_at("10.0.0.8") is None
        assert repo.user_of_device("aa:bb") is None

    def test_duplicate_policy_id_rejected(self):
        doc = sample_policy_doc()
        doc[1]["id"] = "02"
        with pytest.raises(PolicyError, match="duplicate"):
            load_policies(doc)

    def test_bad_slice_reference_rejected(self):
        doc = sample_policy_doc()
        doc[0]["actions"][0]["Slice-id"] = "VLAN9999"
        with pytest.raises(PolicyError, match="slice"):
            load_policies(doc)

    @pytest.mark.parametrize(
        "slice_ref", [True, 100, "VLAN0", "VLAN4095", "VLAN100\n", "VLAN\u0661\u0660\u0660"]
    )
    def test_a_slice_reference_other_than_vlan_and_ascii_digits_is_rejected(self, slice_ref):
        doc = sample_policy_doc()
        doc[0]["actions"][0]["Slice-id"] = slice_ref
        with pytest.raises(PolicyError, match="slice reference"):
            load_policies(doc)

    @pytest.mark.parametrize("field, value", [
        ("hostmac", ["00:09:00:AA"]), ("hostmac", 7), ("destip", {"ip": "10.0.0.8"}),
        ("destip", None),
    ])
    def test_a_device_or_destination_that_is_not_a_string_is_rejected(self, field, value):
        doc = sample_policy_doc()
        doc[0][field] = value
        with pytest.raises(PolicyError, match=f"policy '02': {field} must be a string"):
            load_policies(doc)

    @pytest.mark.parametrize("service", [["Service1"], {"name": "Service1"}, 1, None])
    def test_a_service_that_is_not_a_string_is_rejected(self, service):
        doc = sample_policy_doc()
        doc[0]["actions"][0]["Service"] = service
        with pytest.raises(PolicyError, match="policy '02': Service must be a string"):
            load_policies(doc)

    def test_missing_required_field_rejected(self):
        doc = sample_policy_doc()
        del doc[0]["hostip"]
        with pytest.raises(PolicyError, match="hostip"):
            load_policies(doc)

    def test_conflicting_destination_mapping_rejected_before_indexing(self):
        repo = load_policies(sample_policy_doc())
        rules_before = dict(repo.rules)
        conflicting = parse_policy_rule({
            "id": "99", "hostip": "10.0.0.3", "hostmac": "00:09:00:AD",
            "destip": "10.0.0.8",
            "actions": [{"Service": "Other", "Slice-id": "VLAN300"}],
        })
        with pytest.raises(PolicyError) as exc:
            repo.register(conflicting)
        message = str(exc.value)
        assert "(200, 'Service1')" in message and "(300, 'Other')" in message
        assert repo.rules == rules_before
        assert repo.service_at("10.0.0.8") == (200, "Service1")
        assert repo.user_of_device("00:09:00:AD") is None

    def test_action_no_destination_serves_is_rejected(self):
        # 10.0.0.6 stands for the first pair only, and no rule serves the second.
        doc = sample_policy_doc()
        doc.append({
            "id": "04", "hostip": "10.0.0.1", "hostmac": "00:09:00:AA", "destip": "10.0.0.6",
            "user": {"id": "alice"},
            "actions": [
                {"Service": "Service3", "Slice-id": "VLAN100"},
                {"Service": "Service4", "Slice-id": "VLAN400"},
            ],
        })
        with pytest.raises(PolicyError) as exc:
            load_policies(doc)
        message = str(exc.value)
        assert "'04'" in message and "(400, 'Service4')" in message
        doc[0]["actions"].append({"Service": "Service4", "Slice-id": "VLAN400"})
        doc.append({"id": "05", "hostip": "10.0.0.2", "hostmac": "00:09:00:AC",
                    "destip": "10.0.0.5",
                    "actions": [{"Service": "Service4", "Slice-id": "VLAN400"}]})
        assert load_policies(doc).service_at("10.0.0.5") == (400, "Service4")

    @pytest.mark.parametrize("key", ["whitelist", "blacklist"])
    def test_per_destination_lists_are_rejected(self, key):
        doc = sample_policy_doc()
        doc[0]["actions"][0][key] = ["10.0.0.8"]
        with pytest.raises(PolicyError, match=f"{key} is not enforced"):
            load_policies(doc)


class TestExtractProfile:
    def test_profile_covers_all_devices_of_the_user(self):
        repo = load_policies(sample_policy_doc())
        profile = extract_profile(repo, "alice")
        assert profile == {
            "00:09:00:AA": {(200, "Service1")},
            "00:09:00:AC": {(300, "Service2")},
        }

    def test_unknown_user_yields_the_empty_profile(self):
        repo = load_policies(sample_policy_doc())
        assert extract_profile(repo, "nobody") == {}

    def test_same_device_in_two_contracts_unions_without_duplicates(self):
        # Oracle: plain set union over the device's rules in the repository.
        doc = sample_policy_doc()
        doc.append(
            {
                "id": "04",
                "hostip": "10.0.0.1",
                "hostmac": "00:09:00:AA",
                "destip": "10.0.0.6",
                "user": {"id": "alice", "name": "Alice", "role": "Personal-Role",
                         "organization": ""},
                "contract_id": "C-PERSONAL",
                "actions": [
                    {"Service": "Service3", "Slice-id": "VLAN100"},
                    {"Service": "Service1", "Slice-id": "VLAN200"},
                ],
            }
        )
        repo = load_policies(doc)
        profile = extract_profile(repo, "alice")
        expected = {
            (action.slice_id, action.service)
            for rule in repo.rules.values()
            if rule.user_id == "alice" and rule.device_id == "00:09:00:AA"
            for action in rule.actions
        }
        got = profile["00:09:00:AA"]
        assert got == expected
        assert got == {(200, "Service1"), (100, "Service3")}

    def test_profile_soundness_every_pair_backed_by_a_rule(self):
        repo = load_policies(sample_policy_doc())
        profile = extract_profile(repo, "alice")
        backing = {
            (rule.device_id, action.slice_id, action.service)
            for rule in repo.rules.values()
            for action in rule.actions
        }
        for device, pairs in profile.items():
            for slice_id, service in pairs:
                assert (device, slice_id, service) in backing


USERS = ["alice", "bob", "carol"]
DEVICES = [f"02:00:00:{k:02d}" for k in range(5)]
PAIRS = [(vlan, service) for vlan in (100, 200, 300) for service in ("S1", "S2")]


@st.composite
def policy_documents(draw) -> list:
    """Several users; a device may recur across rules and contracts; every
    rule has its own destination and one or more actions.  A destination
    serves its rule's first pair, so a single-action rule is added for each
    pair that only later actions name."""
    rule = st.tuples(
        st.sampled_from(USERS),
        st.sampled_from(DEVICES),
        st.sampled_from(["C-1", "C-2", "C-PERSONAL"]),
        st.lists(st.sampled_from(PAIRS), min_size=1, max_size=4),
    )
    rules = draw(st.lists(rule, min_size=1, max_size=12))
    served = {pairs[0] for *_, pairs in rules}
    for pair in sorted({p for *_, pairs in rules for p in pairs} - served):
        user, device, contract, _ = draw(rule)
        rules.append((user, device, contract, [pair]))
    return [
        {
            "id": f"p{i}",
            "hostip": f"10.0.0.{i}",
            "hostmac": device,
            "destip": f"10.9.0.{i}",
            "user": {"id": user, "role": "employee"},
            "contract_id": contract,
            "actions": [{"Service": s, "Slice-id": f"VLAN{v}"} for v, s in pairs],
        }
        for i, (user, device, contract, pairs) in enumerate(rules)
    ]


@settings(max_examples=60, deadline=None)
@given(policy_documents())
def test_profile_is_the_per_device_union_of_the_users_rules(document):
    # Oracle: union the action pairs of the raw document per (user, device).
    expected: dict[str, dict[str, set]] = {user: {} for user in USERS}
    for raw in document:
        pairs = expected[raw["user"]["id"]].setdefault(raw["hostmac"], set())
        pairs.update((int(a["Slice-id"][4:]), a["Service"]) for a in raw["actions"])
    repo = load_policies(document)
    for user in USERS:
        assert extract_profile(repo, user) == expected[user]
        # A fresh edge per user: deploying registers the functions, so one
        # edge would gather every user's devices.
        manager = SecurityManager(build_topology({"nodes": [{"id": "E", "kind": "edge"}]}), repo)
        access = manager.deploy_functions("E", user).access
        for device in DEVICES:
            probe = Packet(src_ip="10.0.0.1", dst_ip="10.9.0.1", src_mac=device,
                           dst_mac="bb", payload=b"", flow_id="f")
            for pair in PAIRS:
                permitted = check_slice_access(access, probe, pair) == AccessVerdict.PERMIT
                assert permitted == (pair in expected[user].get(device, ()))


def rule_event(node: str, rule_id: str, priority: int = 10, carry: bool = False) -> dict:
    """An install; with ``carry`` the event holds the ``FlowRule``, not its dict."""
    rule = FlowRule(rule_id=rule_id, match=FlowKey(src_ip="10.0.0.1"),
                    action=Drop(), priority=priority)
    return {"type": EV_RULE_INSTALLED, "node": node, "rule": rule if carry else rule.to_dict(),
            "time_ms": 0}


def delete_event(node: str, rule_id: str) -> dict:
    return {"type": EV_RULE_DELETED, "node": node, "rule_id": rule_id, "time_ms": 0}


@settings(max_examples=200, deadline=None)
@given(
    rule=flow_rules,
    event_type=st.sampled_from([EV_RULE_INSTALLED, EV_RULE_DELETED]),
    node=st.one_of(st.none(), st.text()),
    time_ms=st.one_of(st.integers(), st.booleans()),
    extra=st.dictionaries(st.sampled_from(["reason", "clean"]), st.text(), max_size=1),
)
def test_an_event_carrying_its_rule_hashes_as_one_carrying_the_rules_dict(
        rule, event_type, node, time_ms, extra):
    event = {"type": event_type, "node": node, "time_ms": time_ms, "rule": rule, **extra}
    logs = ActivityLog(), ActivityLog()
    for log in logs:
        log.append(delete_event("OVS1", "r0"))
    carried = logs[0].append(event)
    as_dict = logs[1].append(dict(event, rule=rule.to_dict()))
    assert carried.data == as_dict.data
    assert carried.entry_hash == as_dict.entry_hash


class TestActivityLog:
    def test_append_extends_chain_and_verify_holds(self):
        log = ActivityLog()
        log.append(rule_event("OVS1", "r1"))
        log.append(rule_event("OVS1", "r2", priority=5))
        assert log.verify()
        assert log.entries[0].prev_hash == bytes(32)
        assert log.entries[1].prev_hash == log.entries[0].entry_hash

    def test_fold_of_install_install_delete(self):
        log = ActivityLog()
        log.append(rule_event("OVS1", "r1"))
        log.append(rule_event("OVS1", "r2", priority=5))
        log.append(delete_event("OVS1", "r1"))
        report = log.expected_switch_state("OVS1")
        assert [r.rule_id for r in report] == ["r2"]

    def test_empty_log_folds_to_empty_report(self):
        report = ActivityLog().expected_switch_state("OVS1")
        assert report == ()

    def test_only_a_node_whose_rules_changed_gets_a_new_report(self):
        log = ActivityLog()
        log.append(rule_event("OVS1", "r1"))
        log.append(rule_event("OVS2", "r2"))
        first = log.expected_switch_states(["OVS1", "OVS2"])
        log.append(rule_event("OVS2", "r3", priority=5))
        log.append(delete_event("OVS1", "r-absent"))
        log.append({"type": EV_AUDIT_PERFORMED, "node": "OVS1", "extra": ["rule-x"], "time_ms": 0})
        second = log.expected_switch_states(["OVS1", "OVS2"])
        assert second["OVS1"] is first["OVS1"]
        assert [r.rule_id for r in second["OVS2"]] == ["r2", "r3"]

    def test_tampering_with_any_event_breaks_verification(self):
        log = ActivityLog()
        log.append(rule_event("OVS1", "r1"))
        log.append(rule_event("OVS1", "r2"))
        entry = log.entries[0]
        tampered = dict(entry.event)
        tampered["node"] = "OVS2"
        forged = canonical_json(tampered).encode()
        log.entries[0] = LogEntry(entry.seq, forged, entry.prev_hash, entry.entry_hash)
        assert not log.verify()
        with pytest.raises(LogIntegrityError):
            log.expected_switch_state("OVS1")

    def test_the_log_owns_its_events(self):
        log = ActivityLog()
        event = rule_event("OVS1", "r1")
        log.append(event)
        log.append(rule_event("OVS1", "r2", priority=5))
        before = log.expected_switch_state("OVS1")
        event["node"] = "OVS2"
        event["rule"]["rule_id"] = "forged"
        log.events()[1]["rule"]["priority"] = 99
        assert log.verify()
        assert log.events() == [rule_event("OVS1", "r1"), rule_event("OVS1", "r2", priority=5)]
        assert log.expected_switch_state("OVS1") == before
        fresh = ActivityLog.from_jsonl(log.to_jsonl())
        assert fresh.expected_switch_state("OVS1") == before

    def test_verify_holds_on_every_prefix(self):
        log = ActivityLog()
        for i in range(20):
            log.append(rule_event("OVS1", f"r{i}"))
        for cut in range(len(log.entries) + 1):
            prefix = ActivityLog()
            prefix.entries = log.entries[:cut]
            assert prefix.verify()

    def test_jsonl_round_trip(self, tmp_path):
        log = ActivityLog()
        log.append(rule_event("OVS1", "r1"))
        log.append(delete_event("OVS1", "r1"))
        path = tmp_path / "log.jsonl"
        log.save(path)
        loaded = ActivityLog.load(path)
        assert loaded.verify()
        assert [e.data for e in loaded.entries] == [e.data for e in log.entries]
        assert [e.event for e in loaded.entries] == [e.event for e in log.entries]
        assert loaded.to_jsonl() == path.read_text(encoding="utf-8")


def _without(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


MALFORMED_LINES = {
    "not-json": lambda d: '{"seq": 1,',
    "not-an-object": lambda d: [d],
    "missing-seq": _without("seq"),
    "missing-event": _without("event"),
    "missing-prev-hash": _without("prev_hash"),
    "missing-entry-hash": _without("entry_hash"),
    "seq-not-an-integer": lambda d: {**d, "seq": "1"},
    "seq-a-boolean": lambda d: {**d, "seq": True},
    "short-digest": lambda d: {**d, "prev_hash": d["prev_hash"][:63]},
    "non-hex-digest": lambda d: {**d, "entry_hash": "zz" * 32},
    "digest-not-a-string": lambda d: {**d, "entry_hash": 7},
    "event-not-an-object": lambda d: {**d, "event": ["rule-deleted"]},
    "event-without-type": lambda d: {**d, "event": {"node": "OVS1"}},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LINES))
def test_from_jsonl_rejects_a_malformed_line_by_number(case):
    log = ActivityLog()
    log.append(rule_event("OVS1", "r1"))
    log.append(delete_event("OVS1", "r1"))
    first, second = log.to_jsonl().splitlines()
    bad = MALFORMED_LINES[case](json.loads(second))
    text = "\n".join([first, bad if isinstance(bad, str) else json.dumps(bad)]) + "\n"
    with pytest.raises(ValueError, match="^activity log line 2: "):
        ActivityLog.from_jsonl(text)


class TestReplayEquivalence:
    @staticmethod
    def _naive_replay(events, node):
        """Oracle: list-based replay honoring replace-on-(match, priority)."""
        table = []
        for event in events:
            if event.get("node") != node:
                continue
            if event["type"] == EV_RULE_INSTALLED:
                rule = FlowRule.from_dict(event["rule"])
                table = [
                    r for r in table
                    if r.rule_id != rule.rule_id
                    and not (r.match == rule.match and r.priority == rule.priority)
                ]
                table.append(rule)
            elif event["type"] == EV_RULE_DELETED:
                table = [r for r in table if r.rule_id != event["rule_id"]]
        return sorted(table, key=lambda r: (-r.priority, r.rule_id))

    def _random_log(self):
        rng = random.Random(7)
        log = ActivityLog()
        events = []
        live_ids: list[str] = []
        for i in range(10_000):
            node = rng.choice(["OVS1", "OVS2"])
            if live_ids and rng.random() < 0.3:
                event = delete_event(node, rng.choice(live_ids))
            else:
                rule_id = f"r{i:05d}"
                live_ids.append(rule_id)
                event = rule_event(node, rule_id, priority=rng.randint(0, 4))
            events.append(event)
            log.append(event)
        return log, events

    def test_fold_matches_naive_replay_on_large_random_log(self):
        log, events = self._random_log()
        for node in ("OVS1", "OVS2"):
            folded = list(log.expected_switch_state(node))
            assert folded == self._naive_replay(events, node)

    def test_one_pass_fold_of_many_nodes_matches_naive_replay(self):
        log, events = self._random_log()
        reports = log.expected_switch_states(["OVS1", "OVS2", "OVS9"])
        assert list(reports) == ["OVS1", "OVS2", "OVS9"]
        for node, report in reports.items():
            assert list(report) == self._naive_replay(events, node)
        assert reports["OVS9"] == ()

    def test_one_pass_fold_rejects_an_entry_replaced_in_place(self):
        log, _events = self._random_log()
        entry = log.entries[5000]
        event = entry.event
        forged = canonical_json(dict(event, node="OVS2" if event["node"] == "OVS1" else "OVS1"))
        log.entries[5000] = LogEntry(entry.seq, forged.encode(), entry.prev_hash, entry.entry_hash)
        with pytest.raises(LogIntegrityError):
            log.expected_switch_states(["OVS1", "OVS2"])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=30))
def test_chain_hash_depends_on_full_event_history(names):
    log = ActivityLog()
    for name in names:
        log.append(rule_event("OVS1", name))
    assert log.verify()
    if log.entries:
        # altering any single byte of any stored event breaks the chain
        idx = len(log.entries) // 2
        entry = log.entries[idx]
        bad = dict(entry.event)
        bad["time_ms"] = 999
        forged = canonical_json(bad).encode()
        log.entries[idx] = LogEntry(entry.seq, forged, entry.prev_hash, entry.entry_hash)
        assert not log.verify()


FOLD_NODES = ("OVS1", "OVS2", "CORE1")

fold_steps = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["install", "install-rule"]), st.sampled_from(FOLD_NODES),
            st.integers(0, 3),
        ),
        st.tuples(st.just("delete"), st.sampled_from(FOLD_NODES), st.integers(0, 40)),
        st.tuples(
            st.just("audit"), st.lists(st.sampled_from(FOLD_NODES + ("OVS9",)), unique=True), st.just(0)
        ),
        st.tuples(
            st.sampled_from(["rewrite", "audit-entry", "corrective", "note"]),
            st.sampled_from(FOLD_NODES),
            st.integers(0, 40),
        ),
    ),
    max_size=40,
)

# How a rewrite stores its install: canonically, with spaces and the type's
# "-" escaped as \u002d, or as UTF-16, which json.loads also reads.
REWRITE_ENCODINGS = (
    lambda event: canonical_json(event).encode(),
    lambda event: json.dumps(event).replace("rule-", "rule\\u002d").encode(),
    lambda event: json.dumps(event).encode("utf-16"),
)


def rechain(log: ActivityLog, idx: int, event: dict, encode=REWRITE_ENCODINGS[0]) -> None:
    """Replace entry ``idx`` with ``event``, stored as ``encode`` gives it,
    and recompute every later hash: a rewrite the chain check alone cannot see."""
    prev = log.entries[idx].prev_hash
    for seq in range(idx, len(log.entries)):
        data = encode(event) if seq == idx else log.entries[seq].data
        entry_hash = hashlib.sha256(seq.to_bytes(8, "big") + data + prev).digest()
        log.entries[seq] = LogEntry(seq, data, prev, entry_hash)
        prev = entry_hash


def assert_fold_from_scratch(log: ActivityLog, nodes) -> None:
    reports = log.expected_switch_states(nodes)
    assert list(reports) == list(nodes)
    scratch = ActivityLog()
    scratch.entries = list(log.entries)
    assert reports == scratch.expected_switch_states(nodes)
    if all(e.data == canonical_json(e.event).encode() for e in log.entries):
        # to_jsonl splices the stored bytes, which from_jsonl re-encodes.
        assert reports == ActivityLog.from_jsonl(log.to_jsonl()).expected_switch_states(nodes)
    events = log.events()
    for node in nodes:
        assert list(reports[node]) == TestReplayEquivalence._naive_replay(events, node)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(FOLD_NODES + ("OVS9",)), min_size=1, unique=True), fold_steps)
def test_forward_fold_equals_a_fold_from_scratch(queried, steps):
    # ``eager`` is audited after every step; ``lazy`` only at audit steps, so
    # its forward folds span runs of appends and rewrites.  Audit, corrective
    # and note entries fold to nothing; a note's text contains "rule-".  An
    # "install-rule" event carries its FlowRule, which the fold reuses.
    eager, lazy = ActivityLog(), ActivityLog()
    issued: list[str] = []
    for i, (kind, arg, n) in enumerate(steps):
        named = issued[n % len(issued)] if issued else "r-none"
        if kind in ("install", "install-rule"):
            issued.append(f"r{i}")
            event = rule_event(arg, issued[-1], priority=n, carry=kind == "install-rule")
        elif kind == "delete":
            event = delete_event(arg, named)
        elif kind == "audit-entry":
            event = {"type": EV_AUDIT_PERFORMED, "node": arg, "extra": [named], "missing": [],
                     "modified": [named], "clean": False, "time_ms": 0}
        elif kind == "corrective":
            event = {"type": EV_CORRECTIVE_ACTION, "node": arg, "deleted": [named],
                     "reinstalled": [named], "time_ms": 0}
        elif kind == "note":
            event = {"type": EV_ALERT_RAISED, "node": arg, "reason": f"rule-installed {named}",
                     "time_ms": 0}
        if kind not in ("audit", "rewrite"):
            eager.append(event)
            lazy.append(event)
        elif kind == "rewrite" and eager.entries:
            idx = n % ((len(eager.entries) + 1) // 2)
            encode = REWRITE_ENCODINGS[n % len(REWRITE_ENCODINGS)]
            for log in (eager, lazy):
                rechain(log, idx, rule_event(arg, f"x{i}"), encode)
        elif kind == "audit":
            assert_fold_from_scratch(lazy, arg)
        assert_fold_from_scratch(eager, queried)
    assert_fold_from_scratch(lazy, queried)
    if eager.entries:
        entry = eager.entries[len(eager.entries) // 2]
        forged = canonical_json(dict(entry.event, time_ms=1)).encode()
        eager.entries[entry.seq] = LogEntry(entry.seq, forged, entry.prev_hash, entry.entry_hash)
        with pytest.raises(LogIntegrityError):
            eager.expected_switch_states(queried)


def _value_types(rule: FlowRule) -> list:
    """The type of every scalar field: rule id, priority, match and action."""
    return [(name, type(getattr(rule, name))) for name in ("rule_id", "priority")] + [
        (name, type(getattr(rule.match, name))) for name in rule.match._fields
    ] + [(f.name, type(getattr(rule.action, f.name))) for f in fields(rule.action)]


def assert_same_reports(got: dict, want: dict) -> None:
    """Equal rule by rule, as bytes and as field types; NaN-safe."""
    assert list(got) == list(want)
    for node in want:
        assert [r.to_json() for r in got[node]] == [r.to_json() for r in want[node]]
        assert ([(type(r.match), type(r.action), _value_types(r)) for r in got[node]]
                == [(type(r.match), type(r.action), _value_types(r)) for r in want[node]])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("install"), st.sampled_from(FOLD_NODES), flow_rules, st.booleans()),
            st.tuples(st.just("delete"), st.sampled_from(FOLD_NODES), st.integers(0, 40),
                      st.booleans()),
        ),
        max_size=30,
    )
)
def test_a_fold_reusing_carried_rules_equals_a_fold_of_the_bytes(steps):
    # Installs carry drawn FlowRules (bools, IntEnums, NaN and infinite
    # floats, non-ASCII text), some with an extra field so that append writes
    # them through canonical_json.  A rule is folded as the object itself only
    # when every field is exactly a str, an int or None; any other is parsed.
    log = ActivityLog()
    carried = []
    for i, (kind, node, arg, extra) in enumerate(steps):
        if kind == "install":
            event = {"type": EV_RULE_INSTALLED, "node": node, "rule": arg, "time_ms": i}
            carried.append(arg)
        else:
            named = carried[arg % len(carried)].rule_id if carried else "r-none"
            event = delete_event(node, named)
        if extra:
            event["reason"] = "rule-replay"
        entry = log.append(event)
        assert entry.op_node == node
        assert entry.op is (arg if kind == "install" else event["rule_id"])
    parsed = []

    def counting_loads(data):
        parsed.append(data)
        return json.loads(data)

    with patch.object(policy, "json", SimpleNamespace(loads=counting_loads)):
        reports = log.expected_switch_states(FOLD_NODES)
    inexact = [
        r for r in carried
        if not all(t in (str, int, type(None)) for _name, t in _value_types(r))
    ]
    assert len(parsed) == len(inexact)
    reused = {id(r) for rs in reports.values() for r in rs} & {id(r) for r in carried}
    assert not reused & {id(r) for r in inexact}
    scratch = ActivityLog()
    scratch.entries = list(log.entries)
    assert_same_reports(reports, scratch.expected_switch_states(FOLD_NODES))
    loaded = ActivityLog.from_jsonl(log.to_jsonl())
    assert all(e.op is None for e in loaded.entries)
    assert_same_reports(reports, loaded.expected_switch_states(FOLD_NODES))


class TestCarriedOps:
    """The node and rule (or rule id) that append keeps on an install or
    delete entry are used by the fold, and cannot make a forge pass."""

    def test_an_entry_built_by_hand_carries_no_op(self):
        log = ActivityLog()
        entry = log.append(rule_event("OVS1", "r1", carry=True))
        assert entry.op_node == "OVS1" and entry.op.rule_id == "r1"
        rebuilt = LogEntry(entry.seq, entry.data, entry.prev_hash, entry.entry_hash)
        assert (rebuilt.op_node, rebuilt.op) == (None, None)
        assert rebuilt == entry and hash(rebuilt) == hash(entry)
        assert repr(rebuilt) == repr(entry)
        assert (replace(entry).op_node, replace(entry).op) == (None, None)
        with pytest.raises(TypeError):
            LogEntry(entry.seq, entry.data, entry.prev_hash, entry.entry_hash, "OVS1", entry.op)
        with pytest.raises(ValueError):
            replace(entry, op=None)
        with pytest.raises(AttributeError):
            entry.__dict__

    def test_only_installs_and_deletes_on_a_str_node_carry_an_op(self):
        log = ActivityLog()
        rule = FlowRule("r1", FlowKey(src_ip="10.0.0.1"), Drop(), 10)
        carrying = [
            log.append({"type": EV_RULE_INSTALLED, "node": "OVS1", "rule": rule, "time_ms": 0}),
            log.append(delete_event("OVS1", "r1")),
        ]
        plain = [
            log.append(rule_event("OVS1", "r2")),
            log.append({"type": EV_RULE_INSTALLED, "node": None, "rule": rule, "time_ms": 0}),
            log.append({"type": EV_RULE_DELETED, "node": "OVS1", "rule_id": 5, "time_ms": 0}),
            log.append({"type": EV_AUDIT_PERFORMED, "node": "OVS1", "rule": rule, "time_ms": 0}),
        ]
        assert [(e.op_node, e.op) for e in carrying] == [("OVS1", rule), ("OVS1", "r1")]
        assert carrying[0].op is rule
        assert all((e.op_node, e.op) == (None, None) for e in plain)

    def test_a_replaced_and_rechained_entry_folds_from_its_forged_bytes(self):
        log = ActivityLog()
        log.append(rule_event("OVS1", "r1", carry=True))
        log.append(rule_event("OVS1", "r2", priority=5, carry=True))
        log.append(delete_event("OVS1", "r1"))
        first = log.entries[0]
        forged = canonical_json(dict(first.event, node="OVS2")).encode()
        prev = first.prev_hash
        for seq, entry in enumerate(list(log.entries)):
            data = forged if seq == 0 else entry.data
            entry_hash = hashlib.sha256(seq.to_bytes(8, "big") + data + prev).digest()
            log.entries[seq] = replace(entry, data=data, prev_hash=prev, entry_hash=entry_hash)
            prev = entry_hash
        assert all(e.op is None for e in log.entries)
        states = log.expected_switch_states(["OVS1", "OVS2"])
        assert [r.rule_id for r in states["OVS1"]] == ["r2"]
        assert [r.rule_id for r in states["OVS2"]] == ["r1"]

    @pytest.mark.parametrize("how", ["replace", "constructor", "swap", "drop"])
    def test_a_forge_of_an_entry_carrying_an_op_is_still_caught(self, how):
        log = ActivityLog()
        for i in range(6):
            log.append(rule_event("OVS1", f"r{i}", priority=i, carry=True))
        log.append(delete_event("OVS1", "r0"))
        log.expected_switch_states(["OVS1"])
        entry = log.entries[3]
        forged = canonical_json(dict(entry.event, node="OVS2")).encode()
        if how == "replace":
            log.entries[3] = replace(entry, data=forged)
        elif how == "constructor":
            log.entries[3] = LogEntry(entry.seq, forged, entry.prev_hash, entry.entry_hash)
        elif how == "swap":
            log.entries[2], log.entries[3] = log.entries[3], log.entries[2]
        else:
            del log.entries[3]
        with pytest.raises(LogIntegrityError):
            log.expected_switch_states(["OVS1", "OVS2"])
