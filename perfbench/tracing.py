"""Wall-clock spans around calls into the package's layers.

Used only by the traced run: ``install`` wraps the public functions and
methods listed in ``TARGETS`` from the benchmark's side and returns a function
that removes the wrappers again.  Each call becomes a span (name, start, end,
parent span, operation id); spans are kept in memory in flat arrays and
turned into per-layer metrics, or written out, once the run ends.  A span's
self time is its duration minus the durations of its direct children, which
in this single-threaded program never overlap.  Spans made during set-up
carry operation id 0; the per-layer metrics count only the timed work, except
the set-up time of ``build_topology`` and ``load_policies``.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


class Tracer:
    """Span store plus counters taken at the same call boundaries."""

    def __init__(self) -> None:
        self.enabled = False
        self.op = 0  # id of the current benchmark operation; 0 is set-up
        self.names: list[str] = []
        self.op_ids = array("q")
        self.parents = array("q")
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.open: list[int] = []
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def __len__(self) -> int:
        return len(self.starts)

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            op=np.frombuffer(self.op_ids, dtype=np.int64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            name=np.frombuffer(self.name_ids, dtype=np.int64),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
        )

    def span_table(self) -> dict:
        """Per span name: calls, self seconds and durations of the timed spans,
        and the summed duration of its set-up spans."""
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        names = np.frombuffer(self.name_ids, dtype=np.int64)
        timed = np.frombuffer(self.op_ids, dtype=np.int64) != 0
        duration = ends - starts
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=duration[nested], minlength=len(duration))
        self_s = duration - child
        table = {}
        for nid, name in enumerate(self.names):
            mask = (names == nid) & timed
            table[name] = {
                "calls": int(mask.sum()),
                "self_s": float(self_s[mask].sum()),
                "durations": duration[mask],
                "setup_s": float(duration[(names == nid) & ~timed].sum()),
            }
        return table


def _wrap(tracer: Tracer, name: str, fn, hook):
    nid = tracer.name_id(name)
    op_ids, parents, name_ids = tracer.op_ids, tracer.parents, tracer.name_ids
    starts, ends, stack = tracer.starts, tracer.ends, tracer.open
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = len(starts)
        op_ids.append(tracer.op)
        parents.append(stack[-1] if stack else -1)
        name_ids.append(nid)
        ends.append(0.0)
        stack.append(idx)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[idx] = clock()
            stack.pop()
        if hook is not None and tracer.op:
            hook(tracer, args, result)
        return result

    return traced


# -- counters taken at the wrapped boundaries ---------------------------------

def _on_inject(tracer, args, trace):
    tracer.count("fabric.outcome." + type(trace.outcome).__name__.lower())


def _on_lookup(tracer, args, _rule):
    tracer.count("fabric.FlowTable.lookup.table_rules", len(args[0]))


def _on_append(tracer, args, _entry):
    if args[1].get("type") == "rule-installed":
        tracer.count("controller.rules_installed")


def _on_verify(tracer, args, _ok):
    tracer.count("policy.ActivityLog.verify.entries_hashed", len(args[0]))


def _on_validate(tracer, args, result):
    tracer.count("security_functions.validate_flow.signatures_scanned", result.signatures_scanned)


def _on_audit(tracer, args, result):
    tracer.count("security_functions.audit_flow_rules.findings", 0 if result.clean else 1)


def _on_encrypt(tracer, args, _envelope):
    tracer.count("security_functions.FlowCipher.encrypt.bytes", len(args[1]))


def _on_new_flow(tracer, args, decision):
    tracer.count("controller.new_flow.extractions", 1 if decision.extraction_performed else 0)


def _on_process(tracer, args, decision):
    tracer.count("controller.IngressProcessor.process.denied", 0 if decision.allow else 1)


# (layer, defining module, qualified name, hook)
TARGETS = (
    ("fabric", "fabric", "inject_packet", _on_inject),
    ("fabric", "fabric", "FlowTable.lookup", _on_lookup),
    ("fabric", "fabric", "FlowTable.add", None),
    ("fabric", "fabric", "Fabric.port_toward", None),
    ("fabric", "fabric", "Fabric.host_by_ip", None),
    ("fabric", "fabric", "Fabric.shortest_path", None),
    ("fabric", "fabric", "build_topology", None),
    ("policy", "policy", "ActivityLog.append", _on_append),
    ("policy", "policy", "ActivityLog.verify", _on_verify),
    ("policy", "policy", "ActivityLog.expected_switch_state", None),
    ("policy", "policy", "extract_profile", None),
    ("policy", "policy", "load_policies", None),
    ("security_functions", "security_functions", "check_slice_access", None),
    ("security_functions", "security_functions", "validate_flow", _on_validate),
    ("security_functions", "security_functions", "audit_flow_rules", _on_audit),
    ("security_functions", "security_functions", "render_audit_diff", None),
    ("security_functions", "security_functions", "FlowCipher.encrypt", _on_encrypt),
    ("security_functions", "security_functions", "FlowCipher.decrypt", None),
    ("controller", "controller", "SecurityManager.new_flow", _on_new_flow),
    ("controller", "controller", "IngressProcessor.process", _on_process),
    ("controller", "controller", "SecurityManager.alert", None),
    ("controller", "controller", "SecurityManager.handover", None),
    ("controller", "controller", "SecurityManager.tick", None),
    ("controller", "controller", "SecurityManager.audit_now", None),
    ("controller", "controller", "SecurityManager.provision_security", None),
    ("anomaly", "anomaly.features", "select_features", None),
    ("anomaly", "anomaly.features", "backward_elimination_ranking", None),
    ("anomaly", "anomaly.classifiers", "NaiveBayesClassifier.fit", None),
    ("anomaly", "anomaly.classifiers", "NaiveBayesClassifier.predict_one", None),
    ("anomaly", "anomaly.classifiers", "DecisionTree.fit", None),
    ("anomaly", "anomaly.classifiers", "DecisionTree.predict_one", None),
    ("anomaly", "anomaly.data", "EqualFrequencyBinner.transform", None),
    ("anomaly", "anomaly.metrics", "evaluate", None),
)


def _metric_name(layer: str, qualname: str) -> str:
    # Methods of the module's central class are named after the module alone:
    # controller.new_flow, fabric.port_toward.
    if qualname.startswith(("SecurityManager.", "Fabric.")):
        qualname = qualname.split(".", 1)[1]
    return f"{layer}.{qualname}"


def install(tracer: Tracer, package: str = "slice_sentinel"):
    """Wrap every target; returns a function that restores the originals.

    A module-level function is replaced in every loaded module of the
    package that binds it, so callers that imported it by name see the
    wrapper too.
    """
    undo = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    for layer, module_name, qualname, hook in TARGETS:
        module = sys.modules[f"{package}.{module_name}"]
        name = _metric_name(layer, qualname)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, _wrap(tracer, name, original, hook))
            undo.append((cls, attr, original))
        else:
            original = getattr(module, qualname)
            wrapper = _wrap(tracer, name, original, hook)
            for mod in modules:
                if getattr(mod, qualname, None) is original:
                    setattr(mod, qualname, wrapper)
                    undo.append((mod, qualname, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def span_names() -> list[str]:
    return [_metric_name(layer, qualname) for layer, _m, qualname, _h in TARGETS]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, log_entries: int) -> dict:
    """Per-layer metrics, named ``<layer>.<function>.<stat>``, from the spans
    and the boundary counters of the timed work.  Functions never called
    report zeros."""
    table = tracer.span_table()
    empty = {"calls": 0, "self_s": 0.0, "durations": np.zeros(0), "setup_s": 0.0}
    out: dict[str, tuple[float, str]] = {}
    for name in span_names():
        row = table.get(name, empty)
        if name in ("fabric.build_topology", "policy.load_policies"):
            out[f"{name}.s"] = (row["setup_s"], "s")
            continue
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.self_s"] = (row["self_s"], "s")

    def pct(name: str, q: float) -> float:
        durations = table.get(name, empty)["durations"]
        return float(np.percentile(durations, q) * 1e6) if len(durations) else 0.0

    def calls(name: str) -> int:
        return table.get(name, empty)["calls"]

    c = tracer.counters.get
    out["fabric.inject_packet.us_p50"] = (pct("fabric.inject_packet", 50), "us")
    out["fabric.FlowTable.lookup.table_rules_mean"] = (
        _ratio(c("fabric.FlowTable.lookup.table_rules", 0.0), calls("fabric.FlowTable.lookup")), "count")
    for outcome in ("delivered", "dropped", "punted"):
        out[f"fabric.outcome.{outcome}"] = (int(c(f"fabric.outcome.{outcome}", 0)), "count")
    out["policy.ActivityLog.verify.entries_hashed"] = (
        int(c("policy.ActivityLog.verify.entries_hashed", 0)), "count")
    out["policy.log_entries"] = (log_entries, "count")
    out["security_functions.validate_flow.signatures_scanned"] = (
        int(c("security_functions.validate_flow.signatures_scanned", 0)), "count")
    out["security_functions.audit_flow_rules.findings_ratio"] = (
        _ratio(c("security_functions.audit_flow_rules.findings", 0.0),
               calls("security_functions.audit_flow_rules")), "ratio")
    out["security_functions.FlowCipher.encrypt.bytes"] = (
        int(c("security_functions.FlowCipher.encrypt.bytes", 0)), "bytes")
    out["controller.new_flow.us_p50"] = (pct("controller.new_flow", 50), "us")
    out["controller.new_flow.us_p99"] = (pct("controller.new_flow", 99), "us")
    out["controller.new_flow.extraction_ratio"] = (
        _ratio(c("controller.new_flow.extractions", 0.0), calls("controller.new_flow")), "ratio")
    out["controller.IngressProcessor.process.deny_ratio"] = (
        _ratio(c("controller.IngressProcessor.process.denied", 0.0),
               calls("controller.IngressProcessor.process")), "ratio")
    out["controller.rules_installed"] = (int(c("controller.rules_installed", 0)), "count")
    return dict(sorted(out.items()))
