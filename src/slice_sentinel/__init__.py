"""slice-sentinel: deterministic 5G slice fabric simulator with a
controller-hosted security manager, attack scenarios and benchmarks."""

from .fabric import (
    Fabric,
    FlowKey,
    FlowMod,
    FlowRule,
    Forward,
    Drop,
    PuntToController,
    Packet,
    Provenance,
    apply_flow_mod,
    build_topology,
    inject_packet,
    measure_attestation,
    report_flow_rules,
)
from .policy import (
    ActivityLog,
    PolicyRepository,
    extract_profile,
    load_policies,
)
from .controller import SecurityManager, ManagerConfig
from .security_functions import (
    Alert,
    AuditResult,
    FlowCipher,
    KeyGenerator,
    audit_flow_rules,
    check_slice_access,
    validate_attestation,
    validate_flow,
)

__version__ = "0.1.0"

__all__ = [
    "ActivityLog",
    "Alert",
    "AuditResult",
    "Fabric",
    "FlowCipher",
    "FlowKey",
    "FlowMod",
    "FlowRule",
    "Forward",
    "Drop",
    "PuntToController",
    "KeyGenerator",
    "ManagerConfig",
    "Packet",
    "PolicyRepository",
    "Provenance",
    "SecurityManager",
    "apply_flow_mod",
    "audit_flow_rules",
    "build_topology",
    "check_slice_access",
    "extract_profile",
    "inject_packet",
    "load_policies",
    "measure_attestation",
    "report_flow_rules",
    "validate_attestation",
    "validate_flow",
    "__version__",
]
