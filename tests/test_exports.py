"""The public surface of ``repro.analysis`` and ``repro.core`` is pinned.

Retiring a production option (a solver representation, a payload
format, an execution backend) must not remove or rename an exported
name: a caller importing from these packages keeps working.  Adding a
name is a deliberate act too, so both lists are compared exactly.
"""

import pytest

import repro.analysis
import repro.core

ANALYSIS_EXPORTS = [
    "AddrTerm", "Andersen", "AndersenResult", "Atom", "ClusterFSCS",
    "ConcreteExecutor", "ConcreteHeapExecutor", "ConcreteLockExecutor",
    "ConcreteTaintExecutor", "Constraint", "CutShortcut",
    "CutShortcutResult", "CutShortcutTransform", "DEFAULT_SHARING_BOUND",
    "DEFAULT_SOURCE_BOUND", "DemandAndersen", "DemandEngine",
    "DemandResult", "DemandView", "DerefTerm", "EngineStats", "FSCI",
    "FSCIResult", "ForwardDataflow", "MapPointsTo", "MustAlias",
    "MustAliasResult", "NULL_MARKER", "NullTerm", "ObjTerm", "OneFlow",
    "OracleResult", "PointerAnalysis", "PointsToResult", "RetSummary",
    "SatOracle", "Steensgaard", "SteensgaardFS", "SteensgaardFSResult",
    "SteensgaardResult", "SummaryEngine", "SummaryTuple", "Supergraph",
    "TRUE", "Term", "UnionFind", "UnknownTerm", "conjoin",
    "demand_points_to", "execute", "execute_heap", "execute_lock_orders",
    "execute_taint", "field_key", "format_constraint", "merge",
    "null_atom", "points_to_atom", "precision_refines",
    "same_object_atom", "whole_program_fscs",
]

CORE_EXPORTS = [
    "BootstrapAnalyzer", "BootstrapConfig", "BootstrapResult",
    "CascadeConfig", "CascadeResult", "ChaosProxy", "CircuitBreaker",
    "Cluster", "ClusterExecutionError", "DEFAULT_ANDERSEN_THRESHOLD",
    "DemandSelection", "Diagnostic", "FAULT_KINDS", "FaultSpec",
    "NET_FAULT_KINDS", "NetFault", "PRECISION_LEVELS", "ParallelReport",
    "ParallelRunner", "PartitionStats", "Partitioning", "RelevantSlice",
    "RunPolicy", "SummaryCache", "TraceStep", "analyze_payload",
    "analyze_payload_batch", "andersen_refine", "attach_faults",
    "build_payload", "cascade_summary", "cluster_cost",
    "cluster_fingerprints", "cluster_outcome", "cluster_subprogram",
    "coarsest", "context_count", "context_sensitivity_gain",
    "dedup_diagnostics", "degrade_ladder", "degraded_outcome",
    "demand_alias_sets", "diagnostics_to_dict", "diagnostics_to_sarif",
    "dovetail_schedule", "enumerate_contexts", "garble_bytes",
    "greedy_parts", "is_degraded", "lpt_parts", "oneflow_refine",
    "parse_fault_arg", "payload_fingerprint", "percentile",
    "points_to_by_context", "relevant_statements",
    "render_diagnostics_text", "render_report", "resolve_pointer",
    "run_cascade", "schedule_indices", "select_clusters", "size_summary",
    "suppress_diagnostics", "validate_outcome",
]


@pytest.mark.parametrize("module, expected", [
    (repro.analysis, ANALYSIS_EXPORTS),
    (repro.core, CORE_EXPORTS),
], ids=["analysis", "core"])
def test_exports_pinned(module, expected):
    assert sorted(module.__all__) == sorted(expected)
    assert len(module.__all__) == len(set(module.__all__))
    for name in expected:
        assert getattr(module, name) is not None, name
