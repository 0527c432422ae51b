"""The inline version-1 cluster payload, kept as a size baseline.

Production ships only the interned version-2 format
(:func:`repro.core.shipping.build_payload`).  Version 1 repeated every
symbol inline through the plain IR dict serializer; the payload-size
regression test and the kernel bench build it here to show that the
interned format stays strictly smaller while decoding to the same
sub-program, cluster and sibling FSCI grouping.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core import Cluster
from repro.core.shipping import _base_slice, _digest, cluster_subprogram
from repro.ir import CallGraph, Program
from repro.ir.serialize import (
    cluster_from_dict,
    cluster_to_dict,
    program_from_dict,
    program_to_dict,
)


def build_v1_payload(program: Program, cluster: Cluster,
                     callgraph: Optional[CallGraph] = None,
                     max_cond_atoms: int = 4,
                     budget: Optional[int] = None,
                     subprogram_cache: Optional[Dict[int, Any]] = None
                     ) -> Dict[str, Any]:
    """One cluster's version-1 payload; ``subprogram_cache`` shares the
    serialized sub-program between siblings, keyed by base-slice
    identity like :func:`~repro.core.shipping.build_payload`'s."""
    base = _base_slice(cluster)
    sub_dict = None
    if subprogram_cache is not None:
        sub_dict = subprogram_cache.get(id(base))
    if sub_dict is None:
        sub_dict = program_to_dict(
            cluster_subprogram(program, cluster, callgraph))
        if subprogram_cache is not None:
            subprogram_cache[id(base)] = sub_dict
    return {
        "version": 1,
        "subprogram": sub_dict,
        "cluster": cluster_to_dict(cluster),
        "config": {"max_cond_atoms": max_cond_atoms, "budget": budget},
    }


def v1_program(payload: Dict[str, Any]) -> Program:
    return program_from_dict(payload["subprogram"])


def v1_cluster(payload: Dict[str, Any]) -> Cluster:
    return cluster_from_dict(payload["cluster"])


def v1_fsci_fingerprint(payload: Dict[str, Any]) -> str:
    """The version-1 analogue of the worker's shared-FSCI key: siblings
    ship identical sub-programs and parent slices."""
    cluster = payload["cluster"]
    parent = cluster.get("parent_slice", cluster["slice"])
    return _digest({"subprogram": payload["subprogram"], "parent": parent})
