"""The bootstrapping cascade driver.

"Bootstrapping allows one to string together a series of pointer analyses
of increasing accuracy till the subsets are small enough to ensure
scalability of a highly precise alias analysis."  This module is that
string: a configurable pipeline

    Steensgaard partitioning
      -> [optional One-Flow refinement of partitions above a threshold]
      -> Andersen clustering of partitions above the Andersen threshold
      -> per-cluster slices (Algorithm 1)

producing the independent :class:`~.clusters.Cluster` units the FSCS
stage (and the parallel scheduler) consume.  Per-stage wall-clock timings
are recorded because they are half of Table 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional

from ..analysis.cutshortcut import (
    DEFAULT_SOURCE_BOUND,
    CutShortcutTransform,
)
from ..analysis.steensgaard import Steensgaard, SteensgaardResult
from ..analysis.steensgaard_fs import DEFAULT_SHARING_BOUND, SteensgaardFS
from ..ir import MemObject, Program, Var
from .clusters import (
    DEFAULT_ANDERSEN_THRESHOLD,
    Cluster,
    andersen_refine,
    oneflow_refine,
)
from .partitions import PartitionStats, Partitioning
from .relevant import RelevantSlice, relevant_statements


@dataclass
class CascadeConfig:
    """Tuning knobs for the cascade.

    ``andersen_threshold`` mirrors the paper: partitions at or below it
    go straight to the precise stage; larger ones are refined first.
    ``use_oneflow`` inserts Das One-Flow between Steensgaard and
    Andersen, as the paper suggests; ``oneflow_threshold`` defaults to
    the Andersen threshold.  ``refine_with_andersen=False`` disables the
    second stage entirely (pure Steensgaard clustering — Table 1's
    columns 7-9 configuration).
    """

    andersen_threshold: int = DEFAULT_ANDERSEN_THRESHOLD
    refine_with_andersen: bool = True
    use_oneflow: bool = False
    oneflow_threshold: Optional[int] = None
    #: First-stage unification: ``"steensgaard"`` (classic) or
    #: ``"steensgaard_fs"`` (field-sensitive without oversharing —
    #: strictly finer partitions, same linear cost regime).
    clustering: str = "steensgaard"
    #: Field-slot cap per class for ``steensgaard_fs`` (beyond it the
    #: class collapses to classic single-cell behaviour).
    sharing_bound: int = DEFAULT_SHARING_BOUND
    #: Apply the cut-shortcut transformation to every Andersen-stage
    #: slice — cheap context sensitivity for return-value flow.
    cutshortcut: bool = False
    #: Return-summary size cap for the cut-shortcut stage.
    source_bound: int = DEFAULT_SOURCE_BOUND


@dataclass
class CascadeResult:
    """Clusters plus the provenance and timing data Table 1 reports."""

    program: Program
    steensgaard: SteensgaardResult
    clusters: List[Cluster]
    partition_time: float
    clustering_time: float
    refined_partitions: int

    def stats(self, origin: Optional[str] = None) -> PartitionStats:
        groups = [c.members for c in self.clusters
                  if origin is None or c.origin == origin]
        return PartitionStats.of(groups)

    def max_cluster_size(self) -> int:
        return max((c.size for c in self.clusters), default=0)

    def clusters_containing(self, pointers: Iterable[Var]) -> List[Cluster]:
        """Demand-driven selection: only the clusters that matter for the
        given pointers (e.g. lock pointers for race detection)."""
        wanted = set(pointers)
        return [c for c in self.clusters if c.members & wanted]

    def cluster_of(self, pointer: Var) -> List[Cluster]:
        return self.clusters_containing([pointer])

    def cluster_costs(self) -> List[int]:
        """Per-cluster work estimates in cluster order — the inputs the
        LPT scheduler balances (see :func:`~.parallel.cluster_cost`)."""
        from .parallel import cluster_cost
        return [cluster_cost(c) for c in self.clusters]


def run_cascade(program: Program,
                config: Optional[CascadeConfig] = None,
                steens: Optional[SteensgaardResult] = None) -> CascadeResult:
    """Execute the cascade and return its clusters."""
    config = config or CascadeConfig()
    if config.clustering not in ("steensgaard", "steensgaard_fs"):
        raise ValueError(f"unknown clustering stage: {config.clustering!r}")
    t0 = time.perf_counter()
    if steens is None:
        if config.clustering == "steensgaard_fs":
            steens = SteensgaardFS(
                program, sharing_bound=config.sharing_bound).run()
        else:
            steens = Steensgaard(program).run()
    transform = (CutShortcutTransform.of(program, config.source_bound)
                 if config.cutshortcut else None)
    partitioning = Partitioning(program, steens)
    partitions = partitioning.pointer_partitions()
    partition_time = time.perf_counter() - t0

    clusters: List[Cluster] = []
    refined = 0
    t1 = time.perf_counter()
    for partition in partitions:
        slice_ = relevant_statements(program, steens, partition)
        groups: List[FrozenSet[MemObject]] = [partition]
        origin = "steensgaard"
        if config.use_oneflow:
            of_threshold = (config.oneflow_threshold
                            if config.oneflow_threshold is not None
                            else config.andersen_threshold)
            if len(partition) > of_threshold:
                groups = oneflow_refine(program, steens, partition, slice_)
                origin = "oneflow"
        if config.refine_with_andersen:
            next_groups: List[FrozenSet[MemObject]] = []
            for g in groups:
                if len(g) > config.andersen_threshold:
                    refined += 1
                    g_slice = (slice_ if g == partition else
                               relevant_statements(program, steens, g))
                    next_groups.extend(andersen_refine(
                        program, steens, g, g_slice,
                        transform=transform))
                    origin = "andersen"
                else:
                    next_groups.append(g)
            groups = next_groups
        for g in groups:
            g_origin = origin if len(groups) > 1 or g != partition else "steensgaard"
            g_slice = slice_ if g == partition else \
                relevant_statements(program, steens, g)
            clusters.append(Cluster(members=g, slice=g_slice,
                                    origin=g_origin,
                                    parent_size=len(partition),
                                    parent_slice=slice_))
    clustering_time = time.perf_counter() - t1
    clusters.sort(key=lambda c: (-c.size, sorted(map(str, c.members))))
    return CascadeResult(program=program, steensgaard=steens,
                         clusters=clusters,
                         partition_time=partition_time,
                         clustering_time=clustering_time,
                         refined_partitions=refined)
