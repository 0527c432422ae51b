"""The top-level facade: bootstrapped flow- and context-sensitive alias
analysis.

:class:`BootstrapAnalyzer` wires the whole paper together:

1. run the cascade (Steensgaard partitioning, optional One-Flow,
   Andersen clustering, Algorithm 1 slices);
2. lazily build one :class:`~repro.analysis.fscs.ClusterFSCS` per
   cluster, on demand — the paper's flexibility argument: "based on the
   application, we may not be interested in accurate aliases for all
   pointers in the program but only a small subset";
3. answer may-alias / points-to queries by combining per-cluster
   answers (Theorem 7's disjunctive cover), with the Steensgaard
   partition check as a constant-time negative fast path;
4. optionally pre-analyze every cluster under the paper's simulated
   5-way parallel schedule (:meth:`BootstrapResult.analyze_all`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from ..analysis.fscs import ClusterFSCS, Context
from ..errors import AnalysisBudgetExceeded
from ..ir import CallGraph, Loc, MemObject, Program, Var
from .cascade import CascadeConfig, CascadeResult, run_cascade
from .clusters import Cluster
from .faults import FaultSpec, attach_faults, corrupt_outcome, fire_faults
from .parallel import ParallelReport, ParallelRunner
from .resilience import (
    ClusterExecutionError,
    RunPolicy,
    coarsest,
    degrade_ladder,
    is_degraded,
    validate_outcome,
)
from .shipping import build_payload, cluster_outcome, payload_fingerprint
from .summary_cache import SummaryCache


@dataclass
class BootstrapConfig:
    """Configuration for the full bootstrapped analysis."""

    cascade: CascadeConfig = field(default_factory=CascadeConfig)
    parts: int = 5
    fscs_budget: Optional[int] = None
    max_cond_atoms: int = 4


class BootstrapResult:
    """Queryable result of a bootstrapped analysis."""

    def __init__(self, program: Program, cascade: CascadeResult,
                 config: BootstrapConfig) -> None:
        self.program = program
        self.cascade = cascade
        self.config = config
        self.callgraph = CallGraph(program)
        self._analyses: Dict[int, ClusterFSCS] = {}
        self._fsci_cache: Dict[FrozenSet, object] = {}
        #: Cluster position (in :attr:`clusters`) -> achieved precision
        #: level, for clusters whose last :meth:`analyze_all` outcome was
        #: degraded by the resilience layer.  Diagnostics derived from
        #: these clusters carry a degraded-precision marker.
        self.degraded_clusters: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # cluster plumbing
    # ------------------------------------------------------------------
    @property
    def clusters(self) -> List[Cluster]:
        return self.cascade.clusters

    def analysis_for(self, cluster: Cluster) -> ClusterFSCS:
        """The (cached) FSCS analysis of one cluster."""
        key = id(cluster)
        analysis = self._analyses.get(key)
        if analysis is None:
            # Sibling sub-clusters of one partition share a single FSCI
            # pass over the partition's slice (a sound superset of each
            # sub-cluster's own slice).
            fsci = None
            parent = cluster.parent_slice
            if parent is not None:
                cache_key = parent.statements
                fsci = self._fsci_cache.get(cache_key)
                if fsci is None:
                    probe = ClusterFSCS(
                        self.program, cluster=(),
                        tracked=parent.vp, relevant=parent.statements,
                        callgraph=self.callgraph)
                    fsci = probe.fsci
                    self._fsci_cache[cache_key] = fsci
            analysis = ClusterFSCS(
                self.program,
                cluster=cluster.pointer_members,
                tracked=cluster.slice.vp,
                relevant=cluster.slice.statements,
                callgraph=self.callgraph,
                fsci=fsci,
                max_cond_atoms=self.config.max_cond_atoms,
                budget=self.config.fscs_budget,
            )
            self._analyses[key] = analysis
        return analysis

    @property
    def analyzed_cluster_count(self) -> int:
        """How many clusters were actually analyzed (the demand-driven
        savings the paper advertises)."""
        return len(self._analyses)

    def degraded_precision_of(self, clusters: Iterable[Cluster]
                              ) -> Optional[str]:
        """The coarsest precision level among ``clusters`` that were
        degraded by the last bulk run, or ``None`` when every one of
        them was analyzed at full FSCS precision.  Checkers use this to
        stamp diagnostics whose supporting clusters degraded."""
        pos = {id(c): i for i, c in enumerate(self.clusters)}
        levels = []
        for c in clusters:
            i = pos.get(id(c))
            if i is not None and i in self.degraded_clusters:
                levels.append(self.degraded_clusters[i])
        return coarsest(levels) if levels else None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def may_alias(self, p: Var, q: Var, loc: Loc,
                  context: Optional[Context] = None) -> bool:
        """FSCS may-alias, gated by the partition fast path."""
        if p == q:
            return True
        if not self.cascade.steensgaard.same_partition(p, q):
            return False
        shared = [c for c in self.cascade.clusters
                  if p in c.members and q in c.members]
        if not shared:
            return False
        return any(self.analysis_for(c).may_alias(p, q, loc, context)
                   for c in shared)

    def points_to(self, p: Var, loc: Loc,
                  context: Optional[Context] = None) -> FrozenSet[MemObject]:
        """Objects ``p`` may point to at ``loc`` — the union over ``p``'s
        clusters (Theorem 7)."""
        objs: Set[MemObject] = set()
        for c in self.cascade.clusters_containing([p]):
            objs.update(self.analysis_for(c).points_to(p, loc, context))
        return frozenset(objs)

    def alias_set(self, p: Var, loc: Loc,
                  context: Optional[Context] = None) -> FrozenSet[Var]:
        out: Set[Var] = set()
        for c in self.cascade.clusters_containing([p]):
            out |= self.analysis_for(c).alias_set(p, loc, context)
        return frozenset(out)

    # ------------------------------------------------------------------
    # bulk analysis (the Table 1 workload)
    # ------------------------------------------------------------------
    def analyze_all(self, clusters: Optional[Sequence[Cluster]] = None,
                    backend: str = "simulate",
                    jobs: Optional[int] = None,
                    scheduler: str = "greedy",
                    cache: "Optional[object]" = None,
                    policy: Optional[RunPolicy] = None,
                    faults: Optional[Sequence[FaultSpec]] = None
                    ) -> ParallelReport:
        """Build summaries for every cluster (or a selected subset).

        ``backend`` picks execution (``simulate``/``processes``);
        ``scheduler`` picks the part assignment (``greedy``/``lpt``);
        ``jobs`` sets the ``processes`` worker (and part) count;
        ``cache`` — a :class:`~repro.core.summary_cache.SummaryCache` or
        a directory path — skips every cluster whose sliced sub-program
        fingerprint already has a stored outcome.  Results are
        per-cluster outcome dicts (``{"stats", "points_to"}``) in input
        order.

        ``policy`` (a :class:`~repro.core.resilience.RunPolicy`) adds
        fault tolerance: per-cluster timeouts, bounded retries and —
        when ``policy.degrade`` — sound degradation down the cascade for
        clusters that still fail (their outcomes gain
        ``status``/``precision`` tags and are *not* written to the
        cache).  ``faults`` injects deterministic failures
        (:class:`~repro.core.faults.FaultSpec`) for testing the
        resilience path; faulted payloads keep their clean fingerprints.
        """
        targets = list(clusters) if clusters is not None else self.clusters
        cache_obj = SummaryCache(cache) if isinstance(cache, str) else cache
        parts = self.config.parts
        if backend == "processes" and jobs is not None:
            parts = jobs  # one worker per part

        # Payloads/fingerprints are only built when something consumes
        # them: the processes backend, the cache, or fault injection
        # (fault selectors match on fingerprints).
        payloads = fingerprints = None
        if backend == "processes" or cache_obj is not None or faults:
            subcache: Dict[int, Dict] = {}
            payloads = [build_payload(self.program, c, self.callgraph,
                                      max_cond_atoms=self.config.max_cond_atoms,
                                      budget=self.config.fscs_budget,
                                      subprogram_cache=subcache)
                        for c in targets]
            fingerprints = [payload_fingerprint(p) for p in payloads]
            if faults:
                attach_faults(payloads, fingerprints, faults)

        cached: Dict[int, Dict] = {}
        if cache_obj is not None:
            for i, fp in enumerate(fingerprints):
                outcome = cache_obj.get(fp)
                if outcome is not None:
                    cached[i] = outcome
        pending = [i for i in range(len(targets)) if i not in cached]

        runner: ParallelRunner[Dict] = ParallelRunner(
            parts=parts, backend=backend, scheduler=scheduler, jobs=jobs)
        attempts_map: Dict[int, int] = {}
        if pending:
            sub = [targets[i] for i in pending]
            if backend == "processes":
                report = runner.run_payloads(
                    [payloads[i] for i in pending], sub, policy=policy)
            elif policy is not None or faults:
                task = self._resilient_task(
                    targets, payloads, policy or RunPolicy(degrade=False),
                    attempts_map)
                report = runner.run(sub, task)
                # attempts_map is keyed by full-target index; a report
                # keys by position in the batch that actually ran (the
                # merge below maps those back through ``pending``).
                sub_pos = {i: j for j, i in enumerate(pending)}
                report.attempts = {sub_pos[i]: n
                                   for i, n in attempts_map.items()}
            else:
                report = runner.run(
                    sub, lambda c: cluster_outcome(self.analysis_for(c)))
        else:
            report = ParallelReport(part_times=[], cluster_times={},
                                    results=[], backend=backend,
                                    scheduler=scheduler)
        if not cached and len(pending) == len(targets):
            # Fast path: nothing came from the cache, indices align.
            report.cache_misses = len(pending) if cache_obj is not None else 0
            report.fingerprints = fingerprints
            if cache_obj is not None:
                for i in pending:
                    # Degraded outcomes are coarser than what a healthy
                    # run would compute: never cache them, so the next
                    # run retries at full precision.
                    if not is_degraded(report.results[i]):
                        cache_obj.put(fingerprints[i], report.results[i])
            self._note_degraded(targets, report.results)
            return report

        # Merge cached outcomes (cost 0.0 — no work was done) with the
        # freshly computed ones, restoring input-order indexing.
        results: List[object] = [None] * len(targets)
        cluster_times: Dict[int, float] = {}
        schedule = [[pending[j] for j in part] for part in report.schedule]
        attempts = {pending[j]: n for j, n in report.attempts.items()}
        for j, i in enumerate(pending):
            results[i] = report.results[j]
            cluster_times[i] = report.cluster_times.get(j, 0.0)
            if cache_obj is not None and not is_degraded(report.results[j]):
                cache_obj.put(fingerprints[i], report.results[j])
        for i, outcome in cached.items():
            results[i] = outcome
            cluster_times[i] = 0.0
        self._note_degraded(targets, results)
        return ParallelReport(
            part_times=report.part_times, cluster_times=cluster_times,
            results=results, backend=backend, scheduler=scheduler,
            schedule=schedule, wall_time=report.wall_time,
            cache_hits=len(cached), cache_misses=len(pending),
            fingerprints=fingerprints, attempts=attempts)

    # ------------------------------------------------------------------
    # resilience plumbing
    # ------------------------------------------------------------------
    def _resilient_task(self, targets: Sequence[Cluster],
                        payloads: Optional[List[Dict[str, Any]]],
                        policy: RunPolicy,
                        attempts_map: Dict[int, int]):
        """The in-process (simulate) analogue of the resilient
        worker path: fire injected faults, retry with backoff, validate,
        and degrade down the cascade on persistent failure.  Reuses the
        already-computed Steensgaard result for the coarsest rung."""
        index_of = {}
        for i, c in enumerate(targets):
            index_of.setdefault(id(c), i)

        def task(c: Cluster) -> Dict[str, Any]:
            i = index_of[id(c)]
            payload = payloads[i] if payloads is not None else None
            names = [str(p) for p in c.pointer_members]
            error = "unknown failure"
            for attempt in range(1, policy.retries + 2):
                attempts_map[i] = attempt
                if attempt > 1:
                    time.sleep(policy.delay(attempt, key=str(i)))
                try:
                    corrupt = False
                    if payload is not None and payload.get("faults"):
                        corrupt = fire_faults(payload, in_process=True)
                    outcome = corrupt_outcome() if corrupt \
                        else cluster_outcome(self.analysis_for(c))
                    if not validate_outcome(outcome, names):
                        error = "invalid outcome (corrupted result)"
                        continue
                    return outcome
                except AnalysisBudgetExceeded as exc:
                    if not policy.degrade:
                        raise
                    error = str(exc)
                    break  # deterministic; retrying cannot help
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    continue
            if not policy.degrade:
                raise ClusterExecutionError(i, error)
            return degrade_ladder(
                self.program, c, steens=self.cascade.steensgaard,
                callgraph=self.callgraph, error=error,
                attempts=attempts_map[i])

        return task

    def _note_degraded(self, targets: Sequence[Cluster],
                       results: Sequence[object]) -> None:
        """Record which of *this result's* clusters came back degraded,
        keyed by their position in :attr:`clusters` (clusters outside
        that list — ad-hoc subsets — are query-invisible and skipped)."""
        pos = {id(c): i for i, c in enumerate(self.clusters)}
        for c, outcome in zip(targets, results):
            i = pos.get(id(c))
            if i is None:
                continue
            if is_degraded(outcome):
                self.degraded_clusters[i] = str(
                    outcome.get("precision", "steensgaard"))  # type: ignore[union-attr]
            else:
                self.degraded_clusters.pop(i, None)


class BootstrapAnalyzer:
    """Entry point: configure once, run, query many times."""

    def __init__(self, program: Program,
                 config: Optional[BootstrapConfig] = None) -> None:
        self.program = program
        self.config = config or BootstrapConfig()

    def run(self) -> BootstrapResult:
        cascade = run_cascade(self.program, self.config.cascade)
        return BootstrapResult(self.program, cascade, self.config)
