"""The three workloads: ``whole``, ``demand`` and ``edit``.

Each workload runs a closed loop with one caller for ``seconds`` and
returns a :class:`Outcome`.  Untraced runs (``trace=False``) time the
program's public entry points as a user calls them and report the
end-to-end metrics.  Traced runs alternate those plain operations with
an in-process replay of the same work through the public calls
underneath them (``Steensgaard.run``, ``run_cascade``,
``analysis_for``, ``ClusterFSCS.analyze``, ``build_payload``, ...).
Each call is wrapped in a span named after the layer's module, and the
run reports the per-layer ledger.  Answer checks run after the
measurement and after peak RSS is read.

Every end-to-end metric is reported by every workload; README.md
defines what each one times in each workload.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.oracle import execute
from repro.analysis.steensgaard import Steensgaard
from repro.core import BootstrapAnalyzer, BootstrapConfig, run_cascade
from repro.core.bootstrap import BootstrapResult
from repro.core.parallel import schedule_indices
from repro.core.queries import resolve_pointer
from repro.core.shipping import (build_payload, cluster_fingerprints,
                                 payload_fingerprint)
from repro.frontend import parse_program
from repro.ir import CallStmt, Loc
from repro.ir.serialize import program_from_dict
from repro.server import ServerConfig
from repro.server.client import ServerClient, ServerError
from repro.server.store import ClusterStore, FileStore

import inputs
from spans import Tracer

#: Per-workload sizes.  ``full`` is the benchmark proper; ``smoke``
#: is the self-test's tiny size.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "whole": {
        "full": {"program": "sendmail", "scale": 0.005, "bootstraps": 1,
                 "queries": 100, "min_queries": 1000, "oracle_paths": 400},
        "smoke": {"program": "sendmail", "scale": 0.001, "bootstraps": 1,
                  "queries": 10, "min_queries": 0, "oracle_paths": 200},
    },
    "demand": {
        "full": {"program": "mt_daapd", "scale": 0.1, "bootstraps": 3,
                 "queries": 50, "min_queries": 1000, "oracle_paths": 400},
        "smoke": {"program": "mt_daapd", "scale": 0.01, "bootstraps": 2,
                  "queries": 10, "min_queries": 0, "oracle_paths": 200},
    },
    "edit": {
        "full": {"pointers": 500, "sessions": 3, "preloads": 4, "alias": 20,
                 "points_to": 10, "min_queries": 1000},
        "smoke": {"pointers": 80, "sessions": 2, "preloads": 1, "alias": 3,
                  "points_to": 3, "min_queries": 0},
    },
}

#: Set-up samples (fresh decodes of the program) per repetition of
#: ``whole`` and ``demand``.
SETUPS = 5

#: Operations each variant gets at least, whatever ``seconds``.  Full
#: runs also continue until they hold ``min_queries`` query latencies,
#: so that p99 has at least ten samples beyond it.
MIN_REPS = 2

#: The host-speed probe: the benchmark's own small pointer
#: propagation (points-to sets pushed along the copy edges of a fixed
#: random graph until nothing changes), timed with the collector off
#: between operations.  Its time on a quiet host of the kind the
#: benchmark was written on is ``PROBE_REFERENCE_S``.  run.py scales
#: every reported time by ``PROBE_REFERENCE_S / median(probe times)``
#: (README.md, "Reference seconds"): the host's speed drifts by a
#: quarter for minutes at a time, and the program can neither run nor
#: change this code.
PROBE_NODES = 3000
PROBE_REFERENCE_S = 0.007


def probe_graph() -> Dict[int, List[int]]:
    """The probe's copy graph: ``PROBE_NODES`` nodes, as many random
    edges, the same in every run."""
    rng = random.Random(5)
    succ: Dict[int, List[int]] = {}
    for _ in range(PROBE_NODES):
        src, dst = rng.randrange(PROBE_NODES), rng.randrange(PROBE_NODES)
        succ.setdefault(src, []).append(dst)
    return succ


#: Per-layer span names (module names) and the metric each feeds.
LAYER_SPANS = {
    "frontend.parse": "frontend.parse_s",
    "analysis.steensgaard": "analysis.steensgaard.s",
    "core.cascade": "core.cascade.s",
    "ir.callgraph": "ir.callgraph.s",
    "analysis.fsci": "analysis.fsci.s",
    "analysis.summaries": "analysis.summaries.s",
    "analysis.query": "analysis.query.s",
    "core.shipping.payload": "core.shipping.payload_s",
    "core.shipping.fingerprint": "core.shipping.fingerprint_s",
    "server.store": "server.store.s",
}


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: end-to-end metric -> value (untraced runs)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: per-layer metric -> value (traced runs)
    layers: Dict[str, float] = field(default_factory=dict)
    #: free-form evidence printed before the result line
    details: Dict[str, Any] = field(default_factory=dict)
    #: the traced run's spans, written out when the run ends
    tracer: Optional[Tracer] = None
    #: seconds of each host-speed probe taken during the run
    probes: List[float] = field(default_factory=list)
    probe_succ: Dict[int, List[int]] = field(default_factory=probe_graph)
    #: The measured values of the end-to-end timings, whose ``metrics``
    #: values are in reference units already (:meth:`bracketed`).
    unscaled: Dict[str, float] = field(default_factory=dict)

    def probe(self) -> None:
        """Time the probe's propagation once (see ``PROBE_NODES``)."""
        gc.disable()
        try:
            t0 = time.perf_counter()
            pts = {v: {v} for v in range(0, PROBE_NODES, 7)}
            work = list(pts)
            while work:
                v = work.pop()
                facts = pts[v]
                for w in self.probe_succ.get(v, ()):
                    known = pts.get(w)
                    if known is None:
                        pts[w] = set(facts)
                        work.append(w)
                    elif not facts <= known:
                        known |= facts
                        work.append(w)
            self.probes.append(time.perf_counter() - t0)
        finally:
            gc.enable()

    def bracketed(self, seconds: Sequence[float]) -> List[float]:
        """Times of operations run between the last two probes, in
        reference seconds: scaled by the mean of those two probes.

        The host switches between speeds for a second or more at a
        time, so every timed operation (or batch of queries) is scaled
        by the probes right around it rather than by the run's median
        probe (README.md, "Reference seconds")."""
        speed = 2 * PROBE_REFERENCE_S / (self.probes[-1] + self.probes[-2])
        return [value * speed for value in seconds]

    def host_speed(self) -> float:
        """How many times faster than the reference the host ran: the
        factor that turns this run's seconds into reference seconds."""
        return PROBE_REFERENCE_S / median(self.probes)

    def attempt(self, what: str, fn: Callable[[], Any]) -> Any:
        """Run one operation, counting it; a raised error is a failed
        operation and yields ``None``."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - counted, reported
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(f"check failed: {message}")


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def query_metrics(latencies: Sequence[float]) -> Dict[str, float]:
    total = sum(latencies)
    return {
        "query_p50_ms": 1000.0 * percentile(latencies, 50),
        "query_p99_ms": 1000.0 * percentile(latencies, 99),
        "queries_per_s": len(latencies) / total if total > 0 else 0.0,
    }


def outcome_digest(outcomes: Sequence[Dict[str, Any]]) -> str:
    blob = json.dumps([o["points_to"] for o in outcomes], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def exit_loc(program: Any) -> Loc:
    return Loc(program.entry, program.cfg_of(program.entry).exit)


def layer_ledger(tracer: Tracer, traces: Sequence[int]) -> Dict[str, float]:
    """Per-layer self seconds summed over one operation's root spans,
    with the share of their time the layer spans cover."""
    out = {metric: 0.0 for metric in LAYER_SPANS.values()}
    total = uncovered = 0.0
    for trace in traces:
        for name, seconds in tracer.self_times(trace).items():
            if name == "<root>":
                uncovered += seconds
            else:
                out[LAYER_SPANS[name]] += seconds
        total += tracer.duration(trace)
    out["trace.coverage"] = (total - uncovered) / total if total else 0.0
    out["trace.seconds"] = total
    return out


def ledger_medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Median of every per-layer figure over the traced operations."""
    keys = sorted({k for row in rows for k in row})
    return {k: median([row.get(k, 0.0) for row in rows]) for k in keys}


# ----------------------------------------------------------------------
# the in-process replay shared by the traced runs
# ----------------------------------------------------------------------
def replay_bootstrap(tracer: Tracer, program: Any,
                     config: BootstrapConfig) -> BootstrapResult:
    """``BootstrapAnalyzer(program, config).run()``, one layer at a
    time."""
    with tracer.span("analysis.steensgaard"):
        steens = Steensgaard(program).run()
    with tracer.span("core.cascade"):
        cascade = run_cascade(program, config.cascade, steens=steens)
    with tracer.span("ir.callgraph"):
        return BootstrapResult(program, cascade, config)


def replay_cluster(tracer: Tracer, result: BootstrapResult, cluster: Any,
                   touched: Dict[int, Any]) -> Dict[str, Any]:
    """``cluster_outcome(result.analysis_for(cluster))``, one layer at a
    time: FSCI (shared by siblings), the exit-summary walk, then the
    exit points-to queries."""
    with tracer.span("analysis.fsci"):
        analysis = result.analysis_for(cluster)
        analysis.fsci
    touched[id(analysis)] = analysis
    with tracer.span("analysis.summaries"):
        stats = analysis.analyze()
    loc = exit_loc(result.program)
    with tracer.span("analysis.query"):
        points_to = {str(p): sorted(str(o) for o in analysis.points_to(p, loc))
                     for p in sorted(analysis.cluster, key=str)}
    return {"stats": stats, "points_to": points_to}


def replay_may_alias(tracer: Tracer, result: BootstrapResult, p: Any,
                     q: Any, loc: Loc, touched: Dict[int, Any]) -> bool:
    """``result.may_alias(p, q, loc)``: the partition fast path, then
    each shared cluster's FSCI (paid on first touch) and alias
    origins."""
    if p == q:
        return True
    if not result.cascade.steensgaard.same_partition(p, q):
        return False
    for cluster in result.clusters:
        if p in cluster.members and q in cluster.members:
            with tracer.span("analysis.fsci"):
                analysis = result.analysis_for(cluster)
                analysis.fsci
            touched[id(analysis)] = analysis
            with tracer.span("analysis.query"):
                if analysis.may_alias(p, q, loc):
                    return True
    return False


def batch_counts(result: BootstrapResult, outcomes: Sequence[Dict],
                 touched: Dict[int, Any]) -> Dict[str, float]:
    """Work counters of one operation.  Batch outcomes carry the summary
    statistics; query mode reads the touched engines' step counts (its
    exit summaries are built lazily and not counted)."""
    clusters = result.clusters
    fsci_seen = {id(a.fsci): a.fsci.iterations for a in touched.values()}
    if outcomes:
        steps = sum(o["stats"]["engine_steps"] for o in outcomes)
        entries = sum(o["stats"]["summary_entries"] for o in outcomes)
    else:
        steps = sum(a.engine.steps for a in touched.values())
        entries = 0
    return {
        "analysis.summaries.engine_steps": float(steps),
        "analysis.summaries.entries": float(entries),
        "analysis.fsci.passes": float(len(fsci_seen)),
        "analysis.fsci.iterations": float(sum(fsci_seen.values())),
        "frontend.ir_statements": float(sum(
            len(fn.cfg) for fn in result.program.functions.values())),
        "core.cascade.clusters": float(len(clusters)),
        "core.cascade.max_cluster": float(result.cascade.max_cluster_size()),
        "core.bootstrap.analyzed_frac":
            result.analyzed_cluster_count / len(clusters) if clusters else 0.0,
    }


# ----------------------------------------------------------------------
# whole and demand: the corpus programs, in batch and in demand mode
# ----------------------------------------------------------------------
def analyze_plain(program: Any, config: BootstrapConfig, batch: bool
                  ) -> Tuple[BootstrapResult, List[Dict[str, Any]]]:
    """The user's call: ``run()``, then ``analyze_all()`` in batch mode."""
    result = BootstrapAnalyzer(program, config).run()
    return result, result.analyze_all().results if batch else []


def analyze_replayed(tracer: Tracer, program: Any, config: BootstrapConfig,
                     batch: bool, touched: Dict[int, Any]
                     ) -> Tuple[BootstrapResult, List[Dict[str, Any]]]:
    """:func:`analyze_plain` one layer at a time, clusters in the order
    ``analyze_all``'s default (simulated, greedy) schedule runs them."""
    result = replay_bootstrap(tracer, program, config)
    outcomes: List[Any] = []
    if batch:
        outcomes = [None] * len(result.clusters)
        for part in schedule_indices(result.clusters, config.parts):
            for i in part:
                outcomes[i] = replay_cluster(tracer, result,
                                             result.clusters[i], touched)
    return result, outcomes


def run_corpus(workload: str, seed: int, seconds: float, trace: bool,
               size: str) -> Outcome:
    """``whole`` (batch: ``run()`` + ``analyze_all()``, then queries over
    the resident analyses) or ``demand`` (lazy: ``run()`` only, then
    cold queries that analyze the clusters they touch)."""
    cfg = SIZES[workload][size]
    batch = workload == "whole"
    out = Outcome()
    samples: Dict[str, List[float]] = {"setup": [], "analyze": [],
                                       "reanalyze": [], "queries": [],
                                       "queries_measured": []}
    #: the same samples in reference seconds, scaled by their probes
    scaled: Dict[str, List[float]] = {"setup": [], "analyze": [],
                                      "reanalyze": []}
    rng = random.Random(seed)
    config = BootstrapConfig()
    tracer = out.tracer = Tracer()
    answers: Dict[str, List[Tuple[Any, Any, Loc, bool]]] = {
        "base": [], "edited": []}
    digests: Dict[str, set] = {"base": set(), "edited": set()}
    # The inputs depend only on the seed: build them once, and keep them
    # as compact JSON so that little of them stays resident.
    encoded = {variant: json.dumps(data, separators=(",", ":"))
               for variant, data in inputs.corpus_variants(
                   cfg["program"], cfg["scale"], seed).items()}
    ledger_rows: List[Dict[str, float]] = []
    untraced_e2e: List[float] = []

    start = time.perf_counter()
    rep = 0
    while rep < 4 * MIN_REPS or time.perf_counter() - start < seconds \
            or not trace and len(samples["queries"]) < cfg["min_queries"]:
        # Reps alternate the base program and its one-function edit;
        # traced runs alternate pairs of plain and replayed reps.
        variant = ("base", "edited")[rep % 2]
        traced = trace and (rep // 2) % 2 == 1
        rep += 1
        out.probe()
        # Set-up, repeated every rep so that its samples see the same
        # host as the probes: decode a fresh Program from the inputs.
        # A decode takes a few ms, so each rep takes several samples and
        # keeps the last Program.
        gc.collect()
        setups = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            program = decode(encoded[variant])
            setups.append(time.perf_counter() - t0)
        out.probe()
        samples["setup"].extend(setups)
        scaled["setup"].extend(out.bracketed(setups))
        analyses = []
        roots: List[int] = []
        touched: Dict[int, Any] = {}
        # A lazy bootstrap takes ~20 ms, so demand analyzes several fresh
        # programs per rep for enough samples; the last one is queried.
        for bootstrap in range(1 if traced else cfg["bootstraps"]):
            if bootstrap:
                program = decode(encoded[variant])
            gc.collect()
            t0 = time.perf_counter()
            if traced:
                with tracer.span(f"{workload}.analyze"):
                    roots.append(len(tracer.spans) - 1)
                    result, outcomes = analyze_replayed(
                        tracer, program, config, batch, touched)
                out.attempted += 1
            else:
                pair = out.attempt("analyze", lambda: analyze_plain(
                    program, config, batch))
                if pair is None:
                    break
                result, outcomes = pair
                analyses.append(time.perf_counter() - t0)
        else:
            elapsed = time.perf_counter() - t0
            out.probe()
            kind = "analyze" if variant == "base" else "reanalyze"
            samples[kind].extend(analyses)
            scaled[kind].extend(out.bracketed(analyses))
            if batch:
                digests[variant].add(outcome_digest(outcomes))

            queries = inputs.alias_queries(result, rng, cfg["queries"])
            if traced:
                with tracer.span(f"{workload}.queries"):
                    roots.append(len(tracer.spans) - 1)
                    for p, q, loc in queries:
                        answers[variant].append((p, q, loc, replay_may_alias(
                            tracer, result, p, q, loc, touched)))
                out.attempted += len(queries)
                row = layer_ledger(tracer, roots)
                row.update(batch_counts(result, outcomes, touched))
                row["variant_base"] = float(variant == "base")
                ledger_rows.append(row)
            else:
                latencies = []
                for p, q, loc in queries:
                    t0 = time.perf_counter()
                    verdict = out.attempt(
                        "query", lambda: result.may_alias(p, q, loc))
                    latencies.append(time.perf_counter() - t0)
                    answers[variant].append((p, q, loc, verdict))
                    if not batch:
                        # Cold queries set the tail one first touch at
                        # a time: each is scaled by the probes around it.
                        out.probe()
                        samples["queries"].extend(
                            out.bracketed(latencies[-1:]))
                if batch:
                    out.probe()
                    samples["queries"].extend(out.bracketed(latencies))
                samples["queries_measured"].extend(latencies)
                if variant == "base":
                    untraced_e2e.append(elapsed + sum(latencies))
            del result, outcomes
        del program
        out.probe()

    rss = peak_rss_mb()
    if not trace:
        out.metrics = {
            "setup_s": median(scaled["setup"]),
            "analyze_s": median(scaled["analyze"]),
            "reanalyze_s": median(scaled["reanalyze"]),
            "peak_rss_mb": rss,
            **query_metrics(samples["queries"]),
        }
        out.unscaled = {
            "setup_s": median(samples["setup"]),
            "analyze_s": median(samples["analyze"]),
            "reanalyze_s": median(samples["reanalyze"]),
            **query_metrics(samples["queries_measured"]),
        }
    else:
        base_rows = [r for r in ledger_rows if r["variant_base"]]
        layers = ledger_medians(base_rows)
        layers["trace.overhead_s"] = layers["trace.seconds"] \
            - median(untraced_e2e)
        out.layers = layers
        out.details["ledger_rows"] = ledger_rows
    out.details.update({
        "reps": rep, "query_samples": len(samples["queries"]),
        "digest": sorted(digests["base"]),
        "samples": {k: v for k, v in samples.items()
                    if not k.startswith("queries")}})

    for variant, text in encoded.items():
        check_against_oracle(out, variant, text, config, batch,
                             cfg["oracle_paths"], answers[variant],
                             digests[variant])
    return out


def decode(text: str) -> Any:
    """A fresh ``Program`` from its serialized form."""
    return program_from_dict(json.loads(text))


def check_against_oracle(out: Outcome, variant: str, text: str,
                         config: BootstrapConfig, batch: bool, paths: int,
                         answers: Sequence[Tuple], digests: set) -> None:
    """Soundness against bounded concrete execution.

    Batch runs: the program is analyzed once more, untimed, and its
    outcome digest must equal the timed repetitions' one, so the
    summaries checked here are the ones that were timed.  Every fact the
    oracle observes at the exit of a function is in each cluster's
    points-to set there, for the functions of the cluster's slice.  The
    corpus programs recurse, so bounded paths never reach ``main``'s
    exit, but they do return from many callees; a run in which no exit
    fact was compared fails.  All runs: every alias the oracle observes
    at a query's location is answered true."""
    program = decode(text)
    oracle = execute(program, max_steps=300, max_paths=paths)
    exit_facts = 0
    if batch:
        result, outcomes = analyze_plain(decode(text), config, True)
        digests.add(outcome_digest(outcomes))
        by_name = {str(p): p for p in program.pointers}
        for cluster in result.clusters:
            analysis = result.analysis_for(cluster)
            for func in sorted(cluster.slice.functions()):
                loc = Loc(func, result.program.cfg_of(func).exit)
                for pointer in sorted(analysis.cluster, key=str):
                    seen = {str(o) for o in oracle.pts_after(
                        loc, by_name[str(pointer)])}
                    if not seen:
                        continue
                    exit_facts += len(seen)
                    found = {str(o) for o in analysis.points_to(pointer, loc)}
                    out.check(seen <= found,
                              f"{variant}: points-to set of {pointer} at "
                              f"{loc} misses {sorted(seen - found)}")
        out.check(exit_facts > 0,
                  f"{variant}: the oracle returned from no function of a "
                  f"cluster's slice, so no exit fact was compared")
    out.check(len(digests) <= 1,
              f"{variant}: outcome digest differs between repetitions")
    observed = 0
    for p, q, at, verdict in answers:
        # At a call site the oracle records the state before the call,
        # while a query's answer holds after it (callee effects
        # included): there is no concrete fact to compare with.
        if isinstance(program.stmt_at(at), CallStmt):
            continue
        if oracle.aliased_at(at, p, q):
            observed += 1
            out.check(verdict is True,
                      f"{variant}: may_alias({p}, {q}, {at}) answered "
                      f"{verdict} but the oracle saw them aliased")
    out.details.setdefault("oracle", {})[variant] = {
        "paths": oracle.paths_explored, "exit_facts_checked": exit_facts,
        "aliased_queries_checked": observed, "queries": len(answers)}


# ----------------------------------------------------------------------
# edit: an IDE-style daemon session of one-function edits
# ----------------------------------------------------------------------
class Daemon:
    """``repro serve FILE --socket SOCK --no-watch`` as a child process.

    ``started`` is the seconds from spawn until the daemon announced its
    socket (after preloading FILE).  ``close`` asks it to shut down
    (kills it after 30 s, or at once when it never started), reaps it
    and records its peak RSS."""

    def __init__(self, root: str, path: str, socket_path: str,
                 log_path: str, timeout: float = 150.0) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.socket_path = socket_path
        self.peak_rss_mb = 0.0
        self._log = open(log_path, "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", path,
             "--socket", socket_path, "--no-watch"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log)
        try:
            self._await_listening(timeout)
        except BaseException:
            self.close()
            raise
        self.started = time.perf_counter() - t0

    def _await_listening(self, timeout: float) -> None:
        import select
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        seen = b""
        while b"listening on" not in seen:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("daemon did not start listening")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(
                        f"daemon exited during start-up: {seen!r}")
                seen += chunk

    def close(self, client: Optional[ServerClient] = None) -> None:
        try:
            if client is None:
                self.proc.kill()  # failed start-up: nothing to drain
            else:
                try:
                    client.shutdown()
                except (OSError, ServerError):
                    pass  # already gone; reaped (or killed) below
            deadline = time.monotonic() + 30.0
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    self.proc.kill()
                    pid, status, usage = os.wait4(self.proc.pid, 0)
                    break
                time.sleep(0.02)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
        finally:
            self.proc.stdout.close()
            self._log.close()


def replay_reload(tracer: Tracer, source: str, path: str,
                  config: BootstrapConfig, store: ClusterStore
                  ) -> Tuple[int, Dict[str, float]]:
    """What the daemon's ``invalidate`` does for one file, one layer at a
    time: parse, bootstrap, build and fingerprint every cluster's
    payload, look each up in the cluster store, analyze the misses.
    Returns the root span and the operation's counters."""
    with tracer.span("edit.reload"):
        root = len(tracer.spans) - 1
        with tracer.span("frontend.parse"):
            program = parse_program(source, entry="main", path=path)
        result = replay_bootstrap(tracer, program, config)
        subprograms: Dict[Any, Any] = {}
        with tracer.span("core.shipping.payload"):
            payloads = [build_payload(program, c, result.callgraph,
                                      max_cond_atoms=config.max_cond_atoms,
                                      budget=config.fscs_budget,
                                      subprogram_cache=subprograms)
                        for c in result.clusters]
        with tracer.span("core.shipping.fingerprint"):
            fingerprints = [payload_fingerprint(p) for p in payloads]
        with tracer.span("server.store"):
            pending = [i for i, fp in enumerate(fingerprints)
                       if store.get(fp) is None]
        missed = [result.clusters[i] for i in pending]
        touched: Dict[int, Any] = {}
        outcomes = []
        for part in schedule_indices(missed, config.parts):
            for j in part:
                outcome = replay_cluster(tracer, result, missed[j], touched)
                store.put(fingerprints[pending[j]], outcome)
                outcomes.append(outcome)
    counts = batch_counts(result, outcomes, touched)
    counts["core.shipping.payload_bytes"] = float(sum(
        len(json.dumps(p, separators=(",", ":"))) for p in payloads))
    counts["server.store.hit_ratio"] = \
        1.0 - len(pending) / len(fingerprints) if fingerprints else 0.0
    counts["hits"] = float(len(fingerprints) - len(pending))
    counts["misses"] = float(len(pending))
    return root, counts


def seed_stores(source: str, path: str, config: BootstrapConfig,
                *stores: ClusterStore) -> None:
    """Fill in-process stores with the fingerprints the daemon's preload
    stored, so in-process reloads hit and miss exactly as the daemon's."""
    program = parse_program(source, entry="main", path=path)
    result = BootstrapAnalyzer(program, config).run()
    for fingerprint in cluster_fingerprints(
            program, result.clusters, result.callgraph,
            max_cond_atoms=config.max_cond_atoms, budget=config.fscs_budget):
        for store in stores:
            store.put(fingerprint, {"seeded": True})


def time_preload(out: Outcome, config: ServerConfig, path: str,
                 clusters: int, samples: List[float],
                 scaled: List[float]) -> None:
    """One ``setup_s`` sample of ``edit``: the daemon's preload of the
    base source, a cold ``FileStore.get`` (parse, bootstrap, every
    cluster's payload, fingerprint and analysis), run in-process once
    the daemon has exited.  Timed in the daemon it spread 0.2 across
    runs even as a median of seven starts: a fresh process runs at a
    speed the probes do not see (README.md, "Isolation")."""
    out.probe()
    gc.collect()
    t0 = time.perf_counter()
    state = out.attempt("preload", lambda: FileStore(config).get(path))
    seconds = time.perf_counter() - t0
    out.probe()
    if state is not None:
        samples.append(seconds)
        scaled.extend(out.bracketed([seconds]))
        out.check(len(state.result.clusters) == clusters,
                  f"in-process preload found {len(state.result.clusters)} "
                  f"clusters, the daemon {clusters}")


def run_edit(seed: int, seconds: float, trace: bool, size: str,
             root: str) -> Outcome:
    cfg = SIZES["edit"][size]
    out = Outcome()
    work = os.path.join(root, ".bench_work")
    rng = random.Random(seed)
    base_source = inputs.edit_source(cfg["pointers"], seed)
    preload_path = os.path.join(work, f"preload-{seed}.c")
    with open(preload_path, "w") as handle:
        handle.write(base_source)
    n_webs = inputs.web_count(base_source)
    webs = list(range(n_webs))
    rng.shuffle(webs)
    server_config = ServerConfig(watch=False)
    config = server_config.bootstrap_config()
    tracer = out.tracer = Tracer()
    samples: Dict[str, List[float]] = {
        "setup": [], "analyze": [], "reanalyze": [], "queries": [],
        "queries_measured": [], "server": [], "wait_ms": [], "rtt": [],
        "rss": [], "plain": [], "spawn": [], "preload": []}
    #: the timings in reference seconds, scaled by the probes around them
    scaled: Dict[str, List[float]] = {"setup": [], "analyze": [],
                                      "reanalyze": []}
    edits: List[Dict[str, Any]] = []
    ledger_rows: List[Dict[str, float]] = []

    for session in range(cfg["sessions"]):
        path = os.path.join(work, f"edit-{seed}-{session}.c")
        with open(path, "w") as handle:
            handle.write(base_source)
        socket_path = os.path.relpath(os.path.join(work, f"d{session}.sock"))
        daemon = Daemon(root, path, socket_path,
                        os.path.join(work, f"daemon-{session}.log"))
        session_edits: List[Dict[str, Any]] = []
        client = None
        try:
            client = ServerClient(socket_path=socket_path, timeout=150.0)
            # The daemon's own preload seconds, from its ``stats``; the
            # rest of its start (interpreter, imports, socket) is
            # ``server.spawn_s``.
            preload = client.stats()["files"]["detail"][0]
            samples["preload"].append(preload["last_refresh"]["seconds"])
            samples["spawn"].append(daemon.started - samples["preload"][-1])
            server_seconds = 0.0
            source = base_source
            start = time.perf_counter()
            while webs and (
                    len(session_edits) < MIN_REPS
                    or time.perf_counter() - start < seconds / cfg["sessions"]
                    or not trace and (len(edits) + len(session_edits))
                    * n_webs < cfg["min_queries"]
                    * (session + 1) / cfg["sessions"]):
                out.probe()
                source = inputs.edit_web(source, webs.pop())
                with open(path, "w") as handle:
                    handle.write(source)
                t0 = time.perf_counter()
                reply = out.attempt("invalidate",
                                    lambda: client.invalidate(path))
                latency = time.perf_counter() - t0
                out.probe()
                if reply is None:
                    continue
                total = client.stats()["requests"]["invalidate"]["seconds"]
                own = total - server_seconds
                server_seconds = total
                samples["reanalyze"].append(latency)
                scaled["reanalyze"].extend(out.bracketed([latency]))
                samples["server"].append(own)
                samples["wait_ms"].append(1000.0 * (latency - own))

                record = {"source": source, "reply": reply, "alias": [],
                          "points_to": [], "latency": latency, "own": own}
                for web in rng.sample(range(n_webs), cfg["alias"]):
                    pair = rng.sample(inputs.web_pointers(source, web), 2)
                    answer = out.attempt(
                        "alias", lambda: client.alias(path, *pair))
                    if answer is not None:
                        record["alias"].append((*pair, answer["may_alias"]))
                rtts = []
                for _ in range(cfg["points_to"]):
                    name = rng.choice(inputs.web_pointers(
                        source, rng.randrange(n_webs)))
                    t0 = time.perf_counter()
                    answer = out.attempt(
                        "points_to", lambda: client.points_to(path, name))
                    rtts.append(time.perf_counter() - t0)
                    if answer is not None:
                        record["points_to"].append((name, answer["objects"]))
                record["rtt"] = median(rtts)
                samples["rtt"].append(record["rtt"])
                session_edits.append(record)
        finally:
            daemon.close(client)
            if client is not None:
                client.close()
        samples["rss"].append(daemon.peak_rss_mb)

        # The preloads are spread evenly over the session's records, so
        # that they see the same stretches of the host's speed as the
        # one-shot analyses and the probes.
        preload_once = functools.partial(
            time_preload, out, server_config, preload_path,
            preload["clusters"], samples["setup"], scaled["setup"])
        if not session_edits:
            for _ in range(cfg["preloads"]):
                preload_once()

        # The no-daemon baseline, which the daemon's answers are checked
        # against: a one-shot parse and bootstrap of each edited source,
        # then cold queries on distinct webs.  It runs once the daemon
        # has exited, so nothing else runs beside it.  Query latency is
        # timed here, in-process, because over the socket scheduler
        # wake-ups swamp a few ms of work.
        # Traced runs also repeat each reload in-process, untraced and
        # then replayed with spans; the difference is the tracing
        # overhead.
        plain_store, replay_store = ClusterStore(), ClusterStore()
        if trace:
            seed_stores(base_source, path, config, plain_store, replay_store)
        for i, record in enumerate(session_edits):
            for _ in range((i + 1) * cfg["preloads"] // len(session_edits)
                           - i * cfg["preloads"] // len(session_edits)):
                preload_once()
            source = record.pop("source")
            out.probe()
            gc.collect()
            t0 = time.perf_counter()
            program = parse_program(source, entry="main")
            reference = BootstrapAnalyzer(program, config).run()
            analyzed = time.perf_counter() - t0
            out.probe()
            samples["analyze"].append(analyzed)
            scaled["analyze"].extend(out.bracketed([analyzed]))
            at = exit_loc(program)
            latencies = []
            for web in rng.sample(range(n_webs), n_webs):
                p, q = (resolve_pointer(program, name) for name in
                        rng.sample(inputs.web_pointers(source, web), 2))
                t0 = time.perf_counter()
                out.attempt("query", lambda: reference.may_alias(p, q, at))
                latencies.append(time.perf_counter() - t0)
            out.probe()
            samples["queries"].extend(out.bracketed(latencies))
            samples["queries_measured"].extend(latencies)
            record["expected_alias"] = [reference.may_alias(
                resolve_pointer(program, p), resolve_pointer(program, q),
                at) for p, q, _ in record["alias"]]
            record["expected_points_to"] = [sorted(
                str(o) for o in reference.points_to(
                    resolve_pointer(program, name), at))
                for name, _ in record["points_to"]]
            del program, reference

            if trace:
                gc.collect()
                t0 = time.perf_counter()
                BootstrapAnalyzer(parse_program(
                    source, entry="main", path=path), config).run(
                ).analyze_all(cache=plain_store)
                samples["plain"].append(time.perf_counter() - t0)
                gc.collect()
                trace_root, counts = replay_reload(tracer, source, path,
                                                   config, replay_store)
                row = layer_ledger(tracer, [trace_root])
                row.update(counts)
                row["server.invalidate_s"] = record["own"]
                row["server.wait_ms"] = 1000.0 * (record["latency"]
                                                  - record["own"])
                row["server.rtt_ms"] = 1000.0 * record["rtt"]
                ledger_rows.append(row)
                reply = record["reply"]
                agreed = counts["hits"] == reply["reused"] \
                    and counts["misses"] == reply["reanalyzed"]
                out.details["replay_agreed"] = \
                    out.details.get("replay_agreed", 0) + agreed
                out.check(agreed,
                          f"replay hit/miss {counts['hits']:.0f}/"
                          f"{counts['misses']:.0f} != daemon "
                          f"{reply['reused']}/{reply['reanalyzed']}")
        edits.extend(session_edits)

    # Checks: each invalidate re-analyzes few clusters, and every daemon
    # answer equals the one-shot analysis of the same source.
    for record in edits:
        reply = record["reply"]
        out.check(1 <= reply["reanalyzed"] <= max(2, reply["clusters"] // 10)
                  and reply["reanalyzed"] + reply["reused"]
                  == reply["clusters"],
                  f"invalidate re-analyzed {reply['reanalyzed']} of "
                  f"{reply['clusters']} clusters")
        for (p, q, verdict), expected in zip(record["alias"],
                                             record["expected_alias"]):
            out.check(verdict == expected,
                      f"daemon alias({p}, {q}) = {verdict}, one-shot "
                      f"analysis says {expected}")
        for (name, objects), expected in zip(record["points_to"],
                                             record["expected_points_to"]):
            out.check(objects == expected,
                      f"daemon points_to({name}) = {objects}, one-shot "
                      f"analysis says {expected}")

    if not trace:
        out.metrics = {
            "setup_s": median(scaled["setup"]),
            "analyze_s": median(scaled["analyze"]),
            "reanalyze_s": median(scaled["reanalyze"]),
            "peak_rss_mb": max(samples["rss"]),
            **query_metrics(samples["queries"]),
        }
        out.unscaled = {
            "setup_s": median(samples["setup"]),
            "analyze_s": median(samples["analyze"]),
            "reanalyze_s": median(samples["reanalyze"]),
            **query_metrics(samples["queries_measured"]),
        }
    else:
        layers = ledger_medians(ledger_rows)
        layers["trace.overhead_s"] = layers["trace.seconds"] \
            - median(samples["plain"])
        layers["server.spawn_s"] = median(samples["spawn"])
        layers["server.preload_s"] = median(samples["preload"])
        out.layers = layers
        out.details["ledger_rows"] = ledger_rows
    out.details.update({
        "edits": len(edits), "query_samples": len(samples["queries"]),
        "server_invalidate_s": median(samples["server"]),
        "wait_ms": median(samples["wait_ms"]),
        "rtt_ms": 1000.0 * median(samples["rtt"]),
        "samples": {k: samples[k] for k in ("setup", "spawn", "preload",
                                            "analyze", "reanalyze",
                                            "server")},
        "clusters": edits[0]["reply"]["clusters"] if edits else 0})
    return out
