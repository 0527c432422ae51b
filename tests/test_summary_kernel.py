"""The summary-walk kernel against its frozenset oracle.

:class:`repro.analysis.SummaryEngine` walks interned terms and
constraints and solves callees first;
:class:`tests.reference.ReferenceSummaryEngine` is the dataclass engine
it replaced.  Both compute the least fixpoint of the same equations, so
``exit_summary`` and ``backward_from`` must return equal frozensets for
every function, pointer and location — on all twenty corpus programs
and on generated ones, with path sensitivity on and off, with and
without an FSCI oracle, and with ``max_cond_atoms=2`` so the constraint
cap is exercised.  The step count must not depend on the hash seed.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import FSCI, DerefTerm, ObjTerm, SummaryEngine
from repro.bench import corpus_configs, generate
from repro.core import BootstrapAnalyzer, BootstrapConfig
from repro.ir import Loc

from .reference import ReferenceSummaryEngine
from .test_properties import programs

#: Small enough that all twenty corpus programs stay CI-friendly.
SCALE = 0.004

CORPUS_NAMES = [cfg.name for cfg in corpus_configs(scale=SCALE)]

#: (path_sensitive, with an FSCI oracle)
MODES = [(True, True), (True, False), (False, True), (False, False)]
MODE_IDS = ["ps-fsci", "ps-nofsci", "nops-fsci", "nops-nofsci"]


@functools.lru_cache(maxsize=None)
def _bootstrapped(name):
    cfg = next(c for c in corpus_configs(scale=SCALE) if c.name == name)
    return BootstrapAnalyzer(generate(cfg).program, BootstrapConfig()).run()


def _engines(program, **kw):
    kw.setdefault("max_cond_atoms", 2)
    return SummaryEngine(program, **kw), ReferenceSummaryEngine(program, **kw)


def _assert_agree(program, kern, ref, pointers, locs):
    """Queries first, on the cold kernel engine, so its query walks
    suspend on unsolved callees; then every exit summary."""
    ptrs = sorted(pointers, key=str)
    for loc in locs:
        for p in ptrs:
            for after in (True, False):
                assert kern.backward_from(loc, ObjTerm(p), after=after) == \
                    ref.backward_from(loc, ObjTerm(p), after=after), \
                    (loc, p, after)
    for func in sorted(program.functions):
        assert kern.is_transparent(func) == ref.is_transparent(func)
        if kern.is_transparent(func):
            continue
        for p in ptrs:
            for term in (ObjTerm(p), DerefTerm(p)):
                assert kern.exit_summary(func, term) == \
                    ref.exit_summary(func, term), (func, term)


class TestCorpusDifferential:
    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_engines_agree(self, name, mode):
        path_sensitive, with_fsci = mode
        result = _bootstrapped(name)
        program = result.program
        for cluster in result.clusters:
            analysis = result.analysis_for(cluster)
            kern, ref = _engines(
                program, fsci=analysis.fsci if with_fsci else None,
                relevant=analysis.relevant, callgraph=result.callgraph,
                path_sensitive=path_sensitive)
            _assert_agree(program, kern, ref, analysis.cluster,
                          sorted(analysis.relevant))


class TestGeneratedDifferential:
    @given(program=programs())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_engines_agree(self, program):
        fsci = FSCI(program).run()
        locs = [Loc(name, idx) for name, fn in sorted(program.functions.items())
                for idx in fn.cfg.nodes()]
        for path_sensitive, with_fsci in MODES:
            for cap in (2, 4):
                kern, ref = _engines(
                    program, fsci=fsci if with_fsci else None,
                    path_sensitive=path_sensitive, max_cond_atoms=cap)
                _assert_agree(program, kern, ref, program.pointers, locs)


_STEPS_SCRIPT = """
import json
from repro.bench import corpus_configs, generate
from repro.core import BootstrapAnalyzer, BootstrapConfig
from repro.core.shipping import cluster_outcome
from repro.errors import AnalysisBudgetExceeded

cfg = next(c for c in corpus_configs(scale=%r) if c.name == %r)
program = generate(cfg).program
result = BootstrapAnalyzer(program, BootstrapConfig()).run()
stats, steps = [], []
for cluster in result.clusters:
    analysis = result.analysis_for(cluster)
    stats.append(cluster_outcome(analysis)["stats"])
    steps.append(analysis.engine.steps)
verdicts = []
for budget in (max(steps) - 1, max(steps) + 1):
    try:
        BootstrapAnalyzer(program, BootstrapConfig(fscs_budget=budget)) \\
            .run().analyze_all()
        verdicts.append("pass")
    except AnalysisBudgetExceeded:
        verdicts.append("raise")
print(json.dumps({"stats": stats, "steps": steps, "verdicts": verdicts}))
"""


class TestStepsHashSeedIndependent:
    """``engine_steps`` decides whether a cluster fits
    ``BootstrapConfig.fscs_budget``, so it must not follow set iteration
    order: the same program gives the same stats under two hash seeds,
    and a budget one step either side of the largest cluster's count
    raises / passes under both."""

    def test_stats_and_budget_verdicts_match(self, tmp_path):
        outs = []
        for seed in (0, 1):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=os.path.join(
                           os.path.dirname(__file__), "..", "src"))
            proc = subprocess.run(
                [sys.executable, "-c", _STEPS_SCRIPT % (SCALE, "sendmail")],
                capture_output=True, text=True, env=env, cwd=str(tmp_path))
            assert proc.returncode == 0, proc.stderr
            outs.append(json.loads(proc.stdout))
        assert outs[0] == outs[1]
        assert outs[0]["verdicts"] == ["raise", "pass"]
        assert sum(s["engine_steps"] for s in outs[0]["stats"]) > 0
