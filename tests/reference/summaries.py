"""Frozenset reference engine for the summary walk (Algorithms 4-5).

The production :class:`repro.analysis.SummaryEngine` walks interned
terms and constraints (dense ids) and solves callees first.  This is the
engine it was derived from: terms and constraints are the frozen
dataclasses and frozensets of :mod:`repro.analysis.summaries` and
:mod:`repro.analysis.constraints`, every statement's inverse transfer
runs the ``isinstance`` chain on every step, and a LIFO worklist over
``(function, term)`` keys with dependency tracking finds the fixpoint.
Both compute the least fixpoint of the same monotone equations, so
``exit_summary``/``backward_from``/``function_summary`` agree exactly;
``steps`` differs (the orders differ) and, here, depends on set
iteration order.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.constraints import (
    TRUE,
    Constraint,
    SatOracle,
    conjoin,
    merge,
    null_atom,
    points_to_atom,
    same_object_atom,
)
from repro.analysis.fsci import FSCIResult
from repro.analysis.summaries import (
    AddrTerm,
    DerefTerm,
    NullTerm,
    ObjTerm,
    SummaryEntry,
    SummaryTuple,
    Term,
    UnknownTerm,
)
from repro.errors import AnalysisBudgetExceeded
from repro.ir import (
    AddrOf,
    Assume,
    CallGraph,
    CallStmt,
    Copy,
    Load,
    Loc,
    MemObject,
    NullAssign,
    Program,
    Statement,
    Store,
    Var,
)


class ReferenceSummaryEngine:
    """Backward interprocedural summary computation for one cluster.

    Parameters
    ----------
    program:
        The program under analysis.
    fsci:
        The cluster's FSCI result; the oracle for Algorithm 4's
        ``PT_s^m`` sets and for constraint satisfiability.  ``None``
        degrades gracefully to :class:`UnknownTerm` where memory
        disambiguation would be needed.
    relevant:
        The cluster's ``St_P`` (locations).  Statements at other
        locations are skips, as in the paper's reduced program.  ``None``
        keeps every statement (the unclustered baseline).
    max_cond_atoms:
        Constraint size cap.
    budget:
        Maximum number of worklist items processed engine-wide; exceeded
        budgets raise :class:`~repro.errors.AnalysisBudgetExceeded`.
    """

    def __init__(self, program: Program,
                 fsci: Optional[FSCIResult] = None,
                 relevant: Optional[Set[Loc]] = None,
                 callgraph: Optional[CallGraph] = None,
                 max_cond_atoms: int = 4,
                 budget: Optional[int] = None,
                 deadline: Optional[float] = None,
                 path_sensitive: bool = True) -> None:
        self.program = program
        self.fsci = fsci
        self.relevant = relevant
        self.path_sensitive = path_sensitive
        self.sat = SatOracle(fsci)
        self.max_cond_atoms = max_cond_atoms
        self.budget = budget
        self.deadline = deadline
        self.steps = 0
        self._callgraph = callgraph or CallGraph(program)
        self._summaries: Dict[Tuple[str, Term], FrozenSet[SummaryEntry]] = {}
        self._deps: Dict[Tuple[str, Term], Set[Tuple[str, Term]]] = {}
        self._done: Set[Tuple[str, Term]] = set()
        self._transparent = self._compute_transparent()

    # ------------------------------------------------------------------
    # transparency: functions that cannot touch the cluster at all
    # ------------------------------------------------------------------
    def _compute_transparent(self) -> Set[str]:
        """Functions from which no relevant pointer assignment is
        reachable; the paper's observation that most functions need no
        summaries for a given cluster."""
        if self.relevant is not None:
            # Relevant locations are canonical by construction.
            modifiers = {loc.function for loc in self.relevant}
        else:
            modifiers = {loc.function
                         for loc, stmt in self.program.statements()
                         if stmt.is_pointer_assign}
        influencing = self._callgraph.ancestors_of(modifiers)
        return set(self.program.functions) - influencing

    def is_transparent(self, func: str) -> bool:
        return func in self._transparent

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def exit_summary(self, func: str, term: Term) -> FrozenSet[SummaryEntry]:
        """Value of ``term`` at ``func``'s exit, at-entry or terminal."""
        if term.is_terminal:
            return frozenset({(term, TRUE)})
        if self.is_transparent(func):
            return frozenset({(term, TRUE)})
        key = (func, term)
        if key in self._done:
            return self._summaries[key]
        self._fixpoint(key)
        return self._summaries[key]

    def function_summary(self, func: str,
                         pointers: Iterable[Var]) -> List[SummaryTuple]:
        """Paper-style summary tuples for ``func``'s exit location, for
        each pointer of interest (used by reports and Figure 5 tests)."""
        cfg = self.program.cfg_of(func)
        exit_loc = Loc(func, cfg.exit)
        out: List[SummaryTuple] = []
        for p in sorted(pointers, key=str):
            for term, cond in self.exit_summary(func, ObjTerm(p)):
                if term == ObjTerm(p) and not cond:
                    continue  # identity entries are implicit in the paper
                out.append(SummaryTuple(p, exit_loc, term, cond))
        return out

    def backward_from(self, loc: Loc, term: Term,
                      cond: Constraint = TRUE,
                      after: bool = True) -> FrozenSet[SummaryEntry]:
        """Value of ``term`` at ``loc`` (after its statement when
        ``after``), expressed at the enclosing function's entry or as
        terminals."""
        if term.is_terminal and not self.path_sensitive:
            return frozenset({(term, cond)})
        cfg = self.program.cfg_of(loc.function)
        if after:
            starts = [(loc.index, term, cond)]
        else:
            starts = [(p, term, cond) for p in cfg.predecessors(loc.index)]
            if loc.index == cfg.entry:
                return frozenset({(term, cond)})
        return self._walk(loc.function, starts)

    # ------------------------------------------------------------------
    # fixpoint loop
    # ------------------------------------------------------------------
    def _fixpoint(self, root: Tuple[str, Term]) -> None:
        worklist: List[Tuple[str, Term]] = [root]
        queued = {root}
        while worklist:
            key = worklist.pop()
            queued.discard(key)
            old = self._summaries.get(key, frozenset())
            self._summaries.setdefault(key, frozenset())
            self._done.add(key)
            requested: Set[Tuple[str, Term]] = set()
            new = self._compute_exit(key, requested)
            for req in requested:
                self._deps.setdefault(req, set()).add(key)
                if req not in self._done and req not in queued:
                    worklist.append(req)
                    queued.add(req)
            if new != old:
                self._summaries[key] = new | old
                for dep in self._deps.get(key, ()):
                    if dep not in queued:
                        worklist.append(dep)
                        queued.add(dep)

    def _compute_exit(self, key: Tuple[str, Term],
                      requested: Set[Tuple[str, Term]]) -> FrozenSet[SummaryEntry]:
        func, term = key
        cfg = self.program.cfg_of(func)
        return self._walk(func, [(cfg.exit, term, TRUE)], requested)

    # ------------------------------------------------------------------
    # the backward walk (Algorithm 5's worklist, intraprocedural steps)
    # ------------------------------------------------------------------
    def _walk(self, func: str,
              starts: List[Tuple[int, Term, Constraint]],
              requested: Optional[Set[Tuple[str, Term]]] = None
              ) -> FrozenSet[SummaryEntry]:
        cfg = self.program.cfg_of(func)
        results: Set[SummaryEntry] = set()
        processed: Set[Tuple[int, Term, Constraint]] = set()
        work: List[Tuple[int, Term, Constraint]] = []

        def push(node: int, term: Term, cond: Constraint) -> None:
            if term.is_terminal and not self.path_sensitive:
                # Resolved value: nothing before can change it.  With
                # path sensitivity on we keep walking to collect the
                # branch constraints that gate this path segment.
                results.add((term, cond))
                return
            item = (node, term, cond)
            if item not in processed:
                processed.add(item)
                work.append(item)

        for node, term, cond in starts:
            push(node, term, cond)

        while work:
            self.steps += 1
            if self.budget is not None and self.steps > self.budget:
                raise AnalysisBudgetExceeded("summary-engine", self.steps)
            if self.deadline is not None and self.steps % 256 == 0 \
                    and time.monotonic() > self.deadline:
                raise AnalysisBudgetExceeded("summary-engine", self.steps)
            node, term, cond = work.pop()
            loc = Loc(func, node)
            stmt = cfg.stmt(node)
            conts = self._inverse(loc, stmt, term, cond, requested)
            for t, c in conts:
                if not self.sat.satisfiable(c):
                    continue
                if t.is_terminal and not self.path_sensitive:
                    results.add((t, c))
                elif node == cfg.entry:
                    results.add((t, c))
                else:
                    preds = cfg.predecessors(node)
                    if not preds:
                        results.add((t, c))
                    for pred in preds:
                        push(pred, t, c)
        return frozenset(results)

    # ------------------------------------------------------------------
    # Algorithm 4: inverse transfer of one statement over a term
    # ------------------------------------------------------------------
    def _inverse(self, loc: Loc, stmt: Statement, term: Term,
                 cond: Constraint,
                 requested: Optional[Set[Tuple[str, Term]]]
                 ) -> List[SummaryEntry]:
        if term.is_terminal and not isinstance(stmt, Assume):
            # A resolved value only collects branch constraints.
            return [(term, cond)]
        if isinstance(stmt, CallStmt):
            return self._inverse_call(stmt, term, cond, requested)
        if isinstance(stmt, Assume):
            # Path sensitivity (paper Section 3): record the branching
            # constraint; the FSCI-backed oracle weeds out infeasible
            # tuples at satisfiability-check time.
            if not self.path_sensitive:
                return [(term, cond)]
            if stmt.rhs is None:
                atom = null_atom(loc, stmt.lhs, stmt.equal)
            else:
                atom = same_object_atom(loc, stmt.lhs, stmt.rhs, stmt.equal)
            refined = conjoin(cond, atom, self.max_cond_atoms)
            return [(term, refined)] if refined is not None else []
        if not stmt.is_pointer_assign:
            return [(term, cond)]
        if self.relevant is not None and loc not in self.relevant:
            # Outside St_P the reduced program executes a skip.
            return [(term, cond)]
        if isinstance(stmt, Copy):
            return self._inverse_write(loc, stmt.lhs, ObjTerm(stmt.rhs),
                                       term, cond)
        if isinstance(stmt, AddrOf):
            return self._inverse_write(loc, stmt.lhs, AddrTerm(stmt.target),
                                       term, cond)
        if isinstance(stmt, Load):
            return self._inverse_write(loc, stmt.lhs, DerefTerm(stmt.rhs),
                                       term, cond)
        if isinstance(stmt, NullAssign):
            return self._inverse_write(loc, stmt.lhs, NullTerm(), term, cond)
        if isinstance(stmt, Store):
            return self._inverse_store(loc, stmt.lhs, stmt.rhs, term, cond)
        return [(term, cond)]

    def _inverse_write(self, loc: Loc, lhs: Var, value: Term,
                       term: Term, cond: Constraint) -> List[SummaryEntry]:
        """Inverse of a direct write ``lhs = <value>`` (Algorithm 4's
        "r is a pointer variable" arm)."""
        if isinstance(term, ObjTerm):
            if term.obj == lhs:
                return [(value, cond)]
            return [(term, cond)]
        assert isinstance(term, DerefTerm)
        s = term.var
        if s == lhs:
            # The cell *s names changes identity across this statement:
            # after it, s holds <value>, so *s is the content of the cell
            # behind <value> — evaluated AFTER the statement, because the
            # statement may have written that very cell (s = &s etc.).
            return self._deref_after_write(loc, lhs, value, cond)
        # The write may also have landed in the cell s points to, iff
        # s -> lhs at this point (Algorithm 4 lines 10-18).
        pts_s = self._pts_before(loc, s)
        if pts_s is not None and lhs not in pts_s:
            return [(term, cond)]
        out: List[SummaryEntry] = []
        hit = conjoin(cond, points_to_atom(loc, s, lhs, True),
                      self.max_cond_atoms)
        if hit is not None:
            out.append((value, hit))
        miss = conjoin(cond, points_to_atom(loc, s, lhs, False),
                       self.max_cond_atoms)
        if miss is not None:
            out.append((term, miss))
        return out

    def _inverse_store(self, loc: Loc, u: Var, t: Var,
                       term: Term, cond: Constraint) -> List[SummaryEntry]:
        """Inverse of ``*u = t`` (Algorithm 4's "r is of the form ~u")."""
        value = ObjTerm(t)
        if isinstance(term, ObjTerm):
            v = term.obj
            pts_u = self._pts_before(loc, u)
            if pts_u is not None and v not in pts_u:
                return [(term, cond)]
            out: List[SummaryEntry] = []
            hit = conjoin(cond, points_to_atom(loc, u, v, True),
                          self.max_cond_atoms)
            if hit is not None:
                out.append((value, hit))
            miss = conjoin(cond, points_to_atom(loc, u, v, False),
                           self.max_cond_atoms)
            if miss is not None:
                out.append((term, miss))
            return out
        assert isinstance(term, DerefTerm)
        s = term.var
        if s == u:
            return [(value, cond)]
        out: List[SummaryEntry] = []
        # The store may overwrite the *base* variable s itself (when u
        # points to s), changing which cell *s denotes; resolve that
        # branch through FSCI at the after-state (fully conservative).
        pts_u = self._pts_before(loc, u)
        base_cond: Optional[Constraint] = cond
        if pts_u is None or s in pts_u:
            hit = conjoin(cond, points_to_atom(loc, u, s, True),
                          self.max_cond_atoms)
            if hit is not None:
                out.extend(self._resolve_deref_after(loc, s, hit))
            base_cond = conjoin(cond, points_to_atom(loc, u, s, False),
                                self.max_cond_atoms)
            if base_cond is None:
                return out
        # With s unchanged, the store affects *s only if s and u point to
        # the same cell (Algorithm 4 lines 28-35).
        if not self._may_alias_at(loc, s, u):
            out.append((term, base_cond))
            return out
        hit = conjoin(base_cond, same_object_atom(loc, s, u, True),
                      self.max_cond_atoms)
        if hit is not None:
            out.append((value, hit))
        miss = conjoin(base_cond, same_object_atom(loc, s, u, False),
                       self.max_cond_atoms)
        if miss is not None:
            out.append((term, miss))
        return out

    def _resolve_deref_after(self, loc: Loc, s: Var,
                             cond: Constraint) -> List[SummaryEntry]:
        """Fully resolve the term ``*s`` at the state after ``loc``'s
        statement, through FSCI facts (sound over-approximation)."""
        if self.fsci is None:
            return [(UnknownTerm(), cond)]
        objs: Set[MemObject] = set()
        for cell in self.fsci.pts_after(loc, s):
            objs.update(self.fsci.pts_after(loc, cell))
        return [(AddrTerm(o), cond) for o in objs] or [(UnknownTerm(), cond)]

    def _inverse_call(self, stmt: CallStmt, term: Term, cond: Constraint,
                      requested: Optional[Set[Tuple[str, Term]]]
                      ) -> List[SummaryEntry]:
        """Splice callee exit summaries (Algorithm 5 lines 9-18)."""
        targets = [g for g in stmt.targets if g in self.program.functions]
        if not targets:
            return [(term, cond)]
        out: List[SummaryEntry] = []
        for g in targets:
            if self.is_transparent(g):
                out.append((term, cond))
                continue
            key = (g, term)
            if requested is not None:
                # The fixpoint loop (re)computes keys not done yet;
                # the current (possibly empty) value is a monotone
                # under-approximation that it repairs.
                requested.add(key)
                entries = self._summaries.setdefault(key, frozenset())
            else:
                entries = self.exit_summary(g, term)
            for w, c in entries:
                combined = merge(cond, c, self.max_cond_atoms)
                if combined is not None:
                    out.append((w, combined))
        return out

    # ------------------------------------------------------------------
    # FSCI plumbing
    # ------------------------------------------------------------------
    def _pts_before(self, loc: Loc, p: Var) -> Optional[FrozenSet[MemObject]]:
        if self.fsci is None:
            return None
        return self.fsci.pts_before(loc, p)

    def _may_alias_at(self, loc: Loc, a: Var, b: Var) -> bool:
        if self.fsci is None:
            return True
        pa = self.fsci.pts_before(loc, a)
        pb = self.fsci.pts_before(loc, b)
        # Empty sets mean "uninitialized here as far as FSCI knows";
        # err toward aliasing.
        return bool(pa & pb) or not pa or not pb

    def _deref_after_write(self, loc: Loc, lhs: Var, value: Term,
                           cond: Constraint) -> List[SummaryEntry]:
        """The term ``*(value)`` evaluated just after ``lhs = <value>``.

        The write changed exactly one cell — ``lhs`` — whose content
        after the statement is ``value`` itself; every other cell's
        content equals its before-statement content, so the term can
        continue backward symbolically.  Unrepresentable cases resolve
        through FSCI (sound: FSCI over-approximates every execution)."""
        if isinstance(value, AddrTerm):
            if value.obj == lhs:
                # s = &s: *s is s's own content = the assigned value.
                return [(value, cond)]
            return [(ObjTerm(value.obj), cond)]
        if isinstance(value, NullTerm):
            return []  # *NULL: no defined value flows
        if isinstance(value, ObjTerm) and isinstance(value.obj, Var):
            q = value.obj
            # If q points to the written cell itself, *s is the assigned
            # value (= q's value); otherwise the cell was untouched and
            # *q-before-statement is correct.
            pts_q = self._pts_before(loc, q)
            out: List[SummaryEntry] = []
            if pts_q is None or lhs in pts_q:
                hit = conjoin(cond, points_to_atom(loc, q, lhs, True),
                              self.max_cond_atoms)
                if hit is not None:
                    out.append((ObjTerm(q), hit))
                miss = conjoin(cond, points_to_atom(loc, q, lhs, False),
                               self.max_cond_atoms)
                if miss is not None:
                    out.append((DerefTerm(q), miss))
                return out
            return [(DerefTerm(q), cond)]
        if self.fsci is None:
            return [(UnknownTerm(), cond)]
        # Coarse fallback: the possible cells after the statement are the
        # FSCI points-to of lhs there; their contents are FSCI facts too.
        objs: Set[MemObject] = set()
        for cell in self.fsci.pts_after(loc, lhs):
            objs.update(self.fsci.pts_after(loc, cell))
        return [(AddrTerm(o), cond) for o in objs] or [(UnknownTerm(), cond)]
