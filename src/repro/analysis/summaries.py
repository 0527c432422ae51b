"""Summary-based backward value tracking (paper Definitions 3-8,
Algorithms 4 and 5).

The central object is a *term* describing a pointer value during the
backward traversal of maximally complete update sequences:

* :class:`ObjTerm` ``(v)``   — the value currently stored in cell ``v``
  (a variable or a heap cell); the paper's plain pointer ``q``.
* :class:`DerefTerm` ``(s)`` — the value stored in the cell ``s`` points
  to; the paper's ``~s``.
* :class:`AddrTerm` ``(o)``  — the resolved value ``&o``; a terminal.
* :class:`NullTerm`          — the resolved value ``NULL``; a terminal.
* :class:`UnknownTerm`       — sound top (used when a value escapes the
  term language and no FSCI oracle is available to resolve it).

:class:`SummaryEngine` computes, per function ``f`` and term ``t``, the
**exit summary**: the set of ``(term', cond)`` pairs such that the value
of ``t`` at ``f``'s exit equals the value of ``term'`` at ``f``'s *entry*
(or is fully resolved to a terminal) under points-to constraints ``cond``.
These are exactly the paper's summary tuples ``(p, exit_f, q, cond)``;
:meth:`SummaryEngine.backward_from` provides the same for arbitrary
interior locations, which is what alias queries use.

Summaries are built callee-first, the paper's reverse-topological
order over call-graph SCCs computed on demand: a walk that reaches a
callee key not solved yet suspends, the callee is solved on an explicit
stack (no Python recursion, so deep call chains are fine), and the walk
resumes.  Only a recursive call — a key already on the stack — is read
at its current, partial value; the reader is recorded as a dependent and
re-walked when that value grows, until the SCC reaches its monotone
fixpoint.  Constraint growth is capped (see :mod:`.constraints`);
capping only weakens conditions, which over-approximates — the sound
direction.

The engine runs on dense ids, like the Andersen and FSCI kernels
(:mod:`.kernel`): terms, atoms and constraints are interned to ints,
``conjoin``/``merge``/satisfiability are memoized per id, each
statement's inverse transfer is compiled once per function and its
per-term continuations once per node, and points-to facts are read as
FSCI masks.  The public methods decode to the same frozensets of
``(Term, Constraint)`` the dataclass engine returned (that engine lives
on in ``tests/reference/summaries.py`` as the differential oracle).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..errors import AnalysisBudgetExceeded
from ..ir import (
    AddrOf,
    Assume,
    CallGraph,
    CallStmt,
    Copy,
    Load,
    Loc,
    NullAssign,
    Program,
    Statement,
    Store,
    Var,
)
from .constraints import (
    TRUE,
    Atom,
    Constraint,
    SatOracle,
    conjoin,
    format_constraint,
    merge,
    null_atom,
    points_to_atom,
    same_object_atom,
)
from .fsci import FSCIResult
from .kernel import NodeTable


class Term:
    """Base class for backward-tracked value terms."""

    __slots__ = ()
    is_terminal = False


@dataclass(frozen=True, order=True)
class ObjTerm(Term):
    """The value stored in cell ``obj``."""

    obj: MemObject

    def __str__(self) -> str:
        return str(self.obj)


@dataclass(frozen=True, order=True)
class DerefTerm(Term):
    """The value stored in the cell ``var`` points to (the paper's ~var)."""

    var: Var

    def __str__(self) -> str:
        return f"*{self.var}"


@dataclass(frozen=True, order=True)
class AddrTerm(Term):
    """The resolved value ``&obj`` — the tracked pointer points to obj."""

    obj: MemObject
    is_terminal = True

    def __str__(self) -> str:
        return f"&{self.obj}"


@dataclass(frozen=True)
class NullTerm(Term):
    """The resolved value NULL."""

    is_terminal = True

    def __str__(self) -> str:
        return "NULL"


@dataclass(frozen=True)
class UnknownTerm(Term):
    """Sound top element: the value could be anything."""

    is_terminal = True

    def __str__(self) -> str:
        return "?"


#: One summary entry: the tracked value equals ``term`` (at function entry
#: if non-terminal) under ``cond``.
SummaryEntry = Tuple[Term, Constraint]


@dataclass(frozen=True)
class SummaryTuple:
    """A paper-style summary tuple ``(p, loc, q, cond)`` for reporting."""

    pointer: Var
    loc: Loc
    source: Term
    cond: Constraint

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"({self.pointer}, {self.loc}, {self.source}, "
                f"{format_constraint(self.cond)})")


# -- the dense encoding ----------------------------------------------------
#
# A term id is ``(object id << _KIND_BITS) | kind``, the object id coming
# from the engine's NodeTable (NULL and "?" carry object id 0).  The
# terminal kinds are exactly those with a bit of ``_TERMINAL`` set.  A
# constraint id indexes the engine's table of distinct constraints; 0 is
# TRUE.
#
# A summary entry ``(term, cond)`` is the int ``cond id << _TERM_BITS |
# term id`` (term ids stay below 2**32 while a cluster has fewer than
# 2**29 objects), and a walk item is ``entry << node bits | CFG node``:
# the walk's sets and the summaries hold plain ints, which neither hash
# through Python code nor count toward the garbage collector.

_OBJ, _DEREF, _ADDR, _NULL, _UNKNOWN = range(5)
_KIND_BITS = 3
_KIND_MASK = (1 << _KIND_BITS) - 1
_TERMINAL = 0b110
_TERM_BITS = 32
_TERM_MASK = (1 << _TERM_BITS) - 1

# Opcodes of the compiled inverse transfers; a skip compiles to None.
_CALL, _ASSUME, _WRITE, _STORE = range(4)

#: A (function, term id) summary key.
_Key = Tuple[str, int]
#: One node's continuations for one term: (term id, atom ids to conjoin).
_Template = Tuple[Tuple[int, Tuple[int, ...]], ...]


class _Function:
    """One function's CFG compiled for the backward walk."""

    __slots__ = ("name", "ops", "preds", "entry", "exit", "node_bits")

    def __init__(self, name: str, ops: List[Optional[tuple]],
                 preds: List[Tuple[int, ...]], entry: int,
                 exit_node: int) -> None:
        self.name = name
        #: Per node: None (a skip) or ``(opcode, operands...)``; writes
        #: and stores end in their memo of term id -> template.
        self.ops = ops
        self.preds = preds
        self.entry = entry
        self.exit = exit_node
        self.node_bits = len(ops).bit_length()


class _Walk:
    """One backward walk (Algorithm 5's worklist).  It outlives a
    suspension: when it reaches a callee key that is not solved yet, the
    pending item goes back on ``work`` and the walk resumes once the
    callee is solved."""

    __slots__ = ("key", "fn", "work", "seen", "results", "requested")

    def __init__(self, key: Optional[_Key], fn: _Function,
                 requested: Optional[Set[_Key]]) -> None:
        self.key = key
        self.fn = fn
        self.work: List[int] = []
        self.seen: Set[int] = set()
        self.results: Set[int] = set()
        #: Callee keys read so far (exit-summary walks only), so that
        #: each is registered as a dependency once.
        self.requested = requested


class SummaryEngine:
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
        self._transparent = self._compute_transparent()
        self._functions: Dict[str, _Function] = {}
        self._relevant_at: Optional[Dict[str, Set[int]]] = None
        if relevant is not None:
            self._relevant_at = {}
            for loc in relevant:
                self._relevant_at.setdefault(loc.function, set()).add(
                    loc.index)
        # Intern tables.
        self._objects = NodeTable()
        self._terms: Dict[int, Term] = {}
        self._atom_ids: Dict[Atom, int] = {}
        self._atoms: List[Atom] = []
        self._cons_ids: Dict[Constraint, int] = {}
        self._cons: List[Constraint] = []
        self._cons_sat: List[bool] = []
        self._conj: List[Dict[int, int]] = []
        self._merges: List[Dict[int, int]] = []
        self._constraint_id(TRUE)
        # Fixpoint state: the solved keys' entries, the keys whose walks
        # are on the stack, and (during a solve) who read which key.
        self._summaries: Dict[_Key, FrozenSet[int]] = {}
        self._active: Set[_Key] = set()
        self._deps: Dict[_Key, Dict[_Key, None]] = {}

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
        key = (func, self._term_id(term))
        if key not in self._summaries:
            self._solve(key)
        return self._decode(self._summaries[key])

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
        fn = self._function(loc.function)
        if after:
            starts: Iterable[int] = (loc.index,)
        else:
            if loc.index == fn.entry:
                return frozenset({(term, cond)})
            starts = fn.preds[loc.index]
        walk = _Walk(None, fn, None)
        entry = self._constraint_id(cond) << _TERM_BITS | self._term_id(term)
        for node in starts:
            self._push(walk, node, entry)
        need = self._run(walk)
        while need is not None:
            self._solve(need)
            need = self._run(walk)
        return self._decode(walk.results)

    # ------------------------------------------------------------------
    # callee-first fixpoint
    # ------------------------------------------------------------------
    def _solve(self, root: _Key) -> None:
        """Solve ``root`` and every key it needs, callees first.

        Walks sit on an explicit stack; the top one runs until it ends
        or reaches an unsolved callee, whose walk is pushed above it.
        When a key's value grows, its readers (recorded as they read)
        become stale and are re-walked before the walk below resumes;
        a stale key that is still on the stack waits until it leaves
        it.  Stale keys are taken in the order they went stale, so the
        step count does not depend on the hash seed.  When the stack
        empties every key reached is final, so the reader lists go.  If
        a walk raises (budget or deadline), every key this call started
        is forgotten, so the engine never serves a partial summary."""
        summaries, deps, active = self._summaries, self._deps, self._active
        stale: Dict[_Key, None] = {}
        opened: List[_Key] = []
        stack = [self._open(root, opened)]
        try:
            while stack:
                walk = stack[-1]
                need = self._run(walk)
                if need is not None:
                    stack.append(self._open(need, opened))
                    continue
                stack.pop()
                key = walk.key
                active.discard(key)
                new = frozenset(walk.results)
                old = summaries.get(key)
                if old is None:
                    summaries[key] = new
                    grew = bool(new)
                else:
                    grew = not new <= old
                    if grew:
                        summaries[key] = new | old
                if grew:
                    for reader in deps.get(key, ()):
                        stale[reader] = None
                for reader in stale:
                    if reader not in active:
                        del stale[reader]
                        stack.append(self._open(reader, opened))
                        break
        except BaseException:
            for key in opened:
                summaries.pop(key, None)
            active.clear()
            raise
        finally:
            deps.clear()

    def _open(self, key: _Key, opened: List[_Key]) -> _Walk:
        """A walk of ``key``'s exit summary, marked active."""
        func, t = key
        fn = self._function(func)
        walk = _Walk(key, fn, set())
        self._push(walk, fn.exit, t)  # (t, TRUE): constraint id 0
        if key not in self._summaries:
            opened.append(key)
        self._active.add(key)
        return walk

    # ------------------------------------------------------------------
    # the backward walk (Algorithm 5's worklist, intraprocedural steps)
    # ------------------------------------------------------------------
    def _push(self, walk: _Walk, node: int, entry: int) -> None:
        if entry & _TERMINAL and not self.path_sensitive:
            # Resolved value: nothing before can change it.  With path
            # sensitivity on we keep walking to collect the branch
            # constraints that gate this path segment.
            walk.results.add(entry)
            return
        item = entry << walk.fn.node_bits | node
        if item not in walk.seen:
            walk.seen.add(item)
            walk.work.append(item)

    def _run(self, walk: _Walk) -> Optional[_Key]:
        """Run ``walk`` to its end (``None``), or up to a call whose
        callee key is neither solved nor on the stack (that key)."""
        fn = walk.fn
        ops, preds, entry_node = fn.ops, fn.preds, fn.entry
        bits = fn.node_bits
        node_mask = (1 << bits) - 1
        work, seen, results = walk.work, walk.seen, walk.results
        requested, reader = walk.requested, walk.key
        keep_terminals = self.path_sensitive
        cons_sat, conj = self._cons_sat, self._conj
        summaries, active = self._summaries, self._active
        budget, deadline = self.budget, self.deadline
        terminal, term_bits, term_mask = _TERMINAL, _TERM_BITS, _TERM_MASK
        steps = self.steps
        try:
            while work:
                item = work.pop()
                node = item & node_mask
                entry = item >> bits
                op = ops[node]
                if op is None:
                    conts: Iterable[int] = (entry,)
                else:
                    code, t = op[0], entry & term_mask
                    if t & terminal and code != _ASSUME:
                        # A resolved value only collects branch constraints.
                        conts = (entry,)
                    elif code == _CALL:
                        # Algorithm 5 lines 9-18: splice callee summaries,
                        # once every callee key is solved or on the stack.
                        for g in op[1]:
                            key = (g, t)
                            if key not in summaries and key not in active:
                                work.append(item)
                                return key
                        c = entry >> term_bits
                        conts = [entry] if op[2] else []
                        for g in op[1]:
                            key = (g, t)
                            if requested is not None \
                                    and key not in requested:
                                requested.add(key)
                                self._deps.setdefault(key, {})[reader] = None
                            for e in summaries.get(key, ()):
                                c2 = e >> term_bits
                                if c2:
                                    c2 = self._merge(c, c2)
                                else:
                                    c2 = c
                                conts.append(c2 << term_bits | e & term_mask)
                    elif code == _ASSUME:
                        # Path sensitivity (paper Section 3): record the
                        # branching constraint; the FSCI-backed oracle
                        # weeds out infeasible tuples.
                        c = entry >> term_bits
                        c2 = conj[c].get(op[1])
                        if c2 is None:
                            c2 = self._conjoin(c, op[1])
                        conts = (c2 << term_bits | t,)
                    else:
                        memo = op[3]
                        template = memo.get(t)
                        if template is None:
                            template = memo[t] = self._template(fn, node, t)
                        c = entry >> term_bits
                        conts = []
                        for t2, atoms in template:
                            c2 = c
                            for a in atoms:
                                c3 = conj[c2].get(a)
                                c2 = self._conjoin(c2, a) if c3 is None \
                                    else c3
                            conts.append(c2 << term_bits | t2)
                steps += 1
                if budget is not None and steps > budget:
                    raise AnalysisBudgetExceeded("summary-engine", steps)
                if deadline is not None and steps % 256 == 0 \
                        and time.monotonic() > deadline:
                    raise AnalysisBudgetExceeded("summary-engine", steps)
                for e in conts:
                    if not cons_sat[e >> term_bits]:
                        continue
                    if node == entry_node \
                            or e & terminal and not keep_terminals:
                        results.add(e)
                        continue
                    ps = preds[node]
                    if not ps:
                        results.add(e)
                    e <<= bits
                    for p in ps:
                        nxt = e | p
                        if nxt not in seen:
                            seen.add(nxt)
                            work.append(nxt)
            return None
        finally:
            self.steps = steps

    # ------------------------------------------------------------------
    # compiling statements
    # ------------------------------------------------------------------
    def _function(self, func: str) -> _Function:
        fn = self._functions.get(func)
        if fn is None:
            cfg = self.program.cfg_of(func)
            relevant = None
            if self._relevant_at is not None:
                relevant = self._relevant_at.get(func, ())
            fn = _Function(
                func, [self._compile(func, node, stmt, relevant)
                       for node, stmt in cfg.statements()],
                [cfg.predecessors(node) for node in cfg.nodes()],
                cfg.entry, cfg.exit)
            self._functions[func] = fn
        return fn

    def _compile(self, func: str, node: int, stmt: Statement,
                 relevant: Optional[Iterable[int]]) -> Optional[tuple]:
        """``stmt``'s inverse transfer as ``(opcode, operands...)``, or
        ``None`` when it passes every term through unchanged."""
        if stmt.is_pointer_assign:
            if relevant is not None and node not in relevant:
                # Outside St_P the reduced program executes a skip.
                return None
            intern = self._objects.intern
            if isinstance(stmt, Copy):
                value = _tid(intern(stmt.rhs), _OBJ)
            elif isinstance(stmt, AddrOf):
                value = _tid(intern(stmt.target), _ADDR)
            elif isinstance(stmt, Load):
                value = _tid(intern(stmt.rhs), _DEREF)
            elif isinstance(stmt, NullAssign):
                value = _NULL
            elif isinstance(stmt, Store):
                return (_STORE, intern(stmt.lhs), intern(stmt.rhs), {})
            else:
                return None
            return (_WRITE, intern(stmt.lhs), value, {})
        if isinstance(stmt, CallStmt):
            targets = [g for g in stmt.targets if g in self.program.functions]
            solved = tuple(g for g in targets if not self.is_transparent(g))
            if not solved:
                return None
            return (_CALL, solved, len(solved) < len(targets))
        if isinstance(stmt, Assume) and self.path_sensitive:
            loc = Loc(func, node)
            if stmt.rhs is None:
                atom = null_atom(loc, stmt.lhs, stmt.equal)
            else:
                atom = same_object_atom(loc, stmt.lhs, stmt.rhs, stmt.equal)
            return (_ASSUME, self._atom_id(atom))
        return None

    # ------------------------------------------------------------------
    # Algorithm 4: inverse transfer of one statement over a term
    # ------------------------------------------------------------------
    def _template(self, fn: _Function, node: int, t: int) -> _Template:
        """The continuations of non-terminal term ``t`` across the write
        or store at ``node``; the same for every constraint."""
        op, loc = fn.ops[node], Loc(fn.name, node)
        if op[0] == _WRITE:
            return self._inverse_write(loc, op[1], op[2], t)
        return self._inverse_store(loc, op[1], op[2], t)

    def _inverse_write(self, loc: Loc, lhs: int, value: int,
                       t: int) -> _Template:
        """Inverse of a direct write ``lhs = <value>`` (Algorithm 4's
        "r is a pointer variable" arm)."""
        obj = t >> _KIND_BITS
        if t & _KIND_MASK == _OBJ:
            return ((value if obj == lhs else t, ()),)
        s = obj  # t is *s
        if s == lhs:
            # The cell *s names changes identity across this statement:
            # after it, s holds <value>, so *s is the content of the cell
            # behind <value> — evaluated AFTER the statement, because the
            # statement may have written that very cell (s = &s etc.).
            return self._deref_after_write(loc, lhs, value)
        # The write may also have landed in the cell s points to, iff
        # s -> lhs at this point (Algorithm 4 lines 10-18).
        if self.fsci is not None \
                and not self._holds(self._mask_before(loc, s), lhs):
            return ((t, ()),)
        return ((value, (self._pt_atom(loc, s, lhs, True),)),
                (t, (self._pt_atom(loc, s, lhs, False),)))

    def _inverse_store(self, loc: Loc, u: int, rhs: int,
                       t: int) -> _Template:
        """Inverse of ``*u = rhs`` (Algorithm 4's "r is of the form ~u")."""
        value = _tid(rhs, _OBJ)
        obj = t >> _KIND_BITS
        if t & _KIND_MASK == _OBJ:
            v = obj
            if self.fsci is not None \
                    and not self._holds(self._mask_before(loc, u), v):
                return ((t, ()),)
            return ((value, (self._pt_atom(loc, u, v, True),)),
                    (t, (self._pt_atom(loc, u, v, False),)))
        s = obj  # t is *s
        if s == u:
            return ((value, ()),)
        out: List[Tuple[int, Tuple[int, ...]]] = []
        # The store may overwrite the *base* variable s itself (when u
        # points to s), changing which cell *s denotes; resolve that
        # branch through FSCI at the after-state (fully conservative).
        base: Tuple[int, ...] = ()
        if self.fsci is None or self._holds(self._mask_before(loc, u), s):
            out.extend(self._resolve_after(
                loc, s, (self._pt_atom(loc, u, s, True),)))
            base = (self._pt_atom(loc, u, s, False),)
        # With s unchanged, the store affects *s only if s and u point to
        # the same cell (Algorithm 4 lines 28-35).
        if not self._may_alias_at(loc, s, u):
            out.append((t, base))
            return tuple(out)
        out.append((value, base + (self._same_atom(loc, s, u, True),)))
        out.append((t, base + (self._same_atom(loc, s, u, False),)))
        return tuple(out)

    def _deref_after_write(self, loc: Loc, lhs: int,
                           value: int) -> _Template:
        """The term ``*(value)`` evaluated just after ``lhs = <value>``.

        The write changed exactly one cell — ``lhs`` — whose content
        after the statement is ``value`` itself; every other cell's
        content equals its before-statement content, so the term can
        continue backward symbolically.  Unrepresentable cases resolve
        through FSCI (sound: FSCI over-approximates every execution)."""
        kind, obj = value & _KIND_MASK, value >> _KIND_BITS
        if kind == _ADDR:
            # s = &s: *s is s's own content = the assigned value.
            return ((value if obj == lhs else _tid(obj, _OBJ), ()),)
        if kind == _NULL:
            return ()  # *NULL: no defined value flows
        if kind == _OBJ and isinstance(self._objects.obj_of(obj), Var):
            q = obj
            # If q points to the written cell itself, *s is the assigned
            # value (= q's value); otherwise the cell was untouched and
            # *q-before-statement is correct.
            if self.fsci is None \
                    or self._holds(self._mask_before(loc, q), lhs):
                return ((_tid(q, _OBJ), (self._pt_atom(loc, q, lhs, True),)),
                        (_tid(q, _DEREF),
                         (self._pt_atom(loc, q, lhs, False),)))
            return ((_tid(q, _DEREF), ()),)
        # Coarse fallback: the possible cells after the statement are the
        # FSCI points-to of lhs there; their contents are FSCI facts too.
        return self._resolve_after(loc, lhs, ())

    def _resolve_after(self, loc: Loc, s: int, atoms: Tuple[int, ...]
                       ) -> _Template:
        """Fully resolve the term ``*s`` at the state after ``loc``'s
        statement, through FSCI facts (sound over-approximation)."""
        if self.fsci is None:
            return ((_UNKNOWN, atoms),)
        fsci, objects = self.fsci, self._objects
        table = fsci._table
        contents = 0
        for cell in table.ids_of(fsci._mask_after(loc, objects.obj_of(s))):
            contents |= fsci._mask_after(loc, table.obj_of(cell))
        return tuple((_tid(objects.intern(table.obj_of(i)), _ADDR), atoms)
                     for i in table.ids_of(contents)) \
            or ((_UNKNOWN, atoms),)

    # ------------------------------------------------------------------
    # FSCI facts, as masks over the FSCI result's own NodeTable
    # ------------------------------------------------------------------
    def _mask_before(self, loc: Loc, p: int) -> int:
        return self.fsci._mask_before(loc, self._objects.obj_of(p))

    def _holds(self, mask: int, obj: int) -> bool:
        """Does the FSCI ``mask`` contain object ``obj``?"""
        table = self.fsci._table
        idx = table.id_of(self._objects.obj_of(obj))
        return idx is not None and bool(mask >> (table.reserved + idx) & 1)

    def _may_alias_at(self, loc: Loc, a: int, b: int) -> bool:
        if self.fsci is None:
            return True
        reserved = self.fsci._table.reserved
        pa = self._mask_before(loc, a) >> reserved
        pb = self._mask_before(loc, b) >> reserved
        # Empty sets mean "uninitialized here as far as FSCI knows";
        # err toward aliasing.
        return bool(pa & pb) or not pa or not pb

    # ------------------------------------------------------------------
    # interning and decoding
    # ------------------------------------------------------------------
    def _term_id(self, term: Term) -> int:
        intern = self._objects.intern
        if isinstance(term, ObjTerm):
            return _tid(intern(term.obj), _OBJ)
        if isinstance(term, DerefTerm):
            return _tid(intern(term.var), _DEREF)
        if isinstance(term, AddrTerm):
            return _tid(intern(term.obj), _ADDR)
        if isinstance(term, NullTerm):
            return _NULL
        if isinstance(term, UnknownTerm):
            return _UNKNOWN
        raise TypeError(f"not a summary term: {term!r}")

    def _term(self, t: int) -> Term:
        term = self._terms.get(t)
        if term is None:
            kind = t & _KIND_MASK
            if kind == _NULL:
                term = NullTerm()
            elif kind == _UNKNOWN:
                term = UnknownTerm()
            else:
                obj = self._objects.obj_of(t >> _KIND_BITS)
                term = (ObjTerm, DerefTerm, AddrTerm)[kind](obj)
            self._terms[t] = term
        return term

    def _decode(self, entries: Iterable[int]) -> FrozenSet[SummaryEntry]:
        term, cons = self._term, self._cons
        return frozenset((term(e & _TERM_MASK), cons[e >> _TERM_BITS])
                         for e in entries)

    def _atom_id(self, atom: Atom) -> int:
        aid = self._atom_ids.get(atom)
        if aid is None:
            aid = self._atom_ids[atom] = len(self._atoms)
            self._atoms.append(atom)
        return aid

    def _pt_atom(self, loc: Loc, r: int, s: int, positive: bool) -> int:
        obj = self._objects.obj_of
        return self._atom_id(points_to_atom(loc, obj(r), obj(s), positive))

    def _same_atom(self, loc: Loc, r: int, s: int, positive: bool) -> int:
        obj = self._objects.obj_of
        return self._atom_id(same_object_atom(loc, obj(r), obj(s), positive))

    def _constraint_id(self, cond: Constraint) -> int:
        cid = self._cons_ids.get(cond)
        if cid is None:
            cid = self._cons_ids[cond] = len(self._cons)
            self._cons.append(cond)
            self._cons_sat.append(self.sat.satisfiable(cond))
            self._conj.append({})
            self._merges.append({})
        return cid

    def _conjoin(self, c: int, a: int) -> int:
        """Memoized :func:`~.constraints.conjoin` on ids."""
        out = self._conj[c].get(a)
        if out is None:
            out = self._conj[c][a] = self._constraint_id(conjoin(
                self._cons[c], self._atoms[a], self.max_cond_atoms))
        return out

    def _merge(self, c: int, c2: int) -> int:
        """Memoized :func:`~.constraints.merge` on ids."""
        out = self._merges[c].get(c2)
        if out is None:
            out = self._merges[c][c2] = self._constraint_id(merge(
                self._cons[c], self._cons[c2], self.max_cond_atoms))
        return out


def _tid(obj: int, kind: int) -> int:
    """The id of the term of ``kind`` over object id ``obj``."""
    return obj << _KIND_BITS | kind
