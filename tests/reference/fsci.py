"""Frozenset reference solver for the FSCI points-to fixpoint.

The production solver (:meth:`repro.analysis.FSCI.run`) compiles each
statement to a closure over mask-valued states (``Dict[int, int]``,
two reserved sentinel bits).  This is the original frozenset transfer
it was derived from: states are ``Dict[MemObject, FrozenSet]`` with
explicit :data:`UNINIT` / :data:`NULL_VALUE` sentinel objects, and a
missing key means ``{UNINIT}``.  The two encodings are bijective, so
the fixpoint trajectory — state equality, joins, iteration counts — is
the same, and the differential suites compare the two accessor by
accessor.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, FrozenSet, Optional, Set

from repro.analysis import FSCI, FSCIResult
from repro.analysis.dataflow import ForwardDataflow, Supergraph
from repro.analysis.fsci import _RESERVED, NULL_BIT, UNINIT_BIT
from repro.analysis.kernel import NodeTable
from repro.ir import (
    AddrOf,
    Assume,
    Copy,
    Load,
    Loc,
    MemObject,
    NullAssign,
    Statement,
    Store,
    Var,
)


class _Uninit:
    """Sentinel 'value': the cell may still hold its original garbage."""

    _instance: Optional["_Uninit"] = None

    def __new__(cls) -> "_Uninit":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<uninit>"


UNINIT = _Uninit()
UNINIT_SET: FrozenSet[object] = frozenset({UNINIT})


class _Null:
    """Sentinel 'value': the cell holds NULL (defined, points nowhere).

    NULL must be explicit for the same reason UNINIT must: an empty set
    would vanish in joins and turn "v4 or NULL" into a fake must-fact,
    enabling an unsound strong update on a path where the store is a
    concrete no-op."""

    _instance: Optional["_Null"] = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<null>"


NULL_VALUE = _Null()
NULL_SET: FrozenSet[object] = frozenset({NULL_VALUE})

_SENTINELS = (UNINIT, NULL_VALUE)

PtsState = Dict[MemObject, FrozenSet[object]]

EMPTY: FrozenSet[MemObject] = frozenset()


def _value(state: PtsState, cell: object) -> FrozenSet[object]:
    """The abstract value of ``cell``: missing key means uninitialized."""
    v = state.get(cell)
    return v if v is not None else UNINIT_SET


def _join(a: Optional[PtsState], b: Optional[PtsState]) -> Optional[PtsState]:
    if a is None:
        return b
    if b is None:
        return a
    if a is b:
        return a
    out: PtsState = {}
    for k, v in a.items():
        w = b.get(k)
        out[k] = v | (w if w is not None else UNINIT_SET)
    for k, w in b.items():
        if k not in a:
            out[k] = w | UNINIT_SET
    return out


def _strip(objs: FrozenSet[object]) -> FrozenSet[MemObject]:
    """Drop the UNINIT/NULL sentinels for clients wanting real objects."""
    if UNINIT in objs or NULL_VALUE in objs:
        return frozenset(o for o in objs if o not in _SENTINELS)
    return objs  # type: ignore[return-value]


def _transfer(fsci: FSCI, loc: Loc, stmt: Statement,
              state: PtsState) -> PtsState:
    if fsci._relevant is not None and loc not in fsci._relevant \
            and stmt.is_pointer_assign:
        return state
    if isinstance(stmt, Copy):
        if not fsci._is_tracked(stmt.lhs):
            return state
        out = dict(state)
        out[stmt.lhs] = _value(state, stmt.rhs)
        return out
    if isinstance(stmt, AddrOf):
        if not fsci._is_tracked(stmt.lhs):
            return state
        out = dict(state)
        out[stmt.lhs] = frozenset({stmt.target})
        return out
    if isinstance(stmt, Load):
        if not fsci._is_tracked(stmt.lhs):
            return state
        gathered: Set[object] = set()
        targets = _value(state, stmt.rhs)
        if UNINIT in targets or NULL_VALUE in targets:
            # Loading through garbage or NULL is UB; the value read
            # is garbage (matches the concrete oracle's model).
            gathered.add(UNINIT)
        for obj in targets:
            if obj not in _SENTINELS:
                gathered.update(_value(state, obj))
        out = dict(state)
        out[stmt.lhs] = frozenset(gathered)
        return out
    if isinstance(stmt, Store):
        targets = _value(state, stmt.lhs)
        real = [o for o in targets if o not in _SENTINELS]
        if not real:
            return state
        rhs_value = _value(state, stmt.rhs)
        out = dict(state)
        if len(real) == 1 and len(targets) == 1:
            (only,) = real
            if fsci._is_tracked(only) and fsci._strong_updatable(only):
                out[only] = rhs_value
                return out
        for obj in real:
            if fsci._is_tracked(obj):
                out[obj] = _value(state, obj) | rhs_value
        return out
    if isinstance(stmt, NullAssign):
        if not fsci._is_tracked(stmt.lhs):
            return state
        out = dict(state)
        out[stmt.lhs] = NULL_SET
        return out
    if isinstance(stmt, Assume):
        return _refine(fsci, state, stmt)
    return state


def _refine(fsci: FSCI, state: PtsState, stmt: Assume) -> PtsState:
    """Path-sensitive refinement (paper Section 3): an assume only
    restricts executions, so intersecting values is sound.  UNINIT
    blocks refinement — garbage can compare equal to anything."""
    lv = _value(state, stmt.lhs)
    if stmt.rhs is None:
        if UNINIT in lv:
            return state
        keep = (lv & NULL_SET) if stmt.equal else (lv - NULL_SET)
        if keep == lv or not fsci._is_tracked(stmt.lhs):
            return state
        out = dict(state)
        out[stmt.lhs] = keep
        return out
    rv = _value(state, stmt.rhs)
    if not stmt.equal or UNINIT in lv or UNINIT in rv:
        return state  # != refines nothing set-wise, in general
    common = lv & rv
    out = dict(state)
    if fsci._is_tracked(stmt.lhs):
        out[stmt.lhs] = common
    if fsci._is_tracked(stmt.rhs):
        out[stmt.rhs] = common
    return out


class ReferenceFSCIResult(FSCIResult):
    """:class:`FSCIResult` over frozenset-valued states: every accessor
    reads the sentinel-carrying sets directly, no mask decoding.  Only
    the mask plumbing (``_mask_before``/``_mask_after``, which the
    summary engine reads) encodes a set, interning its objects into this
    result's own table on first sight."""

    def __init__(self, engine: ForwardDataflow, universe: Set[Var]) -> None:
        super().__init__(engine, universe, NodeTable(reserved=_RESERVED))

    def _encode(self, value: FrozenSet[object]) -> int:
        mask = 0
        for v in value:
            if v is UNINIT:
                mask |= UNINIT_BIT
            elif v is NULL_VALUE:
                mask |= NULL_BIT
            else:
                mask |= self._table.bit(v)
        return mask

    def _mask_before(self, loc: Loc, p: MemObject) -> int:
        return self._encode(_value(self._state_before(loc), p))

    def _mask_after(self, loc: Loc, p: MemObject) -> int:
        return self._encode(_value(self._state_after(loc), p))

    def _state_before(self, loc: Loc) -> PtsState:
        state = self._engine.state_before(loc)
        return state if state is not None else {}

    def _state_after(self, loc: Loc) -> PtsState:
        state = self._engine.state_after(loc)
        return state if state is not None else {}

    def pts_before(self, loc: Loc, p: MemObject) -> FrozenSet[MemObject]:
        return _strip(_value(self._state_before(loc), p))

    def pts_after(self, loc: Loc, p: MemObject) -> FrozenSet[MemObject]:
        return _strip(_value(self._state_after(loc), p))

    def maybe_uninit_before(self, loc: Loc, p: MemObject) -> bool:
        return UNINIT in _value(self._state_before(loc), p)

    def must_point_to(self, p: MemObject, obj: MemObject, loc: Loc) -> bool:
        value = _value(self._state_before(loc), p)
        return value == frozenset({obj})

    def may_null_before(self, loc: Loc, p: MemObject) -> bool:
        value = _value(self._state_before(loc), p)
        return NULL_VALUE in value or UNINIT in value

    def must_null_before(self, loc: Loc, p: MemObject) -> bool:
        return _value(self._state_before(loc), p) == NULL_SET

    def explicit_null_before(self, loc: Loc, p: MemObject) -> bool:
        return NULL_VALUE in _value(self._state_before(loc), p)

    def maybe_uninit_only_before(self, loc: Loc, p: MemObject) -> bool:
        return _value(self._state_before(loc), p) == UNINIT_SET

    def cells_after(self, loc: Loc) -> Dict[MemObject, FrozenSet[MemObject]]:
        return {k: _strip(v) for k, v in self._state_after(loc).items()}

    def may_values_equal(self, p: MemObject, q: MemObject, loc: Loc) -> bool:
        if p == q:
            return True
        vp = _value(self._state_before(loc), p)
        vq = _value(self._state_before(loc), q)
        if UNINIT in vp or UNINIT in vq:
            return True
        if NULL_VALUE in vp and NULL_VALUE in vq:
            return True
        return bool(_strip(vp) & _strip(vq))

    def must_values_equal(self, p: MemObject, q: MemObject, loc: Loc) -> bool:
        if p == q:
            return True
        vp = _value(self._state_before(loc), p)
        vq = _value(self._state_before(loc), q)
        if vp == NULL_SET and vq == NULL_SET:
            return True
        return (len(vp) == 1 and vp == vq and UNINIT not in vp
                and NULL_VALUE not in vp)

    def points_to(self, p: Var) -> FrozenSet[MemObject]:
        if self._summary is None:
            summary: Dict[MemObject, Set[MemObject]] = {}
            for state in self._engine._out.values():
                if state is None:
                    continue
                for k, v in state.items():
                    summary.setdefault(k, set()).update(_strip(v))
            self._summary = {k: frozenset(v) for k, v in summary.items()}
        return self._summary.get(p, EMPTY)


def reference_fsci_run(self: FSCI) -> FSCIResult:
    """Drop-in replacement for :meth:`FSCI.run` (install it with
    ``monkeypatch.setattr(FSCI, "run", reference_fsci_run)``)."""
    graph = Supergraph(self.program, functions=self._functions)
    engine: ForwardDataflow[Optional[PtsState]] = ForwardDataflow(
        graph, partial(_transfer, self), _join, initial={}, bottom=None)
    engine.run(max_iterations=self._max_iterations, deadline=self._deadline)
    return ReferenceFSCIResult(engine, set(self.program.pointers))
