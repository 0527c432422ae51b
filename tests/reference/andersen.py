"""Frozenset reference solver for Andersen's analysis.

The production solver (:meth:`repro.analysis.Andersen.run`) keeps
points-to sets as int bit masks over interned ids.  This is the
original set-based worklist it was derived from: the same difference
propagation, the same on-the-fly load/store edges and the same periodic
SCC collapse, over plain Python sets.  The differential suites install
it in place of ``Andersen.run`` and require bit-identical results.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.analysis import Andersen, AndersenResult, UnionFind
from repro.analysis.kernel import NodeTable
from repro.ir import AddrOf, Copy, Load, MemObject, Store, Var


def reference_andersen_run(self: Andersen) -> AndersenResult:
    """Drop-in replacement for :meth:`Andersen.run` (install it with
    ``monkeypatch.setattr(Andersen, "run", reference_andersen_run)``)."""
    addr: List[Tuple[MemObject, MemObject]] = []   # lhs ⊇ {target}
    copies: List[Tuple[MemObject, MemObject]] = [] # lhs ⊇ rhs
    loads: List[Tuple[Var, Var]] = []              # lhs ⊇ *rhs
    stores: List[Tuple[Var, Var]] = []             # *lhs ⊇ rhs
    # Interned in statement order, like the kernel, so cluster emission
    # sorts by the same ids.
    table = NodeTable()
    for stmt in self._statements:
        if isinstance(stmt, AddrOf):
            addr.append((stmt.lhs, stmt.target))
            table.intern(stmt.lhs)
            table.intern(stmt.target)
        elif isinstance(stmt, (Copy, Load, Store)):
            table.intern(stmt.lhs)
            table.intern(stmt.rhs)
            if isinstance(stmt, Copy):
                copies.append((stmt.lhs, stmt.rhs))
            elif isinstance(stmt, Load):
                loads.append((stmt.lhs, stmt.rhs))
            else:
                stores.append((stmt.lhs, stmt.rhs))

    uf: UnionFind[MemObject] = UnionFind()
    pts: Dict[MemObject, Set[MemObject]] = {}
    delta: Dict[MemObject, Set[MemObject]] = {}
    succs: Dict[MemObject, Set[MemObject]] = {}
    load_cons: Dict[MemObject, List[MemObject]] = {}
    store_cons: Dict[MemObject, List[MemObject]] = {}
    # Edges already materialized for complex constraints.
    done_edges: Set[Tuple[MemObject, MemObject]] = set()

    def rep(n: MemObject) -> MemObject:
        return uf.find(n)

    def add_edge(src: MemObject, dst: MemObject) -> None:
        src, dst = rep(src), rep(dst)
        if src == dst:
            return
        if dst in succs.setdefault(src, set()):
            return
        succs[src].add(dst)
        new = pts.get(src, set()) - pts.get(dst, set())
        if new:
            pts.setdefault(dst, set()).update(new)
            delta.setdefault(dst, set()).update(new)

    for lhs, target in addr:
        pts.setdefault(rep(lhs), set()).add(target)
        delta.setdefault(rep(lhs), set()).add(target)
    for lhs, rhs in copies:
        add_edge(rhs, lhs)
    for lhs, rhs in loads:
        load_cons.setdefault(rep(rhs), []).append(lhs)
    for lhs, rhs in stores:
        store_cons.setdefault(rep(lhs), []).append(rhs)

    rounds_since_collapse = 0
    while delta:
        node, new_objs = delta.popitem()
        node = rep(node)
        if not new_objs:
            continue
        # Complex constraints: node's points-to grew, so loads from
        # and stores through node gain edges.
        for dst in load_cons.get(node, ()):  # dst = *node
            for obj in new_objs:
                key = (rep(obj), rep(dst))
                if key not in done_edges:
                    done_edges.add(key)
                    add_edge(obj, dst)
        for src in store_cons.get(node, ()):  # *node = src
            for obj in new_objs:
                key = (rep(src), rep(obj))
                if key not in done_edges:
                    done_edges.add(key)
                    add_edge(src, obj)
        # Propagate along copy edges.
        for dst in list(succs.get(node, ())):
            dst = rep(dst)
            if dst == node:
                continue
            fresh = new_objs - pts.get(dst, set())
            if fresh:
                pts.setdefault(dst, set()).update(fresh)
                delta.setdefault(dst, set()).update(fresh)
        rounds_since_collapse += 1
        if (self._cycle_elimination and not delta
                and rounds_since_collapse > len(succs)):
            rounds_since_collapse = 0
            _collapse_sccs(uf, pts, delta, succs, load_cons, store_cons)

    # Canonicalize: every object maps to its representative's set,
    # with members of merged classes sharing the same set.
    final: Dict[MemObject, FrozenSet[MemObject]] = {}
    for obj in set(self.program.objects) | set(pts):
        final[obj] = frozenset(pts.get(rep(obj), ()))
    return AndersenResult(final, set(self.program.pointers), table)


def _collapse_sccs(uf: UnionFind[MemObject],
                   pts: Dict[MemObject, Set[MemObject]],
                   delta: Dict[MemObject, Set[MemObject]],
                   succs: Dict[MemObject, Set[MemObject]],
                   load_cons: Dict[MemObject, List[MemObject]],
                   store_cons: Dict[MemObject, List[MemObject]]) -> None:
    """Collapse copy-edge SCCs (pointer equivalence), remapping every
    side table onto class representatives."""
    nodes = list(succs)
    index: Dict[MemObject, int] = {}
    low: Dict[MemObject, int] = {}
    on_stack: Set[MemObject] = set()
    stack: List[MemObject] = []
    counter = [0]
    merged_any = [False]

    def connect(root: MemObject) -> None:
        work: List[Tuple[MemObject, Iterable[MemObject]]] = \
            [(root, iter(list(succs.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                nxt = uf.find(nxt)
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(list(succs.get(nxt, ())))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[node])
            if low[node] == index[node]:
                comp: List[MemObject] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                if len(comp) > 1:
                    merged_any[0] = True
                    base = comp[0]
                    for other in comp[1:]:
                        uf.union(base, other)

    for n in nodes:
        if uf.find(n) == n and n not in index:
            connect(n)
    if not merged_any[0]:
        return
    # Rebuild side tables keyed by representatives.
    for table in (pts, delta):
        old = list(table.items())
        table.clear()
        for key, val in old:
            table.setdefault(uf.find(key), set()).update(val)
    old_succs = list(succs.items())
    succs.clear()
    for key, val in old_succs:
        r = uf.find(key)
        succs.setdefault(r, set()).update(uf.find(v) for v in val)
        succs[r].discard(r)
    for cons in (load_cons, store_cons):
        old_cons = list(cons.items())
        cons.clear()
        for key, val in old_cons:
            cons.setdefault(uf.find(key), []).extend(val)
    # Merged classes may now have unpropagated facts.
    for key, val in list(pts.items()):
        delta.setdefault(key, set()).update(val)
