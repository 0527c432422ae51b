"""Constraint atoms, conjunction, and FSCI-backed satisfiability."""

import pytest

from repro.analysis import (
    FSCI,
    TRUE,
    SatOracle,
    conjoin,
    format_constraint,
    merge,
    points_to_atom,
    same_object_atom,
)
from repro.analysis.constraints import atom_key
from repro.ir import AllocSite, Loc, ProgramBuilder, Var

L = Loc("main", 1)
R, S, T = Var("r", "main"), Var("s", "main"), Var("t", "main")


class TestConjunction:
    def test_true_is_empty(self):
        assert TRUE == frozenset()
        assert format_constraint(TRUE) == "true"

    def test_conjoin_adds_atom(self):
        a = points_to_atom(L, R, S)
        c = conjoin(TRUE, a)
        assert c == frozenset({a})

    def test_syntactic_contradiction_kept(self):
        """a and ¬a at the same static location can both hold — in
        different dynamic instances (loop iterations / repeated calls) —
        so conjunction must not prune them."""
        a = points_to_atom(L, R, S, True)
        c = conjoin(conjoin(TRUE, a), a.negated())
        assert c is not None and a in c and a.negated() in c

    def test_idempotent(self):
        a = same_object_atom(L, R, S)
        c = conjoin(conjoin(TRUE, a), a)
        assert len(c) == 1

    def test_negated_twice_is_identity(self):
        a = points_to_atom(L, R, S)
        assert a.negated().negated() == a

    def test_cap_keeps_newest_atom(self):
        atoms = [points_to_atom(Loc("main", i), R, S) for i in range(5)]
        c = TRUE
        for a in atoms:
            c = conjoin(c, a, max_atoms=3)
        assert len(c) <= 3
        assert atoms[-1] in c

    def test_cap_keeps_new_atom_and_smallest_others(self):
        """Over the cap, ``conjoin`` keeps the new atom plus the
        ``max_atoms - 1`` smallest other atoms in ``atom_key`` order —
        whatever order the others arrived in."""
        a = [points_to_atom(Loc("main", i), R, S) for i in range(5)]
        assert conjoin(frozenset(a[:3]), a[4], max_atoms=3) == \
            frozenset({a[0], a[1], a[4]})
        assert conjoin(frozenset({a[0], a[1], a[4]}), a[3], max_atoms=3) \
            == frozenset({a[0], a[1], a[3]})
        assert conjoin(frozenset(a[2:]), a[0], max_atoms=3) == \
            frozenset({a[0], a[2], a[3]})
        # Already present: unchanged, even at the cap.
        assert conjoin(frozenset(a[:3]), a[1], max_atoms=3) == \
            frozenset(a[:3])
        assert sorted(a[::-1], key=atom_key) == a

    def test_merge_under_cap_follows_atom_order(self):
        """``merge`` conjoins ``b``'s atoms in ``atom_key`` order, so
        the capped result is the same for equal sets built in any order
        (set iteration order follows the hash seed)."""
        a = [points_to_atom(Loc("main", i), R, S) for i in range(5)]
        want = frozenset({a[0], a[4]})
        assert merge(TRUE, frozenset(a), max_atoms=2) == want
        assert merge(TRUE, frozenset(reversed(a)), max_atoms=2) == want
        assert merge(frozenset({a[2]}), frozenset({a[4], a[0]}),
                     max_atoms=2) == frozenset({a[0], a[4]})

    def test_atom_key_orders_mixed_objects(self):
        """The dataclass order raises on a global vs a local of the same
        name and on a variable vs an allocation site; ``atom_key`` orders
        them (globals first, variables before allocation sites), so a
        capped conjunction over such atoms works."""
        glob, loc_ = Var("x"), Var("x", "main")
        heap = AllocSite("main:3")
        atoms = [points_to_atom(L, R, o) for o in (heap, loc_, glob)]
        with pytest.raises(TypeError):
            sorted(atoms)
        assert sorted(atoms, key=atom_key) == atoms[::-1]
        c = conjoin(frozenset(atoms[1:]), atoms[0], max_atoms=2)
        assert c == frozenset({atoms[2], atoms[0]})

    def test_merge_combines(self):
        c1 = conjoin(TRUE, points_to_atom(L, R, S))
        c2 = conjoin(TRUE, same_object_atom(L, R, T))
        merged = merge(c1, c2)
        assert len(merged) == 2

    def test_merge_keeps_both_polarities(self):
        a = points_to_atom(L, R, S)
        merged = merge(frozenset({a}), frozenset({a.negated()}))
        assert merged == frozenset({a, a.negated()})

    def test_format_renders_all_ops(self):
        c = merge(frozenset({points_to_atom(L, R, S)}),
                  frozenset({same_object_atom(L, R, T, False)}))
        text = format_constraint(c)
        assert "->" in text and "!=" in text


class TestSatOracle:
    def _fsci(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.addr("r", "a")
            f.addr("s", "a")
            f.addr("t", "b")
            f.skip("query")
        prog = b.build()
        return prog, FSCI(prog).run()

    def test_without_fsci_everything_satisfiable(self):
        oracle = SatOracle(None)
        assert oracle.atom_satisfiable(points_to_atom(L, R, S))
        assert oracle.atom_satisfiable(points_to_atom(L, R, S, False))

    def test_positive_points_to(self):
        prog, fsci = self._fsci()
        oracle = SatOracle(fsci)
        cfg = prog.cfg_of("main")
        q = Loc("main", cfg.exit)
        r, a, b = (Var(n, "main") for n in ("r", "a", "b"))
        assert oracle.atom_satisfiable(points_to_atom(q, r, a))
        assert not oracle.atom_satisfiable(points_to_atom(q, r, b))

    def test_negative_points_to_needs_must(self):
        prog, fsci = self._fsci()
        oracle = SatOracle(fsci)
        q = Loc("main", prog.cfg_of("main").exit)
        r, a = Var("r", "main"), Var("a", "main")
        # r must point to a (singleton may set): r -/-> a unsatisfiable.
        assert not oracle.atom_satisfiable(points_to_atom(q, r, a, False))

    def test_same_object_positive(self):
        prog, fsci = self._fsci()
        oracle = SatOracle(fsci)
        q = Loc("main", prog.cfg_of("main").exit)
        r, s, t = (Var(n, "main") for n in "rst")
        assert oracle.atom_satisfiable(same_object_atom(q, r, s))
        assert not oracle.atom_satisfiable(same_object_atom(q, r, t))

    def test_same_object_negative(self):
        prog, fsci = self._fsci()
        oracle = SatOracle(fsci)
        q = Loc("main", prog.cfg_of("main").exit)
        r, s, t = (Var(n, "main") for n in "rst")
        # r and s must both point to a: r != s unsatisfiable.
        assert not oracle.atom_satisfiable(same_object_atom(q, r, s, False))
        assert oracle.atom_satisfiable(same_object_atom(q, r, t, False))

    def test_conjunction_satisfiability(self):
        prog, fsci = self._fsci()
        oracle = SatOracle(fsci)
        q = Loc("main", prog.cfg_of("main").exit)
        r, a, b = (Var(n, "main") for n in ("r", "a", "b"))
        good = frozenset({points_to_atom(q, r, a)})
        bad = frozenset({points_to_atom(q, r, a), points_to_atom(q, r, b)})
        assert oracle.satisfiable(good)
        assert not oracle.satisfiable(bad)

    def test_same_var_same_object(self):
        oracle = SatOracle(None)
        assert oracle.atom_satisfiable(same_object_atom(L, R, R))
