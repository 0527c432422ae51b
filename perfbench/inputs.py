"""Seeded benchmark inputs: programs, one-function edits and queries.

Everything here is a pure function of the run's ``--seed``; the program
under test only ever sees the generated programs, sources and queries.

Why the seed relabels instead of regenerating: the corpus generator's
seed changes a program's *shape*, and with it the amount of work.
Regenerating ``sendmail`` at scale 0.01 with ten different seeds made a
whole-program analysis take anywhere from 1.2 s to 7.2 s, a spread no
regression bound can absorb.  So each workload keeps its Table 1
stand-in (the corpus program at its own fixed seed) and the run's seed
renames every variable and heap object (which reorders every sorted
traversal in the analyses), picks the one-function edit, and picks the
queries.  Summary entries and FSCI iterations stay identical under
relabelling; only the order-sensitive engine step count moves (by about
0.2%).
"""

from __future__ import annotations

import random
import re
from bisect import bisect_right
from itertools import accumulate
from typing import Any, Dict, List, Tuple

from repro.bench.corpus import build
from repro.bench.synth import SynthConfig, generate_source
from repro.ir import Loc
from repro.ir.serialize import program_to_dict


def _is_var(node: Dict[str, Any]) -> bool:
    return len(node) == 2 and "n" in node and "f" in node


def _is_alloc(node: Dict[str, Any]) -> bool:
    return len(node) == 1 and "alloc" in node


def _symbols(node: Any, functions: set, out: set) -> None:
    if isinstance(node, dict):
        if _is_var(node):
            # Conduits ($param/$retval/$t) and function designators keep
            # their names: the IR gives both a meaning.
            if not node["n"].startswith("$") and node["n"] not in functions:
                out.add(node["n"])
        elif _is_alloc(node):
            out.add("@" + node["alloc"])
        else:
            for value in node.values():
                _symbols(value, functions, out)
    elif isinstance(node, list):
        for value in node:
            _symbols(value, functions, out)


def _rename(node: Any, mapping: Dict[str, str]) -> Any:
    if isinstance(node, dict):
        if _is_var(node):
            return {"n": mapping.get(node["n"], node["n"]), "f": node["f"]}
        if _is_alloc(node):
            return {"alloc": mapping["@" + node["alloc"]]}
        return {key: _rename(value, mapping) for key, value in node.items()}
    if isinstance(node, list):
        return [_rename(value, mapping) for value in node]
    return node


def relabel(data: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """A serialized program with every variable and allocation site
    renamed by a seeded permutation."""
    names: set = set()
    _symbols(data, set(data["functions"]), names)
    ordered = sorted(names)
    slots = list(range(len(ordered)))
    random.Random(seed).shuffle(slots)
    mapping = {name: f"s{slot}" for name, slot in zip(ordered, slots)}
    return _rename(data, mapping)


def edit_one_function(data: Dict[str, Any], seed: int
                      ) -> Tuple[Dict[str, Any], str]:
    """Retarget one address-of statement to another object the same
    function already takes the address of: a one-function edit that
    keeps the program's shape.  Returns the edited copy and a label."""
    candidates: List[Tuple[str, int, Dict[str, Any]]] = []
    for fname in sorted(data["functions"]):
        if fname == data["entry"]:
            continue
        stmts = data["functions"][fname]["stmts"]
        targets = [s["t"] for s in stmts if s["k"] == "addr"]
        for index, stmt in enumerate(stmts):
            if stmt["k"] != "addr":
                continue
            others = [t for t in targets if t != stmt["t"]]
            if others:
                candidates.append((fname, index, others[0]))
    if not candidates:
        raise ValueError("program has no function with two address-of "
                         "targets to swap")
    fname, index, target = random.Random(seed).choice(candidates)
    stmts = [dict(s) for s in data["functions"][fname]["stmts"]]
    stmts[index]["t"] = target
    edited = dict(data)
    edited["functions"] = dict(data["functions"])
    edited["functions"][fname] = dict(data["functions"][fname], stmts=stmts)
    return edited, f"{fname}:{index}"


def corpus_variants(name: str, scale: float, seed: int
                    ) -> Dict[str, Dict[str, Any]]:
    """The relabelled corpus program and its one-function edit, as
    serialized programs (``base`` and ``edited``)."""
    base = relabel(program_to_dict(build(name, scale).program), seed)
    edited, _ = edit_one_function(base, seed)
    return {"base": base, "edited": edited}


# ----------------------------------------------------------------------
# alias queries
# ----------------------------------------------------------------------
Query = Tuple[Any, Any, Loc]


def alias_queries(result: Any, rng: random.Random, count: int
                  ) -> List[Query]:
    """``count`` may-alias queries: a cluster with at least two pointers
    drawn in proportion to its pointer count, two distinct pointers of
    it, and a location in a function of its slice."""
    program = result.program
    clusters = [c for c in result.clusters
                if len(c.pointer_members) >= 2 and c.slice.statements]
    # Systematic sampling: each cluster gets its expected share of the
    # queries rounded up or down, so every seed queries the same mix of
    # clusters (and pays the same first-touch FSCI runs, which set the
    # tail).  The seed picks the rounding, the order, the pointers and
    # the locations.
    bounds = list(accumulate(len(c.pointer_members) for c in clusters))
    offset = rng.random()
    picks = [clusters[bisect_right(bounds, (k + offset) * bounds[-1] / count)]
             for k in range(count)]
    rng.shuffle(picks)
    out: List[Query] = []
    for cluster in picks:
        p, q = rng.sample(sorted(cluster.pointer_members, key=str), 2)
        func = rng.choice(sorted(cluster.slice.functions()))
        out.append((p, q, Loc(func, rng.randrange(len(program.cfg_of(func))))))
    return out


# ----------------------------------------------------------------------
# the daemon session's source and its edits
# ----------------------------------------------------------------------
def edit_source(pointers: int, seed: int) -> str:
    """The mini-C program the daemon serves: one function per pointer
    web, all called from ``main``."""
    return generate_source(SynthConfig(name="perfbench-edit",
                                       pointers=pointers, seed=seed))


def web_count(source: str) -> int:
    return len(re.findall(r"^void web\d+\(void\)", source, re.M))


def edit_web(source: str, web: int) -> str:
    """Rebind web ``web``'s second pointer from a copy of the first to
    the address of the web's first target.  Applied cumulatively to
    distinct webs, no edited source ever repeats an earlier one, so the
    daemon's cluster store cannot answer an edit for free."""
    old = f"w{web}p1 = w{web}p0;"
    if old not in source:
        raise ValueError(f"web {web} was already edited")
    return source.replace(old, f"w{web}p1 = &w{web}t0;", 1)


def web_pointers(source: str, web: int) -> List[str]:
    return sorted(set(re.findall(rf"\bw{web}p\d+\b", source)))
