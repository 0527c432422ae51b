"""IR JSON round-tripping."""

import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro import parse_program
from repro.analysis import Andersen, execute
from repro.bench import sources
from repro.core import BootstrapAnalyzer, Cluster, RelevantSlice
from repro.ir import (
    format_program,
    load_program,
    program_from_dict,
    program_to_dict,
    save_program,
)
from repro.ir.cfg import Loc
from repro.ir.serialize import (
    cluster_from_dict,
    cluster_to_dict,
    slice_from_dict,
    slice_to_dict,
)
from repro.ir.statements import AllocSite, Var

from .helpers import (
    call_chain_program,
    diamond_program,
    figure2_program,
    figure5_program,
    recursive_program,
)
from .test_properties import programs


ALL = [figure2_program, figure5_program, diamond_program,
       call_chain_program, recursive_program]


class TestRoundTrip:
    @pytest.mark.parametrize("make", ALL)
    def test_text_identical(self, make):
        prog = make()
        again = program_from_dict(program_to_dict(prog))
        assert format_program(again) == format_program(prog)

    @pytest.mark.parametrize("make", ALL)
    def test_analysis_identical(self, make):
        prog = make()
        again = program_from_dict(program_to_dict(prog))
        a1, a2 = Andersen(prog).run(), Andersen(again).run()
        for p in prog.pointers:
            assert a1.points_to(p) == a2.points_to(p), str(p)

    def test_json_serializable(self):
        data = program_to_dict(figure5_program())
        json.loads(json.dumps(data))

    def test_file_round_trip(self, tmp_path):
        prog = figure2_program()
        path = str(tmp_path / "prog.json")
        save_program(prog, path)
        again = load_program(path)
        assert format_program(again) == format_program(prog)

    def test_frontend_program_round_trips(self):
        prog = sources.load("char_device")
        again = program_from_dict(program_to_dict(prog))
        assert format_program(again) == format_program(prog)

    def test_indirect_targets_preserved(self):
        prog = sources.load("fops_dispatch")
        again = program_from_dict(program_to_dict(prog))
        from repro.ir import CallStmt
        t1 = sorted(tuple(s.targets) for _, s in prog.statements()
                    if isinstance(s, CallStmt))
        t2 = sorted(tuple(s.targets) for _, s in again.statements()
                    if isinstance(s, CallStmt))
        assert t1 == t2

    def test_version_checked(self):
        data = program_to_dict(figure2_program())
        data["version"] = 999
        with pytest.raises(ValueError):
            program_from_dict(data)

    @given(programs())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_random_programs_round_trip(self, prog):
        again = program_from_dict(program_to_dict(prog))
        assert format_program(again) == format_program(prog)
        orc1 = execute(prog, max_steps=150, max_paths=200)
        orc2 = execute(again, max_steps=150, max_paths=200)
        for p in prog.pointers:
            assert orc1.points_to(p) == orc2.points_to(p)


SPAN_SOURCE = """
int x;
int *p;

int main() {
    p = &x;
    return 0;
}
"""


class TestSpanRoundTrip:
    def test_frontend_spans_survive(self):
        """Spans (format version 2+): parsed programs carry source spans
        and a dict round-trip preserves every one, position for
        position."""
        prog = parse_program(SPAN_SOURCE)
        data = program_to_dict(prog)
        assert data["version"] == 3
        assert any("spans" in fd for fd in data["functions"].values())
        again = program_from_dict(data)
        for name, fn in prog.functions.items():
            cfg, cfg2 = fn.cfg, again.functions[name].cfg
            for idx in cfg.nodes():
                assert cfg2.span(idx) == cfg.span(idx)

    def test_span_encoding_shape(self):
        prog = parse_program(SPAN_SOURCE)
        data = program_to_dict(prog)
        for fd in data["functions"].values():
            for span in fd.get("spans", []):
                if span is not None:
                    assert len(span) == 4  # line, col, end_line, end_col
                    assert all(isinstance(n, int) for n in span[:2])
                    assert all(n is None or isinstance(n, int)
                               for n in span[2:])

    def test_version1_dump_without_spans_loads(self):
        data = program_to_dict(parse_program(SPAN_SOURCE))
        for fd in data["functions"].values():
            fd.pop("spans", None)
        data["version"] = 1
        again = program_from_dict(data)
        assert all(again.cfg_of(f).span(i) is None
                   for f in again.functions
                   for i in again.cfg_of(f).nodes())


def _sample_slice(reverse=False):
    """One slice built from differently-ordered collections, to pin the
    canonical-order guarantee."""
    members = [Var("p"), Var("q", "f"), AllocSite("A1")]
    locs = [Loc("main", 2), Loc("f", 0), Loc("main", 1)]
    if reverse:
        members = list(reversed(members))
        locs = list(reversed(locs))
    return RelevantSlice(cluster=frozenset(members),
                         vp=frozenset(members + [Var("r")]),
                         statements=frozenset(locs))


class TestClusterRoundTrip:
    def test_slice_round_trips(self):
        sl = _sample_slice()
        assert slice_from_dict(slice_to_dict(sl)) == sl

    def test_cluster_round_trips(self):
        sl = _sample_slice()
        cluster = Cluster(members=sl.cluster, slice=sl, origin="andersen",
                          parent_size=7, parent_slice=_sample_slice())
        again = cluster_from_dict(cluster_to_dict(cluster))
        assert again == cluster
        assert again.parent_slice == cluster.parent_slice

    def test_cluster_without_parent_round_trips(self):
        sl = _sample_slice()
        cluster = Cluster(members=sl.cluster, slice=sl,
                          origin="steensgaard", parent_size=3)
        again = cluster_from_dict(cluster_to_dict(cluster))
        assert again == cluster
        assert again.parent_slice is None

    def test_equal_values_serialize_byte_identically(self):
        """The summary cache hashes these dicts: set-iteration order must
        never leak into the JSON."""
        a, b = _sample_slice(), _sample_slice(reverse=True)
        assert a == b
        blob_a = json.dumps(slice_to_dict(a), sort_keys=True)
        blob_b = json.dumps(slice_to_dict(b), sort_keys=True)
        assert blob_a == blob_b

    def test_cascade_clusters_round_trip(self):
        """Every cluster the real cascade produces survives shipment."""
        boot = BootstrapAnalyzer(parse_program(SPAN_SOURCE)).run()
        for cluster in boot.clusters:
            data = json.loads(json.dumps(cluster_to_dict(cluster)))
            assert cluster_from_dict(data) == cluster


class TestWireFormat:
    """Version-2 interned payloads: round-trip identity and the
    size-regression contract against the legacy inline format."""

    def _table(self):
        from repro.ir import SymbolTable
        return SymbolTable()

    @pytest.mark.parametrize("factory", ALL,
                             ids=[f.__name__ for f in ALL])
    def test_program_round_trips(self, factory):
        from repro.ir import decode_symbols, program_from_wire, program_to_wire
        program = factory()
        table = self._table()
        wire = json.loads(json.dumps(program_to_wire(program, table)))
        objs = decode_symbols(table.syms, table.fnames)
        again = program_from_wire(wire, objs, table.fnames)
        assert format_program(again) == format_program(program)

    @given(program=programs())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_programs_round_trip(self, program):
        from repro.ir import decode_symbols, program_from_wire, program_to_wire
        table = self._table()
        wire = json.loads(json.dumps(program_to_wire(program, table)))
        objs = decode_symbols(table.syms, table.fnames)
        again = program_from_wire(wire, objs, table.fnames)
        assert format_program(again) == format_program(program)

    def test_cluster_round_trips(self):
        from repro.ir import cluster_from_wire, cluster_to_wire, decode_symbols
        sl = _sample_slice()
        cluster = Cluster(members=sl.cluster, slice=sl, origin="andersen",
                          parent_size=7, parent_slice=_sample_slice())
        table = self._table()
        wire = json.loads(json.dumps(cluster_to_wire(cluster, table)))
        objs = decode_symbols(table.syms, table.fnames)
        again = cluster_from_wire(wire, objs, table.fnames)
        assert again == cluster
        assert again.parent_slice == cluster.parent_slice

    def test_symbol_table_is_order_deterministic(self):
        from repro.ir import slice_to_wire
        a, b = _sample_slice(), _sample_slice(reverse=True)
        ta, tb = self._table(), self._table()
        wa = json.dumps(slice_to_wire(a, ta), sort_keys=True)
        wb = json.dumps(slice_to_wire(b, tb), sort_keys=True)
        assert wa == wb
        assert ta.syms == tb.syms and ta.fnames == tb.fnames

    def test_clone_isolates_tails(self):
        table = self._table()
        table.ref(Var("p"))
        clone = table.clone()
        clone.ref(Var("q", "f"))
        clone.fref("g")
        assert len(table) == 1 and len(clone) == 2
        assert table.fnames == [] and clone.fnames == ["f", "g"]


class TestPayloadSizeRegression:
    """The interned sendmail payload must be *strictly smaller* than the
    inline version-1 format (rebuilt by ``tests/reference/``), and
    decode node-for-node identical."""

    def _payloads(self):
        from repro.bench import build
        from repro.core import BootstrapConfig, CascadeConfig
        from repro.core.shipping import build_payload
        from repro.ir import CallGraph

        from .reference import build_v1_payload
        program = build("sendmail", scale=0.004).program
        config = BootstrapConfig(
            cascade=CascadeConfig(andersen_threshold=6))
        boot = BootstrapAnalyzer(program, config).run()
        callgraph = CallGraph(program)
        v1_cache, v2_cache = {}, {}
        pairs = []
        for cluster in boot.clusters:
            v1 = build_v1_payload(program, cluster, callgraph=callgraph,
                                  subprogram_cache=v1_cache)
            v2 = build_payload(program, cluster, callgraph=callgraph,
                               subprogram_cache=v2_cache)
            pairs.append((v1, v2))
        return pairs

    @staticmethod
    def _size(payload):
        return len(json.dumps(payload, sort_keys=True,
                              separators=(",", ":")).encode("utf-8"))

    def test_interned_payloads_strictly_smaller_and_identical(self):
        from repro.core.shipping import (
            _fsci_fingerprint,
            payload_cluster,
            payload_program,
        )

        from .reference import v1_cluster, v1_fsci_fingerprint, v1_program
        pairs = self._payloads()
        assert pairs
        groups_v1, groups_v2 = {}, {}
        for i, (v1, v2) in enumerate(pairs):
            assert v2["version"] == 2 and v1["version"] == 1
            assert self._size(v2) < self._size(v1), f"cluster {i}"
            # Node-for-node identical decode through a real JSON hop.
            hop = json.loads(json.dumps(v2))
            assert format_program(payload_program(hop)) == \
                format_program(v1_program(v1))
            assert payload_cluster(hop) == v1_cluster(v1)
            assert v2["config"] == v1["config"]
            groups_v1.setdefault(v1_fsci_fingerprint(v1), []).append(i)
            groups_v2.setdefault(_fsci_fingerprint(v2), []).append(i)
        # Sibling sub-clusters share worker-side FSCI runs; the interned
        # format must preserve exactly that grouping.
        assert sorted(groups_v1.values()) == sorted(groups_v2.values())
