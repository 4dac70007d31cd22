"""Instance model: file format, CARP parsing, generation, preprocessing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdrpp import (
    FormatError,
    GenSpec,
    Instance,
    InstanceError,
    RequiredEdge,
    WeightedGraph,
    add_dummy_nodes,
    generate_instance,
    parse_carp_benchmark,
    parse_instance,
    random_connected_graph,
    serialize_instance,
    validate_instance,
)
from mdrpp.instance import _round_half_up, undirected_edges
from mdrpp.exact import solve_exact

from conftest import reposition_instance, tiny_corpus, trivial_instance, undirected_graph

GOLDEN = """MDRPPRV 1
NAME golden-4
NODES 4
DEPOTS 0 2
VEHICLES 1
CAPACITY 5.0
RECHARGE 0.5
START 0
ARC 0 1 1.0
ARC 0 3 1.0
ARC 1 0 1.0
ARC 1 2 1.0
ARC 2 1 1.0
ARC 2 3 1.0
ARC 3 0 1.0
ARC 3 2 1.0
REQ 0 1
"""


def test_serialize_golden_bytes():
    g = undirected_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    inst = Instance(graph=g, depots=(0, 2), required=(RequiredEdge(0, 1),),
                    vehicles=1, capacity=5.0, recharge_time=0.5,
                    start_depots=(0,), name="golden-4")
    assert serialize_instance(inst) == GOLDEN


def test_parse_serialize_round_trip():
    inst = parse_instance(GOLDEN)
    assert inst.name == "golden-4"
    assert inst.depots == (0, 2)
    assert serialize_instance(inst) == GOLDEN
    # a wind set without wind has mirrored arcs, and equals its re-parse
    base = random_connected_graph(8, 11, seed=3, integer_weights=False)
    calm = generate_instance(base, GenSpec(8, 11, seed=3, set_kind="C", wind_ratio=0.0))
    assert parse_instance(serialize_instance(calm)) == calm


def test_round_trip_on_corpus():
    for inst in tiny_corpus(12):
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert serialize_instance(again) == text
        assert again.graph == inst.graph
        assert again.required == inst.required
        assert again.capacity == inst.capacity


def test_parse_rejects_malformed_input():
    with pytest.raises(FormatError):
        parse_instance("NOTMAGIC 1\nNODES 2\n")
    with pytest.raises(FormatError):
        parse_instance("MDRPPRV 1\nNODES x\n")
    with pytest.raises((FormatError, InstanceError)):
        parse_instance("MDRPPRV 1\nNODES 2\nDEPOTS 0\nVEHICLES 1\n"
                       "CAPACITY 1.0\nRECHARGE 0.0\nSTART 0\n"
                       "ARC 0 1 1.0\nARC 1 0 1.0\nREQ 0 5\n")
    # a non-finite weight is a FormatError at its line; the instance rejects the rest
    base = GOLDEN.replace("REQ 0 1\n", "")
    with pytest.raises(FormatError) as err:
        parse_instance(base.replace("ARC 0 1 1.0", "ARC 0 1 nan"))
    assert err.value.line_no == base.splitlines().index("ARC 0 1 1.0") + 1
    with pytest.raises(InstanceError):
        parse_instance(base.replace("CAPACITY 5.0", "CAPACITY nan"))
    with pytest.raises(InstanceError):
        parse_instance(base.replace("RECHARGE 0.5", "RECHARGE inf"))
    # trailing tokens are a FormatError at their line, never dropped
    for line, bad in [("NODES 4", "NODES 4 5"), ("VEHICLES 1", "VEHICLES 1 2"),
                      ("CAPACITY 5.0", "CAPACITY 5.0 6.0"), ("RECHARGE 0.5", "RECHARGE 0.5 x"),
                      ("ARC 1 0 1.0", "ARC 1 0 1.0 9"), ("REQ 0 1", "REQ 0 1 DIRECTED"),
                      ("REQ 0 1", "REQ 0 1 DIR 2"), ("REQ 0 1", "REQ 0 1 1")]:
        with pytest.raises(FormatError) as err:
            parse_instance(GOLDEN.replace(line, bad))
        assert err.value.line_no == GOLDEN.splitlines().index(line) + 1, bad
    # DIR in any case marks a directed edge; the list directives take any length
    assert parse_instance(GOLDEN.replace("REQ 0 1", "REQ 0 1 dir")).required == (
        RequiredEdge(0, 1, directed=True),)
    assert parse_instance(GOLDEN.replace("NAME golden-4", "NAME golden 4 x")).name == "golden 4 x"
    # a repeated scalar directive is refused at its second line, never overwritten
    for line in ("NAME golden-4", "NODES 4", "DEPOTS 0 2", "VEHICLES 1", "CAPACITY 5.0",
                 "RECHARGE 0.5", "START 0"):
        kind = line.split()[0]
        with pytest.raises(FormatError, match=f"duplicate {kind} line") as err:
            parse_instance(GOLDEN.replace(line, f"{line}\n{line}"))
        assert err.value.line_no == GOLDEN.splitlines().index(line) + 2, line
    # ARC and REQ repeat by design
    assert len(parse_instance(GOLDEN + "REQ 2 3\n").required) == 2


def test_parse_refuses_another_header_version():
    with pytest.raises(FormatError, match="MDRPPRV 7") as err:
        parse_instance(GOLDEN.replace("MDRPPRV 1", "# version 7\nMDRPPRV 7"))
    assert err.value.line_no == 2


def test_parse_refuses_a_header_after_other_directives():
    with pytest.raises(FormatError, match="NAME golden-4") as err:
        parse_instance(GOLDEN.replace("MDRPPRV 1\nNAME golden-4", "NAME golden-4\nMDRPPRV 1"))
    assert err.value.line_no == 1
    with pytest.raises(FormatError, match="duplicate MDRPPRV line") as err:
        parse_instance(GOLDEN + "MDRPPRV 1\n")
    assert err.value.line_no == len(GOLDEN.splitlines()) + 1


def test_comments_and_blank_lines_ignored():
    text = GOLDEN.replace("NODES 4", "# a comment\n\nNODES 4")
    assert serialize_instance(parse_instance(text)) == GOLDEN


CARP_SAMPLE = """NOMBRE : sample
VERTICES : 8
ARISTAS : 11
LISTA_ARISTAS :
( 1 , 2 ) coste 3
( 1 , 4 ) coste 2
( 2 , 3 ) coste 5
( 2 , 5 ) coste 4
( 3 , 6 ) coste 1
( 4 , 5 ) coste 6
( 5 , 6 ) coste 2
( 5 , 7 ) coste 3
( 6 , 8 ) coste 4
( 7 , 8 ) coste 2
( 4 , 7 ) coste 5
"""


def test_parse_carp_benchmark():
    g, edges = parse_carp_benchmark(CARP_SAMPLE)
    assert g.node_count == 8
    assert len(edges) == 11
    assert len(g.arcs) == 22
    assert edges[0] == (0, 1, 3.0)  # 1-based input becomes 0-based
    assert g.min_weight(0, 3) == 2.0


def test_parse_carp_bare_triplet_lines():
    text = "NODES : 3\nEDGES : 2\n1 2 4\n2 3 5\n"
    g, edges = parse_carp_benchmark(text)
    assert g.node_count == 3 and edges == [(0, 1, 4.0), (1, 2, 5.0)]


@pytest.mark.parametrize("line", ["1 3 nan", "1 3 inf", "( 1 , 3 ) coste -2"])
def test_parse_carp_rejects_bad_costs(line):
    with pytest.raises(FormatError) as err:
        parse_carp_benchmark(f"NODES : 3\n1 2 4\n{line}\n")
    assert err.value.line_no == 3


def test_parse_carp_header_mismatch():
    with pytest.raises(FormatError):
        parse_carp_benchmark("VERTICES : 3\nARISTAS : 5\n1 2 4\n")


def test_round_half_up():
    assert _round_half_up(2.5) == 3
    assert _round_half_up(2.4) == 2
    assert _round_half_up(11 / 3) == 4
    assert _round_half_up(8 / 5) == 2


def test_generation_count_formulas():
    base = random_connected_graph(8, 11, seed=3)
    inst = generate_instance(base, GenSpec(8, 11, seed=3, set_kind="A"))
    assert len(inst.depots) == 2          # max(2, round(8/5))
    assert len(inst.required) == 4        # round(11/3)
    assert inst.vehicles == 2             # floor(4/2)
    assert len(inst.start_depots) == inst.vehicles
    max_w = max(w for _, _, w in undirected_edges(base))
    assert inst.capacity == 2.0 * max_w   # tight default for this set


def test_generation_is_seed_deterministic():
    base = random_connected_graph(8, 11, seed=9)
    a = generate_instance(base, GenSpec(8, 11, seed=9))
    b = generate_instance(base, GenSpec(8, 11, seed=9))
    assert serialize_instance(a) == serialize_instance(b)
    c = generate_instance(base, GenSpec(8, 11, seed=10))
    assert serialize_instance(a) != serialize_instance(c)


def test_generation_wind_set_is_asymmetric_and_directed():
    base = random_connected_graph(10, 14, seed=4, integer_weights=False)
    inst = generate_instance(base, GenSpec(10, 14, seed=4, set_kind="C"))
    assert all(e.directed for e in inst.required)
    asym = [a for a in inst.graph.arcs
            if inst.graph.min_weight(a.to, a.frm) != a.weight]
    assert asym, "wind must skew at least one arc pair"
    assert inst.capacity == 31.0
    # wind splits the weight around the base value
    for i, j, w in undirected_edges(base):
        fwd = inst.graph.min_weight(i, j)
        bwd = inst.graph.min_weight(j, i)
        assert min(fwd, bwd) <= w + 1e-9
        assert max(fwd, bwd) >= w - 1e-9


def test_generation_no_duplicate_required():
    for inst in tiny_corpus(40):
        assert "duplicate" not in " ".join(validate_instance(inst))


def test_generation_size_mismatch_raises():
    base = random_connected_graph(6, 8, seed=0)
    with pytest.raises(InstanceError):
        generate_instance(base, GenSpec(7, 8, seed=0))


def test_generation_requires_mirrored_arcs():
    for arcs in ([(0, 1, 1.0)], [(0, 1, 1.0), (1, 0, 2.0)]):  # no mirror, unequal mirror
        with pytest.raises(InstanceError, match="symmetric"):
            undirected_edges(WeightedGraph(2, arcs))
    # a base graph that is one-way and disconnected is reported as one-way
    with pytest.raises(InstanceError, match="symmetric"):
        generate_instance(WeightedGraph(3, [(0, 1, 1.0)]), GenSpec(3, 1, seed=0))


def test_random_connected_graph_needs_two_nodes():
    for edges in (0, 2):
        with pytest.raises(InstanceError, match="two nodes"):
            random_connected_graph(1, edges, seed=1)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_random_connected_graph_is_connected_and_sized(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(2, 12)
    m = rng.randint(n - 1, n + 6)
    g = random_connected_graph(n, m, seed)
    from mdrpp import is_connected

    assert g.node_count == n
    assert len(g.arcs) == 2 * m
    assert is_connected(g)


def test_add_dummy_nodes_single_endpoint():
    g = undirected_graph(3, [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 4.0)])
    inst = Instance(graph=g, depots=(0,), required=(RequiredEdge(0, 1),),
                    vehicles=1, capacity=20.0, recharge_time=1.0,
                    start_depots=(0,))
    out, remap = add_dummy_nodes(inst)
    assert out.graph.node_count == 4
    assert out.required == (RequiredEdge(3, 1),)
    assert remap == {RequiredEdge(3, 1): RequiredEdge(0, 1)}
    assert out.graph.min_weight(0, 3) == 0.0
    assert out.graph.min_weight(3, 1) == 2.0
    # no depot endpoint -> untouched instance object
    inst2 = Instance(graph=g, depots=(2,), required=(RequiredEdge(0, 1),),
                     vehicles=1, capacity=20.0, recharge_time=1.0,
                     start_depots=(2,))
    out2, remap2 = add_dummy_nodes(inst2)
    assert out2 is inst2 and remap2 == {}


def test_add_dummy_nodes_both_endpoints():
    g = undirected_graph(3, [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 4.0)])
    inst = Instance(graph=g, depots=(0, 2), required=(RequiredEdge(0, 2),),
                    vehicles=1, capacity=20.0, recharge_time=1.0,
                    start_depots=(0,))
    out, _ = add_dummy_nodes(inst)
    assert out.graph.node_count == 5
    (moved,) = out.required
    assert moved == RequiredEdge(3, 4)
    assert out.graph.min_weight(0, 3) == 0.0
    assert out.graph.min_weight(2, 4) == 0.0
    assert out.graph.min_weight(3, 4) == 4.0


def test_add_dummy_nodes_preserves_optimum():
    inst = trivial_instance()  # required edge (0, 1) touches depot 0
    out, _ = add_dummy_nodes(inst)
    a = solve_exact(inst)
    b = solve_exact(out)
    assert a is not None and b is not None
    assert a[0].makespan == pytest.approx(b[0].makespan, abs=1e-9)


def test_validate_instance_findings():
    inst = reposition_instance()
    assert validate_instance(inst) == []
    g = undirected_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])  # disconnected
    bad = Instance(graph=g, depots=(0,), required=(RequiredEdge(0, 1), RequiredEdge(1, 0)),
                   vehicles=1, capacity=9.0, recharge_time=0.0,
                   start_depots=(0,))
    findings = " | ".join(validate_instance(bad))
    assert "disconnected" in findings
    assert "duplicate" in findings


def test_instance_constructor_guards():
    g = undirected_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(InstanceError):
        Instance(graph=g, depots=(), required=(), vehicles=1, capacity=1.0,
                 recharge_time=0.0, start_depots=(0,))
    with pytest.raises(InstanceError):
        Instance(graph=g, depots=(0,), required=(), vehicles=0, capacity=1.0,
                 recharge_time=0.0, start_depots=())
    with pytest.raises(InstanceError):
        Instance(graph=g, depots=(0,), required=(RequiredEdge(0, 2),),
                 vehicles=1, capacity=1.0, recharge_time=0.0, start_depots=(0,))
    with pytest.raises(InstanceError):
        Instance(graph=g, depots=(0,), required=(), vehicles=1, capacity=float("nan"),
                 recharge_time=0.0, start_depots=(0,))
    with pytest.raises(InstanceError):
        Instance(graph=g, depots=(0,), required=(), vehicles=1, capacity=1.0,
                 recharge_time=float("inf"), start_depots=(0,))
    with pytest.raises(InstanceError, match="not a depot"):
        Instance(graph=g, depots=(0,), required=(), vehicles=1, capacity=1.0,
                 recharge_time=0.0, start_depots=(2,))
