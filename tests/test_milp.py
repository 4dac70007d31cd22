"""Model materialization: counts, writers, encode/check/decode, trip driver."""

import hashlib
from collections import Counter

import pytest

from mdrpp import (
    Instance,
    RequiredEdge,
    add_dummy_nodes,
    build_model,
    check_assignment,
    decode_solution,
    encode_solution,
    check_feasibility,
    solve_multitrip,
    write_lp,
    write_mps,
)
from mdrpp import milp
from mdrpp.milp import (
    Column,
    MilpModel,
    ModelSizeError,
    Row,
    SolveResult,
    SolverResourceLimit,
    TripCapExceeded,
    count_columns,
    iterative_f_driver,
)
from mdrpp.exact import solve_exact

from conftest import (
    integer_instance,
    reposition_instance,
    tiny_corpus,
    trivial_instance,
    undirected_graph,
)


def small_model(num_trips=2):
    inst, _ = add_dummy_nodes(reposition_instance())
    return inst, build_model(inst, num_trips)


def test_column_count_formula():
    inst, model = small_model()
    n_arcs = len(inst.graph.arcs)
    assert len(model.columns) == count_columns(
        n_arcs, len(inst.depots), inst.vehicles, 2)
    # the classic small shape: 1 vehicle, 1 trip, 11 edges (22 arcs), 2 depots
    assert count_columns(22, 2, 1, 1) == 26


def test_variable_families_and_bounds():
    inst, model = small_model()
    kinds = {}
    for col in model.columns:
        kind = col.name.split("_", 1)[0]
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "beta":
            assert not col.integer and col.objective == 1.0
        else:
            assert col.integer and (col.lower, col.upper) == (0.0, 1.0)
    assert kinds.keys() == {"x", "y", "z", "beta"}
    assert kinds["beta"] == 1
    assert kinds["x"] == inst.vehicles * model.num_trips * len(model.arcs)
    assert kinds["y"] == inst.vehicles * model.num_trips * len(inst.depots)
    assert kinds["z"] == inst.vehicles * model.num_trips


def test_big_m_is_twice_arc_count_plus_one():
    inst, model = small_model()
    big_m = 2 * len(inst.graph.arcs) + 1
    gates = [row for row in model.rows if row.name.startswith("gate_")]
    assert len(gates) == inst.vehicles * model.num_trips
    for row in gates:
        z = "z_" + row.name.split("_", 1)[1]
        assert [c for col, c in row.coeffs if model.columns[col].name == z] == [-big_m]


def test_parallel_copies_of_a_required_edge():
    # the required edge (1, 2) has two copies; sorted arcs put the cheaper first
    g = undirected_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (1, 2, 1.5), (2, 3, 1.0), (3, 0, 1.0)])
    inst = Instance(graph=g, depots=(0,), required=(RequiredEdge(1, 2),), vehicles=2,
                    capacity=20.0, recharge_time=0.5, start_depots=(0, 0))
    model = build_model(inst, 2)
    names = [c.name for c in model.columns]
    cover = next(row for row in model.rows if row.name == "cover_0")
    assert [names[col] for col, _ in cover.coeffs] == [
        f"x_{k}_{f}_{arc}" for k in range(2) for f in range(2)
        for arc in ("1_2", "1_2_p1", "2_1", "2_1_p1")]

    from mdrpp import Route, Solution, Trip

    walk = (0, 1, 2, 3, 0)
    sol = Solution((Route(0, (Trip(walk, 4.5),)), Route(1, ())),
                   4.5, ())
    num_trips, assignment = encode_solution(inst, sol)
    assert assignment["x_0_0_1_2"] == 1.0 and "x_0_0_1_2_p1" not in assignment
    assert assignment["beta"] == pytest.approx(4.5)
    assert check_assignment(build_model(inst, num_trips), assignment) == []


def test_build_model_input_guards():
    inst, _ = small_model()
    with pytest.raises(ValueError):
        build_model(inst, 0)
    with pytest.raises(ValueError):
        build_model(inst, 1, subtour_mode="lazy")
    with pytest.raises(ModelSizeError) as err:
        build_model(inst, 1, subtour_cap=3)
    assert "cap" in str(err.value) and "3" in str(err.value)


def parse_lp(text: str):
    """Minimal CPLEX-LP reader returning (objective, rows, binaries)."""
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.startswith("\\")]
    section = None
    objective = {}
    rows = {}
    binaries = set()
    for ln in lines:
        low = ln.lower()
        if low in ("minimize", "subject to", "bounds", "binaries", "end"):
            section = low
            continue
        if section == "minimize":
            body = ln.split(":", 1)[1]
            objective = parse_expr(body)
        elif section == "subject to":
            name, body = ln.split(":", 1)
            for op in ("<=", ">=", "="):
                if op in body:
                    expr, rhs = body.rsplit(op, 1)
                    rows[name.strip()] = (parse_expr(expr), op, float(rhs))
                    break
        elif section == "binaries":
            binaries.add(ln)
    return objective, rows, binaries


def parse_expr(body: str):
    tokens = body.replace("+", " + ").replace("-", " - ").split()
    coeffs = {}
    sign = 1.0
    pending = None
    for tok in tokens:
        if tok == "+":
            sign = 1.0
        elif tok == "-":
            sign = -1.0
        else:
            try:
                pending = sign * float(tok)
            except ValueError:
                coeffs[tok] = coeffs.get(tok, 0.0) + (pending if pending is not None else sign)
                pending = None
                sign = 1.0
    return coeffs


def parse_mps(text: str):
    """Minimal fixed-MPS reader returning (objective, rows, binaries)."""
    section = None
    senses = {}
    order = []
    matrix = {}
    objective = {}
    rhs = {}
    binaries = set()
    integer = False
    for raw in text.splitlines():
        if not raw.strip():
            continue
        if not raw.startswith(" "):
            section = raw.split()[0]
            continue
        fields = raw.split()
        if section == "ROWS":
            sense, name = fields
            if sense == "N":
                continue
            senses[name] = sense
            order.append(name)
        elif section == "COLUMNS":
            if "'MARKER'" in fields:
                integer = fields[-1].strip("'") == "INTORG"
                continue
            col = fields[0]
            if integer:
                binaries.add(col)
            for pos in range(1, len(fields), 2):
                row, val = fields[pos], float(fields[pos + 1])
                if row == "COST":
                    objective[col] = val
                else:
                    matrix.setdefault(row, {})[col] = val
        elif section == "RHS":
            rhs[fields[1]] = float(fields[2])
    op_of = {"E": "=", "L": "<=", "G": ">="}
    rows = {name: (matrix.get(name, {}), op_of[senses[name]], rhs.get(name, 0.0))
            for name in order}
    return objective, rows, binaries


def model_matrix(model):
    objective = {c.name: c.objective for c in model.columns if c.objective != 0.0}
    op_of = {"E": "=", "L": "<=", "G": ">="}
    rows = {}
    for row in model.rows:
        coeffs = {}
        for col, coeff in row.coeffs:
            coeffs[model.columns[col].name] = coeffs.get(model.columns[col].name, 0.0) + coeff
        rows[row.name] = (coeffs, op_of[row.sense], row.rhs)
    binaries = {c.name for c in model.columns if c.integer}
    return objective, rows, binaries


def assert_same_matrix(a, b):
    obj_a, rows_a, bin_a = a
    obj_b, rows_b, bin_b = b
    assert obj_a.keys() == obj_b.keys()
    for k in obj_a:
        assert obj_a[k] == pytest.approx(obj_b[k])
    assert bin_a == bin_b
    assert rows_a.keys() == rows_b.keys()
    for name in rows_a:
        ca, opa, ra = rows_a[name]
        cb, opb, rb = rows_b[name]
        assert opa == opb and ra == pytest.approx(rb), name
        assert ca.keys() == cb.keys(), name
        for var in ca:
            assert ca[var] == pytest.approx(cb[var]), (name, var)


def test_lp_round_trip_to_identical_matrix():
    _, model = small_model()
    assert_same_matrix(parse_lp(write_lp(model)), model_matrix(model))


def test_mps_round_trip_to_identical_matrix():
    _, model = small_model()
    assert_same_matrix(parse_mps(write_mps(model)), model_matrix(model))


def test_lp_and_mps_agree_with_each_other():
    inst, _ = add_dummy_nodes(trivial_instance())
    model = build_model(inst, 1)
    assert_same_matrix(parse_lp(write_lp(model)), parse_mps(write_mps(model)))


def test_writers_are_deterministic():
    _, m1 = small_model()
    _, m2 = small_model()
    assert write_lp(m1) == write_lp(m2)
    assert write_mps(m1) == write_mps(m2)


def awkward_model():
    """A hand-built model with values the library's own models do not hold:
    inexact sums, -0.0, floats at and above 1e15, ints equal to such floats,
    an empty row, a continuous column with a non-zero lower bound and
    columns with an objective and an odd number of entries."""
    return MilpModel(
        name="awkward",
        columns=[
            Column("a", 0.0, 1.0, True, 0.0),
            Column("b", 0.0, 1.0, True, 0.0),
            Column("cont_lo", 1.5, 1e16, False, 0.1 + 0.2),
            Column("beta", 0.0, float("inf"), False, 1.0),
        ],
        rows=[
            Row("mixed", "L", 1e15, ((0, 0.1 + 0.2), (1, -2.0), (2, -0.0), (3, 1e15))),
            Row("big", "G", -0.0, ((0, 1e16), (1, -1e16), (3, 1.0))),
            Row("empty", "E", 0.0, ()),
            Row("ints", "G", 10**16, ((0, 10**15), (1, 1e15), (3, 2))),
            Row("negative_rhs_name_longer_than_20", "E", -3.5, ((2, -0.5),)),
        ],
        num_trips=1, arcs=[])


AWKWARD_LP = (
    "\\ awkward\n"
    "Minimize\n"
    " obj: 0.30000000000000004 cont_lo + 1 beta\n"
    "Subject To\n"
    " mixed: 0.30000000000000004 a - 2 b + 0 cont_lo + 1000000000000000.0 beta"
    " <= 1000000000000000.0\n"
    " big: 1e+16 a - 1e+16 b + 1 beta >= 0\n"
    " empty: 0 a = 0\n"
    " ints: 1000000000000000 a + 1000000000000000.0 b + 2 beta >= 10000000000000000\n"
    " negative_rhs_name_longer_than_20: - 0.5 cont_lo = -3.5\n"
    "Bounds\n"
    " 1.5 <= cont_lo <= 1e+16\n"
    " 0 <= beta <= +inf\n"
    "Binaries\n"
    " a\n"
    " b\n"
    "End\n"
)

AWKWARD_MPS = (
    "NAME          awkward\n"
    "ROWS\n"
    " N  COST\n"
    " L  mixed\n"
    " G  big\n"
    " E  empty\n"
    " G  ints\n"
    " E  negative_rhs_name_longer_than_20\n"
    "COLUMNS\n"
    "    MARKER0                 'MARKER'                 'INTORG'\n"
    "    a                       mixed                0.30000000000000004 big                  1e+16\n"
    "    a                       ints                 1000000000000000\n"
    "    b                       mixed                -2            big                  -1e+16\n"
    "    b                       ints                 1000000000000000.0\n"
    "    MARKER1                 'MARKER'                 'INTEND'\n"
    "    cont_lo                 COST                 0.30000000000000004 mixed                0\n"
    "    cont_lo                 negative_rhs_name_longer_than_20 -0.5\n"
    "    beta                    COST                 1             mixed"
    "                1000000000000000.0\n"
    "    beta                    big                  1             ints                 2\n"
    "RHS\n"
    "    RHS                     mixed                1000000000000000.0\n"
    "    RHS                     ints                 10000000000000000\n"
    "    RHS                     negative_rhs_name_longer_than_20 -3.5\n"
    "BOUNDS\n"
    " BV BND                    a\n"
    " BV BND                    b\n"
    " LO BND                    cont_lo                  1.5\n"
    " UP BND                    cont_lo                  1e+16\n"
    "ENDATA\n"
)


def test_writers_pin_awkward_values():
    # -0.0 prints as 0 and takes '+'; an int of 1e15 or more prints without
    # the '.0' of the equal float, in the same model
    model = awkward_model()
    assert write_lp(model) == AWKWARD_LP
    assert write_mps(model) == AWKWARD_MPS


def test_writers_take_a_free_column_and_refuse_nan():
    def model(lower):
        return MilpModel(
            name="free",
            columns=[Column("x", lower, float("inf"), False, 1.0)],
            rows=[Row("r", "G", float("-inf"), ((0, 1.0),))],
            num_trips=1, arcs=[])

    free = model(float("-inf"))
    assert " -inf <= x <= +inf\n" in write_lp(free)
    assert " r: 1 x >= -inf\n" in write_lp(free)
    mps = write_mps(free)
    assert " MI BND                    x\n" in mps
    assert "RHS\n    RHS                     r                    -inf\n" in mps
    assert "LO BND" not in mps and "UP BND" not in mps
    for writer in (write_lp, write_mps):
        with pytest.raises(ValueError, match="nan"):
            writer(model(float("nan")))


def test_writers_format_each_distinct_value_once(monkeypatch):
    # counts calls, not time: a writer that formats per non-zero shows up here
    model = next(m for m in (build_model(add_dummy_nodes(inst)[0], 2) for inst in tiny_corpus())
                 if sum(len(row.coeffs) for row in m.rows) > 1000)
    calls = []
    real = milp._num
    monkeypatch.setattr(milp, "_num", lambda x: calls.append(x) or real(x))
    for writer in (write_lp, write_mps):
        calls.clear()
        writer(model)
        assert calls and max(Counter(calls).values()) == 1, writer.__name__


# sha256 (first 16 hex digits) of write_lp + write_mps of every F-trip model
# over the add_dummy_nodes copies of the integer_instance seeds below 200 that
# have at most 8 non-depot nodes: subtour rows grow as 2 to the power of that
# count.  Integer and zero weights reach _num's integer branch and integral
# float coefficients, which random 3-decimal weights barely do
PINNED_INTEGER_TEXT = {1: "cb5fefc5dd7c05f6", 2: "7cd3ba2df008b1f9", 3: "2f74442e04c30db3"}


def test_writers_are_pinned_on_integer_instances():
    prepped = [add_dummy_nodes(integer_instance(seed))[0] for seed in range(200)]
    prepped = [inst for inst in prepped if inst.graph.node_count - len(inst.depots) <= 8]
    found = {}
    for num_trips in PINNED_INTEGER_TEXT:
        text = hashlib.sha256()
        for inst in prepped:
            model = build_model(inst, num_trips)
            text.update((write_lp(model) + write_mps(model)).encode())
        found[num_trips] = text.hexdigest()[:16]
    assert found == PINNED_INTEGER_TEXT


def test_rows_and_columns_are_immutable_values():
    row = Row("r", "L", 1.5, ((0, 2.0), (3, -1.0)))
    column = Column("x_0_0_1_2", 0.0, 1.0, True, 0.0)
    assert row == Row(name="r", sense="L", rhs=1.5, coeffs=((0, 2.0), (3, -1.0)))
    assert column == Column(name="x_0_0_1_2", lower=0.0, upper=1.0, integer=True,
                            objective=0.0)
    for value, field in ((row, "rhs"), (column, "upper")):
        with pytest.raises(AttributeError):
            setattr(value, field, 2.0)


# the rows check_assignment finds violated in test_check_assignment_names_the_same_violated_rows
PINNED_VIOLATIONS = ["makespan_0", "flow_0_0_1", "flow_0_0_2", "cover_0", "cover_1"]


def test_check_assignment_names_the_same_violated_rows():
    # the first tiny_corpus instance's mt plan, with its first arc dropped and beta zeroed
    prepped, _ = add_dummy_nodes(tiny_corpus(1)[0])
    num_trips, assignment = encode_solution(prepped, solve_multitrip(prepped))
    del assignment[min(name for name in assignment if name.startswith("x_"))]
    assignment["beta"] = 0.0
    assert check_assignment(build_model(prepped, num_trips), assignment) == PINNED_VIOLATIONS


def test_encode_satisfies_every_row():
    inst, _ = add_dummy_nodes(reposition_instance())
    sol = solve_multitrip(inst)
    assert sol.complete
    num_trips, assignment = encode_solution(inst, sol)
    model = build_model(inst, num_trips)
    assert check_assignment(model, assignment) == []
    assert assignment["beta"] == pytest.approx(sol.makespan)


def test_encode_rejects_repeated_arc_in_trip():
    # pendant edge walked twice in the same direction between depot visits
    g = undirected_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    inst = Instance(graph=g, depots=(0,), required=(RequiredEdge(1, 2),),
                    vehicles=1, capacity=20.0, recharge_time=0.5, start_depots=(0,))
    from mdrpp import Route, Solution, Trip

    walk = (0, 1, 2, 1, 2, 1, 0)  # arc (1,2) twice in one trip
    bad = Solution(
        (Route(0, (Trip(walk, 6.0),)),), 6.0, ())
    with pytest.raises(ValueError):
        encode_solution(inst, bad)


def test_encode_splits_trips_at_intermediate_depots():
    # a walk passing through depot 2 mid-trip becomes two model trips
    g = undirected_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    inst = Instance(graph=g, depots=(0, 2), required=(RequiredEdge(1, 2),),
                    vehicles=1, capacity=9.0, recharge_time=0.5, start_depots=(0,))
    from mdrpp import Route, Solution, Trip

    walk = (0, 1, 2, 3, 0)
    sol = Solution((Route(0, (Trip(walk, 4.0),)),), 4.0, ())
    num_trips, assignment = encode_solution(inst, sol)
    assert num_trips == 2
    assert assignment["z_0_0"] == 1.0 and assignment["z_0_1"] == 1.0
    assert assignment["y_0_0_2"] == 1.0 and assignment["y_0_1_0"] == 1.0
    # beta reflects the split route: 2.0 + 0.5 + 2.0
    assert assignment["beta"] == pytest.approx(4.5)
    model = build_model(inst, num_trips)
    assert check_assignment(model, assignment) == []


def test_check_assignment_flags_violations():
    inst, model = small_model()
    sol = solve_multitrip(inst)
    num_trips, assignment = encode_solution(inst, sol)
    model = build_model(inst, num_trips)
    broken = dict(assignment)
    broken["beta"] = 0.0
    violated = check_assignment(model, broken)
    assert violated and all(name.startswith("makespan") for name in violated)


def test_decode_rebuilds_the_walks():
    inst, _ = add_dummy_nodes(reposition_instance())
    sol = solve_multitrip(inst)
    num_trips, assignment = encode_solution(inst, sol)
    decoded = decode_solution(inst, num_trips, assignment)
    assert decoded.makespan == pytest.approx(sol.makespan)
    assert check_feasibility(inst, decoded) == []


def test_encode_check_decode_on_corpus():
    checked = 0
    for inst in tiny_corpus(30):
        if inst.graph.node_count - len(inst.depots) > 10:
            continue
        prepped, _ = add_dummy_nodes(inst)
        sol = solve_multitrip(prepped)
        if not sol.complete:
            continue
        try:
            num_trips, assignment = encode_solution(prepped, sol)
        except ValueError:
            continue  # a walk reused one directed arc; not expressible
        model = build_model(prepped, num_trips)
        assert check_assignment(model, assignment) == []
        decoded = decode_solution(prepped, num_trips, assignment)
        # splitting a depot pass-through adds recharges, so the modelled
        # makespan can only meet or exceed the heuristic's
        assert decoded.makespan == pytest.approx(assignment["beta"], abs=1e-6)
        assert decoded.makespan >= sol.makespan - 1e-9
        assert check_feasibility(prepped, decoded) == []
        checked += 1
    assert checked >= 10


def oracle_callback(inst):
    """Trip-count feasibility callback backed by the exact solver."""
    prepped, _ = add_dummy_nodes(inst)

    def callback(model):
        out = solve_exact(prepped, f_cap=model.num_trips,
                          max_edges_per_trip=max(1, len(prepped.required)))
        if out is None:
            return SolveResult("infeasible")
        num_trips, assignment = encode_solution(prepped, out[0])
        if num_trips > model.num_trips:
            return SolveResult("infeasible")
        return SolveResult("optimal", assignment)

    return callback


def test_iterative_driver_needs_two_trips_for_repositioning():
    inst = reposition_instance()
    f_star, assignment = iterative_f_driver(inst, oracle_callback(inst))
    assert f_star == 2
    assert assignment["beta"] == pytest.approx(11.6, abs=1e-9)


def test_iterative_driver_single_trip_when_trivial():
    inst = trivial_instance()
    f_star, assignment = iterative_f_driver(inst, oracle_callback(inst))
    assert f_star == 1
    assert assignment["beta"] == pytest.approx(2.0)


def test_iterative_driver_cap_and_resource_limit():
    inst = trivial_instance()
    with pytest.raises(TripCapExceeded):
        iterative_f_driver(inst, lambda model: SolveResult("infeasible"), f_cap=3)
    with pytest.raises(SolverResourceLimit):
        iterative_f_driver(inst, lambda model: SolveResult("resource-limit"))
