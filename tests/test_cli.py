"""Command-line front end: verbs, exit codes, file side effects, CSV schema."""

import csv
import itertools

import pytest

from mdrpp import (
    Instance,
    RequiredEdge,
    Route,
    Solution,
    Trip,
    cli,
    exact,
    parse_instance,
    serialize_instance,
)
from mdrpp.cli import main

from conftest import tiny_corpus, trivial_instance, two_vehicle_instance, undirected_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_instance(tmp_path, inst, name="case.inst"):
    path = tmp_path / name
    path.write_text(serialize_instance(inst))
    return str(path)


def test_run_algorithm_looks_solvers_up_at_call_time(monkeypatch):
    # a tracer rebinds the solver names of this module; a dispatch table built
    # at import time would keep calling the originals
    calls = []

    def stub(name, out):
        def solver(inst, **kwargs):
            calls.append((name, kwargs))
            return out
        return solver

    plans = {alg: Solution((), float(i)) for i, alg in enumerate(cli.ALGORITHMS)}
    monkeypatch.setattr(cli, "solve_multitrip", stub("mt", plans["mt"]))
    monkeypatch.setattr(cli, "path_scanning", stub("ps", plans["ps"]))
    monkeypatch.setattr(cli, "augment_merge", stub("am", "am reason"))
    monkeypatch.setattr(cli, "construct_strike", stub("cs", "cs reason"))
    monkeypatch.setattr(cli, "solve_exact", stub("exact", (plans["exact"], False)))
    inst = trivial_instance()
    assert [cli._run_algorithm(inst, alg, 2.5) for alg in cli.ALGORITHMS] == [
        (plans["mt"], None, None), (plans["ps"], None, None), (None, "am reason", None),
        (None, "cs reason", None), (plans["exact"], None, False)]
    assert calls == [("mt", {}), ("ps", {}), ("am", {}), ("cs", {}),
                     ("exact", {"time_budget": 2.5})]


def test_generate_is_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.inst"), str(tmp_path / "b.inst")
    for out in (a, b):
        code, _, _ = run(capsys, "--seed", "7", "generate",
                         "--nodes", "8", "--edges", "11", "--out", out)
        assert code == 0
    assert open(a).read() == open(b).read()
    inst = parse_instance(open(a).read())
    assert len(inst.depots) == 2 and len(inst.required) == 4


def test_generate_wind_set_has_asymmetric_arcs(tmp_path, capsys):
    out = str(tmp_path / "c.inst")
    code, _, _ = run(capsys, "--seed", "3", "generate", "--nodes", "8",
                     "--edges", "11", "--set", "C", "--float-weights",
                     "--out", out)
    assert code == 0
    text = open(out).read()
    inst = parse_instance(text)
    assert any(inst.graph.min_weight(a.to, a.frm) != a.weight
               for a in inst.graph.arcs)
    assert "DIR" in text


def test_generate_usage_error(capsys):
    code, _, err = run(capsys, "generate")
    assert code == 2
    assert "required" in err
    code, _, err = run(capsys, "--seed", "1", "generate", "--nodes", "1", "--edges", "2")
    assert code == 2
    assert "two nodes" in err


def test_solve_then_check_pipeline(tmp_path, capsys):
    inst_path = write_instance(tmp_path, two_vehicle_instance())
    sol_path = str(tmp_path / "case.sol")
    code, out, _ = run(capsys, "solve", inst_path, "mt", "--out", sol_path)
    assert code == 0
    name, alg, makespan, et = out.split()[:4]
    assert alg == "mt"
    assert float(makespan) == pytest.approx(18.8)
    assert "." in et and len(et.split(".")[1]) == 1  # one-decimal seconds
    code, out, _ = run(capsys, "check", inst_path, sol_path)
    assert code == 0
    assert "ok" in out


def test_solve_exact_reports_optimal_flag(tmp_path, capsys):
    inst_path = write_instance(tmp_path, trivial_instance())
    code, out, _ = run(capsys, "solve", inst_path, "exact")
    assert code == 0
    assert out.split()[-1] == "optimal"


def test_exact_unsolved_tells_infeasible_from_out_of_time(tmp_path, capsys, monkeypatch):
    # the required edge's round trip exceeds capacity from the only depot
    g = undirected_graph(3, [(0, 1, 5.0), (1, 2, 5.0)])
    infeasible = Instance(graph=g, depots=(0,), required=(RequiredEdge(1, 2),), vehicles=1,
                          capacity=6.0, recharge_time=1.0, start_depots=(0,))
    inst_path = write_instance(tmp_path, infeasible)
    sol_path = str(tmp_path / "infeasible.sol")
    code, out, _ = run(capsys, "solve", inst_path, "exact", "--out", sol_path)
    assert code == 0 and out.split()[2] == "-"
    assert open(sol_path).read() == "UNSOLVED no feasible solution within limits\n"

    slow_path = str(tmp_path / "b20.inst")
    run(capsys, "--seed", "1", "generate", "--nodes", "20", "--edges", "37", "--set", "B",
        "--float-weights", "--min-weight", "0.5", "--max-weight", "3", "--out", slow_path)
    clock = itertools.count()  # one second per reading
    monkeypatch.setattr(exact.time, "monotonic", lambda: float(next(clock)))
    sol_path = str(tmp_path / "budget.sol")
    code, out, _ = run(capsys, "--time-budget", "100", "solve", slow_path, "exact",
                       "--out", sol_path)
    assert code == 0 and out.split()[2] == "-"
    assert open(sol_path).read() == (
        "UNSOLVED time budget ran out before any feasible solution\n")


def test_solve_unsolved_writes_reason_and_exits_zero(tmp_path, capsys):
    # path scanning cannot reposition, so this fixture is Unsolved for ps
    inst_path = write_instance(tmp_path, two_vehicle_instance())
    sol_path = str(tmp_path / "u.sol")
    code, out, _ = run(capsys, "solve", inst_path, "ps", "--out", sol_path)
    assert code == 0
    assert out.split()[2] == "-"
    assert open(sol_path).read().startswith("UNSOLVED")


def test_solve_checks_the_plan_before_reporting_it(tmp_path, capsys, monkeypatch):
    # a plan whose one trip runs over the capacity is an error, not a makespan
    inst = trivial_instance()
    over = Trip(nodes=(0, 1, 2, 3, 0, 1, 0), duration=6.0, covered=(RequiredEdge(0, 1),))
    monkeypatch.setattr(cli, "solve_multitrip",
                        lambda inst: Solution((Route(0, (over,)),), 6.0))
    inst_path = write_instance(tmp_path, inst)
    sol_path = tmp_path / "over.sol"
    code, out, err = run(capsys, "solve", inst_path, "mt", "--out", str(sol_path))
    assert code == 1 and out == ""
    assert "vehicle 0 trip 0: duration 6.0 exceeds capacity 5.0" in err
    assert not sol_path.exists()


def test_check_flags_tampered_solution(tmp_path, capsys):
    inst_path = write_instance(tmp_path, trivial_instance())
    sol_path = str(tmp_path / "t.sol")
    run(capsys, "solve", inst_path, "mt", "--out", sol_path)
    text = open(sol_path).read()
    open(sol_path, "w").write(text.replace("TRIP 2.0", "TRIP 9.0"))
    code, out, _ = run(capsys, "check", inst_path, sol_path)
    assert code == 1
    assert "duration" in out or "capacity" in out


def test_export_milp_lp_and_mps(tmp_path, capsys):
    inst_path = write_instance(tmp_path, trivial_instance())
    lp = str(tmp_path / "m.lp")
    code, _, err = run(capsys, "export-milp", inst_path, "--trips", "2",
                       "--format", "lp", "--out", lp)
    assert code == 0
    assert "columns" in err and "rows" in err
    body = open(lp).read()
    assert body.startswith("\\") and "Minimize" in body and "Binaries" in body
    mps = str(tmp_path / "m.mps")
    code, _, _ = run(capsys, "export-milp", inst_path, "--trips", "2",
                     "--format", "mps", "--out", mps)
    assert code == 0
    assert open(mps).read().rstrip().endswith("ENDATA")


def test_export_milp_guards(tmp_path, capsys):
    inst_path = write_instance(tmp_path, trivial_instance())
    code, _, err = run(capsys, "export-milp", inst_path, "--trips", "0")
    assert code == 2
    code, _, err = run(capsys, "export-milp", inst_path, "--trips", "1",
                       "--subtour-cap", "0")
    assert code == 1
    assert "cap" in err


def test_bench_csv_schema_and_dashes(tmp_path, capsys):
    inst_dir = tmp_path / "cases"
    inst_dir.mkdir()
    for i, inst in enumerate(tiny_corpus(3)):
        (inst_dir / f"i{i}.inst").write_text(serialize_instance(inst))
    out_csv = str(tmp_path / "bench.csv")
    code, _, _ = run(capsys, "bench", str(inst_dir),
                     "--algorithms", "mt,cs,exact", "--out", out_csv)
    assert code == 0
    rows = list(csv.reader(open(out_csv)))
    assert rows[0] == ["instance", "alg", "ET", "M", "gap"]
    assert len(rows) == 1 + 3 * 3
    algs = [r[1] for r in rows[1:]]
    assert algs == ["mt", "cs", "exact"] * 3
    for r in rows[1:]:
        assert r[3] == "-" or float(r[3]) > 0


def test_bench_rerun_identical_modulo_timing(tmp_path, capsys):
    inst_dir = tmp_path / "cases"
    inst_dir.mkdir()
    for i, inst in enumerate(tiny_corpus(3)):
        (inst_dir / f"i{i}.inst").write_text(serialize_instance(inst))
    outs = []
    for run_no in range(2):
        out_csv = str(tmp_path / f"bench{run_no}.csv")
        run(capsys, "bench", str(inst_dir), "--algorithms", "mt,ps", "--out", out_csv)
        rows = list(csv.reader(open(out_csv)))
        outs.append([[c for i, c in enumerate(r) if i != 2] for r in rows])
    assert outs[0] == outs[1]


def test_bench_threads_are_positive_and_bound_the_pool(tmp_path, capsys, monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    inst_dir = tmp_path / "cases"
    inst_dir.mkdir()
    for i, inst in enumerate(tiny_corpus(3)):
        (inst_dir / f"i{i}.inst").write_text(serialize_instance(inst))
    code, out, _ = run(capsys, "--threads", "5000", "bench", str(inst_dir),
                       "--algorithms", "mt")
    assert code == 0 and sizes == [3]
    assert len(out.splitlines()) == 1 + 3
    for value in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", value, "bench", str(inst_dir)])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
    assert sizes == [3]


def test_bench_empty_dir_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    code, _, _ = run(capsys, "bench", str(empty))
    assert code == 2


def test_gap_verb(capsys):
    code, out, _ = run(capsys, "gap", "166", "141")
    assert code == 0
    assert out.strip() == "17.7"
    for argv in (("10", "0"), ("nan", "1"), ("inf", "5"), ("5", "inf")):
        code, out, _ = run(capsys, "gap", *argv)
        assert code == 2 and out == ""


def test_time_budget_must_be_positive_and_finite(tmp_path, capsys):
    inst_path = write_instance(tmp_path, trivial_instance())
    for value in ("-1", "0", "nan", "inf", "soon"):
        with pytest.raises(SystemExit) as exc:
            main(["--time-budget", value, "solve", inst_path, "exact"])
        assert exc.value.code == 2
        assert "--time-budget" in capsys.readouterr().err
    code, out, _ = run(capsys, "--time-budget", "2.5", "solve", inst_path, "exact")
    assert code == 0 and out.split()[-1] == "optimal"
