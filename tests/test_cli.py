import dataclasses
import json

import numpy as np
import pytest

import cshlab.solve as solve_mod
from cshlab import ClassifiedSolution, ScalarModel, complete_graph, residual, save_graph, sup_norm
from cshlab.cli import _Emitter, main

EVIDENCE = {"grid_levels", "grid_stable", "seeds_used", "certified", "boxes", "unresolved", "box"}


@pytest.fixture
def k2_path(tmp_path):
    path = tmp_path / "k2.json"
    save_graph(complete_graph(2), path)
    return str(path)


def _write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _no_constant(token):
    raise ValueError(f"{token} is not JSON")


def _run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    # strict JSON: Python's reader would accept NaN and Infinity
    return code, [json.loads(line, parse_constant=_no_constant)
                  for line in out.splitlines() if line.strip()]


def test_degree_command(tmp_path, k2_path, capsys):
    cfg = _write_config(tmp_path, {
        "model": "scalar",
        "parameters": {"lambda": -10.0},
        "source": {"f": {"constant": 1.0}},
    })
    code, records = _run(["degree", "--graph", k2_path, "--config", cfg], capsys)
    assert code == 0
    (rec,) = records
    assert rec["computed"] == -1
    assert rec["expected"] == -1
    assert rec["consistent"] is True
    assert rec["grid_stable"] is True
    assert len(rec["roots"]) == 3


def test_solve_round_trip(tmp_path, k2_path, capsys):
    cfg = _write_config(tmp_path, {
        "model": "scalar",
        "parameters": {"lambda": -10.0},
        "source": {"f": {"constant": -1.0}},
        "solve": {"seed": -2.0},
    })
    code, records = _run(["solve", "--graph", k2_path, "--config", cfg], capsys)
    assert code == 0
    (rec,) = records
    g = complete_graph(2)
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    point = np.array([rec["point"][v] for v in g.vertices])
    assert sup_norm(residual(g, m, point)) <= 1e-12


def test_solve_lambda_zero_paths(tmp_path, k2_path, capsys):
    cfg = _write_config(tmp_path, {
        "model": "scalar",
        "parameters": {"lambda": 0.0},
        "source": {"f": {"constant": 2.0}},
    })
    code, records = _run(["solve", "--graph", k2_path, "--config", cfg], capsys)
    assert code == 0
    assert records[0]["status"] == "insolvable"

    cfg = _write_config(tmp_path, {
        "model": "scalar",
        "parameters": {"lambda": 0.0},
        "source": {"f": {"values": {"x1": 1.0, "x2": -1.0}}},
    })
    code, records = _run(["solve", "--graph", k2_path, "--config", cfg], capsys)
    assert code == 0
    assert records[0]["status"] == "family"
    assert records[0]["residual_norm"] <= 1e-10


def test_enumerate_emits_roots_and_summary(tmp_path, k2_path, capsys):
    cfg = _write_config(tmp_path, {
        "model": "scalar",
        "parameters": {"lambda": -10.0},
        "source": {"f": {"constant": -1.0}},
        "enumerate": {"box": [-8.0, 3.0]},
    })
    with pytest.warns(UserWarning, match="a priori"):
        code, records = _run(["enumerate", "--graph", k2_path, "--config", cfg], capsys)
    assert code == 0
    roots = [r for r in records if r["kind"] == "root"]
    summary = [r for r in records if r["kind"] == "enumeration_summary"]
    assert len(roots) >= 2 and len(summary) == 1
    assert summary[0]["count"] == len(roots)


def test_records_carry_certification(tmp_path, k2_path, capsys, monkeypatch):
    scalar = {"model": "scalar", "parameters": {"lambda": -10.0},
              "source": {"f": {"constant": 1.0}}}
    # without a grid the scalar enumeration is certified branch and prune
    code, records = _run(["enumerate", "--graph", k2_path,
                          "--config", _write_config(tmp_path, scalar)], capsys)
    assert code == 0
    summary = records[-1]
    assert summary["kind"] == "enumeration_summary" and summary["count"] == 3
    assert summary["certified"] is True and summary["unresolved"] == 0
    assert summary["boxes"] > 0 and summary["grid_levels"] == []
    assert summary["grid_stable"] is True and summary["seeds_used"] >= 3
    code, records = _run(["degree", "--graph", k2_path,
                          "--config", _write_config(tmp_path, scalar)], capsys)
    assert code == 0 and records[0]["certified"] is True
    # the system model runs on the grid its dimension picks (7 per axis on
    # K2), which is never certified; one grid level keeps this test short
    monkeypatch.setattr(solve_mod, "_REFINEMENTS", 0)
    system = {"model": "system", "parameters": {"p": 0.5, "q": 0.5},
              "source": {"f": {"constant": 1.0}, "g": {"constant": 1.0}},
              "enumerate": {"box": [-3.0, 3.0]}, "degree": {"radius": 3.0}}
    # (-3, 3) is smaller than the system's a priori ball
    with pytest.warns(UserWarning, match=r"a priori radius 3\.04e\+03"):
        code, records = _run(["enumerate", "--graph", k2_path,
                              "--config", _write_config(tmp_path, system)], capsys)
    summary = records[-1]
    assert code == 0 and summary["certified"] is False and summary["boxes"] == 0
    assert summary["unresolved"] == 0 and summary["grid_levels"] == [7]
    with pytest.warns(UserWarning, match=r"a priori radius 3\.04e\+03"):
        code, records = _run(["degree", "--graph", k2_path,
                              "--config", _write_config(tmp_path, system)], capsys)
    assert code == 0 and records[0]["certified"] is False
    assert records[0]["grid_levels"] == [7]


def test_records_share_the_enumeration_evidence(tmp_path, k2_path, capsys, monkeypatch):
    # one writer for the evidence: the enumeration summary, the degree
    # record (its perturbed rerun too) and every homotopy slice
    scalar = {"model": "scalar", "parameters": {"lambda": -10.0},
              "source": {"f": {"constant": 1.0}}}
    cfg = _write_config(tmp_path, scalar)
    code, records = _run(["enumerate", "--graph", k2_path, "--config", cfg], capsys)
    summary = records[-1]
    assert code == 0 and EVIDENCE <= set(summary)
    code, (degree,) = _run(["degree", "--graph", k2_path, "--config", cfg], capsys)
    # the degree sums over the same run (the a priori ball): same values
    assert code == 0 and {k: degree[k] for k in EVIDENCE} == {k: summary[k] for k in EVIDENCE}
    assert degree["box"] == [[-degree["radius"]] * 2, [degree["radius"]] * 2]
    degenerate = _write_config(tmp_path, {**scalar, "parameters": {"lambda": -4.0},
                                           "source": {"f": {"constant": -1.0}},
                                           "degree": {"radius": 8.0}})
    with pytest.warns(UserWarning, match="a priori"):
        code, (degree,) = _run(["degree", "--graph", k2_path, "--config", degenerate], capsys)
    assert code == 0 and EVIDENCE <= set(degree) and EVIDENCE <= set(degree["perturbed"])
    monkeypatch.setattr(solve_mod, "_REFINEMENTS", 0)
    system = _write_config(tmp_path, {
        "model": "system", "parameters": {"p": 0.5, "q": 0.5},
        "source": {"f": {"constant": 1.0}, "g": {"constant": 1.0}},
        "system": {"sigma_grid": [0.0, 1.0]},
    })
    code, records = _run(["system", "--graph", k2_path, "--config", system], capsys)
    slices = records[1]["slices"]
    assert code == 0 and len(slices) == 2 and all(EVIDENCE <= set(s) for s in slices)
    # sigma = 0 is proved rootless by the integral identity, in one box and no seeds
    proved, searched = slices
    assert (proved["certified"], proved["boxes"], proved["seeds_used"], proved["grid_levels"]) \
        == (True, 1, 0, [])
    assert searched["grid_levels"] == [7] and searched["certified"] is False


def test_sweep_csv(tmp_path, k2_path, capsys):
    cfg = _write_config(tmp_path, {
        "model": "scalar",
        "parameters": {"lambda": -10.0},
        "source": {"f": {"constant": -1.0}},
        "sweep": {"range": [-4.5, -5.5], "steps": 2, "box": [-5.0, 2.0]},
    })
    # the box is smaller than the a priori ball of either coupling
    with pytest.warns(UserWarning, match="a priori radius"):
        code = main(["sweep", "--graph", k2_path, "--config", cfg])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "parameter,root_id,u_x1,u_x2,morse_index,sign_det"
    assert len(out) > 2


def test_dirac_source_config(tmp_path, k2_path, capsys):
    cfg = _write_config(tmp_path, {
        "model": "scalar",
        "parameters": {"lambda": 3.0},
        "source": {"f": {"dirac": {"points": ["x1"], "coefficient": 0.5}}},
        "solve": {"seed": 0.0},
    })
    code, records = _run(["solve", "--graph", k2_path, "--config", cfg], capsys)
    assert code == 0
    assert records[0]["status"] == "ok"


def test_config_error_exit_codes(tmp_path, k2_path, capsys):
    # unknown source form
    cfg = _write_config(tmp_path, {
        "model": "scalar",
        "parameters": {"lambda": 1.0},
        "source": {"f": {"nope": 1}},
    })
    assert main(["solve", "--graph", k2_path, "--config", cfg]) == 2
    capsys.readouterr()
    # missing graph
    cfg2 = _write_config(tmp_path, {"model": "scalar", "source": {"f": {"constant": 1.0}}})
    assert main(["solve", "--config", cfg2]) == 2
    capsys.readouterr()
    # degree for an undefined-degree model
    cfg3 = _write_config(tmp_path, {
        "model": "scalar",
        "parameters": {"lambda": 0.0},
        "source": {"f": {"constant": 1.0}},
    })
    assert main(["degree", "--graph", k2_path, "--config", cfg3]) == 2
    capsys.readouterr()
    # tolerances that would end in a TypeError traceback (2.5 iterations) or
    # be misread ("no" as true), and the grid constants, which are no options
    for tolerances, message in (
        ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
        # the Jacobian check runs in `cshlab check`; no tolerance switches it on
        ({"check_callbacks": True},
         "SolveOptions.__init__() got an unexpected keyword argument 'check_callbacks'"),
        # numpy's generators take no negative seed
        ({"rng_seed": -1}, "rng_seed must be at least 0, got -1"),
        ({"max_refinements": 0},
         "SolveOptions.__init__() got an unexpected keyword argument 'max_refinements'"),
        ({"core_window": [-12.0, 4.0]},
         "SolveOptions.__init__() got an unexpected keyword argument 'core_window'"),
    ):
        cfg4 = _write_config(tmp_path, {
            "model": "scalar",
            "parameters": {"lambda": -10.0},
            "source": {"f": {"constant": 1.0}},
            "tolerances": tolerances,
        })
        assert main(["degree", "--graph", k2_path, "--config", cfg4]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad tolerances: {message}" in captured.err
    cfg4 = _write_config(tmp_path, {"model": "scalar", "parameters": {"lambda": -2.0},
                                    "source": {"f": {"constant": 0.0}}, "degree": {"radius": 4.0}})
    assert main(["degree", "--graph", k2_path, "--config", cfg4, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "rng_seed must be at least 0, got -1" in captured.err
    # a fractional, null or string power or a fractional sweep step count is
    # rejected, not rounded down or converted
    for p, message in ((1.5, "got 1.5"), (None, "got None"), ("2", "got '2'"),
                       (True, "got True")):
        cfg5 = _write_config(tmp_path, {
            "model": "scalar",
            "parameters": {"lambda": -10.0, "p": p},
            "source": {"f": {"constant": 1.0}},
        })
        assert main(["solve", "--graph", k2_path, "--config", cfg5]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
    cfg6 = _write_config(tmp_path, {
        "model": "scalar",
        "parameters": {"lambda": -3.0},
        "source": {"f": {"constant": -1.0}},
        "sweep": {"range": [-3.0, -5.0], "steps": 11.7, "box": [-6.0, 2.0]},
    })
    assert main(["sweep", "--graph", k2_path, "--config", cfg6]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "steps must be a positive integer, got 11.7" in captured.err
    # malformed section values are config errors where they are read, not
    # TypeErrors from inside the solver
    scalar = {"model": "scalar", "parameters": {"lambda": -3.0},
              "source": {"f": {"constant": -1.0}}}
    system = {"model": "system", "parameters": {"p": 0.5, "q": 0.5},
              "source": {"f": {"constant": 1.0}, "g": {"constant": 1.0}}}
    sweep = {"range": [-4.5, -5.5], "steps": 2, "box": [-5.0, 2.0]}
    bad_values = (
        ("sweep", scalar, {"sweep": {**sweep, "steps": None}}, "steps must be a positive integer"),
        ("sweep", scalar, {"sweep": {**sweep, "range": [None, -5.5]}}, "sweep range must be"),
        ("enumerate", scalar, {"enumerate": {"box": [None, 3]}}, "box must be a number"),
        ("enumerate", scalar, {"enumerate": {"box": 3.0}}, "box must be [lo, hi]"),
        # mean(f) = 0: no a priori ball, so the sweep needs a box
        ("sweep", {**scalar, "source": {"f": {"values": {"x1": 1.0, "x2": -1.0}}}},
         {"sweep": {"range": [-4.5, -5.5], "steps": 2}}, "pass box explicitly"),
        # non-finite bounds, for either model: the output is strict JSON, which
        # has no NaN or Infinity to write them back with
        ("enumerate", scalar, {"enumerate": {"box": [float("nan"), 3.0]}}, "box must be finite"),
        ("degree", scalar, {"degree": {"radius": float("nan")}}, "radius must be finite"),
        ("enumerate", scalar, {"enumerate": {"box": [-3.0, float("inf")]}}, "box must be finite"),
        ("degree", scalar, {"degree": {"radius": float("inf")}}, "radius must be finite"),
        ("degree", system, {"degree": {"radius": float("inf")}}, "radius must be finite"),
        ("enumerate", system, {"enumerate": {"box": [[-3.0, -3.0, -3.0, float("-inf")], 3.0]}},
         "box must be finite"),
        ("enumerate", scalar, {"parameters": {"lambda": float("nan")}}, "lambda must be finite"),
        # a non-finite power or sweep end is refused where it is read, not by
        # an OverflowError traceback or after numpy warnings
        ("system", system, {"parameters": {"p": float("inf"), "q": 0.5}}, "p must be finite"),
        ("system", system, {"parameters": {"p": 0.5, "q": float("-inf")}}, "q must be finite"),
        ("sweep", scalar, {"sweep": {**sweep, "range": [float("-inf"), -5.0]}},
         "sweep range must be finite, got -inf"),
        ("degree", scalar, {"degree": {"radius": "8"}}, "radius must be a number"),
        ("system", system, {"system": {"sigma_grid": [None]}},
         "sigma_grid must be a number"),
        # checked before the system_bound record, so nothing reaches stdout
        *(("system", system, {"system": {"sigma_grid": [sg]}},
           "sigma_grid values must lie in [0, 1]") for sg in (float("nan"), 1.5, -0.25)),
        ("system", system, {"system": {"sigma_grid": []}},
         "sigma_grid must hold at least one sigma"),
        ("enumerate", scalar, {"enumerate": 3}, "config entry 'enumerate' must be an object"),
        ("solve", scalar, {"parameters": [1]}, "config entry 'parameters' must be an object"),
        ("solve", scalar, {"source": {"f": {"dirac": 3}}}, "dirac takes an object"),
        # booleans and strings are no numbers, and a string is no list of points
        ("solve", scalar, {"parameters": {"lambda": True}}, "lambda must be a number, got True"),
        ("solve", scalar, {"parameters": {"lambda": "-10"}}, "lambda must be a number, got '-10'"),
        ("solve", scalar, {"parameters": {"lambda": -3.0, "sigma": True}},
         "sigma must be a number, got True"),
        ("solve", system, {"parameters": {"p": True, "q": 0.5}}, "p must be a number, got True"),
        ("solve", system, {"parameters": {"p": 0.5, "q": "0.5"}}, "q must be a number, got '0.5'"),
        ("solve", system, {"parameters": {"p": 0.5, "q": 0.5, "sigma": True}},
         "sigma must be a number, got True"),
        ("solve", scalar, {"source": {"f": {"constant": True}}},
         "source f constant must be a number, got True"),
        ("solve", scalar, {"source": {"f": {"values": {"x1": True, "x2": "1"}}}},
         "source f value at x1 must be a number, got True"),
        ("solve", scalar, {"source": {"f": {"values": {"x1": 1.0, "x2": "1"}}}},
         "source f value at x2 must be a number, got '1'"),
        ("solve", scalar, {"source": {"f": {"dirac": {"points": ["x1"], "coefficient": True}}}},
         "source f coefficient must be a number, got True"),
        ("solve", scalar, {"source": {"f": {"dirac": {"points": "x1"}}}},
         "source f: dirac points must be a list, got 'x1'"),
        # a key no reader takes is refused, not ignored: a misspelled lambda
        # would run the default lambda = 1
        ("enumerate", scalar, {"parameters": {"lamda": -10}, "enumerate": {"bx": [-3, 3]}},
         "config entry 'parameters' takes no 'lamda'"),
        ("enumerate", scalar, {"enumerate": {"bx": [-3, 3]}},
         "config entry 'enumerate' takes no 'bx'"),
        ("enumerate", scalar, {"enumerat": {"box": [-3, 3]}},
         "config entry 'top level' takes no 'enumerat'"),
        ("solve", scalar, {"source": {"f": {"values": {"x1": 1.0, "x2": -1.0, "x3": 0.0}}}},
         "config entry 'source f values' takes no 'x3'"),
        ("solve", scalar, {"source": {"f": {"dirac": {"points": ["x1"], "coeficient": -1.0}}}},
         "config entry 'source f dirac' takes no 'coeficient'"),
        ("solve", scalar, {"solve": {"seed": {"x1": 0.0, "x2": 0.0, "y9": 1.0}}},
         "config entry 'solve seed' takes no 'y9'"),
        # keys of the system model in a scalar config
        ("solve", scalar, {"parameters": {"lambda": -3.0, "q": 0.5}},
         "config entry 'parameters' takes no 'q'"),
        ("solve", scalar, {"source": {"f": {"constant": -1.0}, "g": {"constant": 1.0}}},
         "config entry 'source' takes no 'g'"),
        ("solve", scalar, {"solve": {"seed_u": 0.0}}, "config entry 'solve' takes no 'seed_u'"),
        # the system bound reads its constants off the sources: no section takes them
        *((command, system, {command: {key: 2.0}}, f"config entry '{command}' takes no '{key}'")
          for command in ("system", "degree") for key in ("Lambda1", "Lambda2")),
    )
    for command, model, section, message in bad_values:
        cfg7 = _write_config(tmp_path, {**model, **section})
        assert main([command, "--graph", k2_path, "--config", cfg7]) == 2, section
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, captured.err
    # a system bound that overflows (||f||_inf = 1000) is refused before any
    # record is written; degree then has no a priori ball to search
    big = {**system, "source": {"f": {"values": {"x1": 1000.0, "x2": 1.0}},
                                "g": {"constant": 1.0}}}
    for command, message in (("system", "the system bound overflows"),
                             ("degree", "no a priori bound")):
        assert main([command, "--graph", k2_path, "--config", _write_config(tmp_path, big)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, captured.err
    # and any record holding a non-finite number is refused, not written
    out = tmp_path / "out.jsonl"
    emitter = _Emitter(str(out))
    with pytest.raises(ValueError, match="not JSON compliant"):
        emitter.emit({"kind": "degree_report", "radius": float("inf")})
    emitter.close()
    assert out.read_text() == ""


def test_grid_key_is_refused_in_every_section(tmp_path, k2_path, capsys):
    # the seed grid follows the dimension: a grid key is an error, not ignored
    scalar = {"model": "scalar", "parameters": {"lambda": -10.0},
              "source": {"f": {"constant": 1.0}}}
    system = {"model": "system", "parameters": {"p": 0.5, "q": 0.5},
              "source": {"f": {"constant": 1.0}, "g": {"constant": 1.0}}}
    sections = {"enumerate": {"box": [-3.0, 3.0]}, "degree": {"radius": 3.0},
                "sweep": {"range": [-4.5, -5.5], "steps": 2, "box": [-5.0, 2.0]},
                "system": {"sigma_grid": [1.0]}}
    for model in (scalar, system):
        for command, section in sections.items():
            cfg = _write_config(tmp_path, {**model, command: {**section, "grid": 5}})
            assert main([command, "--graph", k2_path, "--config", cfg]) == 2, (model, command)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"config entry '{command}' takes no 'grid'" in captured.err


@pytest.mark.parametrize("vertex_mu, edge_w, message", [
    (None, 1.0, "vertex 'x1' mu must be a number, got None"),
    (True, 1.0, "vertex 'x1' mu must be a number, got True"),
    (1.0, [1], "edge ('x1', 'x2') w must be a number, got [1]"),
    (1.0, "2", "edge ('x1', 'x2') w must be a number, got '2'"),
])
def test_graph_numbers_that_are_no_json_numbers_exit_2(tmp_path, capsys, vertex_mu, edge_w,
                                                        message):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({
        "vertices": [{"id": "x1", "mu": vertex_mu}, {"id": "x2", "mu": 1.0}],
        "edges": [{"a": "x1", "b": "x2", "w": edge_w}],
    }))
    cfg = _write_config(tmp_path, {"model": "scalar", "parameters": {"lambda": -10.0},
                                   "source": {"f": {"constant": 1.0}}})
    assert main(["enumerate", "--graph", str(graph), "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err, captured.err


def test_solver_failure_exit_code(tmp_path, k2_path, capsys):
    # a solvable model with too small an iteration budget
    cfg = _write_config(tmp_path, {
        "model": "scalar",
        "parameters": {"lambda": -10.0},
        "source": {"f": {"constant": -1.0}},
        "solve": {"seed": 0.0},
        "tolerances": {"max_iter": 2},
    })
    code = main(["solve", "--graph", k2_path, "--config", cfg])
    err = capsys.readouterr().err
    assert code == 3
    assert "solver failure" in err
    assert "max_iter = 2 exceeded" in err


def test_system_command(tmp_path, k2_path, capsys, monkeypatch):
    monkeypatch.setattr(solve_mod, "_REFINEMENTS", 0)  # one grid level is enough here
    cfg = _write_config(tmp_path, {
        "model": "system",
        "parameters": {"p": 0.5, "q": 0.5},
        "source": {"f": {"constant": 1.0}, "g": {"constant": 1.0}},
        "system": {"sigma_grid": [0.0, 1.0]},
    })
    code, records = _run(["system", "--graph", k2_path, "--config", cfg], capsys)
    assert code == 0
    kinds = [r["kind"] for r in records]
    assert kinds == ["system_bound", "homotopy_audit"]
    audit = records[1]
    assert audit["degree_constant"] is True
    assert audit["sigma_zero_empty"] is True
    # the constants are the least ones the sources admit, and the audit
    # searches the ball they give
    assert (records[0]["Lambda1"], records[0]["Lambda2"]) == (2.0, 1.0)
    assert audit["radius"] == records[0]["bound"] == pytest.approx(3043.96, abs=0.01)


def test_degree_command_on_a_system_searches_its_a_priori_ball(tmp_path, k2_path, capsys,
                                                               monkeypatch):
    monkeypatch.setattr(solve_mod, "_REFINEMENTS", 0)  # one grid level is enough here
    cfg = _write_config(tmp_path, {
        "model": "system",
        "parameters": {"p": 0.5, "q": 0.5},
        "source": {"f": {"constant": 1.0}, "g": {"constant": 1.0}},
    })
    code, (rec,) = _run(["degree", "--graph", k2_path, "--config", cfg], capsys)
    assert code == 0
    assert rec["computed"] == rec["expected"] == 0 and rec["roots"] == []
    assert rec["radius"] == pytest.approx(3043.96, abs=0.01)
    assert rec["box"] == [[-rec["radius"]] * 4, [rec["radius"]] * 4]


def test_config_error_leaves_out_file_untouched(tmp_path, k2_path, capsys):
    # the --out file is opened on the first record, so an error before it
    # keeps an earlier run's results
    out_path = tmp_path / "results.jsonl"
    out_path.write_text('{"kind": "earlier run"}\n')
    no_graph = _write_config(tmp_path, {"model": "scalar", "source": {"f": {"constant": 1.0}}})
    assert main(["solve", "--config", no_graph, "--out", str(out_path)]) == 2
    bad_sigma = _write_config(tmp_path, {
        "model": "system", "parameters": {"p": 0.5, "q": 0.5},
        "source": {"f": {"constant": 1.0}, "g": {"constant": 1.0}},
        "system": {"sigma_grid": [2.0]},
    })
    assert main(["system", "--graph", k2_path, "--config", bad_sigma, "--out", str(out_path)]) == 2
    assert capsys.readouterr().out == ""
    assert out_path.read_text() == '{"kind": "earlier run"}\n'


def test_failing_system_audit_writes_no_record(tmp_path, k2_path, capsys):
    # the system_bound record used to be written before the audit ran, so a
    # solver failure left it alone on stdout and in the --out file
    out_path = tmp_path / "results.jsonl"
    out_path.write_text('{"kind": "earlier run"}\n')
    # the sigma = 0 slice is proved without seeds; the sigma = 1 slice fails
    cfg = _write_config(tmp_path, {
        "model": "system", "parameters": {"p": 0.5, "q": 0.5},
        "source": {"f": {"constant": 1.0}, "g": {"constant": 1.0}},
        "system": {"sigma_grid": [0.0, 1.0]},
        "tolerances": {"seed_cap": 10},
    })
    assert main(["system", "--graph", k2_path, "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "seed budget exceeded" in captured.err
    assert main(["system", "--graph", k2_path, "--config", cfg, "--out", str(out_path)]) == 3
    assert out_path.read_text() == '{"kind": "earlier run"}\n'


def test_unwritable_out_is_refused_before_any_work(tmp_path, k2_path, capsys, monkeypatch):
    # a directory, or a file in a missing directory, used to fail only when
    # the first record was written, after the whole enumeration
    def no_work(*args, **kwargs):
        raise AssertionError("enumerated before --out was checked")

    monkeypatch.setattr("cshlab.cli.enumerate_report", no_work)
    cfg = _write_config(tmp_path, {"model": "scalar", "parameters": {"lambda": -10.0},
                                   "source": {"f": {"constant": 1.0}}})
    for out in (tmp_path, tmp_path / "missing" / "out.jsonl"):
        assert main(["enumerate", "--graph", k2_path, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"--out {out}" in captured.err
    assert not (tmp_path / "missing").exists()


def test_root_record_carries_every_solution_field(tmp_path, k2_path, capsys):
    # a field no output carries is dead weight: each one, and the critical
    # group ranks, reach the root record (the point as point, or as u and v)
    fields = {f.name for f in dataclasses.fields(ClassifiedSolution)} | {"critical_group_ranks"}
    scalar = _write_config(tmp_path, {"model": "scalar", "parameters": {"lambda": -10.0},
                                      "source": {"f": {"constant": 1.0}}})
    code, records = _run(["enumerate", "--graph", k2_path, "--config", scalar], capsys)
    system = _write_config(tmp_path, {"model": "system", "parameters": {"p": 0.5, "q": 0.5},
                                      "source": {"f": {"constant": -1.0}, "g": {"constant": -1.0}},
                                      "solve": {"seed": 0.0}})
    code2, (solved,) = _run(["solve", "--graph", k2_path, "--config", system], capsys)
    roots = [r for r in records if r["kind"] == "root"] + [solved]
    assert code == code2 == 0 and len(roots) > 1
    for rec in roots:
        names = set(rec) | ({"point"} if {"u", "v"} <= set(rec) else set())
        assert fields <= names, fields - names


def test_out_flag_writes_file(tmp_path, k2_path):
    cfg = _write_config(tmp_path, {
        "model": "scalar",
        "parameters": {"lambda": -10.0},
        "source": {"f": {"constant": 1.0}},
    })
    out_path = tmp_path / "report.jsonl"
    assert main(["degree", "--graph", k2_path, "--config", cfg, "--out", str(out_path)]) == 0
    rec = json.loads(out_path.read_text().strip())
    assert rec["computed"] == -1


def test_output_deterministic_for_fixed_seed(tmp_path, k2_path, capsys):
    cfg = _write_config(tmp_path, {
        "model": "scalar",
        "parameters": {"lambda": -4.0},  # degenerate root: perturbation policy runs
        "source": {"f": {"constant": -1.0}},
        "degree": {"radius": 8.0},
    })
    outs = []
    for _ in range(2):
        with pytest.warns(UserWarning, match="a priori"):
            code = main(["degree", "--graph", k2_path, "--config", cfg, "--seed", "7"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_check_command(capsys):
    code, records = _run(["check", "--seed", "0"], capsys)
    assert code == 0
    assert all(r["passed"] for r in records)
    assert len(records) == 7
