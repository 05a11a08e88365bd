import json

import numpy as np
import pytest

from cshlab import ScalarModel, complete_graph, residual, save_graph, sup_norm
from cshlab.cli import main


@pytest.fixture
def k2_path(tmp_path):
    path = tmp_path / "k2.json"
    save_graph(complete_graph(2), path)
    return str(path)


def _write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line.strip()]


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
        "enumerate": {"box": [-8.0, 3.0], "grid": 21},
    })
    with pytest.warns(UserWarning, match="a priori"):
        code, records = _run(["enumerate", "--graph", k2_path, "--config", cfg], capsys)
    assert code == 0
    roots = [r for r in records if r["kind"] == "root"]
    summary = [r for r in records if r["kind"] == "enumeration_summary"]
    assert len(roots) >= 2 and len(summary) == 1
    assert summary[0]["count"] == len(roots)


def test_sweep_csv(tmp_path, k2_path, capsys):
    cfg = _write_config(tmp_path, {
        "model": "scalar",
        "parameters": {"lambda": -10.0},
        "source": {"f": {"constant": -1.0}},
        "sweep": {"range": [-4.5, -5.5], "steps": 2, "box": [-5.0, 2.0], "grid": 21},
    })
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
    # tolerances that would silently skip every grid level
    cfg4 = _write_config(tmp_path, {
        "model": "scalar",
        "parameters": {"lambda": -10.0},
        "source": {"f": {"constant": 1.0}},
        "tolerances": {"max_refinements": -1},
    })
    assert main(["degree", "--graph", k2_path, "--config", cfg4]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad tolerances: max_refinements must be non-negative" in captured.err


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


def test_system_command(tmp_path, k2_path, capsys):
    cfg = _write_config(tmp_path, {
        "model": "system",
        "parameters": {"p": 0.5, "q": 0.5},
        "source": {"f": {"constant": 1.0}, "g": {"constant": 1.0}},
        "system": {"Lambda1": 2.0, "Lambda2": 1.0, "sigma_grid": [0.0, 1.0], "grid": 5},
    })
    code, records = _run(["system", "--graph", k2_path, "--config", cfg], capsys)
    assert code == 0
    kinds = [r["kind"] for r in records]
    assert kinds == ["system_bound", "homotopy_audit"]
    audit = records[1]
    assert audit["degree_constant"] is True
    assert audit["sigma_zero_empty"] is True


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
        "degree": {"radius": 8.0, "grid": 21},
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
