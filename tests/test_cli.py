"""End-to-end command line tests: file formats, every subcommand, exit codes,
and byte-for-byte determinism under a fixed seed."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import quiverflow
from quiverflow import Representation, jordan2, star21
from quiverflow import cli, strata
from quiverflow.cli import (
    load_quiver_file,
    quiver_file_doc,
    rep_from_doc,
    rep_to_doc,
)

CLI = [sys.executable, "-m", "quiverflow.cli"]
# the command runs in a child process, which must import the same package
SRC = os.path.dirname(os.path.dirname(quiverflow.__file__))
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}


def run_cli(*args, check=False):
    p = subprocess.run(CLI + list(args), capture_output=True, text=True, env=ENV)
    if check:
        assert p.returncode == 0, p.stderr
    return p


def test_quiver_file_round_trip(tmp_path):
    q, v, a = star21()
    doc = quiver_file_doc(q, v, a)
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    q2, v2, a2_ = load_quiver_file(str(path))
    assert q2 == q and v2 == v and a2_.values == a.values


def test_rep_file_round_trip_bit_exact():
    q, v, _ = star21()
    A = Representation.random(q, v, np.random.default_rng(0))
    doc = json.loads(json.dumps(rep_to_doc(A)))
    B = rep_from_doc(q, v, doc)
    for m1, m2 in zip(A.mats, B.mats):
        assert np.array_equal(m1, m2)  # float64 survives the JSON round trip


def test_flow_command_zero_init(tmp_path):
    q, v, a = star21()
    # A = 0 is the deepest critical point; its type lists one slope per block
    init = tmp_path / "zero.json"
    init.write_text(json.dumps(rep_to_doc(Representation.zero(q, v))))
    out = tmp_path / "final.json"
    p = run_cli(
        "flow", "--quiver", "star21", "--init", str(init),
        "--out-final", str(out), check=True,
    )
    doc = json.loads(out.read_text())
    assert doc["hn_type"] == [[0, 1], [2, 0]]
    assert doc["grad_norm"] < 1e-7


def test_flow_command_random_with_trajectory(tmp_path):
    out = tmp_path / "final.json"
    traj = tmp_path / "traj.csv"
    run_cli(
        "flow", "--quiver", "a2", "--seed", "3",
        "--out-final", str(out), "--out-traj", str(traj), check=True,
    )
    doc = json.loads(out.read_text())
    assert doc["converged"] is True
    lines = traj.read_text().strip().splitlines()
    assert lines[0] == "t,f,grad_norm"
    fs = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(f2 <= f1 + 1e-10 * (1 + f1) for f1, f2 in zip(fs, fs[1:]))


def test_flow_command_deterministic(tmp_path):
    outs = []
    for name in ("x1.json", "x2.json"):
        out = tmp_path / name
        run_cli("flow", "--quiver", "star21", "--seed", "7",
                "--out-final", str(out), check=True)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_flow_command_stats_file(tmp_path):
    # the hn-typing example of test_strata: a saddle flyby refined at the dip
    q, v, a = star21()
    A, _ = strata.make_hn_example(q, ((1, 1), (1, 0)), a, seed=10)
    init = tmp_path / "init.json"
    init.write_text(json.dumps(rep_to_doc(A)))
    plain = run_cli("flow", "--quiver", "star21", "--init", str(init), check=True)
    stats = tmp_path / "stats.json"
    p = run_cli("flow", "--quiver", "star21", "--init", str(init),
                "--stats", str(stats), check=True)
    assert p.stdout == plain.stdout
    doc = json.loads(stats.read_text())
    final = json.loads(p.stdout)
    assert doc["critical_path"] == "dip" and doc["fallback_reason"] is None
    assert final["hn_type"] == [[1, 1], [1, 0]]
    assert doc["n_accepted"] == final["n_steps"] > 0
    rejected = doc["n_rejected_err"] + doc["n_rejected_monotone"] + doc["n_nonfinite"]
    assert doc["n_rhs"] == 1 + 12 * (doc["n_accepted"] + rejected)
    assert 0 < doc["h_min"] <= doc["h_max"]
    assert 0 <= doc["n_stiff_capped"] <= doc["n_accepted"]
    assert 0 <= doc["level_margin"] < 1e-6 and 0 <= doc["offdiag_residue"] < 1e-4
    assert all(math.isfinite(doc[k]) and doc[k] >= 0 for k in ("integrate_s", "classify_s"))
    # a start at a critical point takes no step: h_min is written as null;
    # the zero representation's eigenvalues are exactly -a
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(rep_to_doc(Representation.zero(q, v))))
    run_cli("flow", "--quiver", "star21", "--init", str(zero),
            "--stats", str(stats), check=True)
    doc = json.loads(stats.read_text())
    assert doc["n_accepted"] == 0 and doc["h_min"] is None
    assert doc["critical_path"] == "endpoint"
    assert doc["level_margin"] == doc["offdiag_residue"] == 0.0
    # a flow cut short is not classified: the margins are written as null
    p = run_cli("flow", "--quiver", "star21", "--init", str(init), "--max-t", "0.01",
                "--stats", str(stats))
    assert p.returncode == 1
    doc = json.loads(stats.read_text())
    assert doc["critical_path"] is None
    assert doc["level_margin"] is None and doc["offdiag_residue"] is None


def test_flow_command_integrates_once(tmp_path, monkeypatch):
    # the nilpotent orbit decays algebraically, so it does not converge by
    # t = 10; the report comes from the one flow that was run
    q, v, _ = jordan2()
    init = tmp_path / "nil.json"
    nil = Representation(q, v, [np.array([[0, 1], [0, 0]], dtype=complex)])
    init.write_text(json.dumps(rep_to_doc(nil)))
    real = cli.integrate_flow
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (cli, strata):
        monkeypatch.setattr(mod, "integrate_flow", counted)
    out = tmp_path / "final.json"
    argv = ["flow", "--quiver", "jordan2", "--init", str(init), "--max-t", "10",
            "--out-final", str(out)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert len(calls) == 1
    doc = json.loads(out.read_text())
    assert doc["converged"] is False and doc["hn_type"] is None
    assert doc["note"] == "flow did not converge within max_time=10.0"
    assert run_cli(*argv[:-1], str(tmp_path / "again.json")).returncode == 1
    assert (tmp_path / "again.json").read_bytes() == out.read_bytes()


def test_strata_command():
    p = run_cli("strata", "--quiver", "star21", check=True)
    doc = json.loads(p.stdout)
    types = [tuple(tuple(x) for x in item["type"]) for item in doc]
    assert ((1, 1), (1, 0)) in types and ((2, 1),) in types
    for item in doc:
        assert item["codimension"] >= 0
    p2 = run_cli("strata", "--quiver", "star21", "--max-length", "1", check=True)
    assert all(len(item["type"]) == 1 for item in json.loads(p2.stdout))


def test_poincare_command():
    p = run_cli("poincare", "--quiver", "star21", "--max-deg", "12", check=True)
    doc = json.loads(p.stdout)
    assert doc["coefficients"][:6] == [1, 0, 2, 0, 2, 0]


def _write_empty_stratum_triangle(tmp_path):
    # 1->2, 2->3, 1->3 at v=(2,0,2): the semistable locus and every stratum
    # but the open one are empty for this parameter
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({
        "vertices": ["1", "2", "3"],
        "edges": [{"from": "1", "to": "2"}, {"from": "2", "to": "3"}, {"from": "1", "to": "3"}],
        "dim": {"1": 2, "2": 0, "3": 2},
        "alpha": {"1": "-1", "2": "0", "3": "1"},
    }))
    return str(path)


def test_poincare_command_on_empty_semistable_locus(tmp_path):
    p = run_cli("poincare", "--quiver", _write_empty_stratum_triangle(tmp_path), check=True)
    assert json.loads(p.stdout)["coefficients"] == [0] * 21


def test_strata_command_leaves_out_empty_strata(tmp_path):
    p = run_cli("strata", "--quiver", _write_empty_stratum_triangle(tmp_path), check=True)
    doc = json.loads(p.stdout)
    assert [item["type"] for item in doc] == [[[0, 0, 2], [2, 0, 0]]]
    assert doc[0]["codimension"] == 0


def test_exit_code_1_on_series_invariant_failure(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise quiverflow.SeriesInvariantError("negative exponent -1 on a nonzero term")

    monkeypatch.setattr(cli, "poincare_semistable", broken)
    with pytest.raises(SystemExit) as exc:
        cli.main(["poincare", "--quiver", "a2"])
    assert exc.value.code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "SeriesInvariantError"


def test_sigma_command():
    p = run_cli("sigma", "--quiver", "a2", "--seed", "5", check=True)
    lines = p.stdout.strip().splitlines()
    assert lines[0] == "t,sigma"
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(v >= -1e-12 for v in vals)
    assert all(v2 <= v1 + 1e-8 for v1, v2 in zip(vals, vals[1:]))


def test_hkflow_command(tmp_path):
    out = tmp_path / "hk.json"
    run_cli("hkflow", "--quiver", "star21", "--seed", "1",
            "--out-final", str(out), check=True)
    doc = json.loads(out.read_text())
    assert doc["max_phi_c_norm"] <= 1e-9
    assert doc["converged"] is True


def test_checkgrad_command():
    p = run_cli("checkgrad", "--trials", "5", check=True)
    doc = json.loads(p.stdout)
    assert set(doc["per_quiver"]) == {"a2", "jordan2", "star21"}
    assert doc["max_relative_error"] < 1e-6


def test_exit_code_2_on_trace_free_violation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "vertices": ["1", "2"],
        "edges": [{"from": "1", "to": "2"}],
        "dim": {"1": 1, "2": 1},
        "alpha": {"1": "1", "2": "1"},
    }))
    p = run_cli("strata", "--quiver", str(path))
    assert p.returncode == 2
    err = json.loads(p.stderr)
    assert err["error"] == "trace_free_violation"


def test_exit_code_2_on_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    p = run_cli("poincare", "--quiver", str(path))
    assert p.returncode == 2
    assert json.loads(p.stderr)["error"] == "input_error"
    p2 = run_cli("flow", "--quiver", str(tmp_path / "missing.json"))
    assert p2.returncode == 2
    # a representation or gauge file must hold one matrix per edge or vertex
    from quiverflow import double

    q, v, _ = star21()
    rng = np.random.default_rng(0)
    mats = rep_to_doc(Representation.random(q, v, rng))["matrices"]
    doubled = rep_to_doc(Representation.random(double(q), v, rng))["matrices"]
    blocks = [[[[float(i == j), 0.0] for j in range(d)] for i in range(d)] for d in v]
    cases = [
        ("flow", "--init", {"matrices": mats + mats[:1]}),
        ("hkflow", "--init", {"matrices": doubled + doubled[:1]}),
        ("sigma", "--g0", {"blocks": blocks[:1]}),
        ("sigma", "--g0", {"blocks": blocks + blocks[:1]}),
    ]
    for i, (command, flag, doc) in enumerate(cases):
        path = tmp_path / f"miscounted{i}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--quiver", "star21", flag, str(path)])
        assert exc.value.code == 2, (command, i)
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"] == "input_error", (command, i)


def test_exit_code_2_on_rank_zero_dims(tmp_path, capsys):
    # an empty representation space is rejected when the file is read
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "vertices": ["1", "2"],
        "edges": [{"from": "1", "to": "2"}],
        "dim": {"1": 0, "2": 0},
        "alpha": {"1": "1", "2": "-1"},
    }))
    for command in ("flow", "strata", "poincare", "sigma", "hkflow", "checkgrad"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--quiver", str(path)])
        assert exc.value.code == 2, command
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"] == "input_error", command


def test_exit_code_1_on_off_level_init(tmp_path):
    # a random doubled representation is off the zero level of Phi_C
    from quiverflow import double

    q, v, _ = star21()
    rep = Representation.random(double(q), v, np.random.default_rng(2))
    init = tmp_path / "off.json"
    init.write_text(json.dumps(rep_to_doc(rep)))
    p = run_cli("hkflow", "--quiver", "star21", "--init", str(init))
    assert p.returncode == 1
    assert json.loads(p.stderr)["error"] == "LevelError"


@pytest.mark.parametrize(
    "argv",
    [
        ["poincare", "--quiver", "a2", "--max-deg", "-1"],
        ["flow", "--quiver", "a2", "--tol", "0"],
        ["sigma", "--quiver", "a2", "--tol", "0"],
        ["flow", "--quiver", "a2", "--max-t", "-1"],
        ["hkflow", "--quiver", "a2", "--level-tol", "-1"],
        ["checkgrad", "--trials", "0"],
        ["strata", "--quiver", "star21", "--max-length", "0"],
        ["strata", "--quiver", "star21", "--max-length", "-3"],
        ["flow", "--quiver", "a2", "--seed", "-1"],
        ["sigma", "--quiver", "a2", "--seed", "-1"],
        ["hkflow", "--quiver", "a2", "--seed", "-1"],
        ["checkgrad", "--seed", "-1"],
    ],
    ids=[
        "max-deg", "flow-tol", "sigma-tol", "max-t", "level-tol", "trials",
        "max-length-0", "max-length-neg", "flow-seed", "sigma-seed", "hkflow-seed",
        "checkgrad-seed",
    ],
)
def test_exit_code_2_on_bad_numeric_option(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "input_error"
