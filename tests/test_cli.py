import json
import subprocess
import sys

import pytest

from graph_shift.cli import main
from graph_shift.graph import Graph, make_complete, make_grid, make_ring
from graph_shift.mapping import BOTTOM, Mapping, full_mapping


def run(argv):
    return main(argv)


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.graph.json"
    make_complete(4).save(p)
    return str(p)


def test_gen_torus(tmp_path, capsys):
    out = tmp_path / "t.graph.json"
    assert run(["gen", "torus", "--dims", "5,5", "--out", str(out)]) == 0
    g = Graph.from_json_dict(json.loads(out.read_text()))
    assert g.n == 25


def test_gen_geometric_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["gen", "geometric", "--n", "50", "--r", "0.2", "--seed", "7", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["n"] == 50


def test_gen_invalid_params_exit_2():
    assert run(["gen", "torus", "--dims", "2,5"]) == 2


def _assert_exit_2_one_line(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gen_complete_without_n_exit_2(capsys):
    _assert_exit_2_one_line(["gen", "complete"], capsys)


@pytest.mark.parametrize("kind", ["grid", "torus"])
def test_gen_lattice_without_dims_exit_2(kind, capsys):
    _assert_exit_2_one_line(["gen", kind], capsys)


def test_graph_file_with_string_order_exit_2(tmp_path, capsys):
    gp = tmp_path / "g.json"
    gp.write_text('{"n": "3", "edges": [], "coords": null}')
    _assert_exit_2_one_line(["enumerate", str(gp)], capsys)


def test_enumerate_lossless_k4(k4_file, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert run(["enumerate", k4_file, "--lossless", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 9
    rec = json.loads(lines[0])
    assert set(rec) == {"domain", "codomain", "image"}
    summary = json.loads(capsys.readouterr().err)
    assert summary["count"] == 9


def test_enumerate_minimal_grid33(tmp_path, capsys):
    gp = tmp_path / "g.json"
    make_grid([3, 3]).save(gp)
    out = tmp_path / "out.jsonl"
    assert run(["enumerate", str(gp), "--minimal", "--out", str(out)]) == 0
    losses = [
        sum(1 for _, w in json.loads(line)["image"] if w is None)
        for line in out.read_text().splitlines()
    ]
    assert 1 in losses


def test_enumerate_edgeless_single_bottom(tmp_path, capsys):
    gp = tmp_path / "g.json"
    Graph(2, []).save(gp)
    out = tmp_path / "o.jsonl"
    assert run(["enumerate", str(gp), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert all(w is None for _, w in json.loads(lines[0])["image"])


def test_check_reports_translation(k4_file, tmp_path, capsys):
    g = make_complete(4)
    mp = tmp_path / "m.json"
    full_mapping(g, {1: 2, 2: 1, 3: 4, 4: 3}).save(mp)
    assert run(["check", k4_file, str(mp)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["is_translation"] and rep["loss"] == 0


def test_check_dot_output(k4_file, tmp_path):
    g = make_complete(4)
    mp = tmp_path / "m.json"
    full_mapping(g, {1: 2, 2: 1, 3: BOTTOM, 4: BOTTOM}).save(mp)
    dot = tmp_path / "m.dot"
    assert run(["check", k4_file, str(mp), "--format", "dot", "--out", str(dot)]) == 0
    text = dot.read_text()
    assert "style=dotted" in text   # base edges
    assert "1 -> 2;" in text        # mapping arc
    assert "style=filled" in text   # lost vertices


@pytest.mark.parametrize("bad", [-1, 4])
@pytest.mark.parametrize("where", ["source", "image"])
def test_check_out_of_range_mapping_vertex_exit_2(tmp_path, capsys, where, bad):
    gp, mp = tmp_path / "k3.json", tmp_path / "m.json"
    make_complete(3).save(gp)
    if where == "source":
        m = Mapping({bad, 1, 2}, {1, 2, 3}, {bad: 3, 1: 2, 2: BOTTOM})
    else:
        m = Mapping({1, 2, 3}, {1, 2, 3, bad}, {1: 2, 2: bad, 3: BOTTOM})
    m.save(mp)
    _assert_exit_2_one_line(["check", str(gp), str(mp)], capsys)


def test_check_mapping_file_with_non_list_domain_exit_2(tmp_path, capsys):
    gp, mp = tmp_path / "k3.json", tmp_path / "m.json"
    make_complete(3).save(gp)
    mp.write_text('{"domain": 5, "codomain": [1, 2, 3], "image": []}')
    _assert_exit_2_one_line(["check", str(gp), str(mp)], capsys)


def test_enumerate_negative_max_loss_exit_2(k4_file, capsys):
    _assert_exit_2_one_line(["enumerate", k4_file, "--max-loss", "-1"], capsys)


@pytest.mark.parametrize("command", ["sweep", "enumerate"])
def test_unhonoured_format_exit_2(k4_file, capsys, command):
    argv = [command, k4_file, "--format", "dot"]
    if command == "sweep":
        argv += ["--src", "1", "--tgt", "2"]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_compose_path_graph(tmp_path, capsys):
    gp = tmp_path / "p.json"
    Graph(3, [(1, 2), (2, 3)]).save(gp)
    out = tmp_path / "trace.json"
    code = run(["compose", str(gp), "--src", "1", "--tgt", "3",
                "--domain-set", "1", "--out", str(out)])
    assert code == 0
    trace = json.loads(out.read_text())
    assert len(trace["steps"]) == 2
    assert trace["cumulative_score"] == 0
    assert trace["pair"] == {"loss_ratio": 0.0, "snp_ratio": 0.0}


def test_compose_unreachable_exit_3(tmp_path):
    gp = tmp_path / "d.json"
    Graph(4, [(1, 2), (3, 4)]).save(gp)
    assert run(["compose", str(gp), "--src", "1", "--tgt", "3"]) == 3


@pytest.mark.parametrize("command", ["compose", "sweep"])
@pytest.mark.parametrize("src", ["9", "0", "-1"])
def test_out_of_range_source_exit_2(tmp_path, capsys, command, src):
    gp = tmp_path / "ring.json"
    make_ring(5).save(gp)
    assert run([command, str(gp), "--src", src, "--tgt", "3"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_compose_dot_steps(tmp_path):
    gp = tmp_path / "p.json"
    Graph(3, [(1, 2), (2, 3)]).save(gp)
    out = tmp_path / "trace.json"
    assert run(["compose", str(gp), "--src", "1", "--tgt", "3", "--domain-set", "1",
                "--format", "dot", "--out", str(out)]) == 0
    assert (tmp_path / "trace_step1.dot").exists()
    assert (tmp_path / "trace_step2.dot").exists()


def test_compose_dot_without_out_exit_2(tmp_path, capsys, monkeypatch):
    gp = tmp_path / "ring5.json"
    make_ring(5).save(gp)

    def no_search(*args, **kwargs):
        raise AssertionError("search ran")

    monkeypatch.setattr("graph_shift.cli.best_composition", no_search)
    _assert_exit_2_one_line(
        ["compose", str(gp), "--src", "1", "--tgt", "3", "--format", "dot"], capsys
    )


@pytest.mark.parametrize("flag, vertices", [("--image-set", "1,99"), ("--domain-set", "0,-1")])
def test_enumerate_out_of_range_vertex_set_exit_2(tmp_path, capsys, flag, vertices):
    gp = tmp_path / "ring5.json"
    make_ring(5).save(gp)
    _assert_exit_2_one_line(["enumerate", str(gp), flag, vertices], capsys)


def test_sweep_csv(tmp_path):
    gp = tmp_path / "g.json"
    make_grid([3, 3]).save(gp)
    out = tmp_path / "sweep.csv"
    assert run(["sweep", str(gp), "--src", "1", "--tgt", "9", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,beta,gamma,K,loss_ratio,snp_ratio,score,steps,pareto"
    assert len(lines) == 82  # header + 81 cells
    assert any(line.endswith(",1") for line in lines[1:])  # Pareto rows flagged


def test_byte_identical_reruns(tmp_path):
    gp = tmp_path / "g.json"
    make_grid([3, 3]).save(gp)
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        assert run(["compose", str(gp), "--src", "1", "--tgt", "9",
                    "--seed", "5", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_missing_graph_file_exit_2(tmp_path):
    assert run(["enumerate", str(tmp_path / "nope.json")]) == 2


def test_unreadable_graph_file_exit_4(tmp_path):
    assert run(["enumerate", str(tmp_path)]) == 4


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "graph_shift.cli", "gen", "complete", "--n", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 3
