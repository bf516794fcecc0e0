import contextlib
import hashlib
import io
import json
import os
import stat
import subprocess
import sys

import pytest

import graph_shift.graph as graph_module
from graph_shift.cli import main
from graph_shift.enumeration import EnumerationFilter, enumerate_translations
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


@pytest.mark.parametrize("radius", ["0", "nan"])
def test_gen_geometric_non_positive_radius_exit_2(radius, capsys):
    _assert_exit_2_one_line(["gen", "geometric", "--n", "5", "--r", radius], capsys)


def test_gen_geometric_negative_seed_exit_2_names_the_seed(capsys):
    # numpy's own message named no parameter.
    assert run(["gen", "geometric", "--n", "5", "--r", "0.5", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed -1 out of range 0..\n"


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


#: Graph, flags and the sha256 of `graph-shift enumerate` stdout, pinned
#: from the recursive enumerator before it became an explicit-stack loop:
#: the canonical order (image tuple ascending, bottom last) and every byte.
ENUMERATE_PINS = {
    "grid3x3": (make_grid([3, 3]), [],
                "5377916b133bbfbd19aab67ea6a644d64e8a86b67c4490c5e6e52927df20c716"),
    "ring8": (make_ring(8), [],
              "5ed026cfa5b4d8898dfc3795f808bd7f6cdf2b76e88f3ccc89fe92a6ca658703"),
    "complete6": (make_complete(6), [],
                  "93519e664e5cab179da26b50912f6aec77ad01986f94fe8857276ed656fea447"),
    "grid3x3-max-loss-2": (make_grid([3, 3]), ["--max-loss", "2"],
                           "06f1cc430aef2f51fa2a163edf32dd99bb264ec16f8e0fa45b942689d962e1ab"),
    "grid3x3-image-domain": (make_grid([3, 3]), ["--image-set", "2,4,5,6", "--domain-set", "1,2,3,5,7"],
                             "f72ac07eef0663a563eeb81dc63cbbcefe8e631346d378cacdfe55bc5d1a6b27"),
}


@pytest.mark.parametrize("case", list(ENUMERATE_PINS))
def test_enumerate_stdout_bytes_are_pinned(tmp_path, capsys, case):
    g, flags, digest = ENUMERATE_PINS[case]
    gp = tmp_path / "g.json"
    g.save(gp)
    assert run(["enumerate", str(gp), *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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
@pytest.mark.parametrize("where", ["source", "image", "lost source", "unused codomain"])
def test_check_out_of_range_mapping_vertex_exit_2(tmp_path, capsys, where, bad):
    gp, mp = tmp_path / "k3.json", tmp_path / "m.json"
    make_complete(3).save(gp)
    m = {
        "source": Mapping({bad, 1, 2}, {1, 2, 3}, {bad: 3, 1: 2, 2: BOTTOM}),
        "image": Mapping({1, 2, 3}, {1, 2, 3, bad}, {1: 2, 2: bad, 3: BOTTOM}),
        "lost source": Mapping({bad, 1, 2}, {1, 2, 3}, {bad: BOTTOM, 1: 2, 2: 3}),
        "unused codomain": Mapping({1, 2, 3}, {1, 2, 3, bad}, {1: 2, 2: 3, 3: BOTTOM}),
    }[where]
    m.save(mp)
    _assert_exit_2_one_line(["check", str(gp), str(mp)], capsys)


def test_check_mapping_file_with_non_list_domain_exit_2(tmp_path, capsys):
    gp, mp = tmp_path / "k3.json", tmp_path / "m.json"
    make_complete(3).save(gp)
    mp.write_text('{"domain": 5, "codomain": [1, 2, 3], "image": []}')
    _assert_exit_2_one_line(["check", str(gp), str(mp)], capsys)


def test_enumerate_negative_max_loss_exit_2(k4_file, capsys):
    _assert_exit_2_one_line(["enumerate", k4_file, "--max-loss", "-1"], capsys)


def test_enumerate_lossless_with_a_positive_max_loss_exit_2(k4_file, capsys):
    _assert_exit_2_one_line(["enumerate", k4_file, "--lossless", "--max-loss", "2"], capsys)
    assert run(["enumerate", k4_file, "--lossless"]) == 0
    lossless = capsys.readouterr().out
    assert run(["enumerate", k4_file, "--lossless", "--max-loss", "0"]) == 0
    assert capsys.readouterr().out == lossless


#: Each command that reads files, with the flags it needs; `{g}` and `{m}`
#: stand for the graph and mapping files.
FILE_COMMANDS = {
    "check": ["check", "{g}", "{m}"],
    "enumerate": ["enumerate", "{g}"],
    "compose": ["compose", "{g}", "--src", "1", "--tgt", "2"],
    "sweep": ["sweep", "{g}", "--src", "1", "--tgt", "2"],
}


@pytest.mark.parametrize(
    "command, nested_file",
    [(command, "graph") for command in FILE_COMMANDS] + [("check", "mapping")],
)
def test_deeply_nested_json_file_exit_2(tmp_path, capsys, command, nested_file):
    gp, mp = tmp_path / "g.json", tmp_path / "m.json"
    make_ring(5).save(gp)
    full_mapping(make_ring(5), {v: v % 5 + 1 for v in range(1, 6)}).save(mp)
    (gp if nested_file == "graph" else mp).write_text("[" * 50_000)
    argv = [a.format(g=gp, m=mp) for a in FILE_COMMANDS[command]]
    _assert_exit_2_one_line(argv, capsys)


#: Each command's flags, ending with one it does not take and its value:
#: a format that would not change its output, or compose's unread seed.
UNTAKEN_FLAGS = {
    "sweep": ["--src", "1", "--tgt", "2", "--format", "dot"],
    "enumerate": ["--format", "dot"],
    "compose": ["--src", "1", "--tgt", "2", "--seed", "5"],
}


@pytest.mark.parametrize("command", list(UNTAKEN_FLAGS))
def test_unhonoured_format_exit_2(k4_file, capsys, command):
    flags = UNTAKEN_FLAGS[command]
    with pytest.raises(SystemExit) as exc:
        run([command, k4_file, *flags])
    assert exc.value.code == 2
    assert flags[-2] in capsys.readouterr().err


def test_compose_path_graph(tmp_path, capsys):
    gp = tmp_path / "p.json"
    Graph(3, [(1, 2), (2, 3)]).save(gp)
    out = tmp_path / "trace.json"
    code = run(["compose", str(gp), "--src", "1", "--tgt", "3",
                "--domain-set", "1", "--out", str(out)])
    assert code == 0
    trace = json.loads(out.read_text())
    assert trace["graph"] == str(gp)
    assert len(trace["steps"]) == 2
    assert trace["cumulative_score"] == 0
    assert trace["pair"] == {"loss_ratio": 0.0, "snp_ratio": 0.0}
    # The empty chain's score is the integer sum of no steps.
    assert run(["compose", str(gp), "--src", "1", "--tgt", "1", "--domain-set", "1"]) == 0
    assert '"cumulative_score":0,' in capsys.readouterr().out


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


@pytest.mark.parametrize("command", ["compose", "sweep"])
def test_negative_hops_exit_2(tmp_path, capsys, command):
    gp = tmp_path / "ring.json"
    make_ring(5).save(gp)
    _assert_exit_2_one_line([command, str(gp), "--src", "1", "--tgt", "3", "--hops", "-1"], capsys)


def test_compose_huge_hops_equals_saturated_hops(tmp_path, capsys):
    # The 5-ring's diameter is 2, so hop counts from 2 on widen the targets
    # no further, and a billion of them must cost no more than 4.
    gp = tmp_path / "ring.json"
    make_ring(5).save(gp)
    outputs = []
    for hops in ("4", "1000000000"):
        assert run(["compose", str(gp), "--src", "1", "--tgt", "3", "--hops", hops]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_compose_dot_steps(tmp_path):
    gp = tmp_path / "p.json"
    Graph(3, [(1, 2), (2, 3)]).save(gp)
    out = tmp_path / "trace.json"
    assert run(["compose", str(gp), "--src", "1", "--tgt", "3", "--domain-set", "1",
                "--format", "dot", "--out", str(out)]) == 0
    assert (tmp_path / "trace_step1.dot").exists()
    assert (tmp_path / "trace_step2.dot").exists()
    # A dot in a directory name is not an extension: the steps go next to --out.
    (tmp_path / "a.b").mkdir()
    assert run(["compose", str(gp), "--src", "1", "--tgt", "3", "--domain-set", "1",
                "--format", "dot", "--out", str(tmp_path / "a.b" / "trace")]) == 0
    assert sorted(f.name for f in (tmp_path / "a.b").iterdir()) == [
        "trace", "trace_step1.dot", "trace_step2.dot"
    ]
    assert not list(tmp_path.glob("a_step*"))


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


@pytest.mark.parametrize("flag, field", [("--image-set", "require_image_set"), ("--domain-set", "restrict_domain")])
def test_enumerate_empty_vertex_set_is_a_filter(tmp_path, capsys, flag, field):
    # An empty set is a filter, not an absent flag: only the all-bottom map passes.
    gp = tmp_path / "ring4.json"
    make_ring(4).save(gp)
    assert run(["enumerate", str(gp), flag, ""]) == 0
    expected = enumerate_translations(make_ring(4), EnumerationFilter(**{field: frozenset()}))
    assert json.loads(capsys.readouterr().err)["count"] == len(expected) == 1


@pytest.mark.parametrize("command", ["compose", "sweep"])
def test_empty_domain_set_exit_2(tmp_path, capsys, command):
    # An empty support does not fall back to --src and its neighbours.
    gp = tmp_path / "ring5.json"
    make_ring(5).save(gp)
    _assert_exit_2_one_line([command, str(gp), "--src", "1", "--tgt", "3", "--domain-set", ""], capsys)


def test_check_mapping_with_repeated_source_exit_2(tmp_path, capsys):
    # Source 1 has two images; keeping the last one made this a 5-ring translation.
    gp, mp = tmp_path / "ring5.json", tmp_path / "m.json"
    make_ring(5).save(gp)
    image = [[1, 3], [1, 2], [2, 3], [3, 4], [4, 5], [5, 1]]
    mp.write_text(json.dumps({"domain": [1, 2, 3, 4, 5], "codomain": [1, 2, 3, 4, 5], "image": image}))
    _assert_exit_2_one_line(["check", str(gp), str(mp)], capsys)


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
        assert run(["compose", str(gp), "--src", "1", "--tgt", "9", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_missing_graph_file_exit_2(tmp_path):
    assert run(["enumerate", str(tmp_path / "nope.json")]) == 2


def test_unreadable_graph_file_exit_4(tmp_path):
    assert run(["enumerate", str(tmp_path)]) == 4


@pytest.mark.parametrize("where", ["missing directory", "directory"])
@pytest.mark.parametrize("command", ["gen", "compose"])
def test_failed_out_write_names_the_path_and_exit_4(tmp_path, capsys, command, where):
    gp = tmp_path / "p.json"
    Graph(3, [(1, 2), (2, 3)]).save(gp)
    out = tmp_path / "missing" / "x.json"
    if where == "directory":
        out = tmp_path / "dir"
        out.mkdir()
    argv = ["gen", "ring", "--n", "5"] if command == "gen" else ["compose", str(gp), "--src", "1", "--tgt", "3"]
    assert run([*argv, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.endswith(f": {str(out)!r}\n") and err.count("\n") == 1
    assert not list(tmp_path.rglob(".tmp-*"))


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "graph_shift.cli", "gen", "complete", "--n", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 3


def test_compose_negative_hops_at_target_exit_2(tmp_path, capsys):
    gp = tmp_path / "ring.json"
    make_ring(5).save(gp)
    _assert_exit_2_one_line(["compose", str(gp), "--src", "1", "--tgt", "1", "--hops", "-1"], capsys)


@pytest.mark.parametrize(
    "weights",
    [["--alpha", "nan"], ["--beta=-inf"], ["--alpha", "inf", "--beta", "0", "--gamma", "0"]],
)
def test_compose_non_finite_weight_exit_2(tmp_path, capsys, weights):
    gp = tmp_path / "ring.json"
    make_ring(5).save(gp)
    _assert_exit_2_one_line(["compose", str(gp), "--src", "1", "--tgt", "3", *weights], capsys)


def test_compose_weight_that_would_overflow_exit_2(tmp_path, capsys):
    # gamma * 2.0 overflows to inf, and inf * 0 made the trace's scores NaN.
    gp = tmp_path / "grid.json"
    make_grid([3, 3]).save(gp)
    argv = ["compose", str(gp), "--src", "1", "--tgt", "9", "--alpha", "1", "--beta", "0.1", "--gamma", "1e308"]
    _assert_exit_2_one_line(argv, capsys)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_cli_fuzz_exit_codes(tmp_path):
    """compose and enumerate keep the 0/2/3/4 exit contract on arbitrary flag values."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    gp = tmp_path / "ring.json"
    make_ring(5).save(gp)
    small = st.integers(-2, 7).map(str)
    weight = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.5", "1", "1e308"])

    def flag(name, values):
        return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v}"]))

    compose = st.tuples(
        st.just(["compose", str(gp)]),
        small.map(lambda v: [f"--src={v}"]),
        small.map(lambda v: [f"--tgt={v}"]),
        flag("--hops", small),
        flag("--k", small),
        flag("--alpha", weight),
        flag("--beta", weight),
        flag("--gamma", weight),
    )
    vertex_set = st.lists(small, max_size=3).map(",".join)
    enumerate_ = st.tuples(
        st.just(["enumerate", str(gp)]),
        flag("--max-loss", small),
        flag("--image-set", vertex_set),
        flag("--domain-set", vertex_set),
        st.sampled_from([[], ["--lossless"], ["--minimal"]]),
    )

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(st.one_of(compose, enumerate_).map(lambda parts: sum(parts, [])))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:  # argparse rejects the flags
                code = exc.code
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if code == 0 and argv[0] == "compose":
            json.loads(out.getvalue(), parse_constant=_reject_constant)

    check()


def test_cli_file_fuzz_exit_codes(tmp_path):
    """check, enumerate, compose and sweep keep the 0/2/3/4 exit contract on
    arbitrary graph and mapping files: wrong types, ragged lists, deep nesting."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    gp, mp = tmp_path / "g.json", tmp_path / "m.json"
    small = st.integers(-1, 13)
    scalar = st.one_of(st.none(), st.booleans(), small, st.floats(), st.text(max_size=3))
    anything = st.recursive(scalar, lambda inner: st.lists(inner, max_size=3)
                            | st.dictionaries(st.text(max_size=2), inner, max_size=3), max_leaves=8)
    ragged = st.lists(st.lists(small, max_size=3) | anything, max_size=8)

    def edges(n):
        pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
        return st.lists(pair.map(list), max_size=8)

    # n stays at most 12, since a graph allocates per-vertex state for any
    # order it is given; at most 8 edges keep the enumeration small.
    graph = st.integers(2, 12).flatmap(lambda n: st.fixed_dictionaries({"n": st.just(n), "edges": edges(n)}))
    hostile_graph = st.fixed_dictionaries(
        {"n": st.integers(-2, 12) | anything, "edges": ragged},
        optional={"coords": st.none() | ragged},
    )
    vertices = list(range(1, 7))
    mapping = st.builds(
        lambda images, lost: {"domain": vertices, "codomain": vertices,
                              "image": [[v, None if b else w] for v, w, b in zip(vertices, images, lost)]},
        st.permutations(vertices), st.lists(st.booleans(), min_size=6, max_size=6),
    )
    hostile_mapping = st.fixed_dictionaries({
        "domain": st.lists(small, max_size=6) | anything,
        "codomain": st.lists(small, max_size=6) | anything,
        "image": st.lists(st.lists(st.none() | small, max_size=3) | anything, max_size=6),
    })

    def text(*values):
        return st.one_of(*(v.map(json.dumps) for v in values), anything.map(json.dumps),
                         st.just("[" * 50_000), st.text(max_size=5))

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(text(graph, hostile_graph), text(mapping, hostile_mapping), st.sampled_from(list(FILE_COMMANDS)))
    def check(graph_text, mapping_text, command):
        gp.write_text(graph_text, encoding="utf-8")
        mp.write_text(mapping_text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([a.format(g=gp, m=mp) for a in FILE_COMMANDS[command]])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()

    check()


def test_sweep_unreachable_exit_3_writes_no_file(tmp_path, capsys):
    gp, out = tmp_path / "d.json", tmp_path / "sweep.csv"
    Graph(4, [(1, 2), (3, 4)]).save(gp)
    assert run(["sweep", str(gp), "--src", "1", "--tgt", "3", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "no composition found\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["compose", "sweep"])
@pytest.mark.parametrize("domain_set", ["1,2,999", "1,2,0"])
def test_out_of_range_domain_set_vertex_exit_2(tmp_path, capsys, command, domain_set):
    # Both commands hand the support to best_composition, which checks every vertex.
    gp = tmp_path / "ring6.json"
    make_ring(6).save(gp)
    _assert_exit_2_one_line([command, str(gp), "--src", "1", "--tgt", "3", "--domain-set", domain_set], capsys)


def test_sweep_source_outside_the_domain_set_exit_2(tmp_path, capsys):
    gp = tmp_path / "ring.json"
    make_ring(5).save(gp)
    _assert_exit_2_one_line(["sweep", str(gp), "--src", "1", "--tgt", "3", "--domain-set", "3,4"], capsys)


@pytest.mark.parametrize("command", ["compose", "sweep"])
def test_disconnected_domain_set_writes_nothing_to_stderr(tmp_path, command):
    # {1, 3} is two fragments of the 5-ring; a whole process shows any warning text.
    gp = tmp_path / "ring.json"
    make_ring(5).save(gp)
    proc = subprocess.run(
        [sys.executable, "-m", "graph_shift.cli", command, str(gp), "--src", "1", "--tgt", "3", "--domain-set", "1,3"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_graph_order_above_the_cap_exit_2(tmp_path, capsys, monkeypatch):
    gp, mp, out = tmp_path / "g.json", tmp_path / "m.json", tmp_path / "big.json"
    gp.write_text('{"n": 11, "edges": [], "coords": null}')
    full_mapping(make_ring(5), {v: v for v in range(1, 6)}).save(mp)
    # A small cap stands in for 16,383, so no large graph is built.
    monkeypatch.setattr(graph_module, "_MAX_ORDER", 10)
    _assert_exit_2_one_line(["check", str(gp), str(mp)], capsys)
    _assert_exit_2_one_line(["gen", "ring", "--n", "11", "--out", str(out)], capsys)
    assert not out.exists()


def test_library_and_cli_write_the_same_bytes(tmp_path):
    lib, cli, lines = tmp_path / "lib.json", tmp_path / "cli.json", tmp_path / "lossless.jsonl"
    make_ring(5).save(lib)
    assert run(["gen", "ring", "--n", "5", "--out", str(cli)]) == 0
    assert lib.read_bytes() == cli.read_bytes() == b'{"coords":null,"edges":[[1,2],[1,5],[2,3],[3,4],[4,5]],"n":5}\n'
    assert run(["enumerate", str(cli), "--lossless", "--out", str(lines)]) == 0
    enumerate_translations(make_ring(5), EnumerationFilter(lossless_only=True))[0].save(lib)
    assert lines.read_bytes().splitlines(keepends=True)[0] == lib.read_bytes()


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_written_files_take_their_mode_from_the_umask(tmp_path, umask):
    paths = [tmp_path / name for name in ("lib.json", "m.json", "cli.json")]
    old = os.umask(umask)
    try:
        make_ring(5).save(paths[0])
        full_mapping(make_ring(5), {v: v for v in range(1, 6)}).save(paths[1])
        assert run(["gen", "ring", "--n", "5", "--out", str(paths[2])]) == 0
    finally:
        os.umask(old)
    assert [stat.S_IMODE(p.stat().st_mode) for p in paths] == [0o666 & ~umask] * 3
