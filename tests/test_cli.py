import contextlib
import copy
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gammatri import __version__, cli, coxeter, verify
from gammatri.cli import main
from gammatri.cluster import dihedral_subdivision, type_a_subdivision
from gammatri.coxeter import (
    closed_gamma_triangle,
    closed_triangle,
    gamma_triangle_D,
    gamma_triangle_diagram,
    rank23_formula,
    reference_tables,
    standard_diagram,
)
from gammatri.poly import Poly2
from gammatri.subdivisions import model_gamma
from gammatri.transforms import GammaTriangle


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b", "c", "d", "e"],
        "facets": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "a"]],
    }))
    return str(path)


@pytest.fixture
def i2x200_file(tmp_path):
    # 200 disjoint I2(5)s: a d = 400 Gamma-triangle whose table is 403 lines
    # and about 4.9 MB
    verts = [f"v{i:03d}" for i in range(400)]
    path = tmp_path / "i2x200.json"
    path.write_text(json.dumps({"vertices": verts, "edges": [
        [verts[2 * i], verts[2 * i + 1], 5] for i in range(200)]}))
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b", "c"],
        "facets": [["a", "b"], ["b", "c"], ["a", "c"]],
    }))
    return str(path)


def test_triangles_pentagon(capsys, pentagon_file):
    code, out, _ = run(capsys, "triangles", "--complex", pentagon_file,
                       "--facet", "a,b", "--out", "json")
    assert code == 0
    data = json.loads(out)
    assert data["d"] == 2
    assert data["Gamma"]["entries"] == [[0, 2, "1"], [1, 0, "1"]]
    assert data["gamma_vector"] == ["1", "1"]


def test_triangles_3gon_negative_entry(capsys, triangle_file):
    code, out, _ = run(capsys, "triangles", "--complex", triangle_file,
                       "--facet", "a,b", "--out", "json")
    assert code == 0
    data = json.loads(out)
    assert [1, 0, "-1"] in data["Gamma"]["entries"]


def test_triangles_table_orientation(capsys, pentagon_file):
    code, out, _ = run(capsys, "triangles", "--complex", pentagon_file,
                       "--facet", "a,b")
    assert code == 0
    lines = out.splitlines()
    f_start = lines.index("F-triangle (rows j = d..0, columns i = 0..d):")
    assert lines[f_start + 1].split() == ["1"]
    assert lines[f_start + 2].split() == ["2", "2"]
    assert lines[f_start + 3].split() == ["1", "3", "2"]


def test_triangles_rejects_non_facet(capsys, pentagon_file):
    code, _, err = run(capsys, "triangles", "--complex", pentagon_file,
                       "--facet", "a,c")
    assert code == 1
    assert "facet" in err


def test_triangles_missing_file(capsys):
    code, _, err = run(capsys, "triangles", "--complex", "/no/such/file.json",
                       "--facet", "a,b")
    assert code == 1
    assert "/no/such/file.json" in err


def test_triangles_needs_one_input(capsys, pentagon_file):
    code, _, err = run(capsys, "triangles")
    assert code == 1


def test_triangles_complex_needs_a_facet(capsys, pentagon_file):
    code, out, err = run(capsys, "triangles", "--complex", pentagon_file)
    assert (code, out) == (1, "")
    assert err == "error: --complex needs --facet with comma-separated vertex labels\n"


def test_cluster_methods_agree(capsys):
    results = []
    for method in ("model", "formula", "local-sum"):
        code, out, _ = run(capsys, "cluster", "A", "3",
                           "--method", method, "--out", "json")
        assert code == 0
        results.append(json.loads(out))
    assert results[0] == results[1] == results[2]
    assert results[0]["entries"] == [[0, 3, "1"], [1, 0, "1"], [1, 1, "2"]]


def test_cluster_b5_formula(capsys):
    code, out, _ = run(capsys, "cluster", "B", "5", "--out", "json")
    assert code == 0
    entries = {(i, j): int(c) for i, j, c in json.loads(out)["entries"]}
    assert entries[(2, 0)] == 20 and entries[(2, 1)] == 10


def test_cluster_d6_formula(capsys):
    code, out, _ = run(capsys, "cluster", "D", "6", "--out", "json")
    assert code == 0
    entries = {(i, j): int(c) for i, j, c in json.loads(out)["entries"]}
    assert entries[(1, 0)] == 4 and entries[(2, 0)] == 24 and entries[(3, 0)] == 8


def test_cluster_i2_needs_m(capsys):
    code, _, err = run(capsys, "cluster", "I2", "--method", "model")
    assert code == 1
    assert "--m" in err


def test_cluster_i2_needs_a_label_of_at_least_2(capsys):
    code, out, err = run(capsys, "cluster", "I2", "--m", "1")
    assert (code, out) == (1, "")
    assert err == "error: dihedral label must be >= 2, got 1\n"


def test_cluster_needs_rank(capsys):
    code, _, err = run(capsys, "cluster", "A")
    assert code == 1
    assert "rank" in err


def test_cluster_h3_shorthand(capsys):
    code, out, _ = run(capsys, "cluster", "H3", "--out", "json")
    assert code == 0
    assert json.loads(out)["entries"] == [[0, 3, "1"], [1, 0, "8"], [1, 1, "4"]]


def test_cluster_model_unsupported_type(capsys, tmp_path):
    code, _, err = run(capsys, "cluster", "E", "6", "--method", "model")
    assert code == 1
    assert "model" in err
    # --export looks the model up the same way and fails the same way
    export = tmp_path / "e6.json"
    code, out, export_err = run(capsys, "cluster", "E", "6", "--export", str(export))
    assert (code, out, export_err) == (1, "", err)
    assert not export.exists()


# (cluster arguments, normalized (kind, rank, m), formula-route triangle,
# dihedral model or None); the diagram sum over the normalized type is the
# local-sum route of every name
ALIASES = [
    (["C", "4"], ("B", 4, None), closed_gamma_triangle("B", 4), None),
    (["E", "7"], ("E7", 7, None), reference_tables()["E7"], None),
    (["E7"], ("E7", 7, None), reference_tables()["E7"], None),
    (["F", "4"], ("F4", 4, None), reference_tables()["F4"], None),
    (["H", "3"], ("H3", 3, None), rank23_formula(10, 3), None),
    (["H3"], ("H3", 3, None), rank23_formula(10, 3), None),
    (["H", "4"], ("H4", 4, None), reference_tables()["H4"], None),
    (["I2(5)"], ("I2", 2, 5), rank23_formula(5, 2), 5),
    (["i2", "--m", "4"], ("I2", 2, 4), rank23_formula(4, 2), 4),
    (["B", "1"], ("B", 1, None), closed_gamma_triangle("A", 1), None),
    (["B", "2"], ("B", 2, None), rank23_formula(4, 2), None),
    (["D", "2"], ("D", 2, None), GammaTriangle.make({(0, 2): 1}, 2), None),
    (["D", "3"], ("D", 3, None), gamma_triangle_D(3), None),
    (["I2", "--m", "2"], ("I2", 2, 2), rank23_formula(2, 2), 2),
    (["I2", "--m", "3"], ("I2", 2, 3), rank23_formula(3, 2), 3),
]


@pytest.mark.parametrize("argv, normalized, formula, m", ALIASES,
                         ids=["_".join(a[0]) for a in ALIASES])
def test_cluster_type_aliases(capsys, argv, normalized, formula, m):
    want = {"formula": formula,
            "local-sum": gamma_triangle_diagram(standard_diagram(*normalized))}
    if m is not None:
        want["model"] = model_gamma(dihedral_subdivision(m))
    for method, gt in want.items():
        code, out, _ = run(capsys, "cluster", *argv, "--method", method,
                           "--out", "json")
        assert code == 0
        assert json.loads(out) == gt.to_dict()
    if m is None:
        code, _, err = run(capsys, "cluster", *argv, "--method", "model")
        assert code == 1 and "model" in err


def _point_subdivision(**change):
    data = {"complex": {"vertices": ["a"], "facets": [["a"]]},
            "index_set": ["i"], "sigma": {"a": ["i"]}}
    data.update(change)
    return data


# input files, malformed but for point.json, a good subdivision that its
# arguments make bad; an argument naming one is replaced by its path
BAD_FILES = {
    "point.json": _point_subdivision(),
    "float_edge_label.json": {"vertices": ["a", "b"], "edges": [["a", "b", 4.9]]},
    "one_item_edge.json": {"vertices": ["a", "b"], "edges": [["a"]]},
    "four_item_edge.json": {"vertices": ["a", "b"], "edges": [["a", "b", 5, "junk"]]},
    "int_carrier.json": _point_subdivision(sigma={"a": 5}),
    "string_index_set.json": _point_subdivision(index_set="i"),
    "list_sigma.json": _point_subdivision(sigma=[["a", "i"]]),
    "string_facets.json": _point_subdivision(
        complex={"vertices": ["a"], "facets": "a"}),
    "list_in_facet.json": _point_subdivision(
        complex={"vertices": ["a"], "facets": [[["a"]]]}),
    "list_diagram.json": [["a", "b"]],
    "list_top_level.json": [1],
    "list_complex_field.json": _point_subdivision(complex=[["a"]]),
    "list_complex.json": [["a"]],
    "missing_edges.json": {"vertices": ["a"]},
}
# malformed input files that json.dumps cannot write, as raw bytes
RAW_FILES = {
    "deep_nesting.json": b"[" * 100_000,
    "not_utf8.json": b"\xff{}",
}
# a file under a directory that is never created
UNWRITABLE = "no_such_dir/model.json"
# a series order past sys.maxsize on 64-bit builds
HUGE_ORDER = str(10**20)
# an order within sys.maxsize but past the longest list, sys.maxsize // 8 on
# 64-bit builds: the list of its coefficients is refused before allocation
LIST_ORDER = str(5 * 10**18)
# an order below the longest list whose coefficient list, 8 EB, malloc
# refuses at once: nothing is allocated before the MemoryError
MALLOC_ORDER = str(10**18)
# the diagnostic expected where exit code 1 alone would not show that the
# fault is named; {path} stands for the path of the file
DIAGNOSTICS = {
    "deep_nesting.json": "error: {path}: invalid JSON (",
    "not_utf8.json": "error: {path}: invalid JSON (",
    "--m": "takes no edge label m",
    "list_diagram.json": "diagram data must be a JSON object, got list",
    "list_top_level.json": "subdivision data must be a JSON object, got list",
    "list_complex_field.json": "complex data must be a JSON object, got list",
    "list_complex.json": "complex data must be a JSON object, got list",
    "missing_edges.json": "missing field 'edges' in diagram data",
    UNWRITABLE: "model.json: cannot write (",
    "point.json": "--facet goes with --complex only",
    "I2(\u0663)": "error: unknown type 'I2(\u0663)'",
    "I2(\u00b2)": "error: unknown type 'I2(\u00b2)'",
    HUGE_ORDER: f"error: order {HUGE_ORDER} is longer than any list can be",
    LIST_ORDER: f"error: order {LIST_ORDER} is longer than any list can be",
    MALLOC_ORDER: "error: out of memory",
}


@pytest.mark.parametrize("argv", [
    ["series", "--name", "g", "--order", "0"],
    ["family", "pell", "-1"],
    ["cluster", "A", "0"],
    ["cluster", "A", "-1"],
    ["cluster", "B", "0"],
    ["verify", "--suite", "series", "--order", "0"],
    ["series", "--name", "g", "--order", HUGE_ORDER],
    ["verify", "--suite", "series", "--order", HUGE_ORDER],
    ["series", "--name", "g", "--order", LIST_ORDER],
    ["verify", "--suite", "series", "--order", LIST_ORDER],
    ["verify", "--suite", "crosscheck", "--max-rank", "-2"],
    ["series", "--name", "g", "--order", MALLOC_ORDER],
    ["verify", "--suite", "all", "--max-rank", "0", "--order", "96"],
    ["diagram", "float_edge_label.json"],
    ["diagram", "one_item_edge.json"],
    ["diagram", "four_item_edge.json"],
    ["local", "int_carrier.json"],
    ["local", "string_index_set.json"],
    ["local", "list_sigma.json"],
    ["local", "string_facets.json"],
    ["local", "list_in_facet.json"],
    ["diagram", "list_diagram.json"],
    ["diagram", "missing_edges.json"],
    ["local", "list_top_level.json"],
    ["local", "list_complex_field.json"],
    ["triangles", "--complex", "list_complex.json", "--facet", "a"],
    ["cluster", "A", "2", "--method", "model", "--export", UNWRITABLE],
    ["cluster", "A", "3", "--m", "5"],
    ["cluster", "E6", "--m", "3"],
    ["cluster", "I2(\u0663)"],
    ["cluster", "I2(\u00b2)"],
    ["local", "deep_nesting.json"],
    ["diagram", "not_utf8.json"],
    ["triangles", "--complex", "not_utf8.json", "--facet", "a"],
    ["triangles", "--subdivision", "point.json", "--facet", "a"],
], ids="_".join)
def test_bad_input_fails_closed(capsys, tmp_path, argv):
    for name in set(argv) & set(BAD_FILES):
        (tmp_path / name).write_text(json.dumps(BAD_FILES[name]))
    for name in set(argv) & set(RAW_FILES):
        (tmp_path / name).write_bytes(RAW_FILES[name])
    wanted = [DIAGNOSTICS[a].format(path=tmp_path / a)
              for a in argv if a in DIAGNOSTICS]
    argv = [str(tmp_path / a) if a in BAD_FILES or a in RAW_FILES
            or a == UNWRITABLE else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    for text in wanted:
        assert text in err


@pytest.mark.parametrize("argv, message", [
    (["--max-rank", "0", "--order", "96"], "error: max rank must be >= 1, got 0"),
    (["--order", "0"], "error: order must be >= 1, got 0"),
    (["--order", HUGE_ORDER], f"error: order {HUGE_ORDER} is longer than any list"),
], ids=["max rank 0", "order 0", "huge order"])
def test_verify_all_checks_its_numbers_before_any_suite_runs(capsys, monkeypatch,
                                                             argv, message):
    def suite(*args):
        raise AssertionError("a suite ran before the numbers were checked")

    for name in ("tables_report", "series_report", "crosscheck_report"):
        monkeypatch.setattr(verify, name, suite)
    code, out, err = run(capsys, "verify", "--suite", "all", *argv)
    assert (code, out) == (1, "")
    assert err.startswith(message)


# the field names the loaders read, and labels that the valid documents use
LOADER_FIELDS = ("vertices", "edges", "facets", "complex", "index_set", "sigma")
LABELS = st.sampled_from(["a", "b", "s1", "s2", "s3", "p1"]) | st.text(max_size=3)
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | LABELS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(
        st.sampled_from(LOADER_FIELDS) | st.text(max_size=3), children, max_size=4),
    max_leaves=12)
VALID_DOCS = [
    standard_diagram("B", 3).to_dict(),
    {"vertices": ["a", "b"], "facets": [["a"], ["b"]]},  # the 0-sphere
    type_a_subdivision(2).to_dict(),
]


def _paths(doc, path=()):
    """The path of every node of a JSON document, the root's first."""
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def _mutated_docs(draw):
    """A valid diagram, complex or subdivision with one field below the root
    dropped or replaced by a JSON tree."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCS)))
    *head, last = draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in head:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[last]
    else:
        parent[last] = draw(JSON_TREES)
    return doc


@settings(max_examples=80, deadline=None)
@given(JSON_TREES | _mutated_docs() | st.sampled_from(VALID_DOCS))
def test_malformed_json_never_ends_in_a_traceback(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (["diagram", path],
                     ["triangles", "--complex", path, "--facet", "a"],
                     ["local", path],
                     ["triangles", "--subdivision", path]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            if code == 0:
                assert out.getvalue()
            else:
                assert code == 1 and out.getvalue() == ""
                assert err.getvalue().startswith("error: ")
                assert "Traceback" not in err.getvalue()


def test_cluster_export_then_triangles(capsys, tmp_path):
    export = tmp_path / "a2.json"
    code, _, _ = run(capsys, "cluster", "A", "2", "--method", "model",
                     "--export", str(export))
    assert code == 0 and export.exists()
    code, out, _ = run(capsys, "triangles", "--subdivision", str(export),
                       "--out", "json")
    assert code == 0
    assert json.loads(out)["Gamma"]["entries"] == [[0, 2, "1"], [1, 0, "1"]]


def test_cluster_export_notice_leaves_json_stdout(capsys, tmp_path):
    export = tmp_path / "a2.json"
    code, out, err = run(capsys, "cluster", "A", "2", "--method", "model",
                         "--export", str(export), "--out", "json")
    assert code == 0
    assert json.loads(out) == closed_gamma_triangle("A", 2).to_dict()
    assert err == f"model written to {export}\n"


def test_local_command(capsys, tmp_path):
    export = tmp_path / "a2.json"
    run(capsys, "cluster", "A", "2", "--method", "model", "--export", str(export))
    code, out, _ = run(capsys, "local", str(export), "--out", "json")
    assert code == 0
    data = json.loads(out)
    assert data["local_h"] == [[1, "1"]]
    assert data["local_gamma"] == [[1, "1"]]


def test_diagram_command(capsys, tmp_path):
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b"], "edges": [["a", "b", 6]]}))
    code, out, _ = run(capsys, "diagram", str(path), "--out", "json")
    assert code == 0
    data = json.loads(out)
    assert data["components"] == ["I2(6)"]
    assert data["Gamma"]["entries"] == [[0, 2, "1"], [1, 0, "4"]]


def test_diagram_prints_every_digit_of_a_coefficient(capsys, monkeypatch, tmp_path):
    # CPython converts an int of at most 4,300 digits to a string by
    # default; the command lifts that limit while it runs, and restores it
    big = 7 * 10 ** 4999 + 1
    digits = "7" + "0" * 4998 + "1"
    monkeypatch.setattr(coxeter, "gamma_triangle_diagram", lambda dgm:
                        GammaTriangle.make({(0, 2): 1, (1, 0): big}, 2))
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b", 6]]}))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, "diagram", str(path), "--out", "table")
    assert (code, err) == (0, "")
    assert digits in out.split()
    code, out, err = run(capsys, "diagram", str(path), "--out", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["Gamma"]["entries"] == [[0, 2, "1"], [1, 0, digits]]
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_json_output_renders_no_table(capsys, monkeypatch, tmp_path):
    # the table lines are built only when --out asks for the table
    export, path = tmp_path / "a2.json", tmp_path / "diagram.json"
    run(capsys, "cluster", "A", "2", "--method", "model", "--export", str(export))
    path.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b", 5]]}))

    def never(*args):
        raise AssertionError("a table was rendered for --out json")

    monkeypatch.setattr(cli, "render_triangle", never)
    for argv in (["diagram", str(path)], ["cluster", "D", "5"],
                 ["triangles", "--subdivision", str(export)]):
        code, out, _ = run(capsys, *argv, "--out", "json")
        assert code == 0 and json.loads(out)


class CountingSink(io.TextIOBase):
    """A stdout that counts the lines written to it and keeps none of them."""

    def __init__(self):
        self.lines = 0

    def write(self, s):
        self.lines += s.count("\n")
        return len(s)


def test_table_output_peaks_no_higher_than_json(i2x200_file):
    # the table is written a row at a time: no cell dict, row list or joined
    # copy of its 4.9 MB, so its traced peak is the diagram sum's, as JSON's is
    peaks = {}
    for out in ("json", "table"):
        sink = CountingSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                assert main(["diagram", i2x200_file, "--out", out]) == 0
            peaks[out] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert sink.lines == 403
    assert peaks["table"] <= peaks["json"] + 2**20, peaks


@pytest.mark.parametrize("name", ["E6", "F4", "H3"])
def test_diagram_names_exceptional_component(capsys, tmp_path, name):
    dgm = standard_diagram(name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"vertices": list(dgm.vertices),
                                "edges": [list(e) for e in dgm.edges]}))
    code, out, _ = run(capsys, "diagram", str(path))
    assert code == 0
    assert out.splitlines()[0] == f"components: {name}"
    code, out, _ = run(capsys, "diagram", str(path), "--out", "json")
    assert code == 0
    assert json.loads(out) == {"components": [name],
                               "Gamma": gamma_triangle_diagram(dgm).to_dict()}


def test_diagram_of_a_shuffled_rank_40_union(capsys, tmp_path):
    # every exceptional type and A, B, D under shuffled labels, in shuffled
    # vertex and edge order: the sum prints the product of the components'
    # closed triangles
    names = [("A", 5), ("B", 4), ("D", 6), ("E6",), ("H3",), ("F4",), ("E8",), ("H4",)]
    rng = random.Random(40)
    codes = iter(rng.sample(range(400), 40))
    verts, edges = [], []
    want = Poly2.one()
    for name in names:
        part = standard_diagram(*name)
        label = {v: f"v{next(codes):03d}" for v in part.vertices}
        verts += label.values()
        edges += [[label[u], label[v], m] for u, v, m in part.edges]
        want = want * closed_triangle(*name).to_poly2()
    rng.shuffle(verts)
    rng.shuffle(edges)
    path = tmp_path / "union.json"
    path.write_text(json.dumps({"vertices": verts, "edges": edges}))
    code, out, err = run(capsys, "diagram", str(path), "--out", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "components": ["A5", "B4", "D6", "E6", "E8", "F4", "H3", "H4"],
        "Gamma": {"degree": 40, "entries": want.to_triples()}}


def test_diagram_rejects_bad_diagram(capsys, tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b", "c"],
        "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}))
    code, _, err = run(capsys, "diagram", str(path))
    assert code == 1
    assert "cycle" in err


def test_series_routes_agree(capsys):
    outs = []
    for route in ("closed", "sum"):
        code, out, _ = run(capsys, "series", "--name", "gA", "--order", "8",
                           "--route", route, "--out", "json")
        assert code == 0
        outs.append(json.loads(out)["coefficients"])
    assert outs[0] == outs[1]


def test_family_command(capsys):
    code, out, _ = run(capsys, "family", "pell", "3", "--out", "json")
    assert code == 0
    assert json.loads(out)["u"] == [[0, 2, "1"], [1, 0, "1"]]


def test_verify_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "tables")
    assert code == 0
    assert "summary:" in out and "FAIL" not in out


def test_verify_all_at_defaults_passes_all_177_checks(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 0
    totals = re.findall(r"^summary: (\d+)/(\d+) passed$", out, re.M)
    assert len(totals) == 3
    assert sum(int(p) for p, _ in totals) == sum(int(t) for _, t in totals) == 177
    assert out.count("[PASS]") == 177 and "[FAIL]" not in out


def test_verify_series_small_order(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "series", "--order", "8")
    assert code == 0


def test_subdivision_diagnostic_names_invariant(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "complex": {"vertices": ["p", "q"], "facets": [["p"], ["q"]]},
        "index_set": ["s"],
        "sigma": {"p": ["s"], "q": ["s"]}}))
    code, _, err = run(capsys, "local", str(path))
    assert code == 1
    assert "Euler" in err and str(path) in err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"gammatri {__version__}\n"


def assert_closed_pipe_exits_without_traceback(*argv):
    """Run gammatri with argv, close the reader after the first line while
    the command is still writing, and expect exit 1 and no traceback."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "gammatri", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err


def test_closed_pipe_exits_without_traceback():
    # about 90 KB of output, more than a pipe buffers
    assert_closed_pipe_exits_without_traceback("series", "--name", "GA",
                                               "--order", "40")


def test_closed_pipe_on_a_table_exits_without_traceback(i2x200_file):
    # 4.9 MB of table rows: the pipe breaks inside _emit's loop over the rows
    assert_closed_pipe_exits_without_traceback("diagram", i2x200_file,
                                               "--out", "table")
