"""Fuzzing of the command line: every input file or script ends in exit 0, 1 or 2.

Exit 0 and 1 are check verdicts and 2 is malformed input; anything else,
an uncaught exception included, is a defect.  A validation report is one
line per stage and per check, and an error one line, whatever the names
in the files hold.  Documents are arbitrary
bytes or JSON built from the format's own field names; scripts are lines
built from the grammar's keywords, the operators, a few names and the
fixture files.  Emitted files go to relative paths under ``out/`` only.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import THETA_PAIRS, X_NAMED, Y_NAMED
from topodata import Partition, Space, SpaceMap, ThetaRelation
from topodata.cli import main
from topodata.io import serialize_map, serialize_partition, serialize_space, serialize_theta
from topodata.script import OPS

FUZZ = settings(max_examples=100, deadline=None, database=None)

FIELDS = ["name", "elements", "incidence", "id", "attrs", "domain", "codomain",
          "pairs", "left", "right", "space", "classes", "label", "members",
          "spaces", "maps", "constraints", "map", "mode", "chains"]
FILES = ["x.json", "y.json", "theta.json", "merge.json", "ident.json", "swap.json",
         "manifest.json", "doc.json", "missing.json", "."]
IDS = ["B", "C", "a", "b", "c", "e", "x", "zz", "B×b", ""]
NAMES = ["X", "Y", "T", "C", "I", "W", "S", "J", "S.inc", "J.pleft", "J.pright"]
LITERALS = ["error", "collapse", "bogus"]


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    x, y = Space(*X_NAMED), Space(*Y_NAMED)
    swap = SpaceMap(y, y, {"C": "x", "b": "b", "c": "c", "x": "C"})
    for name, text in {
        "x.json": serialize_space(x),
        "y.json": serialize_space(y),
        "theta.json": serialize_theta(ThetaRelation(THETA_PAIRS, left_name="X",
                                                    right_name="Y")),
        "merge.json": serialize_partition(Partition.from_classes({"m": ["c", "x"]}, y.name)),
        "ident.json": serialize_map(SpaceMap(y, y, {e: e for e in y.elements})),
        "swap.json": serialize_map(swap),
        "manifest.json": json.dumps({
            "spaces": ["y.json"], "maps": ["swap.json", "ident.json"],
            "constraints": [{"name": "s", "map": "swap"}, {"name": "i", "map": "ident"}]}),
    }.items():
        (folder / name).write_text(text, encoding="utf-8")
    return folder


scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                    st.sampled_from(FIELDS + FILES + IDS + NAMES), st.text(max_size=6))
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(FIELDS), inner, max_size=5)),
    max_leaves=20)
MALFORMED = [
    {"domain": "Y", "codomain": "Y", "pairs": [["C", "C"], ["b", "b"], ["c", "c"],
                                               ["x", "x"], ["C", "x"]]},
    {"space": "Y", "classes": [{"label": "m", "members": [["c"]]}]},
    {"name": "Y", "elements": [{"id": ["a"], "attrs": {}}], "incidence": []},
]
documents = st.one_of(
    st.binary(max_size=200),
    json_values.map(lambda value: json.dumps(value).encode("utf-8")),
    st.sampled_from([b"[" * 5000, b"1" * 5000, b"\xef\xbb\xbf{}", b"\xff\xfe{}"]
                    + [json.dumps(doc).encode("utf-8") for doc in MALFORMED]),
)


@seed(20131008)
@FUZZ
@given(document=documents)
def test_documents_end_in_an_exit_code(fixture_dir, document):
    path = fixture_dir / "doc.json"
    path.write_bytes(document)
    for argv in (["dim", str(path)], ["dim", str(path), "x"], ["validate", str(path)]):
        assert main(argv) in (0, 1, 2)
    # the map, theta and partition parsers, reached through a script's load
    script = fixture_dir / "doc.topo"
    for last in ("dim D", 'emit D "out/doc.json"'):
        script.write_text(f'load X "x.json"\nload Y "y.json"\nload D "doc.json"\n{last}\n',
                          encoding="utf-8")
        assert main(["run", str(script)]) in (0, 1, 2)


names = st.sampled_from(NAMES)
quoted_files = st.sampled_from(FILES).map(lambda name: f'"{name}"')
outputs = st.sampled_from(['"out/a.json"', '"out/b/c.json"'])
arguments = st.lists(st.sampled_from(NAMES + IDS + LITERALS), max_size=4).map(", ".join)
lets = st.builds("let {} = {}({})".format, names, st.sampled_from(list(OPS)), arguments)
statements = st.one_of(
    st.builds("load {} {}".format, names, quoted_files),
    st.builds("check continuous {}".format, names),
    st.builds("check homeomorphic {} {}".format, names, names),
    st.builds("dim {} {}".format, names, st.sampled_from(IDS)),
    st.builds("closure {} {}".format, names, st.lists(st.sampled_from(IDS), min_size=1,
                                                       max_size=3).map(",".join)),
    st.builds("emit {} {}".format, names, outputs),
    # a line of grammar tokens in any order, mostly not a statement
    st.lists(st.sampled_from(["load", "let", "=", "check", "continuous", "homeomorphic",
                              "dim", "closure", "emit", "(", ")", ",", "#", '"']
                             + list(OPS) + NAMES + FILES), max_size=6).map(" ".join),
)
# Two operator lines at most: chained products of the fixtures stay small.
scripts = st.tuples(st.lists(statements, max_size=6), st.lists(lets, max_size=2)).flatmap(
    lambda parts: st.permutations(parts[0] + parts[1])).map("\n".join)


@seed(20131008)
@FUZZ
@given(script=scripts)
def test_scripts_end_in_an_exit_code(fixture_dir, script):
    path = fixture_dir / "fuzz.topo"
    path.write_text(script, encoding="utf-8")
    assert main(["run", str(path)]) in (0, 1, 2)


# the characters str.splitlines() ends a line at, between text that looks like a report line
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029"]
report_names = st.lists(st.sampled_from(["a", " ", ":", "PASS x (continuous)", "stage y: 0:1"]
                                        + LINE_BREAKS), min_size=1, max_size=4).map("".join)


@seed(20131008)
@FUZZ
@given(space=report_names, constraint=report_names, chain=report_names, stem=report_names,
       swap=st.booleans())
def test_names_cannot_add_lines_to_a_report(fixture_dir, space, constraint, chain, stem, swap):
    folder = fixture_dir / "names"
    folder.mkdir(exist_ok=True)
    (folder / "s.json").write_text(json.dumps(
        {"name": space, "elements": [{"id": "e"}, {"id": "v"}], "incidence": [["e", "v"]]}))
    (folder / f"{stem}.json").write_text(json.dumps(
        {"domain": space, "codomain": space, "pairs": [["e", "v"], ["v", "e"]] if swap
         else [["e", "e"], ["v", "v"]]}))
    manifest = folder / "manifest.json"
    manifest.write_text(json.dumps({
        "spaces": ["s.json"], "maps": [f"{stem}.json"],
        "constraints": [{"name": constraint, "map": stem}],
        "chains": [{"name": chain, "maps": [stem]}]}))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["validate", str(manifest)])
    out, err = out.getvalue(), err.getvalue()
    one_line = all("".join(name.splitlines()) == name
                   for name in (space, constraint, chain, stem))
    assert code == ((1 if swap else 0) if one_line else 2)
    if code == 2:
        assert out == "" and err.endswith("\n") and len(err.splitlines()) == 1
    else:
        # two stages, the domain and codomain of the link, then the constraint and the link
        assert err == "" and out.count("\n") == len(out.splitlines()) == 4
