"""Command line surface: outputs and exit codes."""

from __future__ import annotations

import ast
import gc
import importlib
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from topodata import Space, SpaceMap, cli, constraints
from topodata.cli import main
from topodata.io import serialize_map, serialize_space, serialize_theta

ROOT = Path(__file__).resolve().parents[1]
DEMO_OVERLAY = ROOT / "demo" / "overlay"
DEMO_LOD = ROOT / "demo" / "lod"
CHAIN_ENTRY = "chains entries need 'name' and a non-empty list of map names 'maps', got "


@pytest.fixture
def files(tmp_path, space_x, space_y, theta, segment):
    paths = {}

    def put(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)

    put("x.json", serialize_space(space_x))
    put("y.json", serialize_space(space_y))
    put("theta.json", serialize_theta(theta))
    put("seg.json", serialize_space(segment))
    renamed = Space("seg2", ["E", "V1", "V2"], [("E", "V1"), ("E", "V2")])
    put("seg2.json", serialize_space(renamed))
    put("seg_other.json", serialize_space(Space("seg", ["e", "v1"], [("e", "v1")])))
    point = Space("pt", ["P"], [])
    put("pt.json", serialize_space(point))
    put("part_of.json", serialize_map(
        SpaceMap(segment, point, {e: "P" for e in segment.elements})))
    put("swap.json", serialize_map(
        SpaceMap(segment, segment, {"e": "v1", "v1": "e", "v2": "v2"})))
    put("forged.json", json.dumps({"name": "seg\nPASS forged (continuous)",
                                   "elements": [{"id": "e"}], "incidence": []}))
    put("good_manifest.json", json.dumps({
        "spaces": ["seg.json", "pt.json"],
        "maps": ["part_of.json"],
        "constraints": [{"name": "ref", "map": "part_of", "mode": "continuous"}]}))
    put("bad_manifest.json", json.dumps({
        "spaces": ["seg.json"],
        "maps": ["swap.json"],
        "constraints": [{"name": "ref", "map": "swap", "mode": "continuous"}]}))
    put("overlay.topo",
        'load X "x.json"\nload Y "y.json"\nload T "theta.json"\n'
        "let J = theta_join(X, Y, T)\ncheck continuous J.pleft\ndim J\n")
    put("failing.topo",
        'load S "seg.json"\nload G "swap.json"\ncheck continuous G\n')
    paths["dir"] = str(tmp_path)
    return paths


class TestValidate:
    def test_pass(self, files, capsys):
        assert main(["validate", files["good_manifest.json"]]) == 0
        assert "PASS ref (continuous)" in capsys.readouterr().out

    def test_fail_with_witness(self, files, capsys):
        assert main(["validate", files["bad_manifest.json"]]) == 1
        assert "witness (e,v1) -> (v1,e)" in capsys.readouterr().out

    def test_malformed(self, tmp_path, capsys):
        bad = tmp_path / "nope.json"
        bad.write_text("{")
        assert main(["validate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_space_name_bound_to_two_contents(self, files, capsys):
        folder = Path(files["dir"])
        (folder / "twice.json").write_text(json.dumps(
            {"spaces": ["seg.json", "seg_other.json"], "maps": [], "constraints": []}))
        assert main(["validate", str(folder / "twice.json")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "space name 'seg' already bound" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("manifest, message", [
        ({"spaces": [5]}, "<manifest>: spaces entries must be paths, got 5"),
        ({"spaces": ["seg.json"], "maps": [None]},
         "<manifest>: maps entries must be paths, got None"),
        ({"spaces": ["seg.json"], "constraints": [{"name": "ref"}]},
         "<manifest>: constraints entries need 'name' and 'map', got {'name': 'ref'}"),
        ({"spaces": ["seg.json"], "chains": {"name": "c"}},
         "<manifest>: field 'chains' must be list, got dict"),
        ({"spaces": ["seg.json"], "chains": ["c"]}, f"<manifest>: {CHAIN_ENTRY}'c'"),
        ({"spaces": ["seg.json"], "chains": [{"name": 5, "maps": ["m"]}]},
         f"<manifest>: {CHAIN_ENTRY}{{'name': 5, 'maps': ['m']}}"),
        ({"spaces": ["seg.json"], "chains": [{"name": "c", "maps": "m"}]},
         f"<manifest>: {CHAIN_ENTRY}{{'name': 'c', 'maps': 'm'}}"),
        ({"spaces": ["seg.json"], "chains": [{"name": "c", "maps": []}]},
         f"<manifest>: {CHAIN_ENTRY}{{'name': 'c', 'maps': []}}"),
        ({"spaces": ["seg.json"], "chains": [{"name": "c", "maps": ["m", None]}]},
         f"<manifest>: {CHAIN_ENTRY}{{'name': 'c', 'maps': ['m', None]}}"),
        ({"spaces": ["seg.json", "pt.json"], "maps": ["part_of.json"],
          "chains": [{"name": "c", "maps": ["part_of", "nope"]}]},
         "no map named 'nope' in the dataset"),
        ({"spaces": ["seg.json", "pt.json"], "maps": ["part_of.json"],
          "chains": [{"name": "c", "maps": ["part_of", "part_of"]}]},
         "chain 'c' breaks between 'pt' and 'seg'"),
        ({"spaces": ["forged.json"]},
         "<dir>/forged.json: space name must be one line, "
         "got 'seg\\nPASS forged (continuous)'"),
        ({"spaces": ["seg.json"], "constraints": [{"name": "ref\rPASS", "map": "m"}]},
         "<manifest>: constraint name must be one line, got 'ref\\rPASS'"),
        ({"spaces": ["seg.json"], "chains": [{"name": "c\u2028PASS", "maps": ["m"]}]},
         "<manifest>: chain name must be one line, got 'c\\u2028PASS'"),
        ({"spaces": ["seg.json", "pt.json"], "maps": ["part\x85PASS.json"]},
         "<manifest>: map name must be one line, got 'part\\x85PASS'"),
    ], ids=["space-entry", "map-entry", "constraint-without-map", "chains-not-a-list",
            "chain-not-an-object", "chain-name-not-a-string", "chain-maps-not-a-list",
            "chain-maps-empty", "chain-map-not-a-string", "chain-unknown-map",
            "chain-links-do-not-compose", "space-name-line-break",
            "constraint-name-line-break", "chain-name-line-break", "map-stem-line-break"])
    def test_malformed_manifest_entry(self, files, capsys, manifest, message):
        path = Path(files["dir"]) / "entry.json"
        path.write_text(json.dumps(manifest))
        assert main(["validate", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        message = message.replace("<manifest>", str(path)).replace("<dir>", files["dir"])
        assert err == f"error: {message}\n"

    def test_broken_chain_link_names_chain_and_link(self, files, capsys):
        path = Path(files["dir"]) / "walk.json"
        path.write_text(json.dumps({
            "spaces": ["seg.json", "pt.json"], "maps": ["swap.json", "part_of.json"],
            "chains": [{"name": "walk", "maps": ["swap", "part_of"]}]}))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == (
            "stage seg: 0:2 1:1\nstage seg: 0:2 1:1\nstage pt: 0:1\n"
            "FAIL walk link[0] swap (continuous): witness (e,v1) -> (v1,e)\n"
            "PASS walk link[1] part_of (continuous)\n")

    def test_map_stem_bound_to_two_tables(self, files, capsys, segment):
        folder = Path(files["dir"])
        for sub, table in (("a", {"e": "e", "v1": "v1", "v2": "v2"}),
                           ("b", {"e": "e", "v1": "v2", "v2": "v1"})):
            (folder / sub).mkdir()
            (folder / sub / "m.json").write_text(serialize_map(SpaceMap(segment, segment, table)))
        (folder / "stems.json").write_text(json.dumps(
            {"spaces": ["seg.json"], "maps": ["a/m.json", "b/m.json"]}))
        assert main(["validate", str(folder / "stems.json")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: map name 'm' already bound to a different map\n"

    def test_map_path_with_a_line_break(self, files, capsys):
        # the path of a map naming an unknown space is shown by its repr
        folder = Path(files["dir"]) / "a\nerror: forged"
        folder.mkdir()
        (folder / "m.json").write_text(json.dumps(
            {"domain": "seg", "codomain": "nope", "pairs": []}))
        manifest = Path(files["dir"]) / "broken.json"
        manifest.write_text(json.dumps(
            {"spaces": ["seg.json"], "maps": ["a\nerror: forged/m.json"]}))
        assert main(["validate", str(manifest)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {str(folder / 'm.json')!r}: unknown space 'nope'\n"

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_paused_for_the_command_and_handed_back(
            self, files, tmp_path, monkeypatch, capsys, enabled):
        malformed = tmp_path / "nope.json"
        malformed.write_text("{")
        during = []
        validate = constraints.validate

        def recording(dataset):
            during.append(gc.isenabled())
            return validate(dataset)

        monkeypatch.setattr(constraints, "validate", recording)  # cli reads it at each call
        try:
            if not enabled:
                gc.disable()
            for manifest, code in ((files["good_manifest.json"], 0),
                                   (files["bad_manifest.json"], 1), (str(malformed), 2)):
                assert main(["validate", manifest]) == code
                assert gc.isenabled() == enabled
                assert gc.get_freeze_count() == 0
        finally:
            gc.enable()
        assert during == [False, False]


class TestRun:
    def test_script_ok(self, files, capsys):
        assert main(["run", files["overlay.topo"]]) == 0
        out = capsys.readouterr().out
        assert "check continuous J.pleft: PASS" in out
        assert "dim J = 2" in out

    def test_script_check_fails(self, files, capsys):
        assert main(["run", files["failing.topo"]]) == 1
        assert "FAIL witness (e,v1) -> (v1,e)" in capsys.readouterr().out

    def test_script_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.topo"
        bad.write_text("let = zz\n")
        assert main(["run", str(bad)]) == 2

    def test_empty_partition_label_is_input_error(self, files, capsys):
        folder = Path(files["dir"])
        (folder / "blank.json").write_text(json.dumps(
            {"space": "Y", "classes": [{"label": "", "members": ["c", "x"]}]}))
        (folder / "blank.topo").write_text('load Y "y.json"\nload P "blank.json"\n')
        assert main(["run", str(folder / "blank.topo")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ")
        assert err.count("\n") == 1

    def test_space_name_loaded_with_two_contents(self, files, capsys):
        folder = Path(files["dir"])
        (folder / "twice.topo").write_text('load S "seg.json"\nload T "seg_other.json"\n')
        assert main(["run", str(folder / "twice.topo")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: line 2: space name 'seg' already loaded with different content\n"

    @pytest.mark.parametrize("statements, message", [
        ('load T "theta_zz.json"\nlet J = theta_join(Y, Y, T)\n',
         "line 3: theta right id 'zz' is not in 'Y'"),
        ('load M "missing.json"\n',
         "line 2: cannot read 'missing.json': [Errno 2] No such file or directory: "
         "'{dir}/missing.json'"),
        ('load P "part_q.json"\nlet R = quotient(Y, P)\n',
         "line 3: partition is declared for space 'Q', not 'Y'"),
        ('load P "part_zz.json"\nlet R = quotient(Y, P)\n',
         "line 3: partition classifies ids outside 'Y': ['zz']"),
    ], ids=["theta-unknown-right-id", "missing-file", "partition-unknown-space",
            "partition-unknown-member"])
    def test_operation_error_names_the_line(self, files, capsys, statements, message):
        folder = Path(files["dir"])
        (folder / "theta_zz.json").write_text(json.dumps(
            {"left": "Y", "right": "Y", "pairs": [["C", "zz"]]}))
        (folder / "part_q.json").write_text(json.dumps({"space": "Q", "classes": []}))
        (folder / "part_zz.json").write_text(json.dumps(
            {"space": "Y", "classes": [{"label": "m", "members": ["c", "zz"]}]}))
        (folder / "bad.topo").write_text('load Y "y.json"\n' + statements)
        assert main(["run", str(folder / "bad.topo")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: " + message.format(dir=folder) + "\n"

    def test_loaded_map_path_with_a_line_break(self, files, capsys):
        folder = Path(files["dir"]) / "a\nerror: forged"
        folder.mkdir()
        (folder / "m.json").write_text(json.dumps(
            {"domain": "seg", "codomain": "nope", "pairs": []}))
        shutil.copy(files["seg.json"], folder)
        (folder / "load.topo").write_text('load S "seg.json"\nload M "m.json"\n')
        assert main(["run", str(folder / "load.topo")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: line 2: {str(folder / 'm.json')!r}: unknown space 'nope'\n"

    @pytest.mark.parametrize("target", ["o\x00.json", "x.json/sub.json"])
    def test_unwritable_emit_is_input_error(self, files, capsys, target):
        script = Path(files["dir"]) / "emit.topo"
        script.write_text(f'load X "x.json"\nemit X "{target}"\n', encoding="utf-8")
        assert main(["run", str(script)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: cannot write ")
        assert err.count("\n") == 1

    def test_demo_overlay_reproduces_committed_output(self, tmp_path, capsys):
        work = tmp_path / "overlay"
        shutil.copytree(DEMO_OVERLAY, work, ignore=shutil.ignore_patterns("out"))
        assert main(["run", str(work / "overlay.topo")]) == 0
        committed = sorted(p.name for p in (DEMO_OVERLAY / "out").iterdir())
        assert sorted(p.name for p in (work / "out").iterdir()) == committed
        for name in committed:
            assert ((work / "out" / name).read_bytes()
                    == (DEMO_OVERLAY / "out" / name).read_bytes())


    @pytest.mark.parametrize("manifest, expected", [
        ("manifest.json", "PASS lod_reference (continuous)\nPASS legacy_reference (plain)\n"),
        ("chain_manifest.json",
         "stage fine: 0:3 1:3\nstage mid: 0:1 1:2\nstage coarse: 0:1\n"
         "PASS lod link[0] to_mid (continuous)\nPASS lod link[1] to_coarse (continuous)\n"),
    ])
    def test_demo_lod_output_is_pinned(self, manifest, expected):
        done = topo_process("validate", str(DEMO_LOD / manifest), cwd=ROOT)
        assert (done.returncode, done.stdout, done.stderr) == (0, expected.encode(), b"")


class TestQueries:
    def test_dim_space(self, files, capsys):
        assert main(["dim", files["y.json"]]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_dim_element(self, files, capsys):
        assert main(["dim", files["y.json"], "b"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_dim_unknown_element(self, files, capsys):
        assert main(["dim", files["y.json"], "zz"]) == 2

    def test_closure(self, files, capsys):
        assert main(["closure", files["x.json"], "B"]) == 0
        assert capsys.readouterr().out.strip() == "B,a,e,f,g"

    def test_star(self, files, capsys):
        assert main(["star", files["y.json"], "x"]) == 0
        assert capsys.readouterr().out.strip() == "C,b,c,x"

    @pytest.mark.parametrize("command, ids", [
        ("closure", "B,,a"), ("closure", "B,"), ("star", ""), ("star", ",a")])
    def test_empty_id_is_refused(self, files, capsys, command, ids):
        # as a script's closure refuses it: an empty part names no element
        assert main([command, files["x.json"], ids]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: not elements of 'X': ['']\n"


class TestHomeo:
    def test_found(self, files, capsys):
        assert main(["homeo", files["seg.json"], files["seg2.json"]]) == 0
        assert "e -> E" in capsys.readouterr().out

    def test_not_found(self, files, capsys):
        assert main(["homeo", files["x.json"], files["y.json"]]) == 1
        assert "no homeomorphism" in capsys.readouterr().out

    def test_size_bound_is_input_error(self, tmp_path, files):
        big = Space("big", [f"n{i}" for i in range(11)], [])
        path = tmp_path / "big.json"
        path.write_text(serialize_space(big))
        assert main(["homeo", str(path), str(path)]) == 2
        assert main(["homeo", str(path), str(path), "--max-elements", "11"]) == 0
        # an argv the plain dispatch declines reaches argparse whole, also when
        # it is a one-shot iterator
        assert main(iter(["homeo", str(path), str(path), "--max-elements", "11"])) == 0


class TestOracle:
    def test_topology(self, files, capsys):
        assert main(["oracle", "topology", files["seg.json"]]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 5
        assert "{}" in out and "{e,v1,v2}" in out

    def test_removed_axioms_subcommand_is_a_usage_error(self, files, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["oracle", "axioms", files["y.json"]])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: topo oracle ")
        assert "invalid choice" in captured.err and "axioms" in captured.err

    def test_continuous(self, files, capsys):
        code = main(["oracle", "continuous", files["part_of.json"],
                     files["seg.json"], files["pt.json"]])
        assert code == 0
        assert "continuous" in capsys.readouterr().out

    def test_not_continuous(self, files, capsys):
        code = main(["oracle", "continuous", files["swap.json"],
                     files["seg.json"], files["seg.json"]])
        assert code == 1
        assert "not continuous" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["topology", "seg.json"],
                                      ["continuous", "part_of.json", "seg.json", "pt.json"]],
                             ids=["topology", "continuous"])
    def test_size_bound_is_input_error(self, files, capsys, argv):
        args = ["oracle", argv[0], *(files[name] for name in argv[1:])]
        assert main(args + ["--max-elements", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert main(args + ["--max-elements", "3"]) == 0


class TestUndecodableInput:
    """Bytes that are not UTF-8 are malformed input: exit 2, one error line."""

    def assert_input_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_script(self, files, capsys):
        path = Path(files["dir"]) / "latin.topo"
        path.write_bytes(b'load X "x.json"  # caf\xe9\n')
        self.assert_input_error(["run", str(path)], capsys)

    def test_space(self, files, capsys):
        path = Path(files["dir"]) / "latin.json"
        path.write_bytes(b'{"name": "\xff", "elements": [], "incidence": []}')
        self.assert_input_error(["dim", str(path)], capsys)

    def test_file_loaded_by_script(self, files, capsys):
        folder = Path(files["dir"])
        (folder / "latin.json").write_bytes(b'{"name": "\xff"}')
        (folder / "latin.topo").write_text('load X "latin.json"\n')
        err = self.assert_input_error(["run", str(folder / "latin.topo")], capsys)
        assert err.startswith("error: line 1: ")


class TestMalformedFiles:
    """A malformed id, pair or attribute table: exit 2, one line naming the file."""

    @pytest.mark.parametrize("elements, incidence", [
        ([{"id": ["a"], "attrs": {}}], []),
        ([{"id": "a b"}], []),
        ([{"id": "a", "attrs": [["k", "v"]]}], []),
        ([{"id": "a", "attrs": {"k": 1}}], []),
        ([{"id": "a"}, {"id": "b"}], ["ab"]),
        ([{"id": "a"}, {"id": "b"}], [["a", 2]]),
    ], ids=["list-id", "spaced-id", "list-attrs", "number-attr", "string-pair", "number-pair"])
    def test_space_file(self, tmp_path, capsys, elements, incidence):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"name": "s", "elements": elements, "incidence": incidence}))
        assert main(["dim", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("doc", [
        {"domain": "Y", "codomain": "Y",
         "pairs": [["C", "C"], ["b", "b"], ["c", "c"], ["x", "x"], ["C", "x"]]},
        {"left": "X", "right": "Y", "pairs": [{"A": 1, "C": 2}]},
        {"space": "Y", "classes": [{"label": "m", "members": [["c"]]}]},
        {"space": "Y", "classes": [{"label": "m"}]},
    ], ids=["map-repeated-source", "theta-non-pair", "partition-list-member",
            "partition-class-without-members"])
    def test_file_loaded_by_script(self, files, capsys, doc):
        folder = Path(files["dir"])
        (folder / "doc.json").write_text(json.dumps(doc))
        (folder / "doc.topo").write_text('load Y "y.json"\nload D "doc.json"\n')
        assert main(["run", str(folder / "doc.topo")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line 2: {folder / 'doc.json'}: ")
        assert err.count("\n") == 1


# -- a plain argv is dispatched from the table, as argparse would parse it -----------

WORDS = st.one_of(st.sampled_from(["", "x.json", "a,b", "3", "validate", "oracle", "topology"]),
                  st.text(max_size=4))
DASHED = st.sampled_from(["-1", "-", "--", "-h", "--help", "--max-elements", "--max-elements=3"])


@st.composite
def argvs(draw) -> list[str]:
    """Sometimes a leading word; a command's words, a part of them or none; then
    as many words as the command takes, more or fewer, sometimes dashed."""
    commands = {command.path: command for command in cli.COMMANDS}
    path = draw(st.sampled_from([*commands, ("oracle",), ("nope",), ("validat",), ()]))
    wanted = len(commands[path].positionals) if path in commands else 1
    count = max(0, wanted + draw(st.sampled_from([0, 0, 0, 1, -1, 2, -2])))
    words = draw(st.sampled_from([WORDS, WORDS, st.one_of(WORDS, DASHED)]))
    lead = [draw(st.one_of(WORDS, DASHED))] if draw(st.integers(0, 3)) == 0 else []
    return [*lead, *path, *draw(st.lists(words, min_size=count, max_size=count))]


def argparse_args(argv):
    """``vars`` of what argparse parses from ``argv``, or None where it exits."""
    try:
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        return None


@seed(20131008)
@settings(max_examples=400, deadline=None, database=None)
@given(argvs())
@example(["dim", "s"])
@example(["dim", "s", "e", "f"])
@example(["oracle", "continuous", "m", "d", "c"])
@example(["homeo", "a", "b", "--max-elements", "3"])
@example(["validate", "--", "m"])
@example(["closure", "s", "-1"])
@example(["star", "", ""])
def test_plain_dispatch_is_what_argparse_parses(argv):
    plain, parsed = cli.plain_args(argv), argparse_args(argv)
    if plain is not None:
        assert vars(plain) == parsed
    else:  # declined: argparse exits, or a word is an option or --
        assert parsed is None or any(word.startswith("-") for word in argv)


def test_startup_does_not_import_dataclasses():
    # every topo invocation pays for what the modules it runs pull in, and
    # dataclasses brings inspect, ast and code generation with it; each
    # submodule runs when first used, so the child runs them all
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c",
         "import topodata.cli, sys\n"
         "for name in [n for n in sys.modules if n.startswith('topodata.')]:\n"
         "    vars(sys.modules[name])\n"
         "assert 'topodata.script' in sys.modules and 'dataclasses' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# -- the topo process -----------------------------------------------------------------

def test_console_script_is_the_entry_of_the_main_block():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    module, _, name = project["scripts"]["topo"].partition(":")
    assert importlib.import_module(module) is cli
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    block, = (node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'")
    called = [node.func.id for node in ast.walk(block)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert called == [name] and callable(getattr(cli, name))


def test_entry_freezes_the_heap_and_exits_with_the_code_of_main(files, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["topo", "validate", files["bad_manifest.json"]])
    try:
        with pytest.raises(SystemExit) as exited:
            cli.entry()
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert exited.value.code == 1
    assert "witness (e,v1) -> (v1,e)" in capsys.readouterr().out


# -- ids that stdout cannot encode ------------------------------------------------------
# A lone surrogate is valid JSON and a valid id, but no output encoding can
# print it: the lines before it are printed, then one error line, exit 2.
# That holds for a low surrogate U+DC80-U+DCFF too, which the surrogateescape
# handler of a POSIX locale or of UTF-8 mode would write as a raw byte.


@pytest.fixture
def surrogate_files(tmp_path):
    def put(name, doc):
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")

    def files(lone: str) -> Path:
        put("seg.json", {"name": "seg", "elements": [{"id": e} for e in (lone, "v1", "v2")],
                         "incidence": [[lone, "v1"], [lone, "v2"]]})
        put("pt.json", {"name": "pt", "elements": [{"id": "P"}], "incidence": []})
        put("part_of.json", {"domain": "seg", "codomain": "pt",
                             "pairs": [[e, "P"] for e in (lone, "v1", "v2")]})
        put("swap.json", {"domain": "seg", "codomain": "seg",
                          "pairs": [[lone, "v1"], ["v1", lone], ["v2", "v2"]]})
        put("manifest.json", {"spaces": ["seg.json", "pt.json"],
                              "maps": ["part_of.json", "swap.json"],
                              "constraints": [{"name": "ref", "map": "part_of"},
                                              {"name": "bad", "map": "swap"}]})
        put("up.json", {"name": "up", "elements": [{"id": e} for e in (lone, "v")],
                        "incidence": [["v", lone]]})
        (tmp_path / "closure.topo").write_text('load U "up.json"\ndim U\nclosure U v\n',
                                               encoding="utf-8")
        return tmp_path

    return files


def topo_process(*args: str, cwd: Path, errors: str | None = None,
                 program: tuple[str, ...] = ("-m", "topodata.cli")) -> subprocess.CompletedProcess:
    """``topo`` (or another ``program``) in a child, with stdout's error handler
    the platform's default or ``errors``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if errors:
        env["PYTHONIOENCODING"] = f"utf-8:{errors}"
    return subprocess.run([sys.executable, *program, *args], cwd=cwd, env=env,
                          capture_output=True, timeout=60)


# a child that calls main in process, then prints the error handler main left on stdout
IN_PROCESS = ("-c", "import sys\nfrom topodata.cli import main\ncode = main(sys.argv[1:])\n"
                    "print(sys.stdout.errors)\nsys.exit(code)")


@pytest.mark.parametrize("lone, args, printed", [
    pytest.param(lone, args, printed, id=name + suffix)
    for lone, suffix in [("e\ud800", ""), ("e\udc80", "-udc80")]
    for name, args, printed in [
        ("star", ("star", "seg.json", "v1"), b""),
        ("validate", ("validate", "manifest.json"), b"PASS ref (continuous)\n"),
        ("run", ("run", "closure.topo"), b"dim U = 1\n"),
    ]
])
def test_an_unprintable_id_is_an_error_line(surrogate_files, lone, args, printed):
    """Through ``topo`` with the platform's stdout handler and with
    surrogateescape, and through ``main`` in process, which puts the
    handler back."""
    folder = surrogate_files(lone)
    for errors, program, out in [(None, ("-m", "topodata.cli"), printed),
                                ("surrogateescape", ("-m", "topodata.cli"), printed),
                                ("surrogateescape", IN_PROCESS, printed + b"surrogateescape\n")]:
        done = topo_process(*args, cwd=folder, errors=errors, program=program)
        assert done.returncode == 2
        assert done.stdout == out
        err = done.stderr.decode("utf-8")
        assert err.startswith("error: cannot print output: ") and err.count("\n") == 1
        assert ascii(lone[-1])[1:-1] in err
