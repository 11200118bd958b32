"""The query script language: parsing and execution."""

from __future__ import annotations

import pytest

from topodata import (
    ParseError,
    Partition,
    ScriptError,
    ScriptNameError,
    Space,
    SpaceMap,
    TopologyError,
    parse_script,
    run_script,
)
from topodata.io import (parse_map, parse_space, serialize_map,
                         serialize_partition, serialize_space, serialize_theta)
from topodata.script import (
    CheckContinuousStmt,
    ClosureStmt,
    DimStmt,
    EmitStmt,
    LetStmt,
    LoadStmt,
)


@pytest.fixture
def overlay_dir(tmp_path, space_x, space_y, theta):
    (tmp_path / "x.json").write_text(serialize_space(space_x))
    (tmp_path / "y.json").write_text(serialize_space(space_y))
    (tmp_path / "theta.json").write_text(serialize_theta(theta))
    broken = SpaceMap(space_y, space_y, {"C": "x", "b": "b", "c": "c", "x": "C"})
    (tmp_path / "broken.json").write_text(serialize_map(broken))
    merge = Partition.from_classes({"m": ["c", "x"]}, space_y.name)
    (tmp_path / "merge.json").write_text(serialize_partition(merge))
    return tmp_path


class TestParse:
    def test_full_grammar(self):
        script = parse_script(
            'load X "x.json"  # comment\n'
            "\n"
            "# a full line comment\n"
            "let J = theta_join(X, Y, T)\n"
            "check continuous J.pleft\n"
            "check homeomorphic X Y\n"
            "dim J\n"
            "dim J B\n"
            "closure J a,b\n"
            'emit J "out.json"\n')
        kinds = [type(s) for s in script]
        assert kinds == [LoadStmt, LetStmt, CheckContinuousStmt,
                         type(script[3]), DimStmt, DimStmt,
                         ClosureStmt, EmitStmt]
        assert script[1].args == ("X", "Y", "T")

    def test_unknown_operation(self):
        with pytest.raises(ParseError) as err:
            parse_script("let A = frobnicate(X)\n")
        assert err.value.line == 1

    def test_unparsable_statement(self):
        with pytest.raises(ParseError):
            parse_script("let = broken\n")

    def test_select_with_ids(self):
        script = parse_script("let S = select(X, a, b)\n")
        assert script[0].args == ("X", "a", "b")


class TestRun:
    def test_overlay_script(self, overlay_dir):
        script = parse_script(
            'load X "x.json"\n'
            'load Y "y.json"\n'
            'load T "theta.json"\n'
            "let J = theta_join(X, Y, T)\n"
            "check continuous J.pleft\n"
            "check continuous J.pright\n"
            "dim J B×b\n"
            "closure J B×b\n"
            'emit J "out/join.json"\n'
            'emit J.pleft "out/join_left.json"\n')
        result = run_script(script, base_dir=overlay_dir)
        assert result.ok
        assert "check continuous J.pleft: PASS" in result.output
        assert "dim J B×b = 1" in result.output
        assert any(line.startswith("closure J B×b = B×b,B×x")
                   for line in result.output)
        emitted = parse_space((overlay_dir / "out" / "join.json").read_text())
        assert len(emitted) == 14
        reloaded = parse_map((overlay_dir / "out" / "join_left.json").read_text(),
                             {emitted.name: emitted, "X": result.env["X"]})
        assert reloaded == result.env["J.pleft"]

    def test_failed_check_recorded_not_raised(self, overlay_dir):
        script = parse_script(
            'load Y "y.json"\n'
            'load F "broken.json"\n'
            "check continuous F\n"
            "dim Y\n")
        result = run_script(script, base_dir=overlay_dir)
        assert not result.ok
        assert any("FAIL witness (C,b) -> (x,b)" in line for line in result.output)
        assert "dim Y = 2" in result.output  # execution continued

    def test_quotient_with_partition_file(self, overlay_dir):
        script = parse_script(
            'load Y "y.json"\n'
            'load P "merge.json"\n'
            "let Q = quotient(Y, P)\n"
            "check continuous Q.proj\n"
            "dim Q\n")
        result = run_script(script, base_dir=overlay_dir)
        assert result.ok
        assert "dim Q = 2" in result.output

    def test_emit_loaded_partition(self, overlay_dir):
        script = parse_script('load Y "y.json"\nload P "merge.json"\nemit P "out/p.json"\n')
        run_script(script, base_dir=overlay_dir)
        assert ((overlay_dir / "out" / "p.json").read_bytes()
                == (overlay_dir / "merge.json").read_bytes())

    def test_select_union_intersect_product_reduce(self, overlay_dir):
        script = parse_script(
            'load X "x.json"\n'
            'load Y "y.json"\n'
            "let S = select(X, B, e, f, g)\n"
            "let P = product(S, Y)\n"
            "let R = reduce(P)\n"
            "let U = union(X, X)\n"
            "let M = intersect(X, X)\n"
            "check continuous S.inc\n"
            "check continuous P.pleft\n"
            "check continuous U.inl\n"
            "check continuous M.inr\n"
            "dim P\n")
        result = run_script(script, base_dir=overlay_dir)
        assert result.ok
        assert "dim P = 3" in result.output

    def test_a_value_that_is_no_statement_is_refused(self, overlay_dir):
        with pytest.raises(TypeError, match="^not a statement: 'load X \"x.json\"'$"):
            run_script(['load X "x.json"'], base_dir=overlay_dir)

    def test_rebinding_is_an_error(self, overlay_dir):
        script = parse_script('load X "x.json"\nload X "y.json"\n')
        with pytest.raises(ScriptNameError):
            run_script(script, base_dir=overlay_dir)

    def test_unbound_name(self, overlay_dir):
        with pytest.raises(ScriptNameError):
            run_script(parse_script("dim X\n"), base_dir=overlay_dir)

    def test_wrong_kind(self, overlay_dir):
        script = parse_script('load X "x.json"\ncheck continuous X\n')
        with pytest.raises(ScriptError):
            run_script(script, base_dir=overlay_dir)

    def test_operation_error_carries_line(self, overlay_dir):
        script = parse_script('load X "x.json"\nlet S = select(X, zz)\n')
        with pytest.raises(ScriptError) as err:
            run_script(script, base_dir=overlay_dir)
        assert "line 2" in str(err.value)

    def test_nul_in_load_path_carries_line(self, overlay_dir):
        script = parse_script('load X "x.json"\nload Y "y\x00.json"\n')
        with pytest.raises(ScriptError, match="^line 2: "):
            run_script(script, base_dir=overlay_dir)

    def test_partition_for_other_space_rejected(self, overlay_dir):
        script = parse_script(
            'load X "x.json"\n'
            'load Y "y.json"\n'
            'load P "merge.json"\n'
            "let Q = quotient(X, P)\n")
        with pytest.raises(Exception) as err:
            run_script(script, base_dir=overlay_dir)
        assert "declared for space" in str(err.value)

    def test_theta_side_mismatch_carries_line(self, overlay_dir):
        script = parse_script('load X "x.json"\nload Y "y.json"\nload T "theta.json"\n'
                              "let J = theta_join(Y, X, T)\n")
        with pytest.raises(ScriptError, match="line 4: theta left side is declared for 'X'"):
            run_script(script, base_dir=overlay_dir)

    # one row per site that raises a script error: the script, the error type
    # and its whole message, "{dir}" standing for the script's directory; a
    # message ending in "..." is checked up to there, its tail being the OS's
    @pytest.mark.parametrize("text, error, message", [
        pytest.param('load X "x.json"\nload X "y.json"\n', ScriptNameError,
                     "line 2: name 'X' is already bound", id="bound-twice"),
        pytest.param("dim X\n", ScriptNameError, "line 1: name 'X' is not bound", id="unbound"),
        pytest.param('load X "x.json"\ncheck continuous X\n', ScriptError,
                     "line 2: 'X' is Space, expected SpaceMap", id="wrong-kind"),
        pytest.param('load X "x.json"\nload Z "missing.json"\n', ScriptError,
                     "line 2: cannot read 'missing.json': ...", id="unreadable-load"),
        pytest.param('load X "x.json"\nload Z "other_x.json"\n', ScriptNameError,
                     "line 2: space name 'X' already loaded with different content",
                     id="space-reloaded"),
        pytest.param('load X "x.json"\nlet U = union(X)\n', ScriptError,
                     "line 2: union takes 2 arguments, got 1", id="arity"),
        pytest.param('load X "x.json"\nemit X "x.json/o.json"\n', ScriptError,
                     "line 2: cannot write 'x.json/o.json': [Errno 17] File exists: "
                     "'{dir}/x.json'", id="unwritable-emit"),
        pytest.param('load X "x.json"\nlet S = select(X, zz)\n', ScriptError,
                     "line 2: not elements of 'X': ['zz']", id="library-error"),
    ])
    def test_every_error_site_message(self, overlay_dir, text, error, message):
        (overlay_dir / "other_x.json").write_text(serialize_space(Space("X", ["a"])))
        with pytest.raises(TopologyError) as err:
            run_script(parse_script(text), base_dir=overlay_dir)
        assert type(err.value) is error
        if message.endswith("..."):
            assert str(err.value).startswith(message[:-3])
        else:
            assert str(err.value) == message.format(dir=overlay_dir)

    def test_deterministic_emission(self, overlay_dir):
        text = ('load X "x.json"\nload Y "y.json"\nload T "theta.json"\n'
                'let J = theta_join(X, Y, T)\nemit J "out/a.json"\n')
        run_script(parse_script(text), base_dir=overlay_dir)
        first = (overlay_dir / "out" / "a.json").read_bytes()
        text2 = text.replace('"out/a.json"', '"out/b.json"')
        run_script(parse_script(text2), base_dir=overlay_dir)
        assert first == (overlay_dir / "out" / "b.json").read_bytes()

    def test_emit_loaded_theta(self, overlay_dir, theta):
        script = parse_script('load T "theta.json"\nemit T "out/t.json"\n')
        run_script(script, base_dir=overlay_dir)
        assert (overlay_dir / "out" / "t.json").read_bytes() == serialize_theta(theta).encode()

    def test_emit_loaded_partition_writes_its_own_listing(self, overlay_dir):
        # the label x is also an unlisted id: the file's class is written back
        # as listed, and quotient puts x in that class as a singleton default
        (overlay_dir / "label.json").write_text(
            '{"space": "Y", "classes": [{"label": "x", "members": ["c"]}]}')
        script = parse_script('load Y "y.json"\nload P "label.json"\nemit P "out/p.json"\n'
                              "let Q = quotient(Y, P)\n")
        result = run_script(script, base_dir=overlay_dir)
        assert (overlay_dir / "out" / "p.json").read_text() == (
            '{\n  "space": "Y",\n  "classes": [\n    {\n      "label": "x",\n'
            '      "members": [\n        "c"\n      ]\n    }\n  ]\n}\n')
        assert result.env["Q"].elements == {"C", "b", "x"}
        assert {e: result.env["Q.proj"](e) for e in "Cbcx"} == {
            "C": "C", "b": "b", "c": "x", "x": "x"}

    def test_hash_inside_a_quoted_path(self, overlay_dir):
        (overlay_dir / "a#b.json").write_text((overlay_dir / "x.json").read_text())
        script = parse_script('load X "a#b.json"  # the # in quotes is part of the path\n'
                              'emit X "out/c#d.json"# and so is this one\n')
        assert [s.path for s in script] == ["a#b.json", "out/c#d.json"]
        result = run_script(script, base_dir=overlay_dir)
        assert result.output == ["emit X -> out/c#d.json"]
        assert ((overlay_dir / "out" / "c#d.json").read_bytes()
                == (overlay_dir / "x.json").read_bytes())

    def test_check_homeomorphic(self, overlay_dir):
        script = parse_script(
            'load X "x.json"\n'
            "let A = select(X, B, e, f, g)\n"
            "let B = select(X, B, a, e, f)\n"
            "check homeomorphic A B\n")
        result = run_script(script, base_dir=overlay_dir)
        assert result.ok


# One row per operator: good arguments and the names they bind, an argument
# list of the wrong length on each side (None where the op has no bound), and
# arguments with one value of the wrong kind.
OP_SURFACE = [
    ("select", "X, B, e", {"S", "S.inc"}, "", None, "T, B"),
    ("quotient", "Y, C, collapse", {"Q", "Q.proj"}, "Y", "Y, C, error, x", "Y, X"),
    ("union", "X, Y", {"U", "U.inl", "U.inr"}, "X", "X, Y, X", "X, T"),
    ("intersect", "X, X", {"M", "M.inl", "M.inr"}, "X", "X, X, X", "C, X"),
    ("product", "X, Y", {"P", "P.pleft", "P.pright"}, "X", "X, Y, Y", "X, I"),
    ("theta_join", "X, Y, T", {"J", "J.pleft", "J.pright"}, "X, Y", "X, Y, T, T",
     "X, Y, Y"),
    ("fibre_product", "I, I", {"F", "F.pleft", "F.pright"}, "I", "I, I, I", "X, I"),
    ("reduce", "X", {"R"}, "", "X, Y", "T"),
]
PRELUDE = ('load X "x.json"\nload Y "y.json"\nload T "theta.json"\n'
           'load C "merge.json"\nload I "ident.json"\n')


class TestOperatorSurface:
    @pytest.fixture
    def op_dir(self, overlay_dir, space_y):
        identity = SpaceMap(space_y, space_y, {e: e for e in space_y.elements})
        (overlay_dir / "ident.json").write_text(serialize_map(identity))
        return overlay_dir

    def run_let(self, op_dir, name, op, args):
        text = PRELUDE + f"let {name} = {op}({args})\n"
        return run_script(parse_script(text), base_dir=op_dir)

    @pytest.mark.parametrize("op, good, names, few, many, wrong", OP_SURFACE)
    def test_binds_documented_names(self, op_dir, op, good, names, few, many, wrong):
        name = min(names, key=len)
        before = set(run_script(parse_script(PRELUDE), base_dir=op_dir).env)
        result = self.run_let(op_dir, name, op, good)
        assert set(result.env) - before == names

    @pytest.mark.parametrize("op, good, names, few, many, wrong", OP_SURFACE)
    def test_arity_errors_carry_line(self, op_dir, op, good, names, few, many, wrong):
        for args in (few, many):
            if args is None:
                continue
            with pytest.raises(ScriptError, match="^line 6: "):
                self.run_let(op_dir, "Z", op, args)

    @pytest.mark.parametrize("op, good, names, few, many, wrong", OP_SURFACE)
    def test_wrong_kind_is_script_error(self, op_dir, op, good, names, few, many, wrong):
        with pytest.raises(ScriptError, match="^line 6: "):
            self.run_let(op_dir, "Z", op, wrong)

    def test_quotient_policy_literal(self, op_dir):
        result = self.run_let(op_dir, "Q", "quotient", "Y, C, error")
        assert len(result.env["Q"]) == 3
        with pytest.raises(ScriptError, match="^line 6: .*'bogus'"):
            self.run_let(op_dir, "Q", "quotient", "Y, C, bogus")

    def test_fibre_product_of_identities(self, op_dir):
        result = self.run_let(op_dir, "F", "fibre_product", "I, I")
        assert len(result.env["F"]) == 4
        assert result.env["F.pleft"].codomain.name == "Y"
