"""A small line-oriented query script language.

Grammar (one statement per line, ``#`` outside double quotes starts a comment):

    load <name> "<path>"
    let <name> = <op>(<args>)
    check continuous <map>
    check homeomorphic <space> <space>
    dim <space> [<element>]
    closure <space> <id>[,<id>...]
    emit <name> "<path>"

Operators with their arguments, and the linking maps bound besides the
result (for a result named by the first letter):

    select(X, id, ...)        S.inc              the subspace on the listed ids
    quotient(X, P[, policy])  Q.proj             policy: error (default) or collapse
    union(X, Y)               U.inl, U.inr
    intersect(X, Y)           M.inl, M.inr
    product(X, Y)             P.pleft, P.pright
    theta_join(X, Y, T)       J.pleft, J.pright  T a theta relation
    fibre_product(u, p)       F.pleft, F.pright  u, p maps into one space
    reduce(X)                 none

Names are bound once and must be bound before use.  Relative paths
resolve against the script's directory.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import singledispatchmethod
from math import inf
from pathlib import Path
from typing import NamedTuple, Sequence

from . import algebra, io
from .errors import (
    ParseError,
    ScriptError,
    ScriptNameError,
    TopologyError,
)
from .maps import Partition, SpaceMap, ThetaRelation, find_homeomorphism, is_continuous
from .space import Space


LoadStmt = namedtuple("LoadStmt", "line name path")
LetStmt = namedtuple("LetStmt", "line name op args")
CheckContinuousStmt = namedtuple("CheckContinuousStmt", "line map_name")
CheckHomeoStmt = namedtuple("CheckHomeoStmt", "line left right")
DimStmt = namedtuple("DimStmt", "line space element")
ClosureStmt = namedtuple("ClosureStmt", "line space ids")
EmitStmt = namedtuple("EmitStmt", "line name path")


# One row per operator: the name of its function in ``algebra``, looked up at
# each call so that a replaced module attribute is seen (None for reduce, a
# Space method); the kinds of its bound arguments; how many literal arguments
# may follow them; and the suffixes binding the maps returned after the result.
Op = namedtuple("Op", "function kinds literals maps")
OPS = {
    "select": Op("select_subspace", (Space,), inf, ("inc",)),
    "quotient": Op("quotient", (Space, Partition), 1, ("proj",)),
    "union": Op("paste_union", (Space, Space), 0, ("inl", "inr")),
    "intersect": Op("pullback_intersection", (Space, Space), 0, ("inl", "inr")),
    "product": Op("product", (Space, Space), 0, ("pleft", "pright")),
    "theta_join": Op("theta_join", (Space, Space, ThetaRelation), 0, ("pleft", "pright")),
    "fibre_product": Op("fibre_product", (SpaceMap, SpaceMap), 0, ("pleft", "pright")),
    "reduce": Op(None, (Space,), 0, ()),
}

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_REF = rf"{_NAME}(?:\.{_NAME})?"
# One row per statement; the named groups are the statement's fields.
_GRAMMAR = [(cls, re.compile(pattern)) for cls, pattern in (
    (LoadStmt, rf'load\s+(?P<name>{_NAME})\s+"(?P<path>[^"]+)"'),
    (LetStmt, rf'let\s+(?P<name>{_NAME})\s*=\s*(?P<op>[a-z_]+)\((?P<args>[^)]*)\)'),
    (CheckContinuousStmt, rf'check\s+continuous\s+(?P<map_name>{_REF})'),
    (CheckHomeoStmt, rf'check\s+homeomorphic\s+(?P<left>{_REF})\s+(?P<right>{_REF})'),
    (DimStmt, rf'dim\s+(?P<space>{_REF})(?:\s+(?P<element>\S+))?'),
    (ClosureStmt, rf'closure\s+(?P<space>{_REF})\s+(?P<ids>\S+)'),
    (EmitStmt, rf'emit\s+(?P<name>{_REF})\s+"(?P<path>[^"]+)"'),
)]
_CODE = re.compile(r'(?:[^"#]|"[^"]*"?)*')  # a line up to its first # outside double quotes


def parse_script(text: str, source: str = "<script>") -> tuple:
    statements = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _CODE.match(raw)[0].strip()
        if not line:
            continue
        for cls, pattern in _GRAMMAR:
            if m := pattern.fullmatch(line):
                break
        else:
            raise ParseError(f"cannot parse statement {line!r}", source=source, line=line_no)
        fields = m.groupdict()
        if cls is LetStmt:
            if fields["op"] not in OPS:
                raise ParseError(f"unknown operation {fields['op']!r}",
                                 source=source, line=line_no)
            fields["args"] = tuple(a.strip() for a in fields["args"].split(",") if a.strip())
        elif cls is ClosureStmt:
            fields["ids"] = tuple(fields["ids"].split(","))
        statements.append(cls(line_no, **fields))
    return tuple(statements)


class ScriptResult(NamedTuple):
    env: dict
    failures: Sequence[str] = ()
    output: Sequence[str] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


class _Runner:
    def __init__(self, base_dir):
        self.base_dir = Path(base_dir)
        self.env: dict = {}
        self.registry: dict[str, Space] = {}
        self.failures: list[str] = []
        self.output: list[str] = []

    def bind(self, name: str, value) -> None:
        if name in self.env:
            raise ScriptNameError(f"name {name!r} is already bound")
        self.env[name] = value

    def lookup(self, name: str, kind=None):
        if name not in self.env:
            raise ScriptNameError(f"name {name!r} is not bound")
        value = self.env[name]
        if kind is not None and not isinstance(value, kind):
            raise ScriptError(f"{name!r} is {type(value).__name__}, expected {kind.__name__}")
        return value

    # -- statement execution ------------------------------------------------

    @singledispatchmethod
    def execute(self, stmt) -> None:
        raise TypeError(f"not a statement: {stmt!r}")

    @execute.register
    def run_load(self, stmt: LoadStmt) -> None:
        path = self.base_dir / stmt.path
        source = str(path)
        try:
            text = io.read_text(path)
        except OSError as err:
            raise ScriptError(f"cannot read {stmt.path!r}: {err}") from err
        value = io.parse_document(text, self.registry, source=source)
        if isinstance(value, Space):
            known = self.registry.get(value.name)
            if known is not None and known != value:
                raise ScriptNameError(
                    f"space name {value.name!r} already loaded with different content")
            self.registry[value.name] = value
        self.bind(stmt.name, value)

    @execute.register
    def run_let(self, stmt: LetStmt) -> None:
        op = OPS[stmt.op]
        low, high = len(op.kinds), len(op.kinds) + op.literals
        if not low <= len(stmt.args) <= high:
            wanted = (low if high == low else f"at least {low}" if high == inf
                      else f"{low}..{high}")
            raise ScriptError(f"{stmt.op} takes {wanted} arguments, got {len(stmt.args)}")
        args = [self.lookup(name, kind) for name, kind in zip(stmt.args, op.kinds)]
        literals = stmt.args[low:]
        # select takes its ids as one collection, quotient its policy as is
        args += [literals] if op.literals == inf else literals
        if op.function is None:
            result, maps = args[0].transitive_reduce(), ()
        else:
            result, *maps = getattr(algebra, op.function)(*args)
        self.bind(stmt.name, result)
        for suffix, value in zip(op.maps, maps):
            self.bind(f"{stmt.name}.{suffix}", value)

    def report(self, message: str, passed: bool) -> None:
        self.output.append(message)
        if not passed:
            self.failures.append(message)

    @execute.register
    def run_check_continuous(self, stmt: CheckContinuousStmt) -> None:
        verdict = is_continuous(self.lookup(stmt.map_name, SpaceMap))
        outcome = "PASS" if verdict else f"FAIL {verdict.describe()}"
        self.report(f"check continuous {stmt.map_name}: {outcome}", bool(verdict))

    @execute.register
    def run_check_homeo(self, stmt: CheckHomeoStmt) -> None:
        x = self.lookup(stmt.left, Space)
        y = self.lookup(stmt.right, Space)
        found = find_homeomorphism(x, y) is not None
        self.report(f"check homeomorphic {stmt.left} {stmt.right}: "
                    f"{'PASS' if found else 'FAIL'}", found)

    @execute.register
    def run_dim(self, stmt: DimStmt) -> None:
        space = self.lookup(stmt.space, Space)
        if stmt.element is None:
            self.output.append(f"dim {stmt.space} = {space.space_dimension()}")
        else:
            self.output.append(f"dim {stmt.space} {stmt.element} = "
                               f"{space.dimension(stmt.element)}")

    @execute.register
    def run_closure(self, stmt: ClosureStmt) -> None:
        space = self.lookup(stmt.space, Space)
        closed = space.closure(stmt.ids)
        self.output.append(f"closure {stmt.space} {','.join(stmt.ids)} = "
                           f"{','.join(sorted(closed))}")

    @execute.register
    def run_emit(self, stmt: EmitStmt) -> None:
        value = self.lookup(stmt.name)
        try:
            io.write_document(value, self.base_dir / stmt.path)
        except (OSError, ValueError) as err:  # ValueError: a NUL in the path, a lone surrogate
            raise ScriptError(f"cannot write {stmt.path!r}: {err}") from err
        self.output.append(f"emit {stmt.name} -> {stmt.path}")

    def run(self, statements) -> ScriptResult:
        for stmt in statements:
            try:
                self.execute(stmt)
            except ScriptNameError as err:
                raise ScriptNameError(f"line {stmt.line}: {err}") from err
            except TopologyError as err:
                raise ScriptError(f"line {stmt.line}: {err}") from err
        return ScriptResult(self.env, self.failures, self.output)


def run_script(statements, base_dir=".") -> ScriptResult:
    """Execute parsed statements; relative paths resolve against ``base_dir``.

    Execution is deterministic: the same inputs produce the same bindings,
    the same output lines, and byte-identical emitted files.
    """
    return _Runner(base_dir).run(statements)
