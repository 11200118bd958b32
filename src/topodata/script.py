"""A small line-oriented query script language.

Grammar (one statement per line, ``#`` starts a comment):

    load <name> "<path>"
    let <name> = <op>(<args>)      op: select quotient union intersect
                                       product theta_join fibre_product reduce
    check continuous <map>
    check homeomorphic <space> <space>
    dim <space> [<element>]
    closure <space> <id>[,<id>...]
    emit <name> "<path>"

Names are bound once and must be bound before use.  Operators that
return linking maps bind them under derived names: ``J.pleft`` and
``J.pright`` for product, theta_join, and fibre_product; ``S.inc`` for
select; ``Q.proj`` for quotient; ``U.inl``/``U.inr`` for union and
intersect.  Relative paths resolve against the script's directory.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from . import io
from .algebra import (
    Partition,
    ThetaRelation,
    fibre_product,
    paste_union,
    product,
    pullback_intersection,
    quotient,
    select_subspace,
    theta_join,
)
from .constraints import Dataset
from .errors import (
    ParseError,
    ScriptError,
    ScriptNameError,
    TopologyError,
    UnresolvedReferenceError,
)
from .maps import SpaceMap, find_homeomorphism, is_continuous
from .space import Space

OPS = ("select", "quotient", "union", "intersect", "product",
       "theta_join", "fibre_product", "reduce")

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_REF = rf"{_NAME}(?:\.{_NAME})?"
_LOAD = re.compile(rf'^load\s+(?P<name>{_NAME})\s+"(?P<path>[^"]+)"$')
_LET = re.compile(rf'^let\s+(?P<name>{_NAME})\s*=\s*(?P<op>[a-z_]+)\((?P<args>[^)]*)\)$')
_CHECK_CONTINUOUS = re.compile(rf'^check\s+continuous\s+(?P<map>{_REF})$')
_CHECK_HOMEO = re.compile(rf'^check\s+homeomorphic\s+(?P<left>{_REF})\s+(?P<right>{_REF})$')
_DIM = re.compile(rf'^dim\s+(?P<space>{_REF})(?:\s+(?P<element>\S+))?$')
_CLOSURE = re.compile(rf'^closure\s+(?P<space>{_REF})\s+(?P<ids>\S+)$')
_EMIT = re.compile(rf'^emit\s+(?P<name>{_REF})\s+"(?P<path>[^"]+)"$')


@dataclass(frozen=True)
class LoadStmt:
    line: int
    name: str
    path: str


@dataclass(frozen=True)
class LetStmt:
    line: int
    name: str
    op: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class CheckContinuousStmt:
    line: int
    map_name: str


@dataclass(frozen=True)
class CheckHomeoStmt:
    line: int
    left: str
    right: str


@dataclass(frozen=True)
class DimStmt:
    line: int
    space: str
    element: str | None


@dataclass(frozen=True)
class ClosureStmt:
    line: int
    space: str
    ids: tuple[str, ...]


@dataclass(frozen=True)
class EmitStmt:
    line: int
    name: str
    path: str


@dataclass(frozen=True)
class QueryScript:
    statements: tuple


def parse_script(text: str, source: str = "<script>") -> QueryScript:
    statements = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if m := _LOAD.match(line):
            statements.append(LoadStmt(line_no, m["name"], m["path"]))
        elif m := _LET.match(line):
            if m["op"] not in OPS:
                raise ParseError(f"unknown operation {m['op']!r}", source=source, line=line_no)
            args = tuple(a.strip() for a in m["args"].split(",") if a.strip())
            statements.append(LetStmt(line_no, m["name"], m["op"], args))
        elif m := _CHECK_CONTINUOUS.match(line):
            statements.append(CheckContinuousStmt(line_no, m["map"]))
        elif m := _CHECK_HOMEO.match(line):
            statements.append(CheckHomeoStmt(line_no, m["left"], m["right"]))
        elif m := _DIM.match(line):
            statements.append(DimStmt(line_no, m["space"], m["element"]))
        elif m := _CLOSURE.match(line):
            statements.append(ClosureStmt(line_no, m["space"],
                                          tuple(m["ids"].split(","))))
        elif m := _EMIT.match(line):
            statements.append(EmitStmt(line_no, m["name"], m["path"]))
        else:
            raise ParseError(f"cannot parse statement {line!r}", source=source, line=line_no)
    return QueryScript(tuple(statements))


@dataclass(frozen=True)
class LoadedPartition:
    space_name: str
    partition: Partition


@dataclass
class ScriptResult:
    env: dict
    dataset: Dataset
    failures: list[str] = field(default_factory=list)
    output: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


class _Runner:
    def __init__(self, dataset: Dataset | None, base_dir):
        self.base_dir = Path(base_dir)
        self.dataset = dataset if dataset is not None else Dataset()
        self.env: dict = {}
        self.registry: dict[str, Space] = dict(self.dataset.spaces)
        for name, space in self.dataset.spaces.items():
            self.env.setdefault(name, space)
        for name, space_map in self.dataset.maps.items():
            self.env.setdefault(name, space_map)
        self.failures: list[str] = []
        self.output: list[str] = []

    def bind(self, line: int, name: str, value) -> None:
        if name in self.env:
            raise ScriptNameError(f"line {line}: name {name!r} is already bound")
        self.env[name] = value

    def lookup(self, line: int, name: str, kind=None):
        if name not in self.env:
            raise ScriptNameError(f"line {line}: name {name!r} is not bound")
        value = self.env[name]
        if kind is not None and not isinstance(value, kind):
            raise ScriptError(
                f"line {line}: {name!r} is {type(value).__name__}, "
                f"expected {kind.__name__}")
        return value

    def emit_line(self, text: str) -> None:
        self.output.append(text)

    # -- statement execution ------------------------------------------------

    def run_load(self, stmt: LoadStmt) -> None:
        path = self.base_dir / stmt.path
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as err:
            raise ScriptError(f"line {stmt.line}: cannot read {stmt.path!r}: {err}") from err
        kind = io.detect_kind(text, source=str(path))
        if kind == "space":
            space = io.parse_space(text, source=str(path))
            known = self.registry.get(space.name)
            if known is not None and known != space:
                raise ScriptNameError(
                    f"line {stmt.line}: space name {space.name!r} already loaded "
                    "with different content")
            self.registry[space.name] = space
            self.bind(stmt.line, stmt.name, space)
        elif kind == "map":
            self.bind(stmt.line, stmt.name,
                      io.parse_map(text, self.registry, source=str(path)))
        elif kind == "theta":
            self.bind(stmt.line, stmt.name, io.parse_theta(text, source=str(path)))
        else:
            space_name, partition = io.parse_partition(text, self.registry, source=str(path))
            self.bind(stmt.line, stmt.name, LoadedPartition(space_name, partition))

    def _expect_args(self, stmt: LetStmt, low: int, high: int | None = None) -> None:
        high = low if high is None else high
        if not (low <= len(stmt.args) <= high):
            wanted = str(low) if low == high else f"{low}..{high}"
            raise ScriptError(f"line {stmt.line}: {stmt.op} takes {wanted} arguments, "
                              f"got {len(stmt.args)}")

    def run_let(self, stmt: LetStmt) -> None:
        line = stmt.line
        if stmt.op == "select":
            if not stmt.args:
                raise ScriptError(f"line {line}: select needs a space argument")
            space = self.lookup(line, stmt.args[0], Space)
            sub, inclusion = select_subspace(space, stmt.args[1:])
            self.bind(line, stmt.name, sub)
            self.bind(line, f"{stmt.name}.inc", inclusion)
        elif stmt.op == "quotient":
            self._expect_args(stmt, 2, 3)
            space = self.lookup(line, stmt.args[0], Space)
            loaded = self.lookup(line, stmt.args[1], LoadedPartition)
            if loaded.space_name != space.name:
                raise UnresolvedReferenceError(
                    f"partition is declared for space {loaded.space_name!r}, not {space.name!r}")
            policy = stmt.args[2] if len(stmt.args) == 3 else "error"
            result, projection = quotient(space, loaded.partition, on_cycle=policy)
            self.bind(line, stmt.name, result)
            self.bind(line, f"{stmt.name}.proj", projection)
        elif stmt.op in ("union", "intersect"):
            self._expect_args(stmt, 2)
            x = self.lookup(line, stmt.args[0], Space)
            y = self.lookup(line, stmt.args[1], Space)
            operation = paste_union if stmt.op == "union" else pullback_intersection
            result, left, right = operation(x, y)
            self.bind(line, stmt.name, result)
            self.bind(line, f"{stmt.name}.inl", left)
            self.bind(line, f"{stmt.name}.inr", right)
        elif stmt.op == "product":
            self._expect_args(stmt, 2)
            x = self.lookup(line, stmt.args[0], Space)
            y = self.lookup(line, stmt.args[1], Space)
            result, left, right = product(x, y)
            self.bind(line, stmt.name, result)
            self.bind(line, f"{stmt.name}.pleft", left)
            self.bind(line, f"{stmt.name}.pright", right)
        elif stmt.op == "theta_join":
            self._expect_args(stmt, 3)
            x = self.lookup(line, stmt.args[0], Space)
            y = self.lookup(line, stmt.args[1], Space)
            theta = self.lookup(line, stmt.args[2], ThetaRelation)
            result, left, right = theta_join(x, y, theta)
            self.bind(line, stmt.name, result)
            self.bind(line, f"{stmt.name}.pleft", left)
            self.bind(line, f"{stmt.name}.pright", right)
        elif stmt.op == "fibre_product":
            self._expect_args(stmt, 2)
            u = self.lookup(line, stmt.args[0], SpaceMap)
            p = self.lookup(line, stmt.args[1], SpaceMap)
            result, left, right = fibre_product(u, p)
            self.bind(line, stmt.name, result)
            self.bind(line, f"{stmt.name}.pleft", left)
            self.bind(line, f"{stmt.name}.pright", right)
        elif stmt.op == "reduce":
            self._expect_args(stmt, 1)
            space = self.lookup(line, stmt.args[0], Space)
            self.bind(line, stmt.name, space.transitive_reduce())
        else:  # pragma: no cover - parser rejects unknown ops
            raise ScriptError(f"line {line}: unknown operation {stmt.op!r}")

    def run_check_continuous(self, stmt: CheckContinuousStmt) -> None:
        space_map = self.lookup(stmt.line, stmt.map_name, SpaceMap)
        verdict = is_continuous(space_map)
        if verdict:
            self.emit_line(f"check continuous {stmt.map_name}: PASS")
        else:
            message = f"check continuous {stmt.map_name}: FAIL {verdict.describe()}"
            self.emit_line(message)
            self.failures.append(message)

    def run_check_homeo(self, stmt: CheckHomeoStmt) -> None:
        x = self.lookup(stmt.line, stmt.left, Space)
        y = self.lookup(stmt.line, stmt.right, Space)
        found = find_homeomorphism(x, y)
        if found is not None:
            self.emit_line(f"check homeomorphic {stmt.left} {stmt.right}: PASS")
        else:
            message = f"check homeomorphic {stmt.left} {stmt.right}: FAIL"
            self.emit_line(message)
            self.failures.append(message)

    def run_dim(self, stmt: DimStmt) -> None:
        space = self.lookup(stmt.line, stmt.space, Space)
        if stmt.element is None:
            self.emit_line(f"dim {stmt.space} = {space.space_dimension()}")
        else:
            self.emit_line(f"dim {stmt.space} {stmt.element} = "
                           f"{space.dimension(stmt.element)}")

    def run_closure(self, stmt: ClosureStmt) -> None:
        space = self.lookup(stmt.line, stmt.space, Space)
        closed = space.closure(stmt.ids)
        self.emit_line(f"closure {stmt.space} {','.join(stmt.ids)} = "
                       f"{','.join(sorted(closed))}")

    def run_emit(self, stmt: EmitStmt) -> None:
        value = self.lookup(stmt.line, stmt.name)
        path = self.base_dir / stmt.path
        if isinstance(value, Space):
            text = io.serialize_space(value)
        elif isinstance(value, SpaceMap):
            text = io.serialize_map(value)
        elif isinstance(value, ThetaRelation):
            text = io.serialize_theta(value)
        elif isinstance(value, LoadedPartition):
            text = io.serialize_partition(value.space_name, value.partition)
        else:  # pragma: no cover - env only ever holds the above
            raise ScriptError(f"line {stmt.line}: cannot emit {type(value).__name__}")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        self.emit_line(f"emit {stmt.name} -> {stmt.path}")

    def run(self, script: QueryScript) -> ScriptResult:
        handlers = {
            LoadStmt: self.run_load,
            LetStmt: self.run_let,
            CheckContinuousStmt: self.run_check_continuous,
            CheckHomeoStmt: self.run_check_homeo,
            DimStmt: self.run_dim,
            ClosureStmt: self.run_closure,
            EmitStmt: self.run_emit,
        }
        for stmt in script.statements:
            handler = handlers[type(stmt)]
            try:
                handler(stmt)
            except (ScriptError, ScriptNameError):
                raise
            except TopologyError as err:
                raise ScriptError(f"line {stmt.line}: {err}") from err
        return ScriptResult(self.env, self._assemble_dataset(),
                            self.failures, self.output)

    def _assemble_dataset(self) -> Dataset:
        # Derived spaces may reuse a source's internal name (a subspace keeps
        # it); the catalog keeps the first owner of each name, and maps enter
        # only when their end spaces are catalogued with identical content.
        for value in self.env.values():
            if isinstance(value, Space) and value.name not in self.dataset.spaces:
                self.dataset.spaces[value.name] = value
        for name, value in self.env.items():
            if isinstance(value, SpaceMap) and name not in self.dataset.maps:
                if all(self.dataset.spaces.get(s.name) == s
                       for s in (value.domain, value.codomain)):
                    self.dataset.maps[name] = value
        return self.dataset


def run_script(script: QueryScript, dataset: Dataset | None = None,
               base_dir=".") -> ScriptResult:
    """Execute a parsed script against an optional starting dataset.

    Execution is deterministic: the same inputs produce the same bindings,
    the same output lines, and byte-identical emitted files.
    """
    return _Runner(dataset, base_dir).run(script)
