"""Random query scripts against the naive reference, byte for byte.

Each seeded case loads three small spaces with overlapping ids and
attributes, runs two to four random ``let`` statements through
``run_script`` (their theta relations and partitions are written and
loaded as they are needed), and emits every result and every linking
map.  Every emitted file must equal the serialized result of the naive
definitions in ``naive.py``, and every emitted map must be continuous by
the open-preimage oracle.  All spaces have at most 12 elements.  A
partition lists a random subset of the ids of the space it quotients,
loaded or derived; the naive quotient gets the completed table, each
unlisted id a singleton class labelled by itself.
"""

from __future__ import annotations

import random

import pytest

from topodata import (Partition, Space, SpaceMap, ThetaRelation, TopologyError,
                      oracle_is_continuous, parse_script, run_script)
from topodata.io import serialize_map, serialize_partition, serialize_space, serialize_theta
from topodata.script import OPS

from naive import (SEPARATOR, naive_fibre_product, naive_intersect, naive_product,
                   naive_quotient, naive_reduce, naive_select, naive_theta_join, naive_union)

LIMIT = 12
POOL = "abcdef"  # loaded incidence pairs go up this order, so unions of loaded spaces stay acyclic


def random_input(rng: random.Random, name: str) -> Space:
    ids = sorted(rng.sample(POOL, rng.randint(1, 4)))
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:] if rng.random() < 0.5]
    attributes = {e: {"k": rng.choice("uv")} for e in ids if rng.random() < 0.5}
    return Space(name, ids, pairs, attributes)


class Pipeline:
    """A random script built next to the values the naive reference gives it."""

    def __init__(self, seed: int, folder):
        self.rng = random.Random(seed)
        self.folder = folder
        self.lines: list[str] = []
        self.env: dict = {}
        self.made_by: dict[str, str] = {}  # the op that bound each name, or "load"
        self.quotiented: list[str] = []  # made_by of each quotiented space
        self.results: list[str] = []
        for name in "XYZ":
            space = random_input(self.rng, name)
            self.load(name, serialize_space(space))
            self.env[name] = space
            self.made_by[name] = "load"
        self.ops = [self.add_statement(f"R{i}") for i in range(self.rng.randint(2, 4))]

    def load(self, name: str, text: str) -> None:
        (self.folder / f"{name}.json").write_text(text, encoding="utf-8")
        self.lines.append(f'load {name} "{name}.json"')

    def spaces(self) -> list[str]:
        return [n for n, v in self.env.items() if isinstance(v, Space)]

    def attempt(self, op: str, name: str):
        """Arguments and naive values for one statement, or None where the op cannot run."""
        rng, env = self.rng, self.env
        a, b = rng.choice(self.spaces()), rng.choice(self.spaces())
        x, y = env[a], env[b]
        if op == "select":
            ids = sorted(rng.sample(sorted(x.elements), rng.randint(0, len(x.elements))))
            return [a, *ids], naive_select(x, ids), []
        if op == "quotient":
            derived = self.spaces()[3:]  # X, Y and Z are bound first
            if derived and rng.random() < 0.5:
                a = rng.choice(derived)
                x = env[a]
            labels = sorted(x.elements) + ["L0", "L1", "L0", "L1"]
            labelled: dict[str, list[str]] = {}
            listed: dict[str, str] = {}
            for e in sorted(x.elements):
                if rng.random() < 0.6:
                    listed[e] = rng.choice(labels)
                    labelled.setdefault(listed[e], []).append(e)
            partition = Partition.from_classes(labelled, x.name)
            completed = {e: listed.get(e, e) for e in x.elements}
            policy = rng.choice(["error", "collapse"])
            try:
                values = naive_quotient(x, completed, policy)
            except TopologyError:
                values = naive_quotient(x, completed, policy := "collapse")
            return [a, f"{name}P", policy], values, [(f"{name}P", serialize_partition(partition))]
        if op in ("product", "theta_join"):
            if any(SEPARATOR in e for e in x.elements | y.elements):
                return None
            if op == "product":
                return [a, b], naive_product(x, y), []
            pairs = [(s, t) for s in sorted(x.elements) for t in sorted(y.elements)
                     if rng.random() < 0.4]
            theta = ThetaRelation(pairs, x.name, y.name)
            return ([a, b, f"{name}T"], naive_theta_join(x, y, theta),
                    [(f"{name}T", serialize_theta(theta))])
        if op == "fibre_product":
            maps = [n for n, v in env.items() if isinstance(v, SpaceMap)]
            pairs = [(m, n) for m in maps for n in maps
                     if env[m].codomain == env[n].codomain
                     and not any(SEPARATOR in e for k in (m, n) for e in env[k].domain.elements)]
            if not pairs:
                return None
            m, n = rng.choice(pairs)
            return [m, n], naive_fibre_product(env[m], env[n]), []
        if op == "reduce":
            return [a], (naive_reduce(x),), []
        naive = naive_union if op == "union" else naive_intersect
        return [a, b], naive(x, y), []

    def add_statement(self, name: str) -> str:
        while True:
            op = self.rng.choice(list(OPS))
            try:
                attempt = self.attempt(op, name)
            except TopologyError:  # a union that glues into a cycle
                continue
            if attempt is not None and len(attempt[1][0]) <= LIMIT:
                break
        args, values, files = attempt
        if op == "quotient":
            self.quotiented.append(self.made_by[args[0]])
        for file_name, text in files:
            self.load(file_name, text)
        self.lines.append(f"let {name} = {op}({', '.join(args)})")
        for bound, value in zip([name] + [f"{name}.{s}" for s in OPS[op].maps], values):
            self.env[bound] = value
            self.made_by[bound] = op
            self.results.append(bound)
            self.lines.append(f'emit {bound} "out/{bound}.json"')
        return op

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


SEEDS = range(200)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_pipeline_matches_naive_reference(tmp_path, seed):
    pipeline = Pipeline(seed, tmp_path)
    result = run_script(parse_script(pipeline.text()), base_dir=tmp_path)
    assert result.ok
    for bound in pipeline.results:
        value = pipeline.env[bound]
        expected = (serialize_space(value) if isinstance(value, Space)
                    else serialize_map(value))
        emitted = (tmp_path / "out" / f"{bound}.json").read_text(encoding="utf-8")
        assert emitted == expected, (bound, pipeline.text())
        if isinstance(value, SpaceMap):
            assert oracle_is_continuous(result.env[bound]), (bound, pipeline.text())


def test_pipelines_reach_every_operator_and_policy(tmp_path):
    pipelines = [Pipeline(seed, tmp_path) for seed in SEEDS]
    assert {op for p in pipelines for op in p.ops} == set(OPS)
    assert {"load", "select", "product"} <= {m for p in pipelines for m in p.quotiented}
    text = "".join(p.text() for p in pipelines)
    assert ", error)" in text and ", collapse)" in text
    assert any(e.startswith("scc:") for p in pipelines for v in p.env.values()
               if isinstance(v, Space) for e in v.elements)
