"""The generators under ``tools/`` reproduce the committed data files."""

from __future__ import annotations

import importlib.util
import json
import shutil
import tracemalloc
from pathlib import Path

import pytest

from topodata import Space
from topodata.io import serialize_space

from conftest import DATA_DIR

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name: str):
    """Import a tool script by path, without running its ``main``."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_build_house_reproduces_the_golden_file():
    house = load_tool("build_house").build_house()
    expected = (DATA_DIR / "house.json").read_bytes()
    assert serialize_space(house).encode("utf-8") == expected


# -- tools/bench_pairs.py: the summary and the rule, on made-up numbers ------------

def fabricated_pairs(parent: list[float], change: list[float], key="lod_validate.wall_rel"):
    def run(value):
        return {"correct": True, "metrics": {key: {"value": value, "unit": "ratio"},
                                             "lod_validate.cli.import_s": {"value": 1.0,
                                                                           "unit": "s"}}}
    return [{"seed": i, "parent": run(p), "change": run(c)}
            for i, (p, c) in enumerate(zip(parent, change))]


PARENT = [2.0, 2.1, 2.05, 1.95, 2.02, 2.08, 1.98, 2.03, 2.01, 2.06]
LOWER = {"wall_rel": "lower", "peak_rss_mb": "lower"}


def test_bench_pairs_summary():
    tool = load_tool("bench_pairs")
    change = [p - 0.4 for p in PARENT]
    change[3] = 2.5  # one pair lost
    summary = tool.summarize(fabricated_pairs(PARENT, change), LOWER)
    assert list(summary) == ["lod_validate.wall_rel"]  # per-layer metrics are not judged
    entry = summary["lod_validate.wall_rel"]
    assert entry["parent"] == {"median": 2.025, "q1": 2.0025, "q3": 2.0575}
    assert entry["change"]["median"] == pytest.approx(1.64)
    assert entry["change_better_pairs"] == 9 and entry["pairs"] == 10
    assert entry["parent_iqr"] == pytest.approx(0.055)
    assert entry["median_change_rel"] == pytest.approx(1.64 / 2.025 - 1)
    assert tool.verdict(entry)
    # the file is rewritten after every pair, the first one included
    first = tool.summarize(fabricated_pairs(PARENT[:1], change[:1]), LOWER)
    assert first["lod_validate.wall_rel"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}


@pytest.mark.parametrize("case", ["eight wins", "within the parent's spread", "worse"])
def test_bench_pairs_rule_refuses(case):
    tool = load_tool("bench_pairs")
    change = {"eight wins": [p - 0.4 for p in PARENT[:8]] + [3.0, 3.0],
              "within the parent's spread": [p - 0.03 for p in PARENT],
              "worse": [p + 0.4 for p in PARENT]}[case]
    entry = tool.summarize(fabricated_pairs(PARENT, change), LOWER)["lod_validate.wall_rel"]
    assert not tool.verdict(entry)


def test_bench_pairs_ties_and_higher_is_better():
    tool = load_tool("bench_pairs")
    entry = tool.summarize(fabricated_pairs(PARENT, PARENT), LOWER)["lod_validate.wall_rel"]
    assert entry["change_better_pairs"] == 0 and not tool.verdict(entry)
    higher = {"wall_rel": "higher"}
    gained = tool.summarize(fabricated_pairs(PARENT, [p + 0.4 for p in PARENT]), higher)
    assert tool.verdict(gained["lod_validate.wall_rel"])
    lost = tool.summarize(fabricated_pairs(PARENT, [p - 0.4 for p in PARENT]), higher)
    assert lost["lod_validate.wall_rel"]["change_better_pairs"] == 0


def test_bench_pairs_summarizes_traced_rounds_by_layer():
    # the traced rounds are judged per layer, and a layer may read 0 on both sides
    tool = load_tool("bench_pairs")
    benchmark = json.loads((TOOLS.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    rounds = fabricated_pairs([0.0] * 5, [0.0] * 5, key="lod_validate.io.serialize_s")
    summary = tool.summarize(rounds, tool.directions(benchmark, "per_layer"))
    assert sorted(summary) == ["lod_validate.cli.import_s", "lod_validate.io.serialize_s"]
    entry = summary["lod_validate.io.serialize_s"]
    assert entry["median_change_rel"] is None and entry["change_better_pairs"] == 0
    assert summary["lod_validate.cli.import_s"]["median_change_rel"] == 0
    assert [tool.alternate(i) for i in range(3)] == [
        ["parent", "change"], ["change", "parent"], ["parent", "change"]]


def test_bench_pairs_seed_range():
    tool = load_tool("bench_pairs")
    assert tool.seed_range("51-60") == list(range(51, 61))
    assert tool.seed_range("7") == [7]


def test_bench_pairs_no_regression():
    tool = load_tool("bench_pairs")
    bound = {"wall_rel": 0.25, "peak_rss_mb": 0.05}
    within = tool.summarize(fabricated_pairs(PARENT, [p * 1.2 for p in PARENT]), LOWER)
    judged = tool.no_regression(within, bound)["lod_validate.wall_rel"]
    assert judged["bound"] == 0.25 and judged["worse_rel"] == pytest.approx(0.2)
    assert judged["holds"]
    beyond = tool.summarize(fabricated_pairs(PARENT, [p * 1.3 for p in PARENT]), LOWER)
    assert not tool.no_regression(beyond, bound)["lod_validate.wall_rel"]["holds"]
    # a better change holds, and so does any gain where higher is better
    faster = tool.summarize(fabricated_pairs(PARENT, [p * 0.5 for p in PARENT]), LOWER)
    assert tool.no_regression(faster, bound)["lod_validate.wall_rel"]["worse_rel"] < 0
    higher = tool.summarize(fabricated_pairs(PARENT, [p * 0.7 for p in PARENT]),
                            {"wall_rel": "higher"})
    judged = tool.no_regression(higher, bound)["lod_validate.wall_rel"]
    assert judged["worse_rel"] == pytest.approx(0.3) and not judged["holds"]


def test_bench_pairs_failures_and_src_lines(tmp_path):
    tool = load_tool("bench_pairs")
    pairs = fabricated_pairs(PARENT[:3], PARENT[:3])
    for i, pair in enumerate(pairs):
        pair["parent"].update(attempted=100, failed=0)
        pair["change"].update(attempted=90, failed=i)
    assert tool.failures(pairs, "parent") == {"attempted": 300, "failed": 0}
    assert tool.failures(pairs, "change") == {"attempted": 270, "failed": 3}
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (tmp_path / "src" / "b.py").write_text("z = 3", encoding="utf-8")  # no final newline
    (tmp_path / "src" / "notes.txt").write_text("not code\n", encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "c.py").write_text("w = 4\n", encoding="utf-8")
    assert tool.src_lines(tmp_path) == 2


# -- tools/scale_probe.py: a run at tiny sizes ------------------------------------

def test_scale_probe_runs_at_tiny_sizes(capsys):
    tool = load_tool("scale_probe")
    assert tool.main(["--chains", "20,40", "--grid", "3", "--star", "5", "--repeat", "2"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert list(results) == ["chain_20", "chain_40", "grid_3x3", "load_3x3", "continuity_star_5",
                             "emit_star_5", "continuity_chain_20", "continuity_chain_40",
                             "closure_chain_20", "closure_chain_40", "cycle_grid_3x3",
                             "collapse_chain_20", "collapse_chain_40", "theta_grid_3x3",
                             "quotient_grid_3x3"]
    assert results["grid_3x3"]["elements"] == results["load_3x3"]["elements"] == 49
    assert results["cycle_grid_3x3"]["elements"] == 49
    assert results["cycle_grid_3x3"]["pairs"] == results["grid_3x3"]["pairs"] + 1
    assert results["continuity_star_5"]["elements"] == 6
    assert results["continuity_star_5"]["pairs"] == results["emit_star_5"]["pairs"] == 5
    assert results["theta_grid_3x3"]["elements"] == results["quotient_grid_3x3"]["elements"] == 49
    for label, row in results.items():
        extruded = (("product", "serialize", "emit", "emit_map") if label.startswith("grid")
                    else ())
        names = (("parse_space", "load_space", "parse_map", "is_continuous")
                 if label.startswith("load") else
                 ("is_continuous",) if label.startswith("continuity") else
                 ("emit",) if label.startswith("emit") else
                 ("closure",) if label.startswith("closure") else
                 ("Space",) if label.startswith("cycle") else
                 ("quotient",) if label.startswith(("collapse", "quotient")) else
                 ("theta_join",) if label.startswith("theta") else
                 ("transitive_reduce", "select_subspace", "pullback_intersection",
                  "select_three", "intersect_three") + extruded)
        assert set(row) == {"elements", "pairs", *names}
        for name in names:
            assert row[name]["cpu_s"] >= 0 and row[name]["peak_mb"] > 0
            assert 1 <= row[name]["runs"] <= 2
    # over the limit, the longer chains are skipped and the grid still runs
    tool.main(["--chains", "20,40", "--grid", "2", "--star", "0", "--repeat", "1", "--limit", "0"])
    results = json.loads(capsys.readouterr().out)["results"]
    assert "skipped" in results["chain_40"]["transitive_reduce"]
    assert "skipped" in results["closure_chain_40"]["closure"]
    assert "cpu_s" in results["grid_2x2"]["transitive_reduce"]


def test_scale_probe_times_two_trees_in_alternation(capsys):
    tool = load_tool("scale_probe")
    root = Path(tool.__file__).resolve().parents[1]
    assert tool.main(["--chains", "20", "--grid", "2", "--star", "4", "--repeat", "3",
                      "--against", str(root)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    for label, names in (("chain_20", ("transitive_reduce", "select_subspace",
                                       "pullback_intersection")),
                         ("grid_2x2", ("product", "serialize", "emit", "emit_map")),
                         ("load_2x2", ("parse_space", "load_space", "parse_map",
                                       "is_continuous")),
                         ("continuity_star_4", ("is_continuous",)),
                         ("emit_star_4", ("emit",))):
        row = results[label]
        for name in names:
            assert row[name]["runs"] == row[name]["against"]["runs"] == 3
            assert row[name]["against"]["peak_mb"] > 0
            assert 0 <= row[name]["faster_runs"] <= 3
    assert tool.load_against(root).Space is not tool.topodata.Space


def test_scale_probe_peaks_do_not_depend_on_which_tree_goes_first():
    # an operation that allocates 2 MB the first time it runs traced, as a
    # cache filled once per process would; it must be charged to neither tree
    tool = load_tool("scale_probe")
    traced_runs = []

    def run():
        if tracemalloc.is_tracing():
            traced_runs.append(None)
            if len(traced_runs) == 1:
                bytearray(2 * 2 ** 20)

    result = tool.measure(run, tuple, 2, (run, tuple))
    assert abs(result["peak_mb"] - result["against"]["peak_mb"]) < 0.01
    assert len(traced_runs) == 4  # each tree's peak taken going first and going second


def test_scale_probe_loads_another_tree_twice():
    tool = load_tool("scale_probe")
    root = Path(tool.__file__).resolve().parents[1]
    first = tool.load_against(root)
    second = tool.load_against(root)
    assert first is not second
    assert second.io.parse_space is not first.io.parse_space
    assert second.io.Space is second.Space is not first.Space


def test_scale_probe_cycle_rows_reach_the_cycle_paths():
    tool = load_tool("scale_probe")
    ids, pairs = tool.grid(2)
    run, build = tool.cyclic_space(tool.topodata, (ids, pairs + [("g0_0", "g1_1")]))["Space"]
    run(*build())  # refused with CyclicIncidenceError
    with pytest.raises(AssertionError):
        tool.cyclic_space(tool.topodata, (ids, pairs))["Space"][0](ids, pairs)
    run, build = tool.chain_collapse(tool.topodata, tool.deep_chain(20, "C"))["quotient"]
    result, projection = run(*build())
    assert result.elements == {"scc:ends"} and len(projection.mapping) == 20


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scale_probe_coarsening_is_continuous(n, tmp_path):
    tool = load_tool("scale_probe")
    found = tool.loading(tool.topodata, n, tmp_path)
    for name in ("parse_space", "load_space"):
        run, build = found[name]
        assert run(*build()) == Space("G", *tool.grid(n))
    run, build = found["is_continuous"]
    coarse_map, = build()
    assert run(coarse_map)
    assert len(coarse_map.mapping) == (2 * n + 1) ** 2
    assert set(coarse_map.mapping.values()) == set(tool.grid(n // 2)[0])


def test_scale_probe_extrudes_the_grid_along_a_segment_chain():
    tool = load_tool("scale_probe")
    ids, pairs = tool.segments(tool.SEGMENTS)
    assert len(ids) == 9 and len(pairs) == 8
    chain = Space("S", ids, pairs)
    assert chain.dimension_histogram() == {0: 5, 1: 4}
    product, factors = tool.extrusion(tool.topodata, tool.grid(3), Path("unused"))["product"]
    extruded = product(*factors())[0]
    assert len(extruded) == 49 * 9 and extruded.space_dimension() == 3


def test_scale_probe_emits_the_projection(tmp_path):
    tool = load_tool("scale_probe")
    target = tmp_path / "projection.json"
    run, build = tool.extrusion(tool.topodata, tool.grid(2), target)["emit_map"]
    projection, = build()
    assert len(projection.mapping) == 25 * (2 * tool.SEGMENTS + 1)
    run(projection)
    assert target.read_text(encoding="utf-8") == tool.topodata.io.serialize_map(projection)


def test_scale_probe_chains_reduce_to_chains():
    tool = load_tool("scale_probe")
    ids, pairs = tool.deep_chain(50, "C")
    reduced = Space("C", ids, pairs).transitive_reduce()
    assert reduced.incidence == set(zip(ids, ids[1:]))


def test_scale_probe_star_is_continuous_under_its_identity():
    tool = load_tool("scale_probe")
    ids, pairs = tool.star(6)
    run, build = tool.continuity(tool.topodata, (ids, pairs))["is_continuous"]
    identity, = build()
    assert identity.domain == Space("S", ids, pairs) and len(identity.domain) == 7
    assert identity.domain.dimension("h") == 1 and run(identity)


def test_scale_probe_chain_rows_at_a_tiny_size():
    tool = load_tool("scale_probe")
    x, y = tool.plain_chain(5, "x"), tool.plain_chain(10, "y")
    run, build = tool.chain_map(tool.topodata, x, y)["is_continuous"]
    doubling, = build()
    assert doubling.mapping == {f"x{i}": f"y{2 * i}" for i in range(5)}
    images = {(doubling(a), doubling(b)) for a, b in doubling.domain.incidence}
    assert images and not images & doubling.codomain.incidence  # none is a direct pair
    assert run(doubling)
    ids, pairs = tool.deep_chain(9, "C")
    run, build = tool.chain_closure(tool.topodata, (ids, pairs))["closure"]
    assert run(*build()) == set(ids)  # k0 is in the subset and above every id


# -- tools/spawn_probe.py: a tiny run ------------------------------------------------

def test_spawn_probe_splits_each_invocation_into_phases(tmp_path, capsys):
    tool = load_tool("spawn_probe")
    shutil.copytree(tool.ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert tool.main(["--workload", "overlay", "--runs", "1", "--against", str(tmp_path)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert list(results) == ["uncached", "cached"]
    for mode in results.values():
        entry, = mode.values()
        assert list(mode) == ["overlay"]
        for side in ("this", "against"):
            assert entry[side]["runs"] == 1 and entry[side]["failed"] == []
            phases = [entry[side][p] for p in ("start_import_s", "command_s", "exit_s")]
            assert min(phases) > 0
            assert sum(phases) == pytest.approx(entry[side]["total_s"])
        assert set(entry["saving_s"]) == set(entry["this_faster_pairs"]) == set(tool.PHASES)
        assert set(entry["this_faster_pairs"].values()) <= {0, 1}
        assert entry["saving_rss_mb"] == pytest.approx(entry["against"]["max_rss_mb"]
                                                       - entry["this"]["max_rss_mb"])
        assert entry["this_smaller_rss_pairs"] in (0, 1)


def test_spawn_probe_alternates_the_modes_round_by_round(tmp_path, monkeypatch):
    tool = load_tool("spawn_probe")
    seen = []

    def invoke(self):
        seen.append("uncached" if "PYTHONDONTWRITEBYTECODE" in self.env else "cached")
        return {figure: 1.0 for figure in tool.FIGURES}

    monkeypatch.setattr(tool.Invoker, "invoke", invoke)
    results = tool.probe(tool.bench_run(), ["overlay"], 1, 4, {"this": tool.ROOT}, tmp_path)
    assert sorted(seen[:2]) == ["cached", "uncached"]  # the warm-ups
    assert seen[2:] == ["uncached", "cached", "cached", "uncached"] * 2
    assert list(results) == ["uncached", "cached"]
    assert all(entry["this"]["runs"] == 4 for mode in results.values() for entry in mode.values())


def test_spawn_probe_reports_the_max_rss_of_the_child_alone(capsys):
    resource = pytest.importorskip("resource")
    tool = load_tool("spawn_probe")
    # the probe's own high-water mark rises well above a child's, which Linux
    # would count in the child's max RSS, were the child spawned by the probe
    ballast = b"x" * (96 << 20)
    del ballast
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 > 96
    assert tool.main(["--workload", "overlay", "--runs", "1"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    for mode in results.values():
        assert 4 < mode["overlay"]["this"]["max_rss_mb"] < 64
