"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Golden values
for the overlay worked example are asserted exactly; the randomized
criteria run seeded, so every run checks the same instances.
"""

from __future__ import annotations

import random
import time

from topodata import (
    Space,
    SpaceMap,
    ThetaRelation,
    enumerate_topology,
    find_homeomorphism,
    is_continuous,
    is_homeomorphism,
    oracle_find_homeomorphism,
    oracle_is_continuous,
    pair_id,
    product,
    select_subspace,
    theta_join,
)
from topodata.io import load_space, serialize_space

from conftest import (
    DATA_DIR,
    THETA_PAIRS,
    X_FIGURE,
    X_NAMED,
    Y_FIGURE,
    Y_NAMED,
    random_layered_space,
    random_space,
    random_total_map,
)
from naive import axiom_violations, naive_preorder, naive_theta_join


def report(number: int, ok: bool, text: str) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {number:02d}: {text}"


def named_spaces():
    return Space(*X_NAMED), Space(*Y_NAMED)


def figure_spaces():
    return Space(*X_FIGURE), Space(*Y_FIGURE)


def overlay_theta():
    return ThetaRelation(THETA_PAIRS, left_name="X", right_name="Y")


def test_c01_overlay_golden():
    started = time.perf_counter()
    x, y = figure_spaces()
    join, _, _ = theta_join(x, y, overlay_theta())
    bb = pair_id("B", "b")
    boundary = {pair_id("B", "x"), pair_id("e", "b"),
                pair_id("f", "b"), pair_id("g", "b")}
    prod, _, _ = product(x, y)
    ok = (len(join) == 14
          and join.closure({bb}) - {bb} == boundary
          and join.dimension(bb) == 1
          and all(join.dimension(v) == 0 for v in boundary)
          and prod.dimension(pair_id("e", "b")) == 2)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    report(1, ok, f"overlay join golden values ({elapsed:.3f}s)")


def test_c02_product_incidence_golden():
    x, y = named_spaces()
    prod, pleft, pright = product(x, y)
    entries = {(a, b) for a, b in prod.incidence
               if pright(a) == "C" and pright(b) == "c"}
    expected = {(pair_id(t, "C"), pair_id(t, "c")) for t in x.elements}
    ok = entries == expected and len(entries) == 6
    report(2, ok, "product incidence lifts one right pair to exactly six pairs")


def test_c03_projection_continuity():
    x, y = figure_spaces()
    _, pleft, pright = theta_join(x, y, overlay_theta())
    guard = 14
    ok = (bool(is_continuous(pleft)) and bool(is_continuous(pright))
          and oracle_is_continuous(pleft, guard)
          and oracle_is_continuous(pright, guard))
    report(3, ok, "both overlay projections continuous, fast path and oracle")


def test_c04_near_product_matrix():
    x, y = figure_spaces()
    prod, _, _ = product(x, y)
    window = {pair_id(t, u) for t in ("B", "e", "f", "g") for u in ("C", "b", "x")}
    restricted, _ = select_subspace(prod, window)
    kept_ids = {pair_id(a, b) for a, b in THETA_PAIRS
                if pair_id(a, b) in window}
    joined, _ = select_subspace(restricted, kept_ids)

    bb = pair_id("B", "b")
    bold = {(bb, pair_id("B", "x")), (bb, pair_id("e", "b")),
            (bb, pair_id("f", "b")), (bb, pair_id("g", "b"))}
    struck = {(pair_id("e", "b"), pair_id("e", "x")),
              (pair_id("f", "b"), pair_id("f", "x")),
              (pair_id("g", "b"), pair_id("g", "x")),
              (pair_id("B", "x"), pair_id("e", "x")),
              (pair_id("B", "x"), pair_id("f", "x")),
              (pair_id("B", "x"), pair_id("g", "x"))}
    from_bb = {pair for pair in joined.incidence if pair[0] == bb}
    ok = (from_bb == bold
          and struck <= restricted.incidence
          and not struck & joined.incidence)
    report(4, ok, "near-product window keeps the four pairs and drops the struck six")


def test_c05_continuity_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20260810)
    checked = 0
    while checked < 500:
        x = random_space(rng, max_elements=8, name="X", min_elements=1)
        y = random_space(rng, max_elements=8, name="Y", min_elements=1)
        style = rng.random()
        if style < 0.15:
            target = rng.choice(sorted(y.elements))
            f = SpaceMap(x, y, {e: target for e in x.elements})
        else:
            f = random_total_map(rng, x, y)
        if bool(is_continuous(f)) != oracle_is_continuous(f):
            report(5, False, f"disagreement on instance {checked} (seed 20260810)")
        checked += 1
    elapsed = time.perf_counter() - started
    report(5, elapsed < 30.0,
           f"{checked} random maps agree with the open-preimage oracle ({elapsed:.1f}s)")


def test_c06_alexandrov_axioms():
    rng = random.Random(606)
    for trial in range(200):
        space = random_space(rng, max_elements=10, name="S",
                             edge_chance=rng.uniform(0.15, 0.6))
        violations = axiom_violations(space, enumerate_topology(space))
        if violations:
            report(6, False, f"axiom violation on trial {trial} (seed 606): "
                             f"{violations[0]}")
    report(6, True, "200 random spaces satisfy the axioms, arbitrary meets included")


def test_c07_dimension_additivity():
    rng = random.Random(707)
    for trial in range(200):
        x = random_space(rng, max_elements=8, name="X")
        y = random_space(rng, max_elements=8, name="Y")
        prod, _, _ = product(x, y)
        for a in x.elements:
            for b in y.elements:
                if prod.dimension(pair_id(a, b)) != x.dimension(a) + y.dimension(b):
                    report(7, False, f"additivity broken on trial {trial} at ({a},{b})")
    report(7, True, "200 random products have additive element dimensions")


def test_c08_house_model():
    house = load_space(DATA_DIR / "house.json")
    histogram = house.dimension_histogram()
    ok = (histogram == {0: 12, 1: 20, 2: 11, 3: 2}
          and len(house) == 45
          and house.space_dimension() == 3)
    report(8, ok, f"house file: {len(house)} elements, dimensions {histogram}")


def test_c09_homeomorphism_vs_exhaustive():
    rng = random.Random(909)
    for trial in range(100):
        x = random_space(rng, max_elements=7, name="A")
        if trial % 2:
            new_ids = [f"B{i}" for i in range(len(x.elements))]
            rng.shuffle(new_ids)
            rename = dict(zip(sorted(x.elements), new_ids))
            y = Space("B", new_ids, [(rename[a], rename[b]) for a, b in x.incidence])
        else:
            y = random_space(rng, max_elements=7, name="B")
        pruned = find_homeomorphism(x, y)
        exhaustive = oracle_find_homeomorphism(x, y)
        if (pruned is None) != (exhaustive is None):
            report(9, False, f"search disagreement on trial {trial} (seed 909)")
        if pruned is not None:
            inverse = SpaceMap(y, x, {v: k for k, v in pruned.mapping.items()})
            if not is_homeomorphism(pruned, inverse):
                report(9, False, f"found map is not a homeomorphism on trial {trial}")
    report(9, True, "100 random pairs agree with unpruned exhaustive search")


def test_c10_monotonicity():
    rng = random.Random(1010)
    for trial in range(200):
        coarse = random_space(rng, max_elements=8, name="S",
                              edge_chance=rng.uniform(0.2, 0.6))
        strict = sorted(p for p in naive_preorder(coarse) if p[0] != p[1])
        finer = Space("R", coarse.elements,
                      [p for p in strict if rng.random() < 0.5])
        coarse_family = set(enumerate_topology(coarse))
        finer_family = set(enumerate_topology(finer))
        if not coarse_family <= finer_family:
            report(10, False, f"monotonicity broken on trial {trial} (seed 1010)")
    report(10, True, "200 instances: finer relations keep every coarser open set open")


def test_c11_join_equals_naive_selection():
    rng = random.Random(1111)
    for trial in range(100):
        if trial % 5 < 3:
            nx = rng.randint(1, 100)
            ny = rng.randint(1, min(100, 10_000 // nx))
            x = random_layered_space(rng, nx, name="X")
            y = random_layered_space(rng, ny, name="Y")
        else:
            x = random_space(rng, max_elements=12, name="X", min_elements=1)
            y = random_space(rng, max_elements=12, name="Y", min_elements=1)
        xs, ys = sorted(x.elements), sorted(y.elements)
        theta = ThetaRelation({(rng.choice(xs), rng.choice(ys))
                               for _ in range(rng.randint(0, 30))})
        fast_space, fast_left, fast_right = theta_join(x, y, theta)
        slow_space, slow_left, slow_right = naive_theta_join(x, y, theta)
        if not (fast_space == slow_space
                and serialize_space(fast_space) == serialize_space(slow_space)
                and fast_left == slow_left and fast_right == slow_right):
            report(11, False, f"join mismatch on trial {trial} (seed 1111)")
    report(11, True, "100 instances: product-avoiding join equals naive selection")
