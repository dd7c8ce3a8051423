"""Workload inputs, stored references and BENCHMARK.json agree with the code."""

import json
from pathlib import Path

import layers
import run
from checker import load_reference
from workloads import WORKLOADS, is_fundamental, scatter_candidates, scatter_queries

HERE = Path(__file__).resolve().parent


def test_scatter_queries_are_seeded_distinct_and_referenced():
    reference = load_reference(HERE / "refs" / "coeff-scatter.txt")
    candidates = {q.key for q in scatter_candidates()}
    assert candidates <= set(reference)
    for seed in (0, 1, 2, 12345):
        queries = scatter_queries(seed)
        assert queries == scatter_queries(seed)
        assert len(queries) >= 100
        assert len({q.D for q in queries}) == len(queries)
        for q in queries:
            assert is_fundamental(q.D) and q.D < 0
            assert q.key in candidates
            disc = q.r * q.r - 4 * q.n * q.m
            assert disc % q.D == 0 and int(round((disc // q.D) ** 0.5)) ** 2 == disc // q.D
    assert scatter_queries(1) != scatter_queries(2)


def test_fundamental_discriminants():
    fund = [d for d in range(-30, 0) if is_fundamental(d)]
    assert fund == [-24, -23, -20, -19, -15, -11, -8, -7, -4, -3]


def test_benchmark_json_names_every_reported_metric():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.metric_units()
