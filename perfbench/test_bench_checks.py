"""The benchmark's checks accept genuine results and reject corrupted ones.

Each test runs a workload round on small instances of the same kind
(q = 5 and 25 for the Betti check, q = 7 for the link check, three grid
cells), checks that the genuine result passes, then corrupts one value at
a time and checks that it fails.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_betti, check_grid, check_link  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import METRICS  # noqa: E402
from workloads import WORKLOADS, Round, parse_inputs, run_round  # noqa: E402

ALT4 = "x^3*y - x*y^3 + x^3*z - x*z^3 - y*z^3"
CYC3 = "x*y^2 + y*z^2 + z*x^2"
CYC4 = "x*y^3 + y*z^3 + z*x^3"


def _round(workload, inputs):
    rnd = Round()
    results = run_round(workload, inputs, parse_inputs(workload, inputs), rnd)
    rnd.finish()
    assert rnd.failed == 0, rnd.errors
    return results


@pytest.fixture(scope="module")
def betti():
    inputs = {
        "instances": [
            {"name": "alt4", "p": 5, "f": ALT4, "qs": [5], "profile_q": None, "tail_q": 5},
            {"name": "cyc3", "p": 5, "f": CYC3, "qs": [25, 5], "profile_q": 25, "tail_q": None},
        ]
    }
    return _round("betti-q2", inputs)


@pytest.fixture(scope="module")
def link():
    return _round("link-q49", {"name": "cyc4", "p": 7, "q": 7, "f": CYC4})


@pytest.fixture(scope="module")
def grid():
    inputs = {
        "cells": [
            {"p": 5, "q": 5, "d": 2, "seeds": [1]},
            {"p": 7, "q": 7, "d": 3, "seeds": [1]},
            {"p": 7, "q": 7, "d": 4, "seeds": [1]},
        ],
        "tails": [{"name": "cyc4", "p": 7, "q": 7, "f": CYC4}],
    }
    return _round("grid-qp", inputs)


def _corrupt(results, edit):
    bad = copy.deepcopy(results)
    edit(bad)
    return bad


def test_genuine_results_pass(betti, link, grid):
    assert check_betti(betti) == []
    assert check_link(link) == []
    assert check_grid(grid) == []


def test_betti_number_raised_by_one(betti):
    cases = 0
    for k, inst in enumerate(betti["instances"]):
        for qs, entries in inst["tables"].items():
            for e in range(len(entries)):

                def edit(r, k=k, qs=qs, e=e):
                    r["instances"][k]["tables"][qs][e][2] += 1

                assert check_betti(_corrupt(betti, edit)), (inst["name"], qs, entries[e])
                cases += 1
    assert cases >= 20


def test_hk_value_off_by_one(betti, link, grid):
    def betti_edit(r):
        r["instances"][1]["hk"]["25"]["direct"] += 1

    def link_edit(r):
        r["hk"]["direct"] -= 1

    def grid_edit(r):
        r["instances"][0]["hk"]["direct"] += 1

    assert check_betti(_corrupt(betti, betti_edit))
    assert check_link(_corrupt(link, link_edit))
    assert check_grid(_corrupt(grid, grid_edit))


def test_profile_count_changed(betti, link):
    for key in ("fast", "thorough"):
        for degree in link[key]:

            def edit(r, key=key, degree=degree):
                r[key][degree] += 1

            assert check_link(_corrupt(link, edit)), (key, degree)

    def betti_edit(r):
        counts = r["instances"][1]["profile"]["counts"]
        counts[max(counts, key=int)] += 1

    assert check_betti(_corrupt(betti, betti_edit))


def test_socle_degree_moved(link, grid):
    def link_edit(r):
        (deg, dim), = r["socle"].items()
        r["socle"] = {str(int(deg) + 1): dim}

    assert check_link(_corrupt(link, link_edit))
    for k in range(len(grid["instances"])):
        for key in ("socle_direct", "socle_via_link"):

            def edit(r, k=k, key=key):
                dims = r["instances"][k][key]
                top = max(dims, key=int)
                dims[str(int(top) + 1)] = dims.pop(top)

            assert check_grid(_corrupt(grid, edit)), (k, key)


def test_strand_series_and_tail_corruptions(grid):
    def boundary(r):
        r["instances"][1]["strand"][-1] += 1

    def below(r):
        r["instances"][0]["strand"][0] = 1

    def series(r):
        r["instances"][0]["series"] = False

    def mf(r):
        r["tails"][0]["mf"]["verified"] = False

    def pfaffian(r):
        r["tails"][0]["certified"] = False

    for edit in (boundary, below, series, mf, pfaffian):
        assert check_grid(_corrupt(grid, edit)), edit.__name__


def test_benchmark_json_registers_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == METRICS
