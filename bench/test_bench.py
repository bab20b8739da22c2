"""Tests of the benchmark itself, run from the root of the repository:

    python3 -m pytest bench -q

Workloads run at reduced size: polytope-lti with 100-step segments, the
sweep on a 2 x 2 grid; the four-tank simulation is short enough to run whole.
"""

from __future__ import annotations

import json
import re

import pytest

import run
from workloads import check_polytope_lti, polytope_lti_config

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

run.load_dpic()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Per workload: (work dir, per-layer metrics, detail) of a reduced traced run."""
    cache = {}

    def get(name):
        if name not in cache:
            work = tmp_path_factory.mktemp(name)
            op = run.Operation(name, 3, work, reduced=True)
            metrics, detail = run.measure_traced(op, 0.0, work, 3)
            cache[name] = (work, metrics, detail)
        return cache[name]

    return get


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert names and len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_reduced_workload_passes_checks(name, tmp_path):
    op = run.Operation(name, 5, tmp_path, reduced=True)
    out = run.fresh_dir(tmp_path / "out")
    assert op.check(op.run(out), out) == []


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name, traced):
    _, metrics, detail = traced(name)
    assert [p["errors"] for p in detail["pairs"]] == [{"untraced": [], "traced": []}]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["controller.step.calls"][0] > 0
    assert metrics["sets.project.errors"][0] == 0


@pytest.mark.parametrize("name, low, high", [("four-tank-sweep", 0.0, 0.05),
                                             ("four-tank-sim", 0.3, 1.0),
                                             ("polytope-lti", 0.3, 1.0)])
def test_projection_fraction_is_an_input_property(name, low, high, traced):
    _, metrics, _ = traced(name)
    assert low <= metrics["sets.project.frac"][0] < high


def test_traced_run_leaves_trajectory_unchanged(traced):
    work, _, _ = traced("four-tank-sim")
    plain = (work / "out" / "trajectory.csv").read_bytes()
    assert plain and plain == (work / "out-traced" / "trajectory.csv").read_bytes()


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    op = run.Operation("polytope-lti", 2, tmp_path, reduced=True)
    metrics, detail = run.measure(op, 0.0, tmp_path)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0.0 for value, _ in metrics.values())
    assert len(detail["ops"]) == 1 and detail["ops"][0]["errors"] == []


def test_polytope_config_is_seeded_and_reproducible(tmp_path):
    cfg = polytope_lti_config(7, segment=100)
    assert cfg == polytope_lti_config(7, segment=100)
    assert cfg["plant"]["A"] != polytope_lti_config(8, segment=100)["plant"]["A"]
    op = run.Operation("polytope-lti", 7, tmp_path, reduced=True)
    assert json.loads(open(op.source[1]).read()) == cfg
    first, second = run.fresh_dir(tmp_path / "a"), run.fresh_dir(tmp_path / "b")
    assert op.run(first) == 0 and op.run(second) == 0
    assert op.outputs(first) == op.outputs(second)


def test_polytope_property_is_enforced():
    cfg = polytope_lti_config(0, segment=100)
    diagonal = dict(cfg, metric=[[float(i == j) for j in range(4)] for i in range(4)])
    with pytest.raises(ValueError):
        check_polytope_lti(diagonal)
    fewer_rows = dict(cfg, constraint={"type": "polyhedron", "A": cfg["constraint"]["A"][:19],
                                       "b": cfg["constraint"]["b"][:19]})
    with pytest.raises(ValueError):
        check_polytope_lti(fewer_rows)
