"""The benchmark's tracer (bench/tracing.py) patches dpic callables that it
looks up by name, so a traced name removed from dpic fails here."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _dpic_names():
    return {(name, attr): value for name, module in list(sys.modules.items())
            if name == "dpic" or name.startswith("dpic.") for attr, value in vars(module).items()}


def test_the_tracer_patches_every_traced_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    targets = tracing._targets()
    assert len(targets) == 42
    originals = [vars(owner)[attr] for owner, attr, _ in targets]
    before = _dpic_names()
    with tracing.Tracer():
        assert all(vars(owner)[attr] is not original
                   for (owner, attr, _), original in zip(targets, originals))
    assert all(vars(owner)[attr] is original
               for (owner, attr, _), original in zip(targets, originals))
    after = _dpic_names()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_a_four_tank_simulate_enters_each_traced_layer_once_per_step(monkeypatch):
    # the tracer counts plant and projection work at these entry points: one
    # step per live step (883 of the 1100; the rest copy a settled step), one
    # output per live step and one more for the record, and one projection
    # per step whose forward step left Gamma
    from dpic import FourTankPlant, LinearPreimage, build_setup, preset_config, simulate

    scenario = build_setup(preset_config("four-tank")).scenario
    counts = {}
    for owner, attr in ((FourTankPlant, "step"), (FourTankPlant, "output"),
                        (LinearPreimage, "project")):
        def counted(*args, _real=vars(owner)[attr], _attr=attr):
            counts[_attr] = counts.get(_attr, 0) + 1
            return _real(*args)
        monkeypatch.setattr(owner, attr, counted)
    simulate(scenario)
    assert counts == {"output": 884, "step": 883, "project": 465}


def test_a_four_tank_sweep_steps_each_live_row_once_and_no_settled_one(monkeypatch):
    # the preset's 15 grid points x 4000 steps: 3951 lockstep plant steps over
    # 18,037 live rows (the other row-steps repeat a settled step and are
    # never stepped again), one output per lockstep step and one more per
    # point's record, and one projection per step that some row's forward
    # step left Gamma
    from dpic import FourTankPlant, LinearPreimage, build_setup, gain_sweep, preset_config

    spec = build_setup(preset_config("four-tank")).sweep
    counts = {}
    for owner, attr in ((FourTankPlant, "step"), (FourTankPlant, "output"),
                        (LinearPreimage, "project")):
        def counted(*args, _real=vars(owner)[attr], _attr=attr):
            counts[_attr] = counts.get(_attr, 0) + 1
            if _attr == "step":
                counts["rows"] = counts.get("rows", 0) + len(args[1])
            return _real(*args)
        monkeypatch.setattr(owner, attr, counted)
    gain_sweep(spec["scenario"], spec["T_i"], spec["lambda"])
    assert counts == {"output": 3966, "step": 3951, "rows": 18037, "project": 383}
