"""Layer tracing from outside the program.

Tracer wraps the public functions and methods of the dpic modules, and every
reference to them that another dpic module imported by name, in a recorder
of spans (layer, start, end, parent span).  A call into a layer from inside
the same layer (Intersection.contains calling Box.contains, Dykstra calling
Halfspace.project) belongs to the outer span, so each span is one entry
into its layer.  Spans are kept in flat arrays in memory and written out
once, by save().  A layer's self time is the time its spans cover minus the
time covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# method name -> layer, for the plant and set classes that define the method
_PLANT_METHODS = {"step": "plants.step", "output": "plants.output",
                  "pi_x": "plants.pi_x", "pi": "plants.pi",
                  "dc_gain": "plants.dc_gain", "disturbance_dc_gain": "plants.dc_gain"}
_SET_METHODS = {"contains": "sets.contains", "project": "sets.project",
                "margin": "sets.margin", "bounding_box": "sets.bounding_box",
                "halfspace_rows": "sets.halfspace_rows"}


def _targets():
    """(owner, attribute, layer) for every traced callable."""
    from dpic import cli, config, controller, metric, plants, sets, simulation, vi

    out = []
    for cls in (plants.PlantModel, plants.LTIPlant, plants.FourTankPlant):
        out += [(cls, a, layer) for a, layer in _PLANT_METHODS.items() if a in vars(cls)]
    out.append((plants, "davison_check", "plants.davison_check"))
    for cls in (controller.DPIController, controller.ClassicalIntegralController):
        out += [(cls, a, f"controller.{a}") for a in ("step", "clone", "with_gains")
                if a in vars(cls)]
    for cls in (sets.Box, sets.Halfspace, sets.Ball, sets.Polyhedron,
                sets.Intersection, sets.LinearPreimage):
        out += [(cls, a, layer) for a, layer in _SET_METHODS.items() if a in vars(cls)]
    out += [(sets, "normal_cone_residual", "sets.normal_cone"),
            (sets, "sample_points", "sets.sample_points")]
    out += [(metric.Metric, a, f"metric.{a}") for a in ("norm", "inner", "whiten", "solve")]
    out.append((vi.VIProblem, "value", "vi.value"))
    out += [(vi, a, f"vi.{a}") for a in ("fb_map", "fb_damped_map", "natural_residual",
                                         "contraction_constants", "solve_vi",
                                         "estimate_mu_L")]
    out += [(simulation, a, f"simulation.{a}")
            for a in ("simulate", "change_of_coordinates", "classify_convergence",
                      "fit_decay_rate", "gain_sweep")]
    out += [(config, a, f"config.{a}") for a in ("load_config", "build_setup")]
    out += [(cli, a, "cli") for a in ("main", "cmd_simulate", "cmd_sweep", "cmd_certify")]
    return out


class Tracer:
    """Context manager that patches dpic on entry, restores it on exit and
    records spans in between."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]        # open span ids
        self._stack_layer = [-1]  # their layer ids
        self._patches: list[tuple[object, str, object]] = []
        # projection telemetry from ProjectionResult, VISolution and errors
        self.iterative_projections = 0
        self.projection_cycles = 0
        self.max_projection_residual = 0.0
        self.projection_errors = 0
        self.vi_iterations = 0

    def _layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def _on_projection(self, result) -> None:
        if result.iterations > 0:
            self.iterative_projections += 1
            self.projection_cycles += int(result.iterations)
            self.max_projection_residual = max(self.max_projection_residual,
                                               float(result.residual))

    def _on_vi(self, result) -> None:
        self.vi_iterations += int(result.iterations)

    def _wrap(self, name: str, fn):
        from dpic.sets import ProjectionError

        lid = self._layer_id(name)
        on_result = {"sets.project": self._on_projection,
                     "vi.solve_vi": self._on_vi}.get(name)
        counts_errors = name == "sets.project"
        stack, stack_layer = self._stack, self._stack_layer
        layer, parent, start, end = self.layer, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack_layer[-1] == lid:
                return fn(*args, **kwargs)
            sid = len(start)
            layer.append(lid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            stack_layer.append(lid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ProjectionError:
                if counts_errors:
                    self.projection_errors += 1
                raise
            finally:
                end[sid] = perf_counter()
                start[sid] = t0
                stack.pop()
                stack_layer.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for owner, attr, name in _targets():
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if inspect.ismodule(owner):
                wrapped[id(original)] = (original, wrapper)
        # references that a dpic module imported by name (cli's simulate, ...)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "dpic" or mod_name.startswith("dpic.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # analysis

    def arrays(self):
        layer = np.frombuffer(self.layer, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        return layer, parent, start, end

    def summary(self) -> dict[str, dict]:
        """Per layer: calls, self_s, and inclusive span durations in seconds."""
        layer, parent, start, end = self.arrays()
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=len(duration))
        self_time = duration - child_time
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        out = {}
        for lid, name in enumerate(self.layers):
            mask = layer == lid
            out[name] = {
                "calls": int(np.count_nonzero(mask)),
                "self_s": float(self_time[mask].sum()),
                "durations": duration[mask],
                "parent_layers": parent_layer[mask],
            }
        return out

    def save(self, path: Path) -> Path:
        layer, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            np.savez_compressed(fh, layers=np.array(self.layers), layer=layer,
                                parent=parent, start=start, end=end)
        return path
