"""Workload ``granule``: one quickstart-sized granule through the stage graph.

Untraced, each timed iteration is one ``GraphRunner`` run of the default
graph (no stage cache) materialising the freeboard, ATL10, tile-pyramid and
granule-metrics targets.  The traced pass calls the graph's stage functions
itself, in topological order with one ``StageContext``, and times each call
as the layer it enters; its outputs must equal the ``GraphRunner`` outputs.
Every run checks that its timed iterations agree; the traced pass and its
check run in traced runs only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from harness import GRANULE_LAYERS, Outcome, Spans, Workspace, derived_seed, median, timed_loop
from repro.pipeline import GraphRunner, StageContext, default_graph
from repro.surface.scene import SceneConfig
from repro.workflow.experiment import ExperimentConfig

TARGETS = ("freeboard", "atl10", "l3_pyramid", "granule_metrics")

#: The repo's kernel-equivalence tolerance, used for float products.
TOLERANCE = 1e-10


@dataclass
class State:
    config: ExperimentConfig
    runner: GraphRunner


def setup(workload: str, seed: int, ws: Workspace, spans: Spans) -> State:
    config = ExperimentConfig(
        scene=SceneConfig(
            width_m=15_000.0,
            height_m=15_000.0,
            open_water_fraction=0.12,
            thin_ice_fraction=0.18,
            thick_ice_fraction=0.70,
        ),
        n_beams=1,
        model_kind="lstm",
        epochs=5,
        seed=derived_seed(seed, 0),
    )
    return State(config=config, runner=GraphRunner(default_graph()))


def close(state: State) -> None:
    """Nothing to release: the serial runner owns no pool."""


def traced_pass(state: State, spans: Spans) -> dict[str, Any]:
    """The graph's stage calls, one span per layer; returns every artifact."""
    graph = state.runner.graph
    context = StageContext(config=state.config)
    artifacts: dict[str, Any] = {}
    with spans.span("granule.traced"):
        for stage in graph.required_stages(TARGETS):
            inputs = {name: artifacts[name] for name in stage.inputs}
            with spans.span(GRANULE_LAYERS[stage.name], stage=stage.name):
                artifacts.update(stage.fn(context, **inputs))
    return artifacts


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    if a.dtype.kind in "iub":
        return bool(np.array_equal(a, b))
    return bool(np.allclose(a, b, rtol=0.0, atol=TOLERANCE, equal_nan=True))


def compare(out: Outcome, got: dict[str, Any], want: dict[str, Any], label: str) -> None:
    """Class labels exactly, freeboard and L3 layers within the tolerance."""
    beams = sorted(want["freeboard"])
    out.check(sorted(got["freeboard"]) == beams, f"{label}: beams differ")
    for beam in beams:
        g, w = got["freeboard"][beam], want["freeboard"][beam]
        out.check(np.array_equal(g.labels, w.labels), f"{label}: class labels differ on {beam}")
        out.check(_close(g.freeboard_m, w.freeboard_m), f"{label}: freeboard differs on {beam}")
        g10, w10 = got["atl10"][beam], want["atl10"][beam]
        out.check(_close(g10.freeboard_m, w10.freeboard_m), f"{label}: ATL10 differs on {beam}")
    gp, wp = got["l3_pyramid"], want["l3_pyramid"]
    out.check(gp.n_levels == wp.n_levels, f"{label}: pyramid depth differs")
    for gl, wl in zip(gp.levels, wp.levels):
        for name, layer in wl.variables.items():
            out.check(
                _close(gl.variables[name], layer),
                f"{label}: L3 layer {name} differs at zoom {wl.zoom}",
            )
    out.check(
        got["granule_metrics"].accuracy == want["granule_metrics"].accuracy,
        f"{label}: accuracy differs",
    )


def run(state: State, seconds: float, spans: Spans) -> Outcome:
    out = Outcome()
    results: list[dict[str, Any]] = []

    def one(_: int) -> float:
        out.attempted += 1
        t0 = time.perf_counter()
        result = state.runner.run(state.config, targets=TARGETS)
        wall = time.perf_counter() - t0
        results.append({name: result.value(name) for name in TARGETS})
        return wall

    walls = timed_loop(seconds, one)
    wall_s = median(walls)
    first = results[0]
    for i, later in enumerate(results[1:], start=1):
        compare(out, later, first, f"iteration {i} vs 0")

    accuracy = float(first["granule_metrics"].accuracy)
    out.check(0.0 < accuracy <= 1.0, f"accuracy {accuracy} outside (0, 1]")
    out.end_to_end = {
        "latency_p50_ms": wall_s * 1e3,
        "latency_tail_ms": max(walls) * 1e3,
    }

    if not spans.enabled:
        return out
    artifacts = traced_pass(state, spans)
    compare(out, artifacts, first, "traced stages vs GraphRunner")
    traced = spans.named("granule.traced")[0].wall_s
    layer_sum = 0.0
    for layer in GRANULE_LAYERS.values():
        span = spans.named(layer)[0]
        out.per_layer[f"{layer}.wall_s"] = span.wall_s
        out.per_layer[f"{layer}.cpu_s"] = span.cpu_s
        layer_sum += span.wall_s
    out.per_layer["science.accuracy"] = accuracy
    out.per_layer["pipeline.orchestration_s"] = wall_s - layer_sum
    out.per_layer["trace.layer_share"] = layer_sum / wall_s
    out.per_layer["trace.overhead_s"] = traced - wall_s
    out.per_layer["resampling.segments"] = float(
        sum(seg.n_segments for seg in artifacts["segments"].values())
    )
    out.per_layer["classification.train_samples"] = float(
        artifacts["training_set"].n_segments
    )
    return out
