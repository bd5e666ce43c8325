"""Workload ``fleet``: a 4-granule campaign on two process workers, then ``to_l3``.

Each timed iteration builds a ``CampaignRunner`` over a fresh, empty cache
directory, runs the campaign, grids and mosaics it with ``to_l3`` and closes
the runner's pool.  Every iteration must give the same labels and mosaic bytes.  The traced
run also runs the fleet once at ``n_workers=1`` and once more in parallel
with spans around ``run`` and ``to_l3``; both must equal the timed runs.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from harness import Outcome, Spans, Workspace, derived_seed, median, timed_loop
from repro.campaign import CampaignConfig, CampaignRunner
from repro.surface.scene import SceneConfig
from repro.workflow.experiment import ExperimentConfig


@dataclass
class State:
    config: CampaignConfig
    ws: Workspace


def setup(workload: str, seed: int, ws: Workspace, spans: Spans) -> State:
    base = ExperimentConfig(
        scene=SceneConfig(width_m=8_000.0, height_m=8_000.0),
        n_beams=3,
        model_kind="mlp",
        epochs=5,
    )
    config = CampaignConfig(
        base=base,
        grid={"season": ("spring", "freeze_up"), "cloud_fraction": (0.1, 0.3)},
        seed=derived_seed(seed, 1),
        n_workers=2,
        executor="process",
    )
    return State(config=config, ws=ws)


def close(state: State) -> None:
    """Every iteration closes its own runner."""


def _dir_bytes(path: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


def _campaign(state: State, spans: Spans, n_workers: int) -> dict[str, Any]:
    """One campaign in a fresh cache dir; returns what the checks compare."""
    cache_dir = state.ws.mkdtemp("fleet-cache-")
    config = replace(state.config, n_workers=n_workers, cache_dir=str(cache_dir))
    try:
        t0 = time.perf_counter()
        runner = CampaignRunner(config)
        try:
            with spans.span("campaign.run", n_workers=n_workers):
                result = runner.run()
            with spans.span("campaign.to_l3", n_workers=n_workers):
                l3 = runner.to_l3(result)
        finally:
            runner.close()
        wall = time.perf_counter() - t0
        cache_bytes = _dir_bytes(cache_dir)
    finally:
        state.ws.remove(cache_dir)
    return {
        "wall_s": wall,
        "labels": {
            (g.granule_id, beam): track.labels
            for g in result.granules
            for beam, track in g.products.classified.items()
        },
        "mosaic": {name: layer.tobytes() for name, layer in l3.mosaic.variables.items()},
        "accuracy": float(result.metrics.accuracy),
        "stage_misses": len(result.stage_misses) + len(l3.stage_misses),
        "cache_bytes": cache_bytes,
    }


def _compare(out: Outcome, got: dict[str, Any], want: dict[str, Any], label: str) -> None:
    out.check(got["labels"].keys() == want["labels"].keys(), f"{label}: granules/beams differ")
    for key, labels in want["labels"].items():
        out.check(
            np.array_equal(got["labels"].get(key), labels), f"{label}: labels differ on {key}"
        )
    out.check(got["mosaic"] == want["mosaic"], f"{label}: mosaic bytes differ")


def run(state: State, seconds: float, spans: Spans) -> Outcome:
    out = Outcome()
    results: list[dict[str, Any]] = []
    untraced = Spans(spans.run_id, enabled=False)

    def one(_: int) -> float:
        out.attempted += state.config.n_granules
        results.append(_campaign(state, untraced, state.config.n_workers))
        return results[-1]["wall_s"]

    walls = timed_loop(seconds, one)
    wall_s = median(walls)
    first = results[0]
    for i, later in enumerate(results[1:], start=1):
        _compare(out, later, first, f"iteration {i} vs 0")
    accuracy = first["accuracy"]
    out.check(0.0 < accuracy <= 1.0, f"accuracy {accuracy} outside (0, 1]")
    out.end_to_end = {
        "latency_p50_ms": wall_s * 1e3,
        "latency_tail_ms": max(walls) * 1e3,
    }

    if not spans.enabled:
        return out
    out.attempted += state.config.n_granules
    serial = _campaign(state, spans, 1)
    _compare(out, serial, first, "serial vs parallel")
    out.attempted += state.config.n_granules
    traced = _campaign(state, spans, state.config.n_workers)
    _compare(out, traced, first, "traced vs untraced")
    parallel_spans = [s for s in spans.spans if s.attrs.get("n_workers") == state.config.n_workers]
    run_span = next(s for s in parallel_spans if s.name == "campaign.run")
    l3_span = next(s for s in parallel_spans if s.name == "campaign.to_l3")
    serial_wall = serial["wall_s"]
    out.per_layer.update(
        {
            "science.accuracy": accuracy,
            "campaign.run.wall_s": run_span.wall_s,
            "campaign.to_l3.wall_s": l3_span.wall_s,
            "campaign.serial.wall_s": serial_wall,
            "campaign.speedup": serial_wall / wall_s,
            "campaign.stage_misses": float(first["stage_misses"]),
            "pipeline.cache_bytes": float(first["cache_bytes"]),
            "trace.overhead_s": traced["wall_s"] - wall_s,
        }
    )
    return out
