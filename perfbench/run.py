#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ATL03 sea-ice system.

Run from the root of a checkout (Python 3.10+ and NumPy; nothing to build):

    python3 perfbench/run.py --workload granule --seed 0 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2.  Every input (configs, synthetic Level-3
products, request streams, arrival times) is generated from ``--seed``; the
program receives only those inputs.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with the
benchmark's tracing off and the program as shipped (default ``repro.obs``
on); with ``--trace 1`` they are the per-layer ones, and the spans are
written as Chrome trace_event JSON under ``.perfbench/traces/``.  The line
before the result carries the machine fingerprint (nproc, Python, NumPy,
BLAS, thread settings, kernel backend); the per-layer table (calls, wall,
self and CPU seconds per span) goes to stderr.

Output checks run outside the timed phase; a failed check makes
``correct`` false.  Every run closes its pools and then checks that no
child process, ``/dev/shm`` segment or scratch directory was left behind.

Workloads
---------
granule
    One quickstart-sized granule (15 km scene, 1 beam, LSTM, 5 epochs, no
    stage cache) per ``GraphRunner`` run of the default graph, targets
    freeboard, atl10, l3_pyramid and granule_metrics; at least two runs.
    Why: the ledger workload.  Scene, S2 rendering and training take ~85 %
    of it; the serve, ingest and campaign layers do nothing.  Check: runs
    agree, and in traced runs the stage-by-stage pass equals the
    GraphRunner outputs (labels exactly, freeboard and L3 layers within
    1e-10).
fleet
    A 4-granule ``CampaignRunner`` campaign (2 seasons x 2 cloud fractions,
    8 km scenes, 3 beams, MLP) on ``n_workers=2`` process workers with a
    fresh empty ``cache_dir`` per run, then ``to_l3()``; at least two runs.
    Why: the paper's map-reduce path.  Resample, drift, process fan-out and
    stage-cache writes carry the weight and LSTM training does nothing, so
    a training gain on ``granule`` should show no change here.  Check: runs
    give the same labels and mosaic bytes, and in traced runs so does the
    same fleet at ``n_workers=1``.
serve_read
    Eight regional npz mosaics of 320x320 cells behind
    ``ServeHandle.with_router()`` (2 shards, default 512-tile LRU per
    shard).  Open loop: Poisson arrivals at 150 req/s for ``--seconds``;
    each read is one tile, Zipf (s=1.1) over four hot regions whose tiles
    all stay in the LRUs warmed in set-up, uniform over 4 variables, zooms
    0-2 and tiles.  One cold read every 0.25 s (2.7 % of reads) asks for a
    tile of the four cold regions that no read asked for before, so it
    misses and decodes its product on the event loop; cold reads are
    periodic so every run has the same number of decodes and none overlap.
    Why: it exercises the router, the engine LRU and
    ``ProductLoader.decode`` and no pipeline layer.  Check: 64 seeded
    served tiles equal tiles cut from ``build_pyramid(read_level3(product))``.
serve_ingest
    The same archive and stream at half the rate (75 req/s, one cold read
    every 0.5 s), plus a live 768x512 campaign mosaic (four
    seed granules) attached with ``with_ingest()``; a quarter of the hot
    reads target it, and one granule covering a 32x32-cell swath patch
    arrives every 2 s and goes through ``IngestService.ingest`` on the
    serving loop.  Why: reads and writes share the router, engines and
    loop, so a change that speeds one at the other's cost shows.  Live
    reads hit the in-memory ``LivePyramidLoader``.  Check: the final live
    mosaic is byte-identical to ``Level3Processor.mosaic`` over the seed
    granules and arrivals, and live tiles served after the last ingest
    equal a pyramid built from scratch.

End-to-end metrics (``--trace 0``; every workload reports all of them)
--------------------------------------------------------------------
setup_s (s, lower, bound 0.25)
    Median of three set-ups, each in a fresh interpreter: importing the
    program, generating the inputs, building the program's objects and, for
    the serve workloads, writing the archive, attaching router and ingest
    and warming the LRUs.
latency_p50_ms (ms, lower, bound 0.25)
    Median latency of the workload's operation: one graph run (granule),
    one campaign run plus ``to_l3`` (fleet), one tile read from its due
    time to its response (serve_read, serve_ingest).
latency_tail_ms (ms, lower, bound 0.25)
    granule and fleet: the slowest run.  Serve workloads: read p99 from the
    due time (about 3000 reads per 20 s run on serve_read and 1500 on
    serve_ingest, so 30 and 15 lie beyond it).

Per-layer metrics (``--trace 1``; 0 where a workload never enters the layer)
-------------------------------------------------------------------------
granule: ``<layer>.wall_s`` and ``<layer>.cpu_s`` (perf_counter /
process_time around each stage call) for surface.scene, atl03.simulate,
sentinel2.render, sentinel2.segment, resampling.resample, labeling.drift,
labeling.autolabel, pipeline.curate, pipeline.training_set,
classification.train, classification.infer, freeboard.sea_surface,
freeboard.freeboard, products.atl07, products.atl10, l3.grid, l3.mosaic,
serve.pyramid and campaign.metrics; pipeline.orchestration_s (untraced
median run minus the sum of layer wall times); trace.layer_share (that sum
over the untraced run); resampling.segments; classification.train_samples.
granule and fleet: science.accuracy (share of 2 m segments whose class
matches the simulator truth) and trace.overhead_s (traced minus untraced
run).  fleet: campaign.run.wall_s, campaign.to_l3.wall_s,
campaign.serial.wall_s, campaign.speedup (serial over parallel),
campaign.stage_misses, pipeline.cache_bytes.  Serve workloads:
serve.read_p50_ms, serve.read_p99_ms, serve.read_slo_ratio (reads answered
within 50 ms of due; shed or failed reads count as misses),
serve.router.latency_p50_ms / latency_p99_ms / queue_wait_p99_ms (from
TileResponse, excluding generator lateness), serve.engine.query_p50_ms /
query_p99_ms / calls (an ``execute=`` hook timing ``shard.engine.query``),
serve.engine.tile_hit_ratio and loads (QueryStats), serve.router.coalesced
/ shed / executions (RouterStats), loadgen.late_p99_ms.  serve_ingest:
ingest.ingest_p50_ms, ingest.calls, ingest.dirty_cells,
ingest.rebuilt_tiles, ingest.invalidated_tiles, and the ingest sub-steps
replayed on a copy and checked byte for byte against the live service:
l3.merge.add_ms, l3.merge.snapshot_ms, serve.live.update_ms,
l3.writer.write_ms.

Predicted interactions
----------------------
- surface.scene, sentinel2.render and classification.train drive
  latency_p50_ms on granule.  Scene and render also drive it on fleet;
  training should not move fleet, where the MLP is ~9 % of a granule.
- resampling.resample and labeling.drift drive latency_p50_ms on fleet;
  they matter little on granule.
- campaign.speedup drives fleet's latency_p50_ms and does not affect
  granule.
- serve.engine.loads and serve.engine.query_p99_ms drive latency_tail_ms
  and serve.read_slo_ratio on serve_read (its cold reads are the tail).  A
  decode runs on the event loop and delays every read due meanwhile, which
  shows in loadgen.late_p99_ms.  The effect on serve_ingest, whose tail is
  set by ingests, is small.
- l3.writer.write_ms, l3.merge.* and serve.live.update_ms drive
  ingest.ingest_p50_ms and latency_tail_ms on serve_ingest; they should not
  move serve_read.
- serve.router.coalesced can only rise if execution moves off the event
  loop; that would move latency_tail_ms on both serve workloads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from harness import GRANULE_LAYERS, stop_helpers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Workload name -> (module, why it was chosen).
WORKLOADS: dict[str, tuple[str, str]] = {
    "granule": (
        "granule",
        "one quickstart granule (15 km, 1 beam, LSTM) through GraphRunner: "
        "scene, S2 and training dominate; serve, ingest and campaign layers idle",
    ),
    "fleet": (
        "fleet",
        "4-granule 3-beam MLP campaign on 2 process workers plus to_l3: resample, "
        "drift, fan-out and stage-cache writes dominate; LSTM training idle",
    ),
    "serve_read": (
        "serving",
        "open-loop tile reads at 150 req/s through a 2-shard router: Zipf hot set held "
        "by the LRUs plus a periodic 2.7% cold tail that decodes; no pipeline layer runs",
    ),
    "serve_ingest": (
        "serving",
        "the serve_read stream at half the rate plus a live granule ingest every 2 s into a "
        "768x512 mosaic: reads and writes share the router, engines and loop",
    ),
}

#: (name, unit, better, bound) of every end-to-end metric; each workload
#: reports all of them (see the module docstring for their meaning).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
]

#: Seconds one run measures (BENCHMARK.json ``run_seconds``).
RUN_SECONDS = 20

#: Set-ups measured per run, each in a fresh interpreter; setup_s is their median.
SETUP_PROBES = 3

#: (name, unit, better) of every per-layer metric of the traced run.  A
#: workload reports 0 for a layer it never enters.
PER_LAYER: list[tuple[str, str, str]] = [
    *(
        (f"{layer}.{kind}", "s", "lower")
        for layer in GRANULE_LAYERS.values()
        for kind in ("wall_s", "cpu_s")
    ),
    ("pipeline.orchestration_s", "s", "lower"),
    ("trace.layer_share", "fraction", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("resampling.segments", "count", "higher"),
    ("classification.train_samples", "count", "higher"),
    ("science.accuracy", "fraction", "higher"),
    ("campaign.run.wall_s", "s", "lower"),
    ("campaign.to_l3.wall_s", "s", "lower"),
    ("campaign.serial.wall_s", "s", "lower"),
    ("campaign.speedup", "x", "higher"),
    ("campaign.stage_misses", "count", "lower"),
    ("pipeline.cache_bytes", "bytes", "lower"),
    ("serve.read_p50_ms", "ms", "lower"),
    ("serve.read_p99_ms", "ms", "lower"),
    ("serve.read_slo_ratio", "fraction", "higher"),
    ("serve.router.latency_p50_ms", "ms", "lower"),
    ("serve.router.latency_p99_ms", "ms", "lower"),
    ("serve.router.queue_wait_p99_ms", "ms", "lower"),
    ("serve.engine.query_p50_ms", "ms", "lower"),
    ("serve.engine.query_p99_ms", "ms", "lower"),
    ("serve.engine.calls", "count", "lower"),
    ("serve.engine.tile_hit_ratio", "fraction", "higher"),
    ("serve.engine.loads", "count", "lower"),
    ("serve.router.coalesced", "count", "higher"),
    ("serve.router.shed", "count", "lower"),
    ("serve.router.executions", "count", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("ingest.ingest_p50_ms", "ms", "lower"),
    ("ingest.calls", "count", "higher"),
    ("ingest.dirty_cells", "count", "lower"),
    ("ingest.rebuilt_tiles", "count", "lower"),
    ("ingest.invalidated_tiles", "count", "lower"),
    ("l3.merge.add_ms", "ms", "lower"),
    ("l3.merge.snapshot_ms", "ms", "lower"),
    ("serve.live.update_ms", "ms", "lower"),
    ("l3.writer.write_ms", "ms", "lower"),
]


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-manifest", action="store_true", help="regenerate BENCHMARK.json and exit"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")

    # One BLAS thread per process, set before NumPy loads: the fleet's two
    # pool workers would otherwise each start nproc BLAS threads, and no
    # workload may run more threads than nproc.  Children inherit it.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import Spans, Workspace, log, machine_fingerprint, median

    module = importlib.import_module(WORKLOADS[args.workload][0])
    ws = Workspace(ROOT)
    if args.setup_probe:
        state = module.setup(args.workload, args.seed, ws, Spans("probe", False))
        print("ready", flush=True)
        module.close(state)
        problems = ws.audit()
        if problems:
            log(f"set-up probe left resources behind: {problems}")
            return 1
        return 0

    probes = [_setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    spans = Spans(f"{args.workload}-seed{args.seed}-trace{args.trace}", bool(args.trace))
    state = module.setup(args.workload, args.seed, ws, spans)
    try:
        outcome = module.run(state, args.seconds, spans)
    finally:
        module.close(state)
    outcome.problems.extend(ws.audit())
    outcome.end_to_end["setup_s"] = median(probes)

    from repro import kernels

    fingerprint = machine_fingerprint(kernels.get_backend())
    if spans.enabled:
        path = ws.trace_path(args.workload, args.seed)
        spans.write_chrome(path, {"fingerprint": fingerprint, "workload": args.workload})
        log(f"trace written to {path.relative_to(ROOT)}")
        log(f"{'layer':32s} {'calls':>6s} {'wall_s':>9s} {'self_s':>9s} {'cpu_s':>9s}")
        for row in spans.table():
            log(
                f"{row['layer']:32s} {row['calls']:6d} {row['wall_s']:9.4f} "
                f"{row['self_s']:9.4f} {row['cpu_s']:9.4f}"
            )
    for name, value in sorted(outcome.per_layer.items()):
        log(f"{name:40s} {value:14.4f}")
    for problem in outcome.problems:
        log(f"CHECK FAILED: {problem}")

    if args.trace:
        metrics = {
            name: {"value": float(outcome.per_layer.get(name, 0.0)), "unit": unit}
            for name, unit, _ in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": float(outcome.end_to_end[name]), "unit": unit}
            for name, unit, _, _ in END_TO_END
        }
    print(json.dumps({"fingerprint": fingerprint, "workload": args.workload, "seed": args.seed}))
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def manifest() -> dict:
    """The BENCHMARK.json describing this benchmark."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (_, why) in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }


def _setup_probe(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter: start, imports, inputs, objects, warm-up.

    Timed from spawning the child to its "ready" line; the child then
    releases what it built and exits, and is waited for.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline().strip() == "ready"
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        code = child.wait(timeout=150)
    if not ready or code != 0:
        raise RuntimeError(f"set-up probe exited with code {code}")
    return elapsed


if __name__ == "__main__":
    try:
        code = main()
    finally:
        # Also on an exception: no process of this run may outlive it.
        stop_helpers()
    sys.exit(code)
