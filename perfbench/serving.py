"""Workloads ``serve_read`` and ``serve_ingest``: open-loop tile reads, with and without live ingest.

Archive: eight regional npz mosaics of 320x320 cells, written by the
benchmark and served through ``ServeHandle(...).with_router()`` with two
shards and the default 512-tile LRU per shard.  Set-up warms the LRUs.

Traffic: an open loop of Poisson arrivals, 150 req/s on ``serve_read`` and
75 req/s on ``serve_ingest``.  Each read asks for
one tile: a hot region drawn from a Zipf law (exponent 1.1) over four of
the regions, one of four variables, a zoom of 0-2 and a tile of that zoom,
all uniform.  Every hot tile fits the warmed LRUs, so hot reads never
decode.  Beside them, one cold read every 0.25 s (0.5 s on
``serve_ingest``; 2.7 % of reads either way) asks for a
tile of the other four regions that no read asked for before: it misses
the LRU and decodes its product on the event loop.  Latency runs from a
request's due time to its response.

``serve_ingest`` adds one live campaign mosaic of 768x512 cells (four seed
granules) attached with ``with_ingest()``; a quarter of the hot reads target
it (variable ``freeboard_mean``),
and granules covering one 32x32-cell swath patch each arrive every 2 s
and go through ``IngestService.ingest`` on the serving event loop.
"""

from __future__ import annotations

import asyncio
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from harness import Outcome, Spans, Workspace, derived_seed, log, median, percentile
from repro.campaign import CampaignL3Result
from repro.config import RouterConfig, ServeConfig
from repro.geodesy.grid import GridDefinition
from repro.l3.merge import MosaicAccumulator
from repro.l3.processor import Level3Processor
from repro.l3.product import Level3Grid
from repro.l3.writer import read_level3, write_level3
from repro.serve.catalog import ProductCatalog
from repro.serve.handle import ServeHandle
from repro.serve.live import IncrementalPyramidBuilder
from repro.serve.pyramid import build_pyramid, level_shape, tile_grid
from repro.serve.query import TileRequest
from repro.serve.router import RouterOverloadedError

CELL_M = 100.0
#: A 320x320 region has 38 tiles per variable at zooms 0-2; with two hot
#: regions per shard, 4 x 2 x 38 = 304 hot tiles fill 60 % of a 512-tile LRU.
REGION_CELLS = 320
N_REGIONS = 8
#: Regions sit on a 4 x 2 layout with gaps, so no read touches two products.
REGION_PITCH_M = REGION_CELLS * CELL_M + 5_000.0
VARIABLES = ("freeboard_mean", "freeboard_median", "thickness_mean", "class_fraction_thick_ice")
ZOOMS = (0, 1, 2)
#: Regions 0, 1 (shard 1) and 2, 4 (shard 0) are hot: Zipf-ranked in this
#: order, and all their tiles stay in the warmed LRUs.  The other four are
#: cold: each cold read asks for a tile no earlier read asked for, so it
#: misses and decodes.  Cold reads come on a fixed period, so every run has
#: the same number of decodes and no two decodes overlap.
HOT_REGIONS = (0, 1, 2, 4)
COLD_REGIONS = (3, 5, 6, 7)
ZIPF_EXPONENT = 1.1
#: Workload -> (read rate in req/s, cold-read period in s); 2.7 % of reads
#: are cold on both.  serve_read's p99 is set by decodes, and at 75 req/s
#: its 15 samples beyond p99 spread it 0.26 (IQR over median, ten seeds);
#: twice the rate gives 30 samples and 80 decodes a run.  serve_ingest's
#: p99 is set by ingests, and more decodes there collide with ingests and
#: spread its p99 twice as much, so it keeps 75 req/s.
TRAFFIC = {"serve_read": (150.0, 0.25), "serve_ingest": (75.0, 0.5)}
SLO_S = 0.050

LIVE_SHAPE = (512, 768)  # (ny, nx)
LIVE_ORIGIN = (0.0, 2 * REGION_PITCH_M + 5_000.0)
N_SEED_GRANULES = 4
LIVE_READ_SHARE = 0.25
#: Live reads ask for one variable at zooms 0-2: 126 tiles, which fit the
#: owning shard's LRU beside its two hot regions.
LIVE_VARIABLE = "freeboard_mean"
#: One arrival every two seconds: an ingest holds the loop ~0.2 s, and at
#: one or two a second so many reads queued behind ingests that the read
#: median flipped between the idle and the queued mode from run to run.
INGEST_PERIOD_S = 2.0
PATCH_CELLS = 32
#: Row bands of the final mosaic check (bounds its memory, not its result).
CHECK_BANDS = 8

SERVE = ServeConfig(router=RouterConfig(n_shards=2))

#: Longest run the cold-tile budget of the LRUs is checked for.
MAX_SECONDS = 40.0

#: Percentile reported as ``latency_tail_ms``: the highest with at least
#: ten samples beyond it at 75 req/s over the run length used (15 in 20 s;
#: 30 at serve_read's 150 req/s).
TAIL_PERCENTILE = 99.0


@dataclass(frozen=True)
class Region:
    key: str
    grid: GridDefinition

    def tile_request(self, variable: str, zoom: int, row: int, col: int) -> TileRequest:
        """One tile's footprint, inset 1 m and clipped to the region."""
        span = CELL_M * (2**zoom) * SERVE.tile_size
        x0 = self.grid.x_min_m + col * span
        y0 = self.grid.y_min_m + row * span
        x1 = min(x0 + span, self.grid.x_max_m)
        y1 = min(y0 + span, self.grid.y_max_m)
        return TileRequest(bbox=(x0 + 1.0, y0 + 1.0, x1 - 1.0, y1 - 1.0), variable=variable, zoom=zoom)

    def tiles(self, zoom: int) -> tuple[int, int]:
        return tile_grid(level_shape(self.grid.shape, zoom), SERVE.tile_size)


@dataclass(frozen=True)
class Arrival:
    """A compact live granule: one patch of observed cells, values seeded."""

    granule_id: str
    row: int
    col: int
    seed: int

    def grid(self, grid: GridDefinition, rows: slice = slice(None)) -> Level3Grid:
        """The granule on ``grid`` (or on the row band ``rows`` of it)."""
        band, r0, r1 = _band(grid, rows)
        rng = np.random.default_rng(self.seed)
        patch = (PATCH_CELLS, PATCH_CELLS)
        values = _layers(rng, np.ones(patch, dtype=bool), patch)
        lo, hi = max(self.row, r0), min(self.row + PATCH_CELLS, r1)
        variables = {}
        for name, layer in values.items():
            fill = 0 if layer.dtype.kind == "i" else np.nan
            full = np.full(band.shape, fill, dtype=layer.dtype)
            if lo < hi:
                full[lo - r0 : hi - r0, self.col : self.col + PATCH_CELLS] = layer[
                    lo - self.row : hi - self.row
                ]
            variables[name] = full
        return Level3Grid(
            grid=band, variables=variables, metadata={"granule_id": self.granule_id, "kind": "granule"}
        )


def _layers(rng: np.random.Generator, observed: np.ndarray, shape: tuple[int, int]) -> dict[str, np.ndarray]:
    """Per-granule L3 layers over ``shape``; NaN/0 where not ``observed``."""
    n_segments = np.where(observed, rng.integers(1, 40, size=shape), 0).astype(np.int64)
    n_freeboard = np.where(observed, rng.integers(1, 10, size=shape), 0).astype(np.int64)

    def masked(mean: float, std: float) -> np.ndarray:
        return np.where(observed, rng.normal(mean, std, size=shape), np.nan)

    thick = rng.random(shape)
    thin = rng.random(shape) * (1.0 - thick)
    return {
        "n_segments": n_segments,
        "n_freeboard_segments": n_freeboard,
        "freeboard_mean": masked(0.3, 0.15),
        "freeboard_median": masked(0.28, 0.15),
        "thickness_mean": masked(2.5, 1.0),
        "class_fraction_thick_ice": np.where(observed, thick, np.nan),
        "class_fraction_thin_ice": np.where(observed, thin, np.nan),
        "class_fraction_open_water": np.where(observed, 1.0 - thick - thin, np.nan),
    }


def _granule(rng: np.random.Generator, grid: GridDefinition, granule_id: str, cover: float) -> Level3Grid:
    observed = rng.random(grid.shape) < cover
    return Level3Grid(
        grid=grid,
        variables=_layers(rng, observed, grid.shape),
        metadata={"granule_id": granule_id, "kind": "granule"},
    )


@dataclass
class Event:
    offset_s: float
    region: int = -1  # index into State.regions; -1 marks an ingest
    request: TileRequest | None = None
    arrival: Arrival | None = None


@dataclass
class State:
    seed: int
    ws: Workspace
    products_dir: Path
    regions: list[Region]
    handle: ServeHandle
    rate_per_s: float
    cold_period_s: float
    live: Region | None = None
    seed_granules: list[Level3Grid] = field(default_factory=list)


def _read_stream(rng: np.random.Generator, n: int, regions: list[Region], live: bool) -> list[tuple[int, TileRequest]]:
    """``n`` hot reads: Zipf over the hot regions, plus the live share when ``live``."""
    ranks = np.arange(1, len(HOT_REGIONS) + 1, dtype=float)
    popularity = ranks**-ZIPF_EXPONENT
    popularity /= popularity.sum()
    reads = []
    for _ in range(n):
        if live and rng.random() < LIVE_READ_SHARE:
            index, variable = N_REGIONS, LIVE_VARIABLE
        else:
            index = HOT_REGIONS[int(rng.choice(len(HOT_REGIONS), p=popularity))]
            variable = VARIABLES[int(rng.integers(len(VARIABLES)))]
        region = regions[index]
        zoom = int(rng.choice(ZOOMS))
        rows, cols = region.tiles(zoom)
        request = region.tile_request(variable, zoom, int(rng.integers(rows)), int(rng.integers(cols)))
        reads.append((index, request))
    return reads


def _all_tiles(region: Region, variables: tuple[str, ...]) -> list[TileRequest]:
    return [
        region.tile_request(variable, zoom, row, col)
        for variable in variables
        for zoom in ZOOMS
        for row in range(region.tiles(zoom)[0])
        for col in range(region.tiles(zoom)[1])
    ]


def setup(workload: str, seed: int, ws: Workspace, spans: Spans) -> State:
    rng = np.random.default_rng(derived_seed(seed, 2))
    products_dir = ws.mkdtemp(f"{workload}-products-")
    catalog = ProductCatalog()
    regions = []
    for i in range(N_REGIONS):
        grid = GridDefinition(
            x_min_m=(i % 4) * REGION_PITCH_M,
            y_min_m=(i // 4) * REGION_PITCH_M,
            cell_size_m=CELL_M,
            nx=REGION_CELLS,
            ny=REGION_CELLS,
        )
        fleet = [_granule(rng, grid, f"r{i}g{j}", cover=0.6) for j in range(3)]
        mosaic = Level3Processor(grid).mosaic(fleet)
        mosaic.metadata["fingerprint"] = f"archive-region{i}"
        _, json_path = write_level3(mosaic, products_dir / f"region{i}", format=SERVE.product_format)
        catalog.register(json_path)
        regions.append(Region(key=mosaic.metadata["fingerprint"], grid=grid))

    live = workload == "serve_ingest"
    granules: list[Level3Grid] = []
    seed_l3 = None
    if live:
        ny, nx = LIVE_SHAPE
        grid = GridDefinition(
            x_min_m=LIVE_ORIGIN[0], y_min_m=LIVE_ORIGIN[1], cell_size_m=CELL_M, nx=nx, ny=ny
        )
        granules = [_granule(rng, grid, f"g{j:03d}", cover=0.5) for j in range(N_SEED_GRANULES)]
        seed_l3 = CampaignL3Result(
            mosaic=Level3Processor(grid).mosaic(granules),
            granules={g.metadata["granule_id"]: g for g in granules},
            fingerprint=f"live-seed{seed}",
        )
    handle = ServeHandle(catalog, serve=SERVE, products_dir=products_dir, seed_l3=seed_l3)
    state = State(
        seed=seed,
        ws=ws,
        products_dir=products_dir,
        regions=regions,
        handle=handle,
        rate_per_s=TRAFFIC[workload][0],
        cold_period_s=TRAFFIC[workload][1],
        seed_granules=granules,
    )
    execute = None
    if spans.enabled:

        async def execute(shard, request):  # the router's execute= hook
            with spans.span("serve.engine.query", shard=shard.index):
                return shard.engine.query(request)

    handle.with_router(execute=execute)
    if live:
        handle.with_ingest()
        state.live = Region(key=handle.ingest_service.key, grid=seed_l3.mosaic.grid)
        state.regions.append(state.live)
    _warm(state)
    return state


def close(state: State) -> None:
    state.handle.close()
    state.ws.remove(state.products_dir)


def _warm(state: State) -> None:
    """Put every hot (and live) tile in its shard's LRU; leave the cold regions cold.

    Checks first that each shard's LRU holds its hot and live tiles plus
    every cold tile a run can add, so no hot read ever misses.
    """
    router = state.handle.router
    warm = [(state.regions[i], VARIABLES) for i in HOT_REGIONS]
    if state.live is not None:
        warm.append((state.live, (LIVE_VARIABLE,)))
    per_shard: dict[int, list[TileRequest]] = {}
    for region, variables in warm:
        requests = _all_tiles(region, variables)
        per_shard.setdefault(router.resolve(requests[0])[0], []).extend(requests)
    cold_per_shard = int(MAX_SECONDS / state.cold_period_s) + 1
    for shard, requests in per_shard.items():
        if len(requests) + cold_per_shard > SERVE.tile_cache_size:
            raise ValueError(f"shard {shard}: {len(requests)} warm tiles do not fit its LRU")
        router.shards[shard].engine.query_batch(requests)


def _schedule(state: State, rng: np.random.Generator, horizon: float) -> list[Event]:
    """Poisson hot reads, periodic cold reads and, with ingest, periodic arrivals."""
    if horizon > MAX_SECONDS:
        raise ValueError(f"runs longer than {MAX_SECONDS} s would overflow the LRUs")
    rate = state.rate_per_s
    gaps = rng.exponential(1.0 / rate, size=int(rate * horizon * 1.5) + 50)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < horizon]
    reads = _read_stream(rng, len(offsets), state.regions, state.live is not None)
    events = [Event(float(t), region, request) for t, (region, request) in zip(offsets, reads)]
    cold = [
        (index, request)
        for index in COLD_REGIONS
        for request in _all_tiles(state.regions[index], VARIABLES)
    ]
    order = rng.permutation(len(cold))
    phase = float(rng.uniform(0.0, state.cold_period_s))
    for i, t in enumerate(np.arange(phase, horizon, state.cold_period_s)):
        index, request = cold[order[i]]
        events.append(Event(float(t), index, request))
    if state.live is not None:
        ny, nx = LIVE_SHAPE
        phase = float(rng.uniform(0.0, INGEST_PERIOD_S))
        for i, t in enumerate(np.arange(phase, horizon, INGEST_PERIOD_S)):
            arrival = Arrival(
                granule_id=f"new{i:04d}",
                row=int(rng.integers(0, ny - PATCH_CELLS + 1)),
                col=int(rng.integers(0, nx - PATCH_CELLS + 1)),
                seed=int(rng.integers(2**32)),
            )
            events.append(Event(float(t), arrival=arrival))
    events.sort(key=lambda e: e.offset_s)
    return events


@dataclass
class Record:
    """What the session observed, per operation."""

    read_latency_s: list[float] = field(default_factory=list)
    router_latency_s: list[float] = field(default_factory=list)
    queue_wait_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    reads: int = 0
    good_reads: int = 0
    shed: int = 0
    failed_reads: int = 0
    ingest_s: list[float] = field(default_factory=list)
    failed_ingests: int = 0
    reports: list[Any] = field(default_factory=list)
    #: Seeded sample of (region index, response) for the tile check.
    sampled: list[tuple[int, Any]] = field(default_factory=list)


async def _read(state: State, spans: Spans, event: Event, due: float, rec: Record, keep: bool) -> None:
    rec.reads += 1
    try:
        with spans.span("serve.router.query", region=event.region):
            response = await state.handle.router.query(event.request)
    except RouterOverloadedError:
        rec.shed += 1
        return
    except LookupError:
        rec.failed_reads += 1
        return
    except Exception:  # counted as a failed read; the session goes on
        log(traceback.format_exc())
        rec.failed_reads += 1
        return
    latency = time.perf_counter() - due
    rec.read_latency_s.append(latency)
    rec.router_latency_s.append(response.latency_s)
    rec.queue_wait_s.append(response.queue_wait_s)
    rec.good_reads += latency <= SLO_S
    if keep:
        rec.sampled.append((event.region, response))


def _ingest(state: State, spans: Spans, event: Event, rec: Record) -> None:
    granule = event.arrival.grid(state.live.grid)
    t0 = time.perf_counter()
    try:
        with spans.span("ingest.ingest", granule=event.arrival.granule_id):
            report = state.handle.ingest(granule)
    except Exception:  # a failed ingest is counted, and the session goes on
        log(traceback.format_exc())
        rec.failed_ingests += 1
        return
    rec.ingest_s.append(time.perf_counter() - t0)
    rec.reports.append(report)


async def _session(state: State, spans: Spans, schedule: list[Event], keep: set[int]) -> Record:
    """Send every event at its due time; return once all reads are answered.

    Reads run as their own tasks, so a slow read never holds back the
    schedule; after sending one the generator yields, so the read starts
    at once.  Ingests run inline on the same loop, as a caller of
    ``IngestService.ingest`` on the serving loop would.
    """
    loop = asyncio.get_running_loop()
    rec = Record()
    tasks = []
    start = time.perf_counter() + 0.01
    for i, event in enumerate(schedule):
        due = start + event.offset_s
        delay = due - time.perf_counter()
        if delay > 0.002:
            await asyncio.sleep(delay - 0.001)
        while time.perf_counter() < due:
            pass
        rec.late_s.append(time.perf_counter() - due)
        if event.arrival is not None:
            _ingest(state, spans, event, rec)
        else:
            tasks.append(loop.create_task(_read(state, spans, event, due, rec, i in keep)))
        await asyncio.sleep(0)
    await asyncio.gather(*tasks)
    return rec


def run(state: State, seconds: float, spans: Spans) -> Outcome:
    out = Outcome()
    rng = np.random.default_rng(derived_seed(state.seed, 4))
    schedule = _schedule(state, rng, seconds)
    archive_reads = [i for i, e in enumerate(schedule) if 0 <= e.region < N_REGIONS]
    keep = set(rng.choice(archive_reads, size=min(64, len(archive_reads)), replace=False).tolist())

    router = state.handle.router
    router_before = router.stats
    engines_before = [shard.engine.stats for shard in router.shards]
    rec = asyncio.run(_session(state, spans, schedule, keep))
    session_spans = list(spans.spans)
    router_after = router.stats
    engines_after = [shard.engine.stats for shard in router.shards]

    n_ingests = sum(1 for e in schedule if e.arrival is not None)
    out.attempted = rec.reads + n_ingests
    out.failed = rec.shed + rec.failed_reads + rec.failed_ingests
    latency = rec.read_latency_s
    out.end_to_end = {
        "latency_p50_ms": percentile(latency, 50.0) * 1e3,
        "latency_tail_ms": percentile(latency, TAIL_PERCENTILE) * 1e3,
    }
    log(
        "read latency ms p50/75/90/95/99: "
        + "/".join(f"{percentile(latency, q) * 1e3:.2f}" for q in (50, 75, 90, 95, 99))
        + (f"; ingest ms p50/max {median(rec.ingest_s) * 1e3:.1f}/{max(rec.ingest_s) * 1e3:.1f}" if rec.ingest_s else "")
    )
    log(
        f"reads {rec.reads}, within {SLO_S * 1e3:.0f} ms: {rec.good_reads / max(rec.reads, 1):.4f}, "
        f"shed {rec.shed}, failed {rec.failed_reads}; ingests {n_ingests}, failed {rec.failed_ingests}"
    )

    _check_archive_tiles(state, rec, out)
    if state.live is not None:
        out.check(
            len(rec.ingest_s) == n_ingests, f"{n_ingests - len(rec.ingest_s)} ingests failed"
        )
        _check_live(state, schedule, out)

    if not spans.enabled:
        return out
    engine_calls = [s.wall_s for s in session_spans if s.name == "serve.engine.query"]
    hits = sum(a.tile_hits - b.tile_hits for a, b in zip(engines_after, engines_before))
    misses = sum(a.tile_misses - b.tile_misses for a, b in zip(engines_after, engines_before))
    out.per_layer.update(
        {
            "serve.read_p50_ms": out.end_to_end["latency_p50_ms"],
            "serve.read_p99_ms": percentile(latency, 99.0) * 1e3,
            "serve.read_slo_ratio": rec.good_reads / rec.reads,
            "serve.router.latency_p50_ms": percentile(rec.router_latency_s, 50.0) * 1e3,
            "serve.router.latency_p99_ms": percentile(rec.router_latency_s, 99.0) * 1e3,
            "serve.router.queue_wait_p99_ms": percentile(rec.queue_wait_s, 99.0) * 1e3,
            "serve.engine.query_p50_ms": percentile(engine_calls, 50.0) * 1e3,
            "serve.engine.query_p99_ms": percentile(engine_calls, 99.0) * 1e3,
            "serve.engine.calls": float(len(engine_calls)),
            "serve.engine.tile_hit_ratio": hits / max(hits + misses, 1),
            "serve.engine.loads": float(
                sum(a.loads - b.loads for a, b in zip(engines_after, engines_before))
            ),
            "serve.router.coalesced": float(router_after.coalesced - router_before.coalesced),
            "serve.router.shed": float(router_after.shed - router_before.shed),
            "serve.router.executions": float(
                router_after.executions - router_before.executions
            ),
            "loadgen.late_p99_ms": percentile(rec.late_s, 99.0) * 1e3,
        }
    )
    if state.live is not None:
        reports = rec.reports
        out.per_layer.update(
            {
                "ingest.ingest_p50_ms": median(rec.ingest_s) * 1e3,
                "ingest.calls": float(len(rec.ingest_s)),
                "ingest.dirty_cells": float(sum(r.n_dirty_cells for r in reports)),
                "ingest.rebuilt_tiles": float(sum(len(r.rebuilt_tiles) for r in reports)),
                "ingest.invalidated_tiles": float(sum(r.n_invalidated for r in reports)),
            }
        )
        out.per_layer.update(_replay_ingest(state, schedule, out))
    return out


def _check_archive_tiles(state: State, rec: Record, out: Outcome) -> None:
    """Sampled served tiles equal tiles cut from a pyramid of the re-read product."""
    out.check(len(rec.sampled) > 0, "no archive read was sampled")
    pyramids: dict[int, Any] = {}
    for index, response in rec.sampled:
        if index not in pyramids:
            product = read_level3(state.products_dir / f"region{index}")
            pyramids[index] = build_pyramid(product, serve=SERVE)
        pyramid = pyramids[index]
        request = response.request
        out.check(response.product == state.regions[index].key, f"read served {response.product}")
        for (row, col), tile in response.tiles.items():
            want = pyramid.tile(request.variable, response.zoom, row, col)
            out.check(
                tile.dtype == want.dtype and tile.tobytes() == want.tobytes(),
                f"tile {request.variable} z{response.zoom} ({row},{col}) of region {index} differs",
            )


def _band(grid: GridDefinition, rows: slice) -> tuple[GridDefinition, int, int]:
    """The grid of rows ``rows`` of ``grid``, with the row range."""
    r0, r1, _ = rows.indices(grid.ny)
    band = GridDefinition(
        x_min_m=grid.x_min_m,
        y_min_m=grid.y_min_m + r0 * grid.cell_size_m,
        cell_size_m=grid.cell_size_m,
        nx=grid.nx,
        ny=r1 - r0,
    )
    return band, r0, r1


def _crop(granule: Level3Grid, rows: slice) -> Level3Grid:
    band, r0, r1 = _band(granule.grid, rows)
    variables = {name: layer[r0:r1] for name, layer in granule.variables.items()}
    return Level3Grid(grid=band, variables=variables, metadata=dict(granule.metadata))


def _check_live(state: State, schedule: list[Event], out: Outcome) -> None:
    """The live mosaic equals the batch mosaic; served live tiles equal a fresh pyramid.

    The batch mosaic is computed one row band at a time (every cell of a
    mosaic depends only on that cell of its granules), so the check never
    holds every arrival at full size.
    """
    grid = state.live.grid
    snapshot = state.handle.ingest_service.accumulator.snapshot()
    arrivals = [e.arrival for e in schedule if e.arrival is not None]
    edges = np.linspace(0, grid.ny, CHECK_BANDS + 1).astype(int)
    for r0, r1 in zip(edges[:-1], edges[1:]):
        rows = slice(int(r0), int(r1))
        parts = [_crop(g, rows) for g in state.seed_granules]
        parts += [a.grid(grid, rows) for a in arrivals]
        parts.sort(key=lambda g: g.metadata["granule_id"])
        batch = Level3Processor(parts[0].grid).mosaic(parts)
        for name, layer in batch.variables.items():
            live = snapshot.variables[name][rows]
            out.check(
                layer.dtype == live.dtype and layer.tobytes() == live.tobytes(),
                f"live mosaic layer {name} differs from the batch mosaic in rows {r0}-{r1}",
            )

    reference = build_pyramid(snapshot, serve=SERVE)
    requests = [
        state.live.tile_request(variable, zoom, row, col)
        for variable in VARIABLES
        for zoom in ZOOMS
        for row in range(state.live.tiles(zoom)[0])
        for col in range(state.live.tiles(zoom)[1])
    ]
    for response in state.handle.query_batch(requests):
        for (row, col), tile in response.tiles.items():
            want = reference.tile(response.request.variable, response.zoom, row, col)
            out.check(
                tile.tobytes() == want.tobytes(),
                f"live tile {response.request.variable} z{response.zoom} ({row},{col}) is stale",
            )


def _replay_ingest(state: State, schedule: list[Event], out: Outcome) -> dict[str, float]:
    """Time the ingest sub-steps on a copy, through their public functions.

    The copy replays the seed fleet and every arrival; its final mosaic and
    pyramid must equal the live service's byte for byte.
    """
    grid = state.live.grid
    accumulator = MosaicAccumulator(grid)
    for granule in state.seed_granules:
        accumulator.add(granule)
    builder = IncrementalPyramidBuilder(build_pyramid(accumulator.snapshot(), serve=SERVE), serve=SERVE)
    scratch = state.ws.mkdtemp("ingest-replay-")
    times: dict[str, list[float]] = {"add": [], "snapshot": [], "update": [], "write": []}
    try:
        for event in schedule:
            if event.arrival is None:
                continue
            granule = event.arrival.grid(grid)
            t0 = time.perf_counter()
            dirty = accumulator.add(granule)
            t1 = time.perf_counter()
            snapshot = accumulator.snapshot()
            t2 = time.perf_counter()
            builder.update(snapshot, dirty)
            t3 = time.perf_counter()
            write_level3(snapshot, scratch / "mosaic", format=SERVE.product_format)
            t4 = time.perf_counter()
            for key, value in zip(times, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
                times[key].append(value)
    finally:
        state.ws.remove(scratch)

    service = state.handle.ingest_service
    live = service.accumulator.snapshot()
    for name, layer in live.variables.items():
        out.check(
            layer.tobytes() == snapshot.variables[name].tobytes(),
            f"replayed merge differs from the live mosaic in {name}",
        )
    for replayed, served in zip(builder.pyramid.levels, service.builder.pyramid.levels):
        for name, layer in served.variables.items():
            out.check(
                layer.tobytes() == replayed.variables[name].tobytes(),
                f"replayed pyramid differs from the live one in {name} z{served.zoom}",
            )
    return {
        "l3.merge.add_ms": median(times["add"]) * 1e3,
        "l3.merge.snapshot_ms": median(times["snapshot"]) * 1e3,
        "serve.live.update_ms": median(times["update"]) * 1e3,
        "l3.writer.write_ms": median(times["write"]) * 1e3,
    }
