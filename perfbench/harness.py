"""Shared machinery of the benchmark: spans, statistics, workspace, hygiene.

Nothing here imports the program under test, so ``run.py`` can parse its
arguments and describe itself before the program's source is located.
"""

from __future__ import annotations

import contextvars
import json
import math
import multiprocessing
import os
import platform
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

#: Where the benchmark keeps its scratch directories and trace files,
#: relative to the root of the checkout (ignored by git).
WORK_DIR = ".perfbench"

#: Stage of the default graph -> the layer its function calls into; the
#: granule workload's per-layer names.
GRANULE_LAYERS = {
    "scene": "surface.scene",
    "atl03": "atl03.simulate",
    "s2": "sentinel2.render",
    "segmentation": "sentinel2.segment",
    "resample": "resampling.resample",
    "drift": "labeling.drift",
    "autolabel": "labeling.autolabel",
    "curate": "pipeline.curate",
    "training_set": "pipeline.training_set",
    "train": "classification.train",
    "infer": "classification.infer",
    "sea_surface": "freeboard.sea_surface",
    "freeboard": "freeboard.freeboard",
    "atl07": "products.atl07",
    "atl10": "products.atl10",
    "grid_granule": "l3.grid",
    "mosaic_campaign": "l3.mosaic",
    "build_pyramid": "serve.pyramid",
    "metrics": "campaign.metrics",
}

_current_span: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass
class Span:
    """One timed call into a layer, as recorded by the benchmark's own code."""

    span_id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = math.nan
    cpu_s: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Spans:
    """In-memory span recorder, written out once at exit.

    Parentage follows a context variable, so spans opened inside asyncio
    tasks attach to the span that was current when the task was created.
    A disabled recorder still runs the wrapped code but records nothing,
    which is how end-to-end runs keep the benchmark's tracing off.
    """

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span | None]:
        if not self.enabled:
            yield None
            return
        span = Span(
            span_id=len(self.spans) + 1,
            name=name,
            parent=_current_span.get(),
            run_id=self.run_id,
            start=time.perf_counter(),
            attrs=attrs,
        )
        self.spans.append(span)
        token = _current_span.set(span.span_id)
        cpu0 = time.process_time()
        try:
            yield span
        finally:
            span.cpu_s = time.process_time() - cpu0
            span.end = time.perf_counter()
            _current_span.reset(token)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def self_times(self) -> dict[int, float]:
        """Span id -> wall time not covered by any of its child spans."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out: dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span.span_id] = span.wall_s - covered
        return out

    def table(self) -> list[dict[str, Any]]:
        """Per span name: calls, total wall, self wall and CPU seconds."""
        selfs = self.self_times()
        rows: dict[str, dict[str, Any]] = {}
        for span in self.spans:
            row = rows.setdefault(
                span.name, {"layer": span.name, "calls": 0, "wall_s": 0.0, "self_s": 0.0, "cpu_s": 0.0}
            )
            row["calls"] += 1
            row["wall_s"] += span.wall_s
            row["self_s"] += selfs[span.span_id]
            row["cpu_s"] += span.cpu_s
        return sorted(rows.values(), key=lambda row: -row["self_s"])

    def write_chrome(self, path: Path, metadata: dict[str, Any]) -> None:
        """Chrome ``trace_event`` JSON (loadable in Perfetto / chrome://tracing)."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.wall_s * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "span_id": span.span_id,
                    "parent": span.parent,
                    "run_id": span.run_id,
                    "cpu_s": span.cpu_s,
                    **{k: _jsonable(v) for k, v in span.attrs.items()},
                },
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "metadata": metadata}))


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# -- statistics ---------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def timed_loop(seconds: float, fn: Callable[[int], float]) -> list[float]:
    """Call ``fn(i)`` repeatedly for about ``seconds``; return what each call timed.

    ``fn`` times its own measured region and returns it, so per-iteration
    bookkeeping (scratch directories, result capture) stays outside.  A new
    call starts only while the run is expected to end within the budget
    (judged by the slowest call so far), so a run never overshoots by a
    whole iteration; at least two calls are made, so runs can be compared.
    """
    walls: list[float] = []
    slowest = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(walls) >= 2 and elapsed + slowest > seconds:
            return walls
        t0 = time.perf_counter()
        walls.append(fn(len(walls)))
        slowest = max(slowest, time.perf_counter() - t0)


# -- machine ------------------------------------------------------------------


def machine_fingerprint(kernel_backend: str) -> dict[str, Any]:
    """The facts a timing depends on besides the code."""
    import numpy as np

    blas: Any = "unknown"
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, AttributeError):  # NumPy < 1.26 has no mode="dicts"
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {
            name: os.environ.get(name, "")
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "kernel_backend": kernel_backend,
        "platform": platform.platform(),
    }


# -- workspace and resource hygiene ---------------------------------------------


def _shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _child_pids() -> list[int]:
    """Pids of every process, running or not yet reaped, whose parent is this one."""
    me = os.getpid()
    pids: list[int] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The parent pid is the second field after the parenthesised command name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_helpers() -> None:
    """Stop the ``multiprocessing`` resource tracker and wait until it has ended.

    The first shared-memory segment of a process-pool fan-out starts the
    tracker as a child of this process; left alone it outlives the
    interpreter.  Idempotent, and a no-op when no tracker was started.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


class Workspace:
    """Scratch directories inside the checkout, plus the leak audit.

    Every directory handed out lives under ``<root>/.perfbench/tmp``;
    :meth:`audit` (run after the workload closed its pools) stops the
    resource tracker and reports child
    processes still alive, ``/dev/shm`` segments created during the run and
    scratch directories not removed, so back-to-back runs stay independent.
    """

    def __init__(self, root: Path) -> None:
        self.root = root / WORK_DIR
        (self.root / "tmp").mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"run{os.getpid()}-", dir=self.root / "tmp"))
        self._shm_before = _shm_segments()

    def mkdtemp(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.tmp))

    @staticmethod
    def remove(path: Path) -> None:
        shutil.rmtree(path)

    def audit(self) -> list[str]:
        """Leaks of this run; removes the run's (then empty) scratch root."""
        problems: list[str] = []
        children = multiprocessing.active_children()  # also reaps finished ones
        deadline = time.monotonic() + 10.0
        while children and time.monotonic() < deadline:
            time.sleep(0.05)
            children = multiprocessing.active_children()
        if children:
            problems.append(f"child processes left running: {[c.pid for c in children]}")
        leaked = sorted(_shm_segments() - self._shm_before)
        if leaked:
            problems.append(f"/dev/shm segments left behind: {leaked}")
        # After the /dev/shm check: the tracker unlinks leaked segments as it stops.
        stop_helpers()
        others = _child_pids()
        if others:
            problems.append(f"other child processes left behind: {others}")
        left = sorted(os.listdir(self.tmp))
        if left:
            problems.append(f"scratch directories left behind: {left}")
            shutil.rmtree(self.tmp)
        else:
            self.tmp.rmdir()
        return problems

    def trace_path(self, workload: str, seed: int) -> Path:
        return self.root / "traces" / f"{workload}-seed{seed}.json"


def log(message: str) -> None:
    """Progress and tables go to stderr; stdout ends with the result line."""
    print(message, file=sys.stderr, flush=True)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Failed output checks; any entry makes the run incorrect.
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def derived_seed(seed: int, stream: int) -> int:
    """A 32-bit seed for one input stream of a workload, fixed by ``seed``."""
    import numpy as np

    state = np.random.SeedSequence(entropy=seed, spawn_key=(stream,)).generate_state(1)
    return int(state[0])
