"""The traced run: per-layer metrics and the tracing overhead.

A traced run measures the workload twice, each pass with half the
time: untraced first, then with spans and counters wrapped around the
layers' entry points (see :mod:`hpdrbench.spans`).  The per-layer
numbers come from the traced pass; the overhead is the traced pass's
end-to-end numbers minus the untraced pass's.  Every per-layer metric
is printed for every workload; a layer a workload bypasses (the
cluster, on ``archive``) reads 0.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Callable

from hpdrbench.spans import (Recorder, SpanRec, coverage, self_time_by_name,
                             self_times)
from hpdrbench.stats import percentile

_MGARD = ("decompose", "quantize", "encode", "serialize", "decode",
          "dequantize", "recompose")
_ZFP = ("align", "blockize", "transform", "encode", "decode", "inv_transform")
_HUFFMAN = ("histogram", "codebook", "encode", "pack", "serialize", "decode")
_BATCHED = ("mgard-x", "zfp-x", "huffman-x")
#: stage spans must cover at least this share of every codec call.
COVERAGE_MIN = 0.9

#: per-layer metric -> unit, in print order.
PER_LAYER: dict[str, str] = {}
PER_LAYER.update({f"compressors.mgard.{s}_s": "s" for s in _MGARD})
PER_LAYER.update({f"compressors.zfp.{s}_s": "s" for s in _ZFP})
PER_LAYER.update({f"compressors.huffman.{s}_s": "s" for s in _HUFFMAN})
PER_LAYER.update({f"compressors.batch.{op}_s.{c}": "s"
                  for op in ("compress", "decompress") for c in _BATCHED})
PER_LAYER.update({
    "coverage": "ratio",
    "coverage.mgard": "ratio",
    "coverage.zfp": "ratio",
    "coverage.huffman": "ratio",
    "adapters.launches.serial": "count",
    "adapters.launches.openmp": "count",
    "adapters.busy_s.serial": "s",
    "adapters.busy_s.openmp": "s",
    "adapters.openmp_speedup.compress": "x",
    "adapters.openmp_speedup.decompress": "x",
    "adapters.identical_streams": "count",
    "core.context.hits": "count",
    "core.context.misses": "count",
    "core.context.hit_rate": "ratio",
    "core.context.live_bytes": "B",
    "io.write_s": "s",
    "io.bytes_written": "B",
    "io.read_s": "s",
    "io.ranged_reads": "count",
    "io.bytes_read": "B",
    "progressive.refactor_s": "s",
    "progressive.plan_s": "s",
    "progressive.fetch_s": "s",
    "progressive.reconstruct_s": "s",
    "progressive.segments_fetched": "count",
    "progressive.bytes_fetched": "B",
    "serve.queue_wait_ms.p50": "ms",
    "serve.queue_wait_ms.p99": "ms",
    "serve.executor_wait_ms.p50": "ms",
    "serve.executor_wait_ms.p99": "ms",
    "serve.worker_busy_frac": "ratio",
    "serve.batch_size": "req",
    "serve.flushes.size": "count",
    "serve.flushes.deadline": "count",
    "serve.flushes.idle": "count",
    "serve.rejected": "count",
    "cluster.route_us": "us",
    "cluster.shard_share_max": "x",
    "cluster.rejected": "count",
    "cluster.failovers": "count",
    "loadgen.late_p99_ms.lo": "ms",
    "loadgen.late_p99_ms.hi": "ms",
    "loadgen.offered.lo": "count",
    "loadgen.offered.hi": "count",
    "loadgen.completed.lo": "count",
    "loadgen.completed.hi": "count",
})
#: tracing overhead: traced minus untraced end-to-end value.
OVERHEAD = {
    "setup_s": "s",
    "compress_MBps": "MB/s",
    "decompress_MBps": "MB/s",
    "refactor_MBps": "MB/s",
    "retrieve_MBps": "MB/s",
    "p50_ms.lo": "ms",
    "p99_ms.lo": "ms",
    "p50_ms.hi": "ms",
    "p99_ms.hi": "ms",
}
PER_LAYER.update({f"overhead.{k}": u for k, u in OVERHEAD.items()})


def adopt_pool_spans(spans: list[SpanRec], main: int) -> None:
    """Make each root span of a pool thread a child of the innermost
    main-thread span enclosing it in time.

    Thread-parallel adapters run stages on pool threads, whose span
    stacks start empty; without adoption the parent on the calling
    thread would count that work as its own self time.  Valid where the
    main thread issues one call at a time (the archive phase).
    """
    main_spans = sorted(
        (i for i, s in enumerate(spans) if s.thread == main),
        key=lambda i: (spans[i].start, -spans[i].end))
    for s in spans:
        if s.thread == main or s.parent is not None:
            continue
        best = None
        for i in main_spans:
            m = spans[i]
            if m.start > s.start:
                break
            if m.end >= s.end:
                best = i  # later starts are nested deeper
        s.parent = best


# ---------------------------------------------------------------------------
class ArchiveProbe:
    """Spans and counters around codec stages, adapters, CMM, io and
    progressive entry points of the archive phase."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self.wl: Any = None

    def span(self, name: str) -> Any:
        return self.rec.span(name)

    def install(self) -> None:
        from importlib import import_module

        from repro.io.engine import BPReader, BPWriter
        from repro.progressive import ProgressiveMGARD, SegmentIndex

        # import_module, not ``import a.b as m``: some package __init__
        # files re-export a function under its module's name.
        H, C, D, Q, Z, S = (import_module(f"repro.{m}") for m in (
            "compressors.huffman.compressor", "compressors.mgard.compressor",
            "compressors.mgard.decompose", "compressors.mgard.quantize",
            "compressors.zfp.compressor", "progressive.store"))
        p = self.rec.patch
        # MGARD-X stages; the progressive codec imports the same kernels
        # from their defining modules, so those are wrapped too.
        for mod in (C, D):
            p(mod, "decompose", "compressors.mgard.decompose")
            p(mod, "recompose", "compressors.mgard.recompose")
        for mod in (C, Q):
            p(mod, "quantize_levels", "compressors.mgard.quantize")
            p(mod, "dequantize_levels", "compressors.mgard.dequantize")
        p(C, "to_symbols", "compressors.mgard.quantize")
        p(C, "from_symbols", "compressors.mgard.decode")
        p(C.MGARDX, "_serialize_stream", "compressors.mgard.serialize")
        # ZFP-X stages.
        p(Z, "block_exponents", "compressors.zfp.align")
        p(Z, "to_fixed_point", "compressors.zfp.align")
        p(Z, "from_fixed_point", "compressors.zfp.align")
        p(Z, "locality", "compressors.zfp.blockize")
        p(Z, "unblockize", "compressors.zfp.blockize")
        p(Z, "fwd_transform", "compressors.zfp.transform")
        p(Z, "encode_blocks", "compressors.zfp.encode")
        p(Z, "decode_blocks", "compressors.zfp.decode")
        p(Z, "inv_transform", "compressors.zfp.inv_transform")
        # Huffman-X stages.
        p(H, "histogram", "compressors.huffman.histogram")
        p(H, "build_codebook", "compressors.huffman.codebook")
        p(H, "locality", "compressors.huffman.encode")
        p(H, "global_pipeline", "compressors.huffman.pack")
        p(H, "pack_bits", "compressors.huffman.pack")
        p(H.HuffmanX, "_serialize", "compressors.huffman.serialize")
        p(H.HuffmanX, "_deserialize", "compressors.huffman.serialize")
        p(H.HuffmanX, "_decode_chunks", "compressors.huffman.decode")
        # io and progressive.
        rec = self.rec
        p(BPWriter, "put_reduced", "io.write")
        p(BPWriter, "close", "io.write",
          observe=lambda st: rec.add("io.bytes_written", st["stored_bytes"]))

        def _read(payload: bytes) -> None:
            rec.add("io.bytes_read", len(payload))
            rec.add("io.ranged_reads", 1)

        p(BPReader, "read_payload", "io.read", observe=_read)
        p(ProgressiveMGARD, "refactor", "progressive.refactor")
        p(ProgressiveMGARD, "reconstruct", "progressive.reconstruct")
        p(SegmentIndex, "plan", "progressive.plan")
        p(S, "read_store_index", "progressive.plan")
        p(S, "read_store_segments", "progressive.fetch")

    def attach(self, wl: Any) -> None:
        """Per-instance wrappers on the final set-up's objects; drops
        everything recorded during set-up."""
        self.wl = wl
        for name, adapter in wl.adapters.items():
            for attr in ("execute_group_batch", "execute_domain", "map_tasks"):
                self.rec.count_calls(adapter, attr, f"adapters.{name}")
        for (codec, _ad), obj in wl.codecs.items():
            if codec == "mgard":
                # MGARD-X's entropy stage is its private Huffman-X coder:
                # wrapping that instance tells MGARD's encode/decode apart
                # from Huffman-X's own byte-level calls.
                self.rec.patch(obj._huffman, "compress_keys",
                               "compressors.mgard.encode")
                self.rec.patch(obj._huffman, "decompress_keys",
                               "compressors.mgard.decode")
        self.rec.clear()

    def uninstall(self) -> None:
        self.rec.unpatch()

    def metrics(self, out: dict[str, Any]) -> dict[str, float]:
        spans = self.rec.spans
        adopt_pool_spans(spans, threading.main_thread().ident)
        selfs = self_time_by_name(spans)
        m: dict[str, float] = {}
        for key in PER_LAYER:
            if key.startswith(("compressors.mgard.", "compressors.zfp.",
                               "compressors.huffman.", "progressive.")) \
                    and key.endswith("_s"):
                m[key] = selfs.get(key[:-2], 0.0)
        m["io.write_s"] = selfs.get("io.write", 0.0)
        m["io.read_s"] = selfs.get("io.read", 0.0)
        for k in ("io.bytes_written", "io.bytes_read", "io.ranged_reads"):
            m[k] = self.rec.totals.get(k, 0.0)
        covs = []
        for codec in ("mgard", "zfp", "huffman"):
            c = coverage(spans, f"call.{codec}.", "compressors.")
            m[f"coverage.{codec}"] = c
            covs.append(c)
        m["coverage"] = min(covs)
        if m["coverage"] < COVERAGE_MIN:
            print(f"WARNING: stage spans cover {m['coverage']:.2f} of a codec "
                  f"call, below {COVERAGE_MIN}; a stage entry point is not "
                  f"wrapped", file=sys.stderr)
        for name in ("serial", "openmp"):
            launches, busy = self.rec.counts.get(f"adapters.{name}", (0, 0.0))
            m[f"adapters.launches.{name}"] = launches
            m[f"adapters.busy_s.{name}"] = busy
        rounds = out["_layers"]["codec_rounds"]
        for op in ("compress", "decompress"):
            serial = sum(r[f"serial_{op}_s"] for r in rounds)
            omp = sum(r[f"openmp_{op}_s"] for r in rounds)
            m[f"adapters.openmp_speedup.{op}"] = serial / omp if omp else 0.0
        m["adapters.identical_streams"] = out["_layers"]["identical"]
        m.update(out["_layers"]["cmm"])
        last = out["_layers"]["prog_rounds"][-1]
        m["progressive.segments_fetched"] = last["segments_fetched"]
        m["progressive.bytes_fetched"] = last["bytes_fetched"]
        return m


# ---------------------------------------------------------------------------
class _Bucket:
    """Serve-layer observations of one labelled rate (``lo``/``hi``)."""

    def __init__(self) -> None:
        self.queue_wait: list[float] = []
        self.exec_wait: list[float] = []
        self.batch_sizes: list[int] = []
        self.reasons: dict[str, int] = {}
        self.busy = 0.0
        self.routes: list[float] = []
        self.batch_s: dict[str, float] = {}
        self.cluster = [0, 0]          # rejected, failovers
        self.shares: dict[str, int] = {}
        self.cmm: dict[str, float] = {}   # worker caches at the step's end
        self.workers = 0


class ServeProbe:
    """Timestamps around the micro-batcher, workers, router and batched
    codec paths of the serve phase, kept per labelled rate."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self.service: Any = None
        self._lock = threading.Lock()
        self.buckets: dict[str, _Bucket] = {}
        self.cur = _Bucket()
        self.added: dict[int, float] = {}
        self.flushed: dict[int, float] = {}
        self.workers: dict[int, Any] = {}

    def _on_flushes(self, flushes: Any) -> None:
        now = time.perf_counter()
        if flushes is None:
            return
        if not isinstance(flushes, list):
            flushes = [flushes]
        with self._lock:
            b = self.cur
            for f in flushes:
                self.flushed[id(f)] = now
                b.batch_sizes.append(len(f.items))
                b.reasons[f.reason] = b.reasons.get(f.reason, 0) + 1
                for item in f.items:
                    t = self.added.pop(id(item), None)
                    if t is not None:
                        b.queue_wait.append((now - t) * 1e3)

    def install(self) -> None:
        from repro import HuffmanX, MGARDX, ZFPX
        from repro.cluster import ClusterService, InProcShard
        from repro.serve.batcher import MicroBatchPlanner
        from repro.serve.worker import Worker

        probe = self
        rec = self.rec

        def add(fn: Callable[..., Any]) -> Callable[..., Any]:
            def wrapped(planner: Any, key: Any, item: Any, *a: Any, **k: Any) -> Any:
                with probe._lock:
                    probe.added[id(item)] = time.perf_counter()
                flushes = fn(planner, key, item, *a, **k)
                probe._on_flushes(flushes)
                return flushes
            return wrapped

        def closing(fn: Callable[..., Any]) -> Callable[..., Any]:
            def wrapped(*a: Any, **k: Any) -> Any:
                flushes = fn(*a, **k)
                probe._on_flushes(flushes)
                return flushes
            return wrapped

        def run_batch(fn: Callable[..., Any]) -> Callable[..., Any]:
            def wrapped(worker: Any, flush: Any) -> Any:
                t0 = time.perf_counter()
                with probe._lock:
                    t = probe.flushed.pop(id(flush), None)
                    if t is not None:
                        probe.cur.exec_wait.append((t0 - t) * 1e3)
                    probe.workers[id(worker)] = worker
                try:
                    return fn(worker, flush)
                finally:
                    dt = time.perf_counter() - t0
                    with probe._lock:
                        probe.cur.busy += dt
            return wrapped

        rec.replace(MicroBatchPlanner, "add", add)
        for attr in ("due", "flush_all", "close_key"):
            rec.replace(MicroBatchPlanner, attr, closing)
        rec.replace(Worker, "run_batch", run_batch)
        rec.patch(ClusterService, "submit", "cluster.submit")
        rec.patch(InProcShard, "submit", "cluster.shard")
        for cls, name in ((MGARDX, "mgard-x"), (ZFPX, "zfp-x"),
                          (HuffmanX, "huffman-x")):
            for op in ("compress", "decompress"):
                rec.patch(cls, f"{op}_batch", f"batch.{op}.{name}")

    def attach(self, service: Any) -> None:
        """Observe ``service`` from here on (a fresh set-up replaces it)."""
        self.service = service
        with self._lock:
            self.added.clear()
            self.flushed.clear()
            self.workers.clear()
        self.rec.clear()

    def uninstall(self) -> None:
        self.rec.unpatch()

    def _cluster_stats(self) -> tuple[int, int, dict[str, int]]:
        stats = getattr(self.service, "stats", None)
        if stats is None or not hasattr(stats, "per_shard"):
            return (0, 0, {})
        return (stats.rejected, stats.failovers, dict(stats.per_shard))

    def begin(self, label: str) -> None:
        """Attribute what follows to the step labelled ``label``."""
        with self._lock:
            self.cur = self.buckets.setdefault(label, _Bucket())
        self.rec.clear()
        self._c0 = self._cluster_stats()

    def end(self) -> None:
        b = self.cur
        spans = self.rec.spans
        b.routes += [t for sp, t in zip(spans, self_times(spans))
                     if sp.name == "cluster.submit"]
        for sp in spans:
            if sp.name.startswith("batch."):
                _, op, codec = sp.name.split(".", 2)
                key = f"compressors.batch.{op}_s.{codec}"
                b.batch_s[key] = b.batch_s.get(key, 0.0) + (sp.end - sp.start)
        rej0, fo0, shares0 = self._c0
        rej1, fo1, shares1 = self._cluster_stats()
        b.cluster[0] += rej1 - rej0
        b.cluster[1] += fo1 - fo0
        for k, v in shares1.items():
            b.shares[k] = b.shares.get(k, 0) + v - shares0.get(k, 0)
        b.workers = max(b.workers, len(self.workers))
        caches = [w.cache for w in self.workers.values()]
        hits = sum(c.hits for c in caches)
        misses = sum(c.misses for c in caches)
        b.cmm = {
            "core.context.hits": hits,
            "core.context.misses": misses,
            "core.context.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "core.context.live_bytes": sum(c.live_bytes for c in caches),
        }
        self.rec.clear()

    def snapshot(self, label: str, step: Any) -> dict[str, float]:
        """Per-layer numbers of every step labelled ``label`` (``step``
        is their pooled result)."""
        b = self.buckets.get(label, _Bucket())
        m: dict[str, float] = dict(b.batch_s)
        for name, values in (("queue_wait_ms", b.queue_wait),
                             ("executor_wait_ms", b.exec_wait)):
            for pct in (50, 99):
                try:
                    m[f"serve.{name}.p{pct}"] = percentile(values, pct)
                except ValueError:
                    m[f"serve.{name}.p{pct}"] = 0.0
        m["serve.worker_busy_frac"] = (
            b.busy / (step.duration_s * b.workers) if b.workers else 0.0)
        m["serve.batch_size"] = (
            sum(b.batch_sizes) / len(b.batch_sizes) if b.batch_sizes else 0.0)
        for reason in ("size", "deadline", "idle"):
            m[f"serve.flushes.{reason}"] = b.reasons.get(reason, 0)
        m["serve.rejected"] = sum("Overloaded" in e for e in step.errors)
        m.update(b.cmm)
        m["cluster.route_us"] = (
            1e6 * sum(b.routes) / len(b.routes) if b.routes else 0.0)
        m["cluster.rejected"], m["cluster.failovers"] = b.cluster
        total = sum(b.shares.values())
        m["cluster.shard_share_max"] = (
            max(b.shares.values()) * len(b.shares) / total if total else 0.0)
        return m


# ---------------------------------------------------------------------------
def traced_run(workload: str, seed: int, seconds: float, gate: Any,
               scratch: Any, measure: Callable[..., dict[str, Any]],
               say: Callable[[str], None]) -> dict[str, dict[str, Any]]:
    """Untraced pass, traced pass; returns the per-layer metric dict.

    The archive phase's probe gives the codec, adapter, io and
    progressive metrics, the serve phase's the serve, cluster and
    loadgen ones (from its ``hi`` step); the CMM counters add both
    phases' caches."""
    half = seconds / 2
    base = measure(workload, seed, half, gate, scratch, full=False)
    aprobe, sprobe = ArchiveProbe(), ServeProbe()
    traced = measure(workload, seed, half, gate, scratch,
                     probes=(aprobe, sprobe), full=False)
    layer = aprobe.metrics(traced["_archive"])
    steps = traced["_serve"]["_steps"]
    served = sprobe.snapshot("hi", steps["hi"])
    for k in ("core.context.hits", "core.context.misses",
              "core.context.live_bytes"):
        layer[k] += served.pop(k)
    looked_up = layer["core.context.hits"] + layer["core.context.misses"]
    layer["core.context.hit_rate"] = (
        layer["core.context.hits"] / looked_up if looked_up else 0.0)
    served.pop("core.context.hit_rate")
    layer.update(served)
    for label in ("lo", "hi"):
        step = steps[label]
        layer[f"loadgen.late_p99_ms.{label}"] = step.late_p99_ms()
        layer[f"loadgen.offered.{label}"] = step.offered
        layer[f"loadgen.completed.{label}"] = step.completed
    for name, unit in OVERHEAD.items():
        delta = traced[name] - base[name]
        layer[f"overhead.{name}"] = delta
        say(f"overhead {name}: traced {traced[name]:.6g} - untraced "
            f"{base[name]:.6g} = {delta:+.6g} {unit} "
            f"({100 * delta / base[name]:+.1f}%)")
    return {k: {"value": float(layer.get(k, 0.0)), "unit": u}
            for k, u in PER_LAYER.items()}
