"""The archive phase: offline campaign reduction, writes beside reads.

Three fields go through every one-shot codec (MGARD-X, ZFP-X, Huffman-X
on an int32 quantization) on both the serial and the 2-thread openmp
adapter, then through progressive refactoring into a BP store and a
fixed ladder of bounded retrievals from it.  Serve and cluster do no
work here.  The ``archive`` workload runs it on ``bulk`` fields, the
``serve_mixed`` workload on ``small`` ones.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any

import numpy as np

from hpdrbench.gate import Gate
from hpdrbench.inputs import archive_fields, quantize_int32
from hpdrbench.stats import median

ADAPTERS = ("serial", "openmp")
OPENMP_THREADS = 2
CODECS = ("mgard", "zfp", "huffman")
MGARD_REL = 1e-3
ZFP_RATE = 10.0
HUFFMAN_REL = 1e-3
PROGRESSIVE_REL = 1e-4
#: bounded-retrieval ladder, relative to each field's value range.
LADDER_EPS = (1e-1, 1e-2, 1e-3, 2e-4)
LADDER_RESOLUTION = 2
#: times a progressive round reads the ladder: one pass is about a
#: third of a round, and its time swung by a fifth from pass to pass.
LADDER_PASSES = 2
#: setups per run (the median is reported).
SETUPS = 3
#: timed rounds of each kind a phase makes at least.
MIN_ROUNDS = 2


class Archive:
    """One run of the archive phase on fields of ``size``."""

    def __init__(self, seed: int, scratch: Path, gate: Gate,
                 size: str = "bulk") -> None:
        self.fields = archive_fields(seed, size)
        self.keys = {k: quantize_int32(v, HUFFMAN_REL)
                     for k, v in self.fields.items()}
        self.ranges = {k: float(v.max()) - float(v.min())
                       for k, v in self.fields.items()}
        self.scratch = scratch
        self.gate = gate
        self.adapters: dict[str, Any] = {}
        self.codecs: dict[tuple[str, str], Any] = {}
        self.caches: list[Any] = []
        self.progressive: Any = None
        self.retriever: Any = None
        self.identical = 0
        # Stores for the cold retrievals of set-up, written by a codec
        # instance of their own (like the fields, inputs, not set-up).
        from repro import Config
        from repro.progressive import ProgressiveMGARD, write_store

        writer = ProgressiveMGARD(Config(error_bound=PROGRESSIVE_REL))
        self.cold_stores = {}
        for name, field in self.fields.items():
            self.cold_stores[name] = self._store_path(name, "cold")
            write_store(self.cold_stores[name], *writer.refactor(field))

    # -- set-up ---------------------------------------------------------
    def _close(self) -> None:
        for adapter in self.adapters.values():
            close = getattr(adapter, "close", None)
            if close is not None:
                close()
        self.adapters.clear()

    def setup(self) -> float:
        """Build adapters, codecs and caches, then make the first (cold)
        call per codec and shape; returns its wall time.

        The progressive codec's cold call is one retrieval per field: it
        builds the per-shape context (hierarchy, factors, coder buffers)
        that refactoring shares, without refactoring (about half a
        round's work) three times per run."""
        from repro import MGARDX, ZFPX, Config, HuffmanX
        from repro.adapters import get_adapter
        from repro.core.context import ContextCache
        from repro.progressive import ProgressiveMGARD, ProgressiveRetriever

        self._close()
        t0 = time.perf_counter()
        self.adapters = {
            "serial": get_adapter("serial"),
            "openmp": get_adapter("openmp", num_threads=OPENMP_THREADS),
        }
        self.caches = []
        self.codecs = {}
        for ad, adapter in self.adapters.items():
            for codec in CODECS:
                cache = ContextCache()
                self.caches.append(cache)
                if codec == "mgard":
                    obj = MGARDX(Config(error_bound=MGARD_REL),
                                 adapter=adapter, context_cache=cache)
                elif codec == "zfp":
                    obj = ZFPX(rate=ZFP_RATE, adapter=adapter,
                               context_cache=cache)
                else:
                    obj = HuffmanX(adapter=adapter, context_cache=cache)
                self.codecs[(codec, ad)] = obj
        pcache = ContextCache()
        self.caches.append(pcache)
        self.progressive = ProgressiveMGARD(
            Config(error_bound=PROGRESSIVE_REL), context_cache=pcache)
        self.retriever = ProgressiveRetriever(context_cache=pcache)
        for (codec, ad), obj in self.codecs.items():
            for name in self.fields:
                obj.decompress(obj.compress(self._input(codec, name)))
        for store in self.cold_stores.values():
            self.retriever.retrieve(store, resolution=LADDER_RESOLUTION)
        return time.perf_counter() - t0

    def _input(self, codec: str, name: str) -> np.ndarray:
        return self.keys[name] if codec == "huffman" else self.fields[name]

    def _store_path(self, name: str, sub: str = "rounds") -> Path:
        parent = self.scratch / sub
        parent.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=parent))

    # -- timed rounds ---------------------------------------------------
    def codec_round(self, probe: Any = None) -> dict[str, float]:
        """Every one-shot codec on every field and adapter, timed per
        call; outputs are checked after the timing."""
        nbytes = stream = 0
        t_comp = t_decomp = 0.0
        per_adapter = {ad: [0.0, 0.0] for ad in ADAPTERS}
        blobs: dict[tuple[str, str, str], bytes] = {}
        outs: dict[tuple[str, str, str], np.ndarray] = {}
        for codec in CODECS:
            for name in self.fields:
                x = self._input(codec, name)
                for ad in ADAPTERS:
                    obj = self.codecs[(codec, ad)]
                    with _maybe(probe, f"call.{codec}.compress.{ad}"):
                        t0 = time.perf_counter()
                        blob = obj.compress(x)
                        t1 = time.perf_counter()
                    with _maybe(probe, f"call.{codec}.decompress.{ad}"):
                        t2 = time.perf_counter()
                        y = obj.decompress(blob)
                        t3 = time.perf_counter()
                    t_comp += t1 - t0
                    t_decomp += t3 - t2
                    per_adapter[ad][0] += t1 - t0
                    per_adapter[ad][1] += t3 - t2
                    nbytes += x.nbytes
                    stream += len(blob)
                    blobs[(codec, name, ad)] = blob
                    outs[(codec, name, ad)] = y
        self._check_codecs(blobs, outs)
        return {
            "compress_MBps": nbytes / 1e6 / t_comp,
            "decompress_MBps": nbytes / 1e6 / t_decomp,
            "ratio": nbytes / stream,
            "serial_compress_s": per_adapter["serial"][0],
            "openmp_compress_s": per_adapter["openmp"][0],
            "serial_decompress_s": per_adapter["serial"][1],
            "openmp_decompress_s": per_adapter["openmp"][1],
        }

    def _check_codecs(self, blobs: dict, outs: dict) -> None:
        gate = self.gate
        identical = 0
        for codec in CODECS:
            for name, field in self.fields.items():
                x = self._input(codec, name)
                for ad in ADAPTERS:
                    y = outs[(codec, name, ad)]
                    tag = f"{codec}/{name}/{ad}"
                    if codec == "mgard":
                        bound = MGARD_REL * self.ranges[name]
                        err = float(np.max(np.abs(
                            y.astype(np.float64) - field.astype(np.float64))))
                        gate.check(err <= bound, f"{tag}: max error {err:.3g} > bound {bound:.3g}")
                    elif codec == "huffman":
                        gate.check(y.dtype == x.dtype and np.array_equal(y, x),
                                   f"{tag}: lossless round trip differs")
                    else:
                        want = zfp_stream_bytes(x.shape, ZFP_RATE)
                        got = len(blobs[(codec, name, ad)])
                        gate.check(
                            y.shape == x.shape and y.dtype == x.dtype and got == want,
                            f"{tag}: {y.shape}/{y.dtype}, stream {got} B "
                            f"(rate {ZFP_RATE} needs {want} B)")
                serial_blob = blobs[(codec, name, "serial")]
                omp_blob = blobs[(codec, name, "openmp")]
                identical += serial_blob == omp_blob
                if codec == "zfp":
                    cross = self.codecs[(codec, "serial")].decompress(omp_blob)
                    gate.check(np.array_equal(cross, outs[(codec, name, "openmp")]),
                               f"zfp/{name}: serial decode of the openmp stream differs")
        self.identical = identical

    def progressive_round(self, probe: Any = None) -> dict[str, float]:
        """Refactor every field into a BP store, then read the ladder
        ``LADDER_PASSES`` times."""
        from repro.progressive import write_store

        t_ref = t_ret = 0.0
        nbytes = recon = fetched = full = 0
        checks = []
        try:
            stores = {}
            for name, field in self.fields.items():
                store = self._store_path(name)
                with _maybe(probe, "call.progressive.refactor"):
                    t0 = time.perf_counter()
                    index, segments = self.progressive.refactor(field)
                    write_store(store, index, segments)
                    t_ref += time.perf_counter() - t0
                nbytes += field.nbytes
                stores[name] = store
            for _ in range(LADDER_PASSES):
                for name, field in self.fields.items():
                    for rel in LADDER_EPS:
                        eps = rel * self.ranges[name]
                        with _maybe(probe, "call.progressive.retrieve"):
                            t0 = time.perf_counter()
                            arr, report = self.retriever.retrieve(
                                stores[name], eps=eps)
                            t_ret += time.perf_counter() - t0
                        checks.append((name, eps, arr, report))
                    with _maybe(probe, "call.progressive.retrieve"):
                        t0 = time.perf_counter()
                        arr, report = self.retriever.retrieve(
                            stores[name], resolution=LADDER_RESOLUTION)
                        t_ret += time.perf_counter() - t0
                    checks.append((name, None, arr, report))
        finally:
            shutil.rmtree(self.scratch / "rounds", ignore_errors=True)
        segs = 0
        for name, eps, arr, report in checks:
            field = self.fields[name]
            recon += arr.nbytes
            fetched += report.bytes_fetched
            full += report.total_bytes
            segs += report.segments_fetched
            err = float(np.max(np.abs(arr.astype(np.float64) - field.astype(np.float64))))
            bound = eps if eps is not None else report.error_bound
            self.gate.check(arr.shape == field.shape and err <= bound,
                            f"progressive/{name}: eps={eps} max error {err:.3g} > {bound:.3g}")
        return {
            "refactor_MBps": nbytes / 1e6 / t_ref,
            "retrieve_MBps": recon / 1e6 / t_ret,
            "fetched_frac": fetched / full,
            # per ladder pass (every pass fetches the same)
            "segments_fetched": segs // LADDER_PASSES,
            "bytes_fetched": fetched // LADDER_PASSES,
        }

    def cmm(self) -> dict[str, float]:
        hits = sum(c.hits for c in self.caches)
        misses = sum(c.misses for c in self.caches)
        return {
            "core.context.hits": hits,
            "core.context.misses": misses,
            "core.context.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "core.context.live_bytes": sum(c.live_bytes for c in self.caches),
        }

    def close(self) -> None:
        self._close()
        shutil.rmtree(self.scratch, ignore_errors=True)


def zfp_stream_bytes(shape: tuple[int, ...], rate: float) -> int:
    """Expected ZFP-X fixed-rate stream length: a 19-byte header plus
    8 bytes per dimension, then one byte-padded record of
    ``round(rate * 4^d)`` bits per 4^d block."""
    ndim = len(shape)
    rec_bytes = -(-int(round(rate * 4 ** ndim)) // 8)
    blocks = math.prod(-(-n // 4) for n in shape)
    return 19 + 8 * ndim + blocks * rec_bytes


class _Null:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL = _Null()


def _maybe(probe: Any, name: str) -> Any:
    return _NULL if probe is None else probe.span(name)


class Phase:
    """The archive phase of one pass: set up ``SETUPS`` times and run
    one warm-up codec and progressive round on construction, then
    :meth:`rounds` in one or more slices and :meth:`result`.

    The warm-up is checked like any round but not counted: the first
    rounds after set-up run about a third slower (the allocator still
    maps fresh pages for the refactor and ladder buffers), and with a
    few rounds a run that one cold round lands in the middle of reads
    as a slow host.  ``probe`` (the traced run) is attached after it."""

    def __init__(self, seed: int, scratch: Path, gate: Gate,
                 probe: Any = None, size: str = "bulk") -> None:
        self.wl = Archive(seed, scratch, gate, size)
        self.probe = probe
        self.codec_rounds: list[dict[str, float]] = []
        self.prog_rounds: list[dict[str, float]] = []
        try:
            self.setups = [self.wl.setup() for _ in range(SETUPS)]
            self.wl.codec_round()
            self.wl.progressive_round()
        except BaseException:
            self.wl.close()
            raise
        if probe is not None:
            probe.attach(self.wl)

    def rounds(self, seconds: float) -> None:
        """Alternate codec and progressive rounds for about ``seconds``:
        at least one pair, and no new pair once less than half of the
        last pair's time is left."""
        deadline = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            self.codec_rounds.append(self.wl.codec_round(self.probe))
            self.prog_rounds.append(self.wl.progressive_round(self.probe))
            now = time.perf_counter()
            if now + (now - t0) / 2 >= deadline:
                break

    def result(self) -> dict[str, Any]:
        """Medians over the timed rounds (at least ``MIN_ROUNDS`` pairs;
        missing ones are run now)."""
        while len(self.prog_rounds) < MIN_ROUNDS:
            self.rounds(0.0)
        wl = self.wl
        codec_rounds, prog_rounds = self.codec_rounds, self.prog_rounds
        out: dict[str, Any] = {"setup_s": median(self.setups)}
        for key in ("compress_MBps", "decompress_MBps", "ratio"):
            out[key] = median([r[key] for r in codec_rounds])
        for key in ("refactor_MBps", "retrieve_MBps", "fetched_frac"):
            out[key] = median([r[key] for r in prog_rounds])
        out["_layers"] = {
            "codec_rounds": codec_rounds,
            "prog_rounds": prog_rounds,
            "identical": wl.identical,
            "cmm": wl.cmm(),
        }
        return out

    def close(self) -> None:
        self.wl.close()


def run(seed: int, seconds: float, scratch: Path, gate: Gate,
        probe: Any = None, size: str = "bulk") -> dict[str, Any]:
    """The whole archive phase in one slice of ``seconds``."""
    phase = Phase(seed, scratch, gate, probe, size)
    try:
        phase.rounds(seconds)
        return phase.result()
    finally:
        phase.close()
