"""ZFP-X fixed-rate compressor (paper Algorithm 3).

The whole per-block chain — exponent alignment, fixed-point conversion,
near-orthogonal transform, bitplane truncation — runs under a single
Locality abstraction: blocks are independent, emit identical bit counts,
and need no global coordination for serialization.
"""

from __future__ import annotations

import math
import struct
from typing import Sequence

import numpy as np

from repro.core.abstractions import block_grid, blockize, locality, unblockize
from repro.core.context import ContextCache
from repro.core.functor import LocalityFunctor
from repro.compressors.zfp.bitplane import INTPREC, decode_blocks, encode_blocks
from repro.compressors.zfp.fixedpoint import (
    E_BITS,
    block_exponents,
    from_fixed_point,
    to_fixed_point,
)
from repro.compressors.zfp.transform import fwd_transform, inv_transform
from repro.trace.metrics import REGISTRY as _METRICS
from repro.trace.tracer import NULL_SPAN, Span, TRACER as _TRACER
from repro.util import stream_errors

_MAGIC = b"ZFPX"
_VERSION = 1


def _span(name: str, **args):
    """ZFP stage span (shared NULL_SPAN when tracing is off)."""
    if not _TRACER.enabled:
        return NULL_SPAN
    return Span(_TRACER, name, "zfp", args)


def _count_bytes(nbytes_in: int, nbytes_out: int) -> None:
    if not _TRACER.enabled:
        return
    _METRICS.counter("hpdr_bytes_in_total", "bytes fed to compress()").inc(
        int(nbytes_in), codec="zfp"
    )
    _METRICS.counter("hpdr_bytes_out_total", "compressed bytes produced").inc(
        int(nbytes_out), codec="zfp"
    )


def rate_for_error_bound(error_bound: float, dtype=np.float32, ndim: int = 3) -> float:
    """Heuristic rate (bits/value) targeting a relative error bound.

    Transform-coding error halves per kept bitplane, so the plane count
    scales with ``-log2(eb)``; the block header amortizes over ``4^ndim``
    values.  This mirrors how the paper's evaluation drives ZFP's
    fix-rate mode from the same relative bounds used for MGARD.
    """
    if error_bound <= 0 or error_bound >= 1:
        raise ValueError(f"error_bound must be in (0, 1), got {error_bound}")
    dtype = np.dtype(dtype)
    # Extra planes absorb the inverse transform's error amplification
    # (roughly a factor per lifted dimension) and the fact that this
    # codec truncates bitplanes uniformly (no embedded group-testing,
    # so every coefficient shares the budget).
    planes = math.ceil(-math.log2(error_bound)) + 2 + ndim
    planes = max(2, min(INTPREC[dtype], planes))
    bs = 4**ndim
    return planes + (1 + E_BITS[dtype]) / bs


class _ZfpEncodeFunctor(LocalityFunctor):
    """Locality stage: align → fixed point → transform → bitplanes."""

    name = "zfp.encode"
    bytes_per_element = 7.5

    def __init__(self, ndim: int, maxbits: int, dtype: np.dtype) -> None:
        self._ndim = ndim
        self._maxbits = maxbits
        self._dtype = np.dtype(dtype)

    def apply(self, blocks: np.ndarray) -> np.ndarray:
        n = blocks.shape[0]
        with _span("zfp.align", blocks=n):
            flat = blocks.reshape(n, -1).astype(self._dtype)
            emax = block_exponents(flat)
            iblocks = to_fixed_point(flat, emax)
        with _span("zfp.transform", blocks=n):
            coeffs = fwd_transform(iblocks, self._ndim)
        with _span("zfp.bitplane", blocks=n):
            return encode_blocks(coeffs, emax, self._maxbits, self._dtype)


class _ZfpDecodeFunctor(LocalityFunctor):
    """Locality stage: bitplanes → inverse transform → floats."""

    name = "zfp.decode"
    bytes_per_element = 7.5

    def __init__(self, ndim: int, maxbits: int, dtype: np.dtype) -> None:
        self._ndim = ndim
        self._maxbits = maxbits
        self._dtype = np.dtype(dtype)

    def apply(self, records: np.ndarray) -> np.ndarray:
        bs = 4**self._ndim
        n = records.shape[0]
        with _span("zfp.bitplane", blocks=n):
            coeffs, emax = decode_blocks(records.reshape(n, -1),
                                         self._maxbits, bs, self._dtype)
        with _span("zfp.transform", blocks=n):
            iblocks = inv_transform(coeffs, self._ndim)
        with _span("zfp.align", blocks=n):
            flat = from_fixed_point(iblocks, emax, self._dtype)
            return flat.reshape((n,) + (4,) * self._ndim)


class ZFPX:
    """HPDR fixed-rate ZFP compressor.

    Parameters
    ----------
    rate:
        Compressed bits per value.  Each 4^d block stores exactly
        ``round(rate * 4^d)`` bits (byte-padded per block).
    adapter:
        Device adapter (defaults to serial).
    context_cache:
        Optional CMM cache: the block-batch staging buffer persists per
        (shape, dtype, rate), so repeated same-shaped compressions
        allocate nothing through the context.
    """

    def __init__(
        self,
        rate: float = 8.0,
        adapter=None,
        context_cache: ContextCache | None = None,
    ) -> None:
        if rate <= 0 or rate > 64 + 2:
            raise ValueError(f"rate must be in (0, 66], got {rate}")
        self.rate = float(rate)
        self.adapter = adapter
        self.cache = context_cache if context_cache is not None else ContextCache()

    def _maxbits(self, ndim: int, dtype: np.dtype) -> int:
        bs = 4**ndim
        want = int(round(self.rate * bs))
        return max(want, 1 + E_BITS[np.dtype(dtype)])

    def compress(self, data: np.ndarray) -> bytes:
        data = np.ascontiguousarray(data)
        dtype = np.dtype(data.dtype)
        if dtype not in INTPREC:
            raise TypeError(f"ZFP-X supports float32/float64, got {dtype}")
        ndim = data.ndim
        if not 1 <= ndim <= 4:
            raise ValueError(f"ZFP-X supports 1-4 dimensions, got {ndim}")
        maxbits = self._maxbits(ndim, dtype)

        ctx = self.cache.get(("zfp", data.shape, dtype.str, maxbits), pin=True)
        try:
            records = locality(
                data,
                _ZfpEncodeFunctor(ndim, maxbits, dtype),
                block_shape=(4,) * ndim,
                adapter=self.adapter,
                pad_mode="edge",
                reassemble=False,
                ctx=ctx,
            )
        finally:
            self.cache.release(ctx)
        with _span("zfp.serialize", nblocks=int(records.shape[0])):
            header = struct.pack(
                "<4sBBBdI",
                _MAGIC,
                _VERSION,
                1 if dtype == np.float64 else 0,
                ndim,
                self.rate,
                maxbits,
            ) + struct.pack(f"<{ndim}q", *data.shape)
            blob = header + records.tobytes()
        _count_bytes(data.nbytes, len(blob))
        return blob

    @stream_errors
    def decompress(self, blob: bytes) -> np.ndarray:
        magic, version, is64, ndim, rate, maxbits = struct.unpack_from("<4sBBBdI", blob, 0)
        if magic != _MAGIC:
            raise ValueError("not a ZFP-X stream (bad magic)")
        if version != _VERSION:
            raise ValueError(f"unsupported ZFP-X version {version}")
        off = struct.calcsize("<4sBBBdI")
        shape = struct.unpack_from(f"<{ndim}q", blob, off)
        off += 8 * ndim
        dtype = np.dtype(np.float64 if is64 else np.float32)
        rec_bytes = -(-maxbits // 8)
        grid_shape = tuple(-(-n // 4) for n in shape)
        nblocks = int(np.prod(grid_shape))
        records = np.frombuffer(
            blob, dtype=np.uint8, count=nblocks * rec_bytes, offset=off
        ).reshape(nblocks, rec_bytes)

        decoder = _ZfpDecodeFunctor(ndim, maxbits, dtype)
        if self.adapter is not None:
            blocks = self.adapter.execute_group_batch(decoder, records)
        else:
            blocks = decoder.apply(records)
        return unblockize(blocks, grid_shape, tuple(shape))

    # -- vectorized batch entry points ------------------------------------
    def compress_batch(self, arrays: Sequence[np.ndarray]) -> list[bytes]:
        """Compress N same-shape/same-dtype arrays in one GEM launch.

        Byte-identical to calling :meth:`compress` per array: ZFP blocks
        encode independently with per-block exponents, so concatenating
        every array's blocks into one batch and slicing the records back
        out reproduces each single-shot stream exactly (the serving
        conformance suite pins this).  The win is amortization — one
        adapter launch and one vectorized bitplane pass over
        ``N x nblocks`` blocks instead of N launches over ``nblocks``.

        Raises ``ValueError`` when the arrays disagree on shape or dtype
        (callers such as :class:`repro.serve.worker.Worker` then fall
        back to per-array execution).
        """
        arrays = [np.ascontiguousarray(a) for a in arrays]
        if not arrays:
            return []
        first = arrays[0]
        dtype = np.dtype(first.dtype)
        if dtype not in INTPREC:
            raise TypeError(f"ZFP-X supports float32/float64, got {dtype}")
        shape = first.shape
        ndim = first.ndim
        if not 1 <= ndim <= 4:
            raise ValueError(f"ZFP-X supports 1-4 dimensions, got {ndim}")
        for a in arrays[1:]:
            if a.shape != shape or a.dtype != dtype:
                raise ValueError(
                    "compress_batch requires uniform shape/dtype, got "
                    f"{a.shape}/{a.dtype} vs {shape}/{dtype}"
                )
        if len(arrays) == 1:
            return [self.compress(first)]

        maxbits = self._maxbits(ndim, dtype)
        block_shape = (4,) * ndim
        grid_shape = block_grid(shape, block_shape)
        nblocks = int(np.prod(grid_shape))
        bs = 4**ndim
        n = len(arrays)
        # The batch staging lives in scratch (capacity only grows), so a
        # fluctuating batch size N reaches a zero-alloc steady state
        # instead of rebinding an exact-shape buffer every flush.
        ctx = self.cache.get(("zfp.batch", shape, dtype.str, maxbits), pin=True)
        try:
            batch = ctx.scratch("batch", n * nblocks * bs, dtype).reshape(
                (n * nblocks,) + block_shape
            )
            with _span("zfp.blockize", arrays=n, blocks=n * nblocks):
                for i, a in enumerate(arrays):
                    blockize(
                        a, block_shape, pad_mode="edge",
                        out=batch[i * nblocks:(i + 1) * nblocks],
                    )
            functor = _ZfpEncodeFunctor(ndim, maxbits, dtype)
            if self.adapter is not None:
                records = self.adapter.execute_group_batch(functor, batch)
            else:
                records = functor.apply(batch)
        finally:
            self.cache.release(ctx)
        with _span("zfp.serialize", nblocks=n * nblocks, arrays=n):
            header = struct.pack(
                "<4sBBBdI",
                _MAGIC,
                _VERSION,
                1 if dtype == np.float64 else 0,
                ndim,
                self.rate,
                maxbits,
            ) + struct.pack(f"<{ndim}q", *shape)
            per_array = records.reshape(n, nblocks, -1)
            blobs = [header + per_array[i].tobytes() for i in range(n)]
        _count_bytes(n * first.nbytes, sum(len(b) for b in blobs))
        return blobs

    @stream_errors
    def decompress_batch(self, blobs: Sequence[bytes]) -> list[np.ndarray]:
        """Decompress N uniform ZFP-X streams in one GEM launch.

        Every stream must carry a byte-identical header (same shape,
        dtype and rate); otherwise ``ValueError`` and callers fall back
        to per-stream :meth:`decompress`.  Results match the single-shot
        path exactly.
        """
        blobs = list(blobs)
        if not blobs:
            return []
        if len(blobs) == 1:
            return [self.decompress(blobs[0])]
        magic, version, is64, ndim, _rate, maxbits = struct.unpack_from(
            "<4sBBBdI", blobs[0], 0
        )
        if magic != _MAGIC:
            raise ValueError("not a ZFP-X stream (bad magic)")
        if version != _VERSION:
            raise ValueError(f"unsupported ZFP-X version {version}")
        off = struct.calcsize("<4sBBBdI")
        shape = struct.unpack_from(f"<{ndim}q", blobs[0], off)
        off += 8 * ndim
        header = blobs[0][:off]
        for b in blobs[1:]:
            if bytes(b[:off]) != header:
                raise ValueError(
                    "decompress_batch requires uniform stream headers"
                )
        dtype = np.dtype(np.float64 if is64 else np.float32)
        rec_bytes = -(-maxbits // 8)
        grid_shape = tuple(-(-s // 4) for s in shape)
        nblocks = int(np.prod(grid_shape))
        n = len(blobs)

        ctx = self.cache.get(
            ("zfp.batch", tuple(shape), dtype.str, maxbits), pin=True
        )
        try:
            records = ctx.scratch(
                "records", n * nblocks * rec_bytes, np.uint8
            ).reshape(n * nblocks, rec_bytes)
            with _span("zfp.gather", arrays=n, blocks=n * nblocks):
                for i, b in enumerate(blobs):
                    records[i * nblocks:(i + 1) * nblocks] = np.frombuffer(
                        b, dtype=np.uint8, count=nblocks * rec_bytes,
                        offset=off,
                    ).reshape(nblocks, rec_bytes)
            decoder = _ZfpDecodeFunctor(ndim, maxbits, dtype)
            if self.adapter is not None:
                blocks = self.adapter.execute_group_batch(decoder, records)
            else:
                blocks = decoder.apply(records)
        finally:
            self.cache.release(ctx)
        return [
            unblockize(
                blocks[i * nblocks:(i + 1) * nblocks], grid_shape, tuple(shape)
            )
            for i in range(n)
        ]

    # -- reporting helpers ------------------------------------------------
    def compression_ratio(self, data: np.ndarray, blob: bytes) -> float:
        return data.nbytes / len(blob)

    def expected_ratio(self, ndim: int, dtype=np.float32) -> float:
        """Nominal ratio from the rate alone (ignores headers/padding)."""
        bits_per_value = np.dtype(dtype).itemsize * 8
        maxbits = self._maxbits(ndim, dtype)
        bs = 4**ndim
        stored_bits = 8 * (-(-maxbits // 8))
        return bits_per_value * bs / stored_bits
