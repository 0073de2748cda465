"""Huffman-X byte path on OpenMP under the sanitizer.

New streams are single-stream ``HUFX`` at every thread count and must
equal the serial bytes.  Legacy segmented ``HUFP`` streams, built by
hand at the retired writer's segment-count boundaries (±1 around each
64 KiB split), must still decode on every thread count.  Every adapter
is wrapped in :class:`SanitizingAdapter` — the configuration where a
halo race or context misuse between concurrent segments would surface.
"""

import numpy as np
import pytest

from repro import HuffmanX
from repro.adapters import get_adapter
from repro.check import SanitizingAdapter

#: Segment granularity of the retired multi-thread writer (64 KiB).
SEG = 1 << 16

#: ±1 around every segment-count transition up to 4 segments.
BOUNDARY_SIZES = [
    SEG - 1, SEG, SEG + 1,
    2 * SEG - 1, 2 * SEG, 2 * SEG + 1,
    4 * SEG, 4 * SEG + 1,
]


def _san_openmp(threads: int) -> SanitizingAdapter:
    return SanitizingAdapter(get_adapter("openmp", num_threads=threads))


def _payload(rng, nbytes: int) -> bytes:
    # Low-entropy bytes: compressible, and decode touches every chunk.
    return rng.integers(0, 17, size=nbytes).astype(np.uint8).tobytes()


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("nbytes", BOUNDARY_SIZES)
def test_roundtrip_at_segment_boundaries(rng, threads, nbytes, legacy_hufp):
    codec = HuffmanX(adapter=_san_openmp(threads))
    data = _payload(rng, nbytes)
    blob = codec.compress(data)
    assert blob == HuffmanX().compress(data)  # same bytes as serial
    assert codec.decompress(blob).tobytes() == data

    # The segment count the retired writer chose at this size/threads.
    legacy = legacy_hufp(data, max(1, min(threads, nbytes // SEG)))
    assert codec.decompress(legacy).tobytes() == data


@pytest.mark.parametrize("nbytes", [2 * SEG - 1, 2 * SEG, 2 * SEG + 1])
def test_cross_thread_count_decode(rng, nbytes, legacy_hufp):
    # Streams written with any thread count, and legacy streams of any
    # segment count, decode bit-exactly with any other thread count and
    # serially.
    data = _payload(rng, nbytes)
    written = {
        t: HuffmanX(adapter=_san_openmp(t)).compress(data) for t in (1, 2, 4)
    }
    assert len(set(written.values())) == 1
    blobs = list(written.values()) + [legacy_hufp(data, n) for n in (1, 2, 4)]
    readers = [
        HuffmanX(adapter=_san_openmp(t)) for t in (1, 2, 4)
    ] + [HuffmanX(adapter=SanitizingAdapter(get_adapter("serial")))]
    for blob in blobs:
        for reader in readers:
            assert reader.decompress(blob).tobytes() == data


@pytest.mark.parametrize("threads", [2, 4])
def test_segmented_steady_state_under_sanitizer(rng, threads, legacy_hufp):
    # Compress and the per-segment legacy decode contexts must reach
    # the zero-alloc steady state even while the sanitizer re-executes
    # every GEM batch.
    from repro.check import assert_steady_state

    codec = HuffmanX(adapter=_san_openmp(threads))
    data = _payload(rng, 3 * SEG)
    legacy = legacy_hufp(data, threads)
    assert_steady_state(
        lambda: (codec.compress(data), codec.decompress(legacy)), codec.cache
    )
