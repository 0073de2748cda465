"""Seeded inputs.  The same seed gives byte-identical arrays.

The generators live here, not in ``repro.data``, so a change to the
program cannot change what the benchmark feeds it.  Fields mimic the
paper's datasets in shape, dtype and smoothness: a log-normal density
cube (NYX), a pressure field over time x lat x lon (E3SM), and a 4-D
velocity-space distribution (XGC).  Each comes in two sizes: ``bulk``
(the ``archive`` workload, about 1 MB a field) and ``small`` (the
``serve_mixed`` workload's archive phase, about 1/8 of that).
"""

from __future__ import annotations

import numpy as np

ARCHIVE_SHAPES = {
    "bulk": {
        "nyx": ((64, 64, 64), np.float32),
        "e3sm": ((90, 60, 120), np.float32),
        "xgc": ((4, 16, 512, 16), np.float64),
    },
    "small": {
        "nyx": ((32, 32, 32), np.float32),
        "e3sm": ((45, 30, 60), np.float32),
        "xgc": ((4, 8, 256, 8), np.float64),
    },
}


def _grf(rng: np.random.Generator, shape: tuple[int, ...],
         index: float) -> np.ndarray:
    """Unit-variance Gaussian random field with power spectrum k^index."""
    white = rng.standard_normal(shape)
    spec = np.fft.rfftn(white)
    k2 = np.zeros(spec.shape)
    for axis, n in enumerate(shape):
        freq = (np.fft.rfftfreq(n) if axis == len(shape) - 1
                else np.fft.fftfreq(n))
        view = [1] * len(shape)
        view[axis] = freq.size
        k2 = k2 + (freq ** 2).reshape(view)
    k2.flat[0] = 1.0
    spec *= k2 ** (index / 4.0)
    spec.flat[0] = 0.0
    field = np.fft.irfftn(spec, s=shape, axes=tuple(range(len(shape))))
    return field / field.std()


def archive_fields(seed: int, size: str = "bulk") -> dict[str, np.ndarray]:
    """The three campaign fields of an archive phase, in ``size``."""
    rng = np.random.default_rng([seed, 1])
    shapes = ARCHIVE_SHAPES[size]
    (nyx_shape, nyx_dt) = shapes["nyx"]
    nyx = np.exp(1.5 * _grf(rng, nyx_shape, -2.2)).astype(nyx_dt)

    (e_shape, e_dt) = shapes["e3sm"]
    nt, nlat, nlon = e_shape
    lat = np.linspace(-np.pi / 2, np.pi / 2, nlat)[None, :, None]
    e3sm = (101325.0 - 2500.0 * np.sin(lat) ** 2
            + 900.0 * _grf(rng, e_shape, -3.0)).astype(e_dt)

    (x_shape, x_dt) = shapes["xgc"]
    nplane, nvpar, nnode, nvperp = x_shape
    vpar = np.linspace(-3, 3, nvpar)[None, :, None, None]
    vperp = np.linspace(0, 3, nvperp)[None, None, None, :]
    temp = 1.0 + 0.3 * np.tanh(_grf(rng, (nplane, nnode), -2.5))
    dens = np.exp(0.5 * _grf(rng, (nplane, nnode), -2.0))
    temp = temp[:, None, :, None]
    dens = dens[:, None, :, None]
    xgc = dens * np.exp(-(vpar ** 2 + vperp ** 2) / (2 * temp))
    xgc = (xgc * (1.0 + 0.01 * rng.standard_normal(x_shape))).astype(x_dt)
    return {"nyx": nyx, "e3sm": e3sm, "xgc": xgc}


def quantize_int32(field: np.ndarray, rel: float = 1e-3) -> np.ndarray:
    """Integer quantization of ``field`` at ``rel`` x its value range:
    the Huffman-X input of an archive phase."""
    lo = float(field.min())
    step = rel * (float(field.max()) - lo)
    return np.round((field.astype(np.float64) - lo) / step).astype(np.int32)


def small_payload(seed: int) -> np.ndarray:
    """The single 16x16 float32 payload of the ``serve_small`` target
    (the ``archive`` workload's serve phase)."""
    rng = np.random.default_rng([seed, 2])
    return _grf(rng, (16, 16), -2.0).astype(np.float32)


def mixed_payloads(seed: int, names: list[str]) -> list[np.ndarray]:
    """One 32x32 float32 payload per roster entry of the ``serve_mixed``
    target;
    integer-valued where the codec is Huffman-X (a lossless byte coder
    earns its ratio on repeated symbols)."""
    rng = np.random.default_rng([seed, 3])
    out = []
    for name in names:
        field = _grf(rng, (32, 32), -2.0)
        if name == "huffman-x":
            field = np.round(8.0 * field)
        out.append(field.astype(np.float32))
    return out
