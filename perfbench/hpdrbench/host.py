"""Host fingerprint printed with every result."""

from __future__ import annotations

import os
import platform
import sys


def fingerprint() -> dict[str, object]:
    import numpy as np

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu": model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
