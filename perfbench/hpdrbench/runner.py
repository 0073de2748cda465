"""Runs one workload and assembles the result line."""

from __future__ import annotations

import json
import shutil
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from hpdrbench.gate import Gate
from hpdrbench.host import fingerprint


@dataclass(frozen=True)
class Plan:
    """What one workload runs: an archive phase on fields of
    ``fields`` for ``archive_share`` of ``--seconds``, and a serve phase
    against the ``serve`` target for the rest."""

    fields: str
    serve: str
    archive_share: float


#: every workload runs both phases, so each reports every metric; they
#: differ in payload size and in the phase that gets most of the time.
WORKLOADS = {
    "archive": Plan(fields="bulk", serve="serve_small", archive_share=0.75),
    "serve_mixed": Plan(fields="small", serve="serve_mixed",
                        archive_share=0.5),
}

#: end-to-end metrics (name -> unit) every workload reports.
END_TO_END = {
    "setup_s": "s",
    "compress_MBps": "MB/s",
    "decompress_MBps": "MB/s",
    "ratio": "x",
    "refactor_MBps": "MB/s",
    "retrieve_MBps": "MB/s",
    "fetched_frac": "ratio",
    "p50_ms.lo": "ms",
    "p50_ms.hi": "ms",
}
#: measured and printed, but not in the result: over ten runs their
#: spread exceeded the largest bound a metric may have (README.md).
UNBOUNDED = {"p99_ms.lo": "ms", "p99_ms.hi": "ms", "max_rps": "req/s"}


def _say(line: str) -> None:
    print(line, flush=True)


def _assert_program_trace_off() -> None:
    from repro import trace

    if trace.enabled():
        raise RuntimeError("repro.trace is enabled; the benchmark needs it off")


@contextmanager
def _installed(probe: Any) -> Iterator[None]:
    if probe is None:
        yield
        return
    probe.install()
    try:
        yield
    finally:
        probe.uninstall()


def measure(workload: str, seed: int, seconds: float, gate: Gate,
            scratch: Path, probes: Any = None, full: bool = True,
            split: bool = False) -> dict[str, Any]:
    """One pass of ``workload``: the archive phase and the serve phase.

    With ``split`` the archive phase's timed rounds run in slices
    between the serve phase's rounds of fixed steps, so every metric
    samples the whole run: the shared host's speed drifts over tens of
    seconds, and a phase run in one block read it at one moment.
    Without it (the traced run) the serve phase follows the archive
    phase.  ``probes`` (the traced pass) is an ``(archive, serve)`` pair
    of probes, each installed only while its phase runs.  ``setup_s`` is
    the sum of the two phases' median set-ups.  The phases' other
    results are kept under ``_archive`` and ``_serve``."""
    from hpdrbench import archive, serve

    plan = WORKLOADS[workload]
    aprobe, sprobe = probes if probes is not None else (None, None)
    assert not (split and probes is not None), "a traced pass is not split"
    archive_s = plan.archive_share * seconds
    serve_s = seconds - archive_s
    _assert_program_trace_off()
    if split:
        phase = archive.Phase(seed, scratch, gate, None, plan.fields)
        try:
            slice_s = archive_s / serve.SETTINGS[plan.serve].rounds
            s = serve.run(plan.serve, seed, serve_s, gate, full=full,
                          between=lambda: phase.rounds(slice_s))
            a = phase.result()
        finally:
            phase.close()
    else:
        with _installed(aprobe):
            a = archive.run(seed, archive_s, scratch, gate, aprobe,
                            plan.fields)
        with _installed(sprobe):
            s = serve.run(plan.serve, seed, serve_s, gate, sprobe, full=full)
    _assert_program_trace_off()
    for name, unit in UNBOUNDED.items():
        if name in s:  # traced passes skip the max_rps search
            _say(f"info {name} = {s[name]:.6g} {unit}")
    for label, step in s["_steps"].items():
        _say(f"step {plan.serve} {label}: offered {step.rate:.1f} req/s, "
             f"{step.offered} sent, {step.completed} completed, "
             f"{step.failed} failed, generator late p99 "
             f"{step.late_p99_ms():.2f} ms, backlog "
             f"{'growing' if step.backlog_growing else 'steady'}"
             f"{', stopped early' if step.aborted else ''}, "
             f"valid {serve.step_passes(step, serve.SETTINGS[plan.serve])}")
    out = {k: v for k, v in a.items() if not k.startswith("_")}
    out.update({k: v for k, v in s.items() if not k.startswith("_")})
    out["setup_s"] = a["setup_s"] + s["setup_s"]
    out["_archive"], out["_serve"] = a, s
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        scratch: Path) -> dict[str, Any]:
    import repro  # noqa: F401  -- fail fast when the sources are missing

    _say("host " + json.dumps(fingerprint(), sort_keys=True))
    gate = Gate()
    try:
        if not trace:
            out = measure(workload, seed, seconds, gate, scratch, split=True)
            metrics = {k: {"value": float(out[k]), "unit": u}
                       for k, u in END_TO_END.items()}
        else:
            from hpdrbench import layers

            metrics = layers.traced_run(workload, seed, seconds, gate,
                                        scratch, measure, _say)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()  # only when no other run uses it
        except OSError:
            pass
    for message in gate.messages:
        print(f"CHECK FAILED: {message}", file=sys.stderr, flush=True)
    for name, m in metrics.items():
        _say(f"metric {name} = {m['value']:.6g} {m['unit']}")
    return {"json": {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }}
