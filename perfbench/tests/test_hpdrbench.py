"""Self-tests of the benchmark (not of the program).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from hpdrbench import inputs, layers, runner  # noqa: E402
from hpdrbench.archive import Archive  # noqa: E402
from hpdrbench.gate import Gate  # noqa: E402
from hpdrbench.loadgen import StepResult  # noqa: E402
from hpdrbench.spans import SpanRec, coverage, self_times  # noqa: E402
from hpdrbench.stats import percentile, windowed_percentile  # noqa: E402


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- inputs ----------------------------------------------------------------
def test_same_seed_gives_identical_input_bytes():
    for size in inputs.ARCHIVE_SHAPES:
        a, b = inputs.archive_fields(7, size), inputs.archive_fields(7, size)
        assert all(a[k].tobytes() == b[k].tobytes() for k in a)
    a = inputs.archive_fields(7)
    assert inputs.small_payload(7).tobytes() == inputs.small_payload(7).tobytes()
    names = ["zfp-x", "huffman-x", "sz"]
    assert all(x.tobytes() == y.tobytes() for x, y in
               zip(inputs.mixed_payloads(7, names), inputs.mixed_payloads(7, names)))
    assert a["nyx"].tobytes() != inputs.archive_fields(8)["nyx"].tobytes()


def test_archive_inputs_match_the_workload_definition():
    for size, shapes in inputs.ARCHIVE_SHAPES.items():
        fields = inputs.archive_fields(1, size)
        for name, (shape, dtype) in shapes.items():
            assert fields[name].shape == shape and fields[name].dtype == dtype
    # Huffman-X inputs of the bulk fields stay >= 128 KB so the
    # segmented HUFP path runs.
    for field in inputs.archive_fields(1, "bulk").values():
        assert inputs.quantize_int32(field).nbytes >= 128 * 1024


def test_workloads_match_the_benchmark_json():
    names = [w["name"] for w in _benchmark_json()["workloads"]]
    assert sorted(names) == sorted(runner.WORKLOADS)
    for plan in runner.WORKLOADS.values():
        assert plan.fields in inputs.ARCHIVE_SHAPES
        assert 0 < plan.archive_share < 1


# -- metric names and units -----------------------------------------------
def _fake_measure(workload, seed, seconds, gate, scratch, probes=None, split=False,
                  full=True):
    gate.check(True, "")
    return {name: 1.5 for name in runner.END_TO_END}


def test_every_workload_prints_every_metric_with_its_unit(monkeypatch, tmp_path):
    spec = _benchmark_json()
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    monkeypatch.setattr(runner, "measure", _fake_measure)
    for workload in (w["name"] for w in spec["workloads"]):
        out = runner.run(workload, 1, 1.0, False, tmp_path / workload)["json"]
        assert out["correct"] and out["attempted"] == 1 and out["failed"] == 0
        assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert layers.PER_LAYER == {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_split_pass_runs_archive_slices_between_serve_rounds(monkeypatch,
                                                            tmp_path):
    from hpdrbench import archive, serve

    calls: list[str] = []

    class _Phase:
        def __init__(self, *a, **k):
            calls.append("setup")

        def rounds(self, seconds):
            calls.append(f"slice {seconds:g}")

        def result(self):
            calls.append("result")
            return {"setup_s": 1.0}

        def close(self):
            calls.append("close")

    def _serve(target, seed, seconds, gate, probe=None, full=True,
               between=None):
        for _ in range(serve.SETTINGS[target].rounds):
            calls.append("serve round")
            between()
        return {"setup_s": 0.5, "_steps": {}}

    monkeypatch.setattr(archive, "Phase", _Phase)
    monkeypatch.setattr(serve, "run", _serve)
    out = runner.measure("archive", 1, 12.0, Gate(), tmp_path, split=True)
    rounds = serve.SETTINGS["serve_small"].rounds
    slice_s = 12.0 * runner.WORKLOADS["archive"].archive_share / rounds
    assert calls == (["setup"] + ["serve round", f"slice {slice_s:g}"] * rounds
                     + ["result", "close"])
    assert out["setup_s"] == 1.5


# -- correctness gate -------------------------------------------------------
class _WrongDecoder:
    """A codec whose decoder returns the input shifted by one."""

    def compress(self, x):
        self._x = np.array(x)
        return b"\0" * 64

    def decompress(self, blob):
        return self._x + 1


def test_gate_fires_on_a_codec_that_decodes_wrongly():
    wl = Archive.__new__(Archive)
    field = np.linspace(0, 1, 4096, dtype=np.float32).reshape(16, 16, 16)
    wl.fields = {"f": field}
    wl.keys = {"f": inputs.quantize_int32(field)}
    wl.ranges = {"f": 1.0}
    wl.gate = Gate()
    wl.codecs = {(c, ad): _WrongDecoder()
                 for c in ("mgard", "zfp", "huffman")
                 for ad in ("serial", "openmp")}
    wl.codec_round()
    # every round trip fails (ZFP on its stream length), cross-decode passes
    assert wl.gate.attempted == 7
    assert wl.gate.failed == 6


def test_failed_check_makes_the_run_exit_non_zero(monkeypatch, tmp_path, capsys):
    def failing(workload, seed, seconds, gate, scratch, probes=None, split=False,
                full=True):
        gate.check(False, "stub answer differs")
        return {name: 1.0 for name in runner.END_TO_END}

    monkeypatch.setattr(runner, "measure", failing)
    import run  # perfbench/run.py (on sys.path above)

    code = run.main(["--workload", "archive", "--seconds", "1"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 1
    assert json.loads(last)["failed"] == 1


def test_serve_answers_are_checked_against_the_reference():
    class _Target:
        roster = [(type("S", (), {"name": "zfp-x"})(), np.zeros(4, np.float32))]

    ref = [(b"abc", np.zeros(4, np.float32))]
    step = StepResult(rate=1.0)
    step.outputs = [(0, (b"abc", np.zeros(4, np.float32))),
                    (1, (b"abd", np.zeros(4, np.float32))),
                    (2, (b"abc", np.ones(4, np.float32)))]
    step.failed = 1
    gate = Gate()
    from hpdrbench.serve import check_step

    check_step(step, _Target(), ref, gate, "stub")
    assert (gate.attempted, gate.failed) == (4, 3)


def test_run_without_the_program_exits_non_zero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "archive",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- percentiles --------------------------------------------------------------
def test_percentile_refuses_fewer_than_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1, 1001)), 99) == 990
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
    assert percentile(list(range(1, 21)), 50) == 10
    with pytest.raises(ValueError):
        windowed_percentile(list(range(999)), 99)


def test_windowed_percentile_is_the_median_over_windows():
    values = [1.0] * 1000 + [100.0] * 10 + [1.0] * 990 + [1.0] * 1000
    # one noisy window does not move the result
    assert windowed_percentile(values, 99) == 1.0
    assert windowed_percentile([2.0] * 1000 + [1.0] * 1000, 50) == 1.5


# -- span arithmetic ----------------------------------------------------------
def _tree() -> list[SpanRec]:
    return [
        SpanRec("call.x", 0.0, 10.0, None, 1),
        SpanRec("a", 1.0, 4.0, 0, 1),
        SpanRec("b", 3.0, 6.0, 0, 1),   # overlaps a: union 1..6
        SpanRec("c", 2.0, 3.0, 1, 1),   # child of a
    ]


def test_self_time_on_a_synthetic_span_tree():
    assert self_times(_tree()) == [5.0, 2.0, 3.0, 1.0]


def test_coverage_counts_overlap_once():
    spans = _tree()
    assert coverage(spans, "call.", "") == pytest.approx(1.0)
    assert coverage(spans, "call.", "b") == pytest.approx(0.3)


def test_pool_thread_spans_are_adopted_by_the_enclosing_call():
    spans = [
        SpanRec("call.x", 0.0, 10.0, None, 1),
        SpanRec("stage", 1.0, 9.0, 0, 1),
        SpanRec("worker", 2.0, 5.0, None, 2),  # pool thread
    ]
    layers.adopt_pool_spans(spans, main=1)
    assert spans[2].parent == 1
    assert self_times(spans) == [2.0, 5.0, 3.0]
