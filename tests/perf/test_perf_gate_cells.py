"""perf_gate schema validation: null/missing cells exit 2, never crash.

Regression test for the raw ``KeyError``/``TypeError`` the gate used to
raise when a benchmark record contained ``null`` where a number belongs
(a generator that recorded a failed measurement): every malformed cell
must surface as :class:`MissingBenchCell` → exit 2 with the offending
field named, distinct from exit 1 (a real measured regression).
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "perf_gate", REPO / "scripts" / "perf_gate.py")
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)


def codec_record(**overrides):
    cells = {
        codec: {"compress_MBps": 50.0, "decompress_MBps": 40.0}
        for codec in perf_gate._CODECS
    }
    cells.update(overrides)
    return {"current": cells}


def serve_record(**overrides):
    cells = {cell: {"rps": 1000.0, "p95_ms": 1.0}
             for cell in perf_gate._SERVE_CELLS}
    cells.update(overrides)
    return {"current": cells, "speedup_c64": {"b8": 3.0}, "codec_batch": {}}


# ---------------------------------------------------------------------------
# _metric: the null-cell guard itself
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("value", [None, "fast", [], {}, True])
def test_metric_rejects_non_numbers(value):
    with pytest.raises(perf_gate.MissingBenchCell, match="numeric"):
        perf_gate._metric({"rps": value}, "rps", "test record")


def test_metric_rejects_missing_key():
    with pytest.raises(perf_gate.MissingBenchCell, match="rps"):
        perf_gate._metric({}, "rps", "test record")


def test_metric_accepts_ints_and_floats():
    assert perf_gate._metric({"rps": 3}, "rps", "r") == 3.0
    assert perf_gate._metric({"rps": 2.5}, "rps", "r") == 2.5


# ---------------------------------------------------------------------------
# compare / compare_serve / compare_cluster on records with null cells
# ---------------------------------------------------------------------------
def test_compare_null_metric_raises_missing_cell():
    fresh = codec_record(huffman={"compress_MBps": None,
                                  "decompress_MBps": 40.0})
    with pytest.raises(perf_gate.MissingBenchCell, match="huffman"):
        perf_gate.compare(codec_record(), fresh, tolerance=0.2)


def test_compare_serve_null_rps_raises_missing_cell():
    fresh = serve_record(c1_b1={"rps": None, "p95_ms": 1.0})
    with pytest.raises(perf_gate.MissingBenchCell, match="c1_b1"):
        perf_gate.compare_serve(serve_record(), fresh, 0.2, 2.0)


def test_compare_serve_null_speedup_raises_missing_cell():
    fresh = serve_record()
    fresh["speedup_c64"] = {"b8": None}
    with pytest.raises(perf_gate.MissingBenchCell, match="speedup_c64"):
        perf_gate.compare_serve(serve_record(), fresh, 0.2, 2.0)


def test_compare_cluster_null_scaling_raises_missing_cell():
    cells = {cell: {"rps": 1000.0} for cell in perf_gate._CLUSTER_CELLS}
    committed = {"current": cells, "scaling": {"s4_over_s1": 2.0}}
    fresh = {"current": cells, "scaling": {"s4_over_s1": None}}
    with pytest.raises(perf_gate.MissingBenchCell, match="s4_over_s1"):
        perf_gate.compare_cluster(committed, fresh, 0.2, 1.6)


def test_main_exits_2_on_null_cell(tmp_path):
    committed = tmp_path / "committed.json"
    fresh = tmp_path / "fresh.json"
    committed.write_text(json.dumps(codec_record()))
    fresh.write_text(json.dumps(
        codec_record(zfp={"compress_MBps": 50.0, "decompress_MBps": None})))
    rc = perf_gate.main(["--committed", str(committed),
                         "--fresh", str(fresh)])
    assert rc == 2


def test_main_report_only_swallows_null_cell(tmp_path):
    committed = tmp_path / "committed.json"
    fresh = tmp_path / "fresh.json"
    committed.write_text(json.dumps(codec_record()))
    fresh.write_text(json.dumps(
        codec_record(zfp={"compress_MBps": None, "decompress_MBps": 1.0})))
    rc = perf_gate.main(["--committed", str(committed),
                         "--fresh", str(fresh), "--report-only"])
    assert rc == 0
