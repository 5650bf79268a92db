"""Tests for the benchmark itself: span arithmetic, wrapper installation and
a tiny-size run of each workload.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import circembed
import run
import workloads
from tracing import LAYER_METRICS, Tracer, layer_totals, self_times

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

TINY = {
    "corpus": {"n": 64, "N": 16, "k": 32, "k_list": "8,16", "trials": 2, "queries": 40, "sampled_rows": 8},
    "wide": {"n_rand": 1000, "n_circ": 1024, "k": 64, "vectors": 4, "repeats": 2, "circ_calls": 4, "loads": 2},
    "montecarlo": None,
}


def span(sid, parent, t0, t1, name="x", counts=None):
    return (sid, name, parent, t0, t1, counts)


def test_self_time_subtracts_nested_children():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 3.0), span(2, 0, 4.0, 8.0), span(3, 2, 5.0, 6.0)]
    st = self_times(spans)
    assert st == {0: pytest.approx(4.0), 1: pytest.approx(2.0), 2: pytest.approx(3.0), 3: pytest.approx(1.0)}


def test_self_time_counts_overlapping_children_once():
    # two workers cover [1, 6] and [2, 8] of the parent: the union is [1, 8]
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 6.0), span(2, 0, 2.0, 8.0), span(3, 0, 3.0, 4.0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 8.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(8.0)


def test_worker_spans_attach_to_the_submitting_span():
    tracer = Tracer()

    def work(_):
        time.sleep(0.05)

    inner = tracer.wrap("inner", work)

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as ex:
            list(ex.map(inner, range(4)))

    tracer.wrap("outer", fan_out)()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[1], []).append(s)
    (outer,) = by_name["outer"]
    assert len(by_name["inner"]) == 4
    assert {s[2] for s in by_name["inner"]} == {outer[0]}
    assert len({s[0] for s in tracer.spans}) == 5
    st = self_times(tracer.spans)
    # two workers sleep 0.05 s twice each, so children cover about 0.1 s of
    # the outer span, not the 0.2 s their durations add up to
    assert 0.0 <= st[outer[0]] < (outer[4] - outer[3]) - 0.08
    assert not tracer._stacks.get(threading.get_ident())


def test_layer_totals_sum_self_time_and_counts():
    spans = [span(0, None, 0.0, 2.0, "embedders.embed", {"calls": 1}),
             span(1, 0, 0.5, 1.5, "transforms.fwht", {"calls": 1, "elems": 8}),
             span(2, 0, 1.5, 1.75, "transforms.fwht", None)]
    totals = layer_totals(spans)
    assert set(totals) == set(LAYER_METRICS)
    assert totals["embedders.embed.self_s"] == pytest.approx(0.75)
    assert totals["transforms.fwht.self_s"] == pytest.approx(1.25)
    assert totals["transforms.fwht.calls"] == 1
    assert totals["transforms.fwht.elems"] == 8
    assert totals["geometry.coherence.self_s"] == 0


def test_installed_wraps_cli_chain_and_restores(tmp_path, monkeypatch):
    originals = (circembed.embed, circembed.validation._SAMPLERS["circulant"], circembed.rng.Stream.normals)
    monkeypatch.chdir(tmp_path)
    tracer = Tracer()
    with tracer.installed(circembed):
        assert circembed.cli.main(["gen", "--kind", "flat_signs", "--n", "16", "--N", "4", "--out", "p.pset"]) == 0
        assert circembed.cli.main(["embed", "--pointset", "p.pset", "--kind", "randomized", "--k", "8",
                                   "--threads", "2", "--out", "c.csv"]) == 0
    assert (circembed.embed, circembed.validation._SAMPLERS["circulant"], circembed.rng.Stream.normals) == originals
    names = {s[1] for s in tracer.spans}
    assert {"cli.gen", "io.generate_pointset", "geometry.coherence", "io.save_pointset", "cli.embed",
            "io.load_pointset", "embedders.sample_randomized", "embedders.sample_circulant",
            "embedders.embed_points", "embedders.embed", "transforms.fwht", "transforms.correlate",
            "rng.rademacher", "rng.index_subset", "io.save_codes"} <= names
    totals = layer_totals(tracer.spans)
    assert totals["embedders.embed_points.rows"] == 4
    assert totals["embedders.embed.calls"] == 4
    assert totals["transforms.fwht.elems"] == 4 * 16
    assert totals["io.save_codes.bytes"] == os.path.getsize("c.csv")


@pytest.mark.parametrize("name", ["corpus", "wide", "montecarlo"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_reports_every_metric(name, trace, tmp_path):
    if name == "montecarlo" and trace:
        pytest.skip("validate --quick has no smaller size; the untraced run covers it")
    result = run.run_workload(name, 3, 0.0, trace, tmp_path, TINY[name])
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_digest_change_between_passes_is_a_failure():
    ledger = workloads.Ledger()
    same, other = {"digests": {"a": "1", "b": "2"}}, {"digests": {"a": "1", "b": "3"}}
    run.check_digests([same, same, other], ledger)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.errors == ["outputs changed between passes: ['b']"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "wide", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
