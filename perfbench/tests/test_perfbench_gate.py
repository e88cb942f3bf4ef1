"""The benchmark's percentile rule and correctness gates."""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run as R  # noqa: E402
import workloads as W  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    assert W.tail_percentile(1000) == 99.0
    assert W.tail_percentile(999) == 90.0
    assert W.tail_percentile(10_000) == 99.9
    assert W.tail_percentile(20) == 50.0
    assert W.tail_percentile(19) is None


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert W.percentile(values, 50) == 50
    assert W.percentile(values, 99) == 99
    assert W.percentile([7.0], 99) == 7.0


def test_inputs_are_a_function_of_the_seed():
    assert W.serve_universe(3) == W.serve_universe(3)
    assert W.serve_universe(3)["sequence"] != W.serve_universe(4)["sequence"]
    universe = W.serve_universe(0)
    keys = universe["keys"]
    absent = [k for k in keys if not k["present"]]
    assert abs(len(absent) / len(keys) - 0.2) < 0.02
    # Absent keys sit on hardware no other key uses, so they always miss.
    hw = [k["key"].split("@")[1] for k in keys]
    assert all(hw.count(k["key"].split("@")[1]) == 1 for k in absent)
    assert len(universe["sequence"]) >= 1000


def sweep_result(digest="abc"):
    return {"points": W.SWEEP_POINTS, "digest": digest, "crosscheck": [], "wall_s": 1.0,
            "peak_rss_mib": 100.0, "attempted": W.SWEEP_POINTS, "failed": 0, "numpy": "x"}


def test_check_sweep_rejects_a_perturbed_digest():
    assert W.check_sweep(sweep_result(), "abc") == []
    assert W.check_sweep(sweep_result(), None) == []
    assert W.check_sweep(sweep_result(), "abd")
    bad = sweep_result()
    bad["crosscheck"] = [{"index": 3, "batched": [1, 2.0], "single": [1, 2.5]}]
    assert W.check_sweep(bad, None)


def campaign_result(digest="r"):
    units = W.grid_units()
    return {"digest": digest, "units": [list(u) for u in units],
            "rows": [{"search_score": 10.0, "evaluated": 3} for _ in units],
            "stats": {"evaluated": 5, "persisted": 4, "errors_persisted": 1, "store_skips": 0},
            "store_records": 4}


def test_check_campaign_rejects_a_perturbed_digest_and_bad_stores():
    assert W.check_campaign(campaign_result(), "r") == []
    assert W.check_campaign(campaign_result(), "s")
    torn = campaign_result()
    torn["store_records"] = 3
    assert W.check_campaign(torn, None)


def test_check_serving_rejects_a_perturbed_pin():
    universe = {"keys": [{"key": "a@pes512", "present": True},
                         {"key": "b@pes128-bw3", "present": False}]}
    answers = [
        {"key": "a@pes512", "source": "index", "exact": True, "score": 5.0, "fingerprint": "fa", "pass": 1},
        {"key": "b@pes128-bw3", "source": "live", "exact": True, "score": 7.0, "fingerprint": "fl", "pass": 1},
        {"key": "b@pes128-bw3", "source": "index", "exact": True, "score": 7.0, "fingerprint": "fb", "pass": 1},
    ]
    expected = {"a@pes512": 5.0}
    pin = {"a@pes512": [5.0, "fa", None], "b@pes128-bw3": [7.0, "fb", "fl"]}
    assert W.check_serving(answers, universe, expected, pin) == []
    assert W.check_serving(answers, universe, expected, {**pin, "a@pes512": [5.5, "fa", None]})
    assert W.check_serving(answers, universe, expected, {**pin, "b@pes128-bw3": [7.0, "fb", "xx"]})
    # A second live search for an absent key in the same pass is a bug.
    twice = answers + [dict(answers[1])]
    assert W.check_serving(twice, universe, expected, None)


def run_main(monkeypatch, pins):
    """Drive run.main for sweep-citeseer with a stubbed program child."""

    def fake_child(args):
        if args["mode"] == "op":
            return 0.5, sweep_result("abc")
        return 0.5, None

    monkeypatch.setattr(R, "run_child", fake_child)
    monkeypatch.setattr(W, "load_pins", lambda: pins)
    out = io.StringIO()
    with redirect_stdout(out):
        rc = R.main(["--workload", "sweep-citeseer", "--seed", "0", "--seconds", "0"])
    return rc, json.loads(out.getvalue().strip().splitlines()[-1])


def test_a_perturbed_pin_fails_the_run_without_a_time(monkeypatch):
    rc, result = run_main(monkeypatch, {"sweep-citeseer": {"0": "abd"}})
    assert rc == 1
    assert result["correct"] is False and result["metrics"] == {}
    rc, result = run_main(monkeypatch, {"sweep-citeseer": {"0": "abc"}})
    assert rc == 0 and result["correct"] is True
    assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mib"}


def test_a_distributed_report_that_differs_fails_the_traced_run(monkeypatch):
    def run_traced(dist_digest):
        def fake_child(args):
            result = campaign_result(dist_digest if args["workload"] == "dist-run" else "r")
            layers = {name: 0 for name, *_ in R.PER_LAYER}
            layers["distributed.merge_s"] = 0.5
            result.update(wall_s=1.0, attempted=84, failed=0, peak_rss_mib=1.0, numpy="x",
                          layers=layers)
            return 0.5, result

        monkeypatch.setattr(R, "run_child", fake_child)
        monkeypatch.setattr(W, "load_pins", lambda: {})
        out = io.StringIO()
        with redirect_stdout(out):
            rc = R.main(["--workload", "pareto-grid", "--seed", "7", "--trace", "1"])
        return rc, json.loads(out.getvalue().strip().splitlines()[-1])

    rc, result = run_traced("r")
    assert rc == 0 and result["metrics"]["distributed.merge_s"]["value"] == 0.5
    rc, result = run_traced("s")
    assert rc == 1 and result["correct"] is False and result["metrics"] == {}
