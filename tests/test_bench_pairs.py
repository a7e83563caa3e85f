import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = {
    "updates_per_s": {"name": "updates_per_s", "better": "higher", "bound": 0.25},
    "update_ms_p50": {"name": "update_ms_p50", "better": "lower", "bound": 0.25},
    "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
}


def _side(rate, unscaled_rate, latency, unscaled_latency):
    return {
        "metrics": {"updates_per_s": {"value": rate},
                    "update_ms_p50": {"value": latency},
                    "peak_rss_mb": {"value": 40.0}},
        "unscaled": {"updates_per_s": unscaled_rate,
                     "update_ms_p50": unscaled_latency},
    }


def test_unscaled_pairs_are_judged_on_their_own_figures():
    # the scaled rate wins all ten pairs; the unscaled rate only four, so its
    # gain is the calibration's.  The latency wins both ways, and peak RSS
    # has no unscaled figure.
    runs = [{"parent": _side(100.0 + i, 70.0 + i, 2.0, 3.0 + 0.01 * i),
             "change": _side(110.0 + i, 70.0 + i + (0.5 if i < 4 else -0.5),
                             1.5, 2.0 + 0.01 * i)}
            for i in range(10)]
    summary = bench_pairs.summarize(runs, METRICS)

    rate = summary["updates_per_s"]
    assert (rate["change_wins"], rate["gain_rule_holds"]) == (10, True)
    assert (rate["unscaled_change_wins"], rate["unscaled_gain_rule_holds"]) == (4, False)
    assert rate["unscaled"] == {"parent": pytest.approx(74.5),
                                "change": pytest.approx(74.0)}

    latency = summary["update_ms_p50"]
    assert (latency["change_wins"], latency["gain_rule_holds"]) == (10, True)
    assert (latency["unscaled_change_wins"], latency["unscaled_gain_rule_holds"]) == (10, True)

    rss = summary["peak_rss_mb"]
    assert rss["change_wins"] == 0 and not rss["gain_rule_holds"]
    assert "unscaled" not in rss and "unscaled_change_wins" not in rss


def test_unscaled_gain_rule_needs_more_than_the_parent_spread():
    # every unscaled pair won by 1, but the parent's unscaled quartiles lie
    # 4.5 apart: no gain under the rule
    runs = [{"parent": _side(100.0, 70.0 + i, 2.0, 3.0),
             "change": _side(100.0, 71.0 + i, 2.0, 3.0)}
            for i in range(10)]
    rate = bench_pairs.summarize(runs, METRICS)["updates_per_s"]
    assert (rate["unscaled_change_wins"], rate["unscaled_gain_rule_holds"]) == (10, False)
    assert rate["change_wins"] == 0
