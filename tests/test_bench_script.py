"""scripts/bench.py reads perfbench's stdout. These tests feed its parser a
recorded perfbench run, so that a change of perfbench's output format fails
here and not in the next benchmark run."""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"

# `perfbench/run.py --workload gap-small --seed 1 --seconds 0.3 --trace 0`
RECORDED = r"""workload gap-small seed 1 trace 0
context {"line_rule": "all lines of src/gospf/**/*.py; non-blank = not matching ^\\s*$", "nproc": 2, "python": "3.11.7", "src_lines": 2953, "src_nonblank_lines": 2516}
sim_digest cfe7dbd70d4ebcb7
setup_s: median 0.0088155 s, min 0.00549151, max 0.0216204, n=30
run_s: median 0.420264 s, min 0.420264, max 0.420264, n=1
fail_ratio 0/60 = 0
gap_rows_per_s: 11273.9 1/s (4738 scored windows per iteration, 0 with gap_ratio < 1)
metric setup_s = 0.0088155 s
metric run_s = 0.420264 s
metric windows_per_s = 11421.4 1/s
metric peak_rss_mb = 24.8359 MB
{"correct": true, "attempted": 60, "failed": 0, "metrics": {"setup_s": {"value": 0.008815495999442646, "unit": "s"}, "run_s": {"value": 0.4202638200004003, "unit": "s"}, "windows_per_s": {"value": 11421.3971595162, "unit": "1/s"}, "peak_rss_mb": {"value": 24.8359375, "unit": "MB"}}}
"""


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_script", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parser_reads_a_recorded_perfbench_run(bench):
    run = bench.parse_perfbench_output(RECORDED)
    assert run == {
        "workload": "gap-small", "seed": 1, "trace": 0,
        "context": {"line_rule": "all lines of src/gospf/**/*.py; non-blank = not "
                                 "matching ^\\s*$",
                    "nproc": 2, "python": "3.11.7", "src_lines": 2953,
                    "src_nonblank_lines": 2516},
        "sim_digest": ["cfe7dbd70d4ebcb7"], "correct": True,
        "metrics": {"setup_s": 0.008815495999442646, "run_s": 0.4202638200004003,
                    "windows_per_s": 11421.3971595162, "peak_rss_mb": 24.8359375},
    }


@pytest.mark.parametrize("drop", ["workload ", "context ", "sim_digest ", "{"])
def test_parser_rejects_a_run_missing_a_line(bench, drop):
    text = "\n".join(line for line in RECORDED.splitlines() if not line.startswith(drop))
    with pytest.raises(bench.BadOutput):
        bench.parse_perfbench_output(text)


def test_comparison_counts_wins_in_the_metric_direction(bench):
    first = {"runs": {"run_s": [1.0, 1.2, 1.1, 1.3], "windows_per_s": [10.0, 9.0, 11.0, 8.0]}}
    second = {"runs": {"run_s": [0.9, 1.3, 1.0, 1.0], "windows_per_s": [12.0, 9.5, 10.0, 9.0]}}
    report = bench.compare(first, second, {"run_s": "lower", "windows_per_s": "higher"})
    assert report["run_s"]["second_wins"] == 3
    assert report["windows_per_s"]["second_wins"] == 3
    assert report["windows_per_s"]["median_difference"] == pytest.approx(0.75)
    assert report["run_s"]["first_iqr"] == pytest.approx(1.225 - 1.075)
