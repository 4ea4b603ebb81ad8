"""Self-test of the end-to-end benchmark on its ``--quick`` shape.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _spec:
    SPEC = json.load(_spec)


def _benchmark(*args, timeout=170):
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


def test_every_metric_is_printed_with_its_unit(tmp_path):
    document_path = tmp_path / "quick.json"
    done = _benchmark("run", "--quick", "--json", str(document_path))
    assert done.returncode == 0, done.stdout + done.stderr
    document = json.loads(document_path.read_text())
    assert set(document["workloads"]) == {
        workload["name"] for workload in SPEC["workloads"]
    }
    lines = done.stdout.splitlines()
    for result in document["workloads"].values():
        assert result["correct"] and result["failed"] == 0
        for metric in SPEC["end_to_end"]:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0
    for metric in SPEC["end_to_end"]:
        printed = [
            line.split() for line in lines
            if line.split()[:1] == [metric["name"]]
        ]
        assert len(printed) == len(SPEC["workloads"])
        assert all(words[-1] == metric["unit"] for words in printed)
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True


def test_a_tampered_expected_digest_fails_the_run(tmp_path):
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    # The first program of analyze-worklist's first (untimed) pass.
    key = "antlr@s1+11000|2-object+H/ts"
    assert key in expected["results"]
    expected["results"][key] = "0" * 64
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))
    done = _benchmark(
        "run", "--quick", "--workload", "analyze-worklist",
        "--seconds", "0.5", "--expected", str(tampered),
    )
    assert done.returncode == 1, done.stdout + done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is False and last["failed"] >= 1
    assert "wrong: " + key in done.stdout


def _runs(tmp_path, name, p50_scale):
    """Three synthetic analyze-kernel-large run documents."""
    paths = []
    for index, jitter in enumerate((1.0, 1.01, 0.99)):
        metrics = {
            metric["name"]: {"value": 100.0 * jitter, "unit": metric["unit"]}
            for metric in SPEC["end_to_end"]
        }
        metrics["p50_ms"]["value"] *= p50_scale
        path = tmp_path / ("%s-%d.json" % (name, index))
        path.write_text(json.dumps({
            "trace": False,
            "workloads": {"analyze-kernel-large": {"metrics": metrics}},
        }))
        paths.append(str(path))
    return ",".join(paths)


def test_compare_flags_a_25_percent_slowdown(tmp_path):
    base = _runs(tmp_path, "base", 1.0)
    slower = _runs(tmp_path, "slower", 1.25)
    same = _benchmark("compare", base, base)
    assert same.returncode == 0, same.stdout
    assert " worse" not in same.stdout
    worse = _benchmark("compare", base, slower)
    assert worse.returncode == 1, worse.stdout
    (row,) = [
        line for line in worse.stdout.splitlines()
        if line.split()[:2] == ["analyze-kernel-large", "p50_ms"]
    ]
    assert row.split()[-1] == "worse"
