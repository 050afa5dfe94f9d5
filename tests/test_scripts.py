"""The example scripts run end to end on small inputs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import emsched

REPO = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = Path(emsched.__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/delay_sweep.py", "--reps", "1"],
        # every replication of the first point aborts: printed as all-skipped
        ["scripts/delay_sweep.py", "--reps", "1", "--max-delay", "36"],
    ],
    ids=["delay_sweep", "delay_sweep-all-skipped"],
)
def test_script_exits_zero(argv):
    result = run_script(argv)
    assert result.returncode == 0, result.stderr


def run_script(argv):
    # the scripts import the same emsched the tests do
    path = os.pathsep.join(p for p in (str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_bench_record_writes_runs_and_machine(tmp_path):
    # the shortest run bench/run.py takes
    out = tmp_path / "BENCH_smoke.json"
    result = run_script(["scripts/bench_record.py", "--label", "smoke", "--workloads", "day-run",
                         "--seeds", "0", "--seconds", "0.01", "--out", str(out)])
    assert result.returncode == 0, result.stderr
    record = json.loads(out.read_text())
    assert record["label"] == "smoke"
    assert set(record["machine"]) == {"cpu_count", "cpu_model", "python"}
    assert set(record["checkouts"]) == {"change"}
    assert [(r["side"], r["workload"], r["seed"]) for r in record["runs"]] == [("change", "day-run", 0)]
    assert record["runs"][0]["result"]["correct"]


def load_bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", REPO / "scripts" / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    return bench_record


def test_bench_record_alternates_the_first_side_for_each_workload():
    runs = load_bench_record().schedule([[0, 1, 2]] * 2, ["a", "b"], ["change", "baseline"])
    for workload in ("a", "b"):
        mine = [(side, seed) for side, w, seed in runs if w == workload]
        assert mine == [("baseline", 0), ("change", 0), ("change", 1), ("baseline", 1),
                        ("baseline", 2), ("change", 2)]


def test_bench_record_reads_every_checkout_before_the_first_run(tmp_path, monkeypatch):
    bench_record = load_bench_record()
    calls = []
    metrics = {m["name"]: {"value": 1.0} for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]}

    def git_state(checkout):
        calls.append("git_state")
        return {"commit": "0" * 40, "dirty": False}

    def bench_run(checkout, workload, seed, seconds):
        calls.append("bench_run")
        return {"metrics": metrics}

    monkeypatch.setattr(bench_record, "git_state", git_state)
    monkeypatch.setattr(bench_record, "bench_run", bench_run)
    out = tmp_path / "BENCH_order.json"
    assert bench_record.main(["--label", "order", "--workloads", "day-run", "--seeds", "0", "1",
                              "--seconds", "1", "--baseline", str(tmp_path), "--out", str(out)]) == 0
    assert calls == ["git_state"] * 2 + ["bench_run"] * 4
    assert set(json.loads(out.read_text())["checkouts"]) == {"change", "baseline"}


def test_bench_record_takes_a_seed_list_per_workload(tmp_path, monkeypatch):
    # 3 pairs on "a" and 1 on "b" in one record: sides alternate per seed within
    # each workload, git state is read once before the first run, and each
    # workload's summary counts its own pairs.
    bench_record = load_bench_record()
    calls = []
    names = [m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]]

    def git_state(checkout):
        calls.append(("git_state",))
        return {"commit": "0" * 40, "dirty": False}

    def bench_run(checkout, workload, seed, seconds):
        calls.append((workload, seed))
        return {"metrics": {name: {"value": float(seed + 1)} for name in names}}

    monkeypatch.setattr(bench_record, "git_state", git_state)
    monkeypatch.setattr(bench_record, "bench_run", bench_run)
    out = tmp_path / "BENCH_lists.json"
    argv = ["--label", "lists", "--workloads", "a", "b", "--seeds", "5", "6", "7", "--seeds", "9",
            "--seconds", "1", "--baseline", str(tmp_path), "--out", str(out)]
    assert bench_record.main(argv) == 0
    assert calls == [("git_state",)] * 2 + [("a", 5)] * 2 + [("b", 9)] * 2 + [("a", 6)] * 2 + [("a", 7)] * 2
    record = json.loads(out.read_text())
    sides = {w: [(r["side"], r["seed"]) for r in record["runs"] if r["workload"] == w] for w in ("a", "b")}
    assert sides == {
        "a": [("baseline", 5), ("change", 5), ("change", 6), ("baseline", 6), ("baseline", 7), ("change", 7)],
        "b": [("baseline", 9), ("change", 9)],
    }
    assert {w: rows[names[0]]["pairs"] for w, rows in record["summary"].items()} == {"a": 3, "b": 1}
    assert bench_record.parse_args(["--label", "x", "--workloads", "a", "b", "--seeds", "1", "2",
                                    "--seconds", "1"]).seeds == [[1, 2], [1, 2]]
    with pytest.raises(SystemExit):  # two lists for three workloads
        bench_record.parse_args(["--label", "x", "--workloads", "a", "b", "c", "--seeds", "1", "--seeds", "2",
                                 "--seconds", "1"])


def test_bench_record_summary_counts_pairs_won_in_each_direction():
    bench_record = load_bench_record()

    def run(side, seed, rate, ms):
        metrics = {"rate": {"value": rate}, "ms": {"value": ms}}
        return {"side": side, "workload": "w", "seed": seed, "result": {"metrics": metrics}}

    runs = [run("baseline", 0, 10.0, 5.0), run("change", 0, 20.0, 6.0),
            run("change", 1, 30.0, 4.0), run("baseline", 1, 10.0, 5.0),
            run("change", 2, 10.0, 5.0), run("baseline", 2, 10.0, 5.0),
            run("change", 3, 99.0, 1.0)]  # no baseline run: not a pair
    summary = bench_record.summarize(runs, {"rate": "higher", "ms": "lower"})["w"]
    assert summary["rate"]["pairs"] == summary["ms"]["pairs"] == 3
    assert summary["rate"]["change_wins"] == 2 and summary["ms"]["change_wins"] == 1  # ties win nothing
    assert summary["rate"]["change"] == {"median": 20.0, "q1": 15.0, "q3": 25.0}
    assert summary["rate"]["change_over_baseline"] == 2.0
    assert bench_record.summary_lines({"w": summary}) == [
        "w rate: 10 [10, 10] -> 20 (2.000x, 2 of 3 pairs won, higher is better)",
        "w ms: 5 [5, 5] -> 5 (1.000x, 1 of 3 pairs won, lower is better)",
    ]


def test_bench_record_prints_one_summary_line_per_workload_and_metric(tmp_path, monkeypatch, capsys):
    bench_record = load_bench_record()
    names = [m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]]
    values = {"baseline": [4.0, 2.0, 3.0], "change": [1.0, 3.0, 2.0]}

    def bench_run(checkout, workload, seed, seconds):
        side = "change" if checkout == bench_record.REPO else "baseline"
        return {"metrics": {name: {"value": values[side][seed]} for name in names}}

    monkeypatch.setattr(bench_record, "git_state", lambda checkout: {"commit": "0" * 40, "dirty": False})
    monkeypatch.setattr(bench_record, "bench_run", bench_run)
    argv = ["--label", "lines", "--workloads", "w", "--seeds", "0", "1", "2", "--seconds", "1",
            "--baseline", str(tmp_path), "--out", str(tmp_path / "BENCH_lines.json")]
    assert bench_record.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[-len(names) - 1].startswith("wrote 6 runs -> ")
    expected = {"higher": "1 of 3 pairs won", "lower": "2 of 3 pairs won"}  # 4->1 and 2->3 and 3->2
    better = {m["name"]: m["better"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]}
    assert printed[-len(names):] == [
        f"w {name}: 3 [2.5, 3.5] -> 2 (0.667x, {expected[better[name]]}, {better[name]} is better)"
        for name in names
    ]
