"""The benchmark command itself: smoke mode, no process left behind, refusal without the program."""

import json
import os
import shutil
import subprocess
import sys
import uuid

from conftest import BENCH

ROOT = os.path.dirname(BENCH)
RUN = os.path.join("wirebench", "run.py")


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _tagged(tag):
    """Live processes whose environment carries ``tag``."""
    found = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if tag.encode() in handle.read():
                    found.append(entry)
        except OSError:
            pass
    return found


def test_smoke_runs_every_workload_with_every_check(tmp_path):
    tag = uuid.uuid4().hex
    # Output goes to files, not pipes: waiting for a pipe to close would
    # also wait for any process that inherited it.
    with open(tmp_path / "out", "w+") as out, open(tmp_path / "err", "w+") as err:
        done = subprocess.run(
            [sys.executable, RUN, "--smoke"],
            cwd=ROOT,
            stdout=out,
            stderr=err,
            timeout=180,
            env=dict(os.environ, WIREBENCH_TEST_TAG=tag),
        )
        # Every process the run started (workers, the shm resource tracker) has ended.
        assert _tagged(tag) == []
        out.seek(0)
        err.seek(0)
        assert done.returncode == 0, err.read()
        results = json.loads(out.read().strip().splitlines()[-1])
    spec = _bench_json()
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = results[f"{workload['name']}/trace{trace}"]
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            assert set(result["metrics"]) == {m["name"] for m in spec[kind]}
            for metric in spec[kind]:
                assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "wirebench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "nat-hot", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
