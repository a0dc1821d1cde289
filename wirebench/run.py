"""Wire-to-wire benchmark of the NAT's deployable runtimes.

Run from the root of a checkout:

    python3 wirebench/run.py --workload nat-hot --seed 1 --seconds 25 --trace 0
    python3 wirebench/run.py --smoke

One run prints a ledger (seed, machine, operations attempted and failed
by cause), then, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. ``--smoke``
runs every workload briefly in both modes with every check on, and ends
with one JSON object holding each run's result. See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Address-space cap per process, far above any run's peak (under 100 MB RSS).
MEMORY_CAP = 2 << 30


def _ledger(result) -> None:
    machine = result["machine"]
    print(f"workload {result['workload']}  seed {result['seed']}")
    print(f"machine  cpu={machine['cpu']!r} cores={machine['cores']} python={machine['python']}")
    print(f"core     driver and workers on core {result['core']}")
    print(
        f"ops      attempted={result['attempted']} failed={result['failed']} "
        f"bursts={result['bursts']} elapsed={result['elapsed_s']:.2f}s "
        f"host_steal={result['host_steal']:.1%}"
    )
    faults = dict(result["faults"])
    missing = faults.pop("not_delivered", 0)
    print(f"failed   not_delivered={missing} mistranslated={sum(faults.values())} {faults}")
    print(
        f"         teardown_leaks={result['leaks']} spurious_outputs={result['spurious']} "
        f"(after {result['hygiene']} extra shm launch/stop cycles)"
    )
    drops = {k: v for k, v in result["drop_causes"].items() if v and k != "pool_high_water"}
    print(f"drops    drop_causes()={drops or 'none'}  ports_reused={result['ports_reused']}")
    if "self_sum_error" in result:
        print(f"trace    self times sum to the traced total within {result['self_sum_error']:.4%}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:34s} {value:14.4f} {unit}")


def _summary(result) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload, briefly, both modes")
    args = parser.parse_args(argv)

    # A runaway (see deploy.py on the shm rings) must fail this process,
    # not exhaust the memory of the machine it shares; workers inherit it.
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import driver
        from deploy import WORKLOADS
    except ImportError as exc:
        print(f"wirebench: cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    try:
        return _runs(args, parser, driver, WORKLOADS)
    finally:
        driver.reap()


def _runs(args, parser, driver, workloads) -> int:
    if args.smoke:
        results = {}
        for name in workloads:
            for trace in (0, 1):
                result = driver.run(
                    name,
                    args.seed,
                    0.0,
                    bool(trace),
                    setups=2,
                    block=10,
                    warm_cycles=1,
                    rss_bursts=10,
                )
                _ledger(result)
                results[f"{name}/trace{trace}"] = _summary(result)
        print(json.dumps(results))
        return 0

    if args.workload not in workloads:
        parser.error(f"--workload must be one of {sorted(workloads)}")
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
            args.seconds = json.load(spec)["run_seconds"]
    spans_path = None
    if args.trace:
        out_dir = os.path.join(ROOT, ".wirebench")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    result = driver.run(
        args.workload, args.seed, args.seconds, bool(args.trace), spans_path=spans_path
    )
    _ledger(result)
    print(json.dumps(_summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
