"""The pipeline benchmark: run workloads, sets of rounds, or compare two sets.

One run of one workload (what a driver calls; the last stdout line is the
result object)::

    python3 bench/run.py --workload d1-headers --seed 7 --seconds 18 --trace 0

A set -- every workload in fresh processes, rotating the order each round
so noisy episodes spread across workloads -- printed as one JSON document,
with a table on stderr; ``--trace`` adds one traced run per workload::

    python3 bench/run.py [--seed 7] [--rounds 3] [--workloads a,b] [--trace] [--out FILE]

Two sets, metric by metric, against the bounds in ``BENCHMARK.json``::

    python3 bench/run.py --compare parent.json change.json

The benchmark imports the program from ``src/`` next to this directory and
writes only under ``.bench_work/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
PINS_PATH = BENCH_DIR / "pins.json"
WORK_DIR = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))

import stats  # noqa: E402


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def pins_for(workload: str, seed: int) -> dict:
    """Pinned digests for ``workload``, or none when ``seed`` is not pinned."""
    with open(PINS_PATH) as fh:
        pins = json.load(fh)
    return pins["digests"].get(workload, {}) if seed == pins["seed"] else {}


# -- verdicts ------------------------------------------------------------------


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """Relative change from set ``a`` to set ``b`` and its verdict: ``ok``
    within the bound; beyond it ``better`` or ``worse``, or ``unresolved``
    when the two interquartile ranges overlap."""
    if a["median"] == 0:
        delta = 0.0 if b["median"] == 0 else float("inf")
    else:
        delta = (b["median"] - a["median"]) / abs(a["median"])
    if abs(delta) <= bound:
        return delta, "ok"
    if a["q1"] <= b["q3"] and b["q1"] <= a["q3"]:
        return delta, "unresolved"
    worse = delta < 0 if better == "higher" else delta > 0
    return delta, "worse" if worse else "better"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a) as fh:
        set_a = json.load(fh)
    with open(path_b) as fh:
        set_b = json.load(fh)
    header = f"{'workload':<20} {'metric':<20} {'A median [q1,q3] n':>34} " \
             f"{'B median [q1,q3] n':>34} {'delta':>8} {'bound':>6}  verdict"
    print(header)
    bad = 0
    for workload in sorted(set(set_a["workloads"]) & set(set_b["workloads"])):
        for metric in spec["end_to_end"]:
            a = set_a["workloads"][workload].get(metric["name"])
            b = set_b["workloads"][workload].get(metric["name"])
            if a is None or b is None:
                continue
            delta, word = verdict(a, b, metric["better"], metric["bound"])
            bad += word in ("worse", "unresolved")
            print(f"{workload:<20} {metric['name']:<20} {_cell(a):>34} {_cell(b):>34} "
                  f"{delta * 100:>+7.1f}% {metric['bound'] * 100:>5.0f}%  {word}")
    return 1 if bad else 0


def _cell(summary: dict) -> str:
    return (f"{summary['median']:.4g} [{summary['q1']:.4g},{summary['q3']:.4g}] "
            f"{summary['n']}")


# -- one run -------------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    import pipeline

    if workload not in pipeline.WORKLOADS:
        print(f"unknown workload {workload!r}; one of {sorted(pipeline.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = WORK_DIR / f"{workload}-s{seed}-{os.getpid()}"
    tempfile.tempdir = str(workdir / "tmp")
    os.environ["TMPDIR"] = tempfile.tempdir
    Path(tempfile.tempdir).mkdir(parents=True, exist_ok=True)
    try:
        result = pipeline.run_workload(
            pipeline.WORKLOADS[workload], seed, seconds, workdir,
            trace=trace, pins=pins_for(workload, seed),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [metric["name"] for metric in declared]
    missing = sorted(set(names) - set(result["metrics"]))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 2
    metrics = {
        metric["name"]: {"value": result["metrics"][metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    print(f"{workload} seed {seed}: attempted {result['attempted']}, "
          f"failed {result['failed']}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:<36} {value['value']:>14.6g} {value['unit']}", file=sys.stderr)
    if result["spans"]:
        print("  spans (calls, total s, whole run):", file=sys.stderr)
    for depth, seam, calls, seconds in result["spans"]:
        print(f"    {'  ' * depth}{seam:<{40 - 2 * depth}} {calls:>6} {seconds:>10.4f}",
              file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


# -- sets ----------------------------------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_set(args: argparse.Namespace, spec: dict) -> int:
    workloads = args.workloads.split(",") if args.workloads else \
        [workload["name"] for workload in spec["workloads"]]
    document: dict = {
        "seed": args.seed, "seconds": args.seconds, "rounds": args.rounds,
        "attempted": 0, "failed": 0, "correct": True,
        "workloads": {}, "layers": {},
    }
    values: dict[str, dict[str, list[float]]] = {name: {} for name in workloads}

    def account(result: dict | None) -> dict:
        if result is None:
            document["correct"] = False
            return {}
        document["attempted"] += result["attempted"]
        document["failed"] += result["failed"]
        document["correct"] &= result["correct"]
        return result["metrics"]

    for round_index in range(args.rounds):
        shift = round_index % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            metrics = account(_child(workload, args.seed, args.seconds, False))
            for name, value in metrics.items():
                values[workload].setdefault(name, []).append(value["value"])
    for workload in workloads:
        document["workloads"][workload] = {
            name: dict(stats.summary(samples), unit=_unit(spec, name))
            for name, samples in values[workload].items()
        }
    if args.trace:
        for workload in workloads:
            metrics = account(_child(workload, args.seed, args.seconds, True))
            document["layers"][workload] = {
                name: value["value"] for name, value in metrics.items()
            }
    _print_set(document, spec)
    text = json.dumps(document, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0 if document["correct"] else 1


def _unit(spec: dict, name: str) -> str:
    return next(m["unit"] for m in spec["end_to_end"] if m["name"] == name)


def _print_set(document: dict, spec: dict) -> None:
    out = sys.stderr
    print(f"\nseed {document['seed']}, {document['rounds']} round(s) of "
          f"{document['seconds']} s; attempted {document['attempted']}, "
          f"failed {document['failed']}", file=out)
    for workload, metrics in document["workloads"].items():
        print(f"\n{workload}", file=out)
        for metric in spec["end_to_end"]:
            summary = metrics.get(metric["name"])
            if summary:
                print(f"  {metric['name']:<20} {_cell(summary):>36} {metric['unit']}", file=out)
    for workload, layers in document["layers"].items():
        print(f"\n{workload} (traced)", file=out)
        for name, value in layers.items():
            print(f"  {name:<36} {value:>14.6g}", file=out)


# -- entry point -----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--workloads", help="comma-separated workloads of a set")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer metrics instead of end-to-end")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--out", help="also write a set's JSON document here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    return run_set(args, spec)


if __name__ == "__main__":
    sys.exit(main())
