"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/suite.py [--workloads census,certify,stream]
        [--seeds 1-10] [--seconds S] [--trace] [--label NAME]

For each workload and seed this runs ``perfbench/run.py`` once and prints,
per metric, the median, the quartiles (``statistics.quantiles(n=4)``), the
spread (q3 - q1) / median next to the metric's bound from
``BENCHMARK.json``, the sample counts and the failed ratio.

``--trace`` runs the traced variant twice per seed instead and checks that
every exact count (unit ``count``) is identical across the two runs and
that every function ``workloads.EXERCISES`` lists recorded a call.
``--label NAME`` also writes the summary to ``perfbench/results/NAME.json``.
The exit code is 1 if any run failed a check or a count differed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"exit": proc.returncode, "error": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    result["meta"] = next((json.loads(l[len("# meta "):]) for l in lines if l.startswith("# meta ")), {})
    if proc.returncode:
        result["error"] = proc.stderr[-2000:]
    return result


def summarise(runs: list[dict], bounds: dict) -> dict:
    names = list(runs[0]["metrics"]) if runs and "metrics" in runs[0] else []
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs if "metrics" in r]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "values": values,
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bounds.get(name),
        }
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--label")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {"seconds": args.seconds, "seeds": seeds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        count_mismatches = []
        for seed in seeds:
            first = run_once(workload, seed, args.seconds, args.trace)
            runs.append(first)
            uncovered = first.get("meta", {}).get("samples", {}).get("uncovered")
            if uncovered:
                count_mismatches.append(f"seed {seed} functions without a call: {uncovered}")
            if args.trace and "metrics" in first:
                second = run_once(workload, seed, args.seconds, args.trace)
                runs.append(second)
                for name, m in first["metrics"].items():
                    other = second.get("metrics", {}).get(name, {}).get("value")
                    if m["unit"] == "count" and m["value"] != other:
                        count_mismatches.append(f"seed {seed} {name}: {m['value']} != {other}")
            print(f"{workload} seed={seed} exit={first['exit']} "
                  f"failed={first.get('failed')}/{first.get('attempted')}", file=sys.stderr, flush=True)
            if first.get("error"):
                print(first["error"], file=sys.stderr)
        attempted = sum(r.get("attempted", 0) for r in runs)
        failed = sum(r.get("failed", 0) for r in runs)
        metrics = summarise(runs, bounds)
        report["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "failed_ratio": failed / attempted if attempted else None,
            "metrics": metrics,
            "samples": [r.get("meta", {}).get("samples") for r in runs],
            "count_mismatches": count_mismatches,
        }
        ok = ok and all(r["exit"] == 0 for r in runs) and not count_mismatches
        report.setdefault("meta", {k: runs[0].get("meta", {}).get(k) for k in ("python", "nproc", "git_rev", "src_sha256")})
        if workload == "stream":
            report["stream_composition"] = runs[0].get("meta", {}).get("composition")

        print(f"\n== {workload}: {len(runs)} runs, failed_ratio {failed}/{attempted}")
        print(f"{'metric':28s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for name, m in metrics.items():
            bound = f"{m['bound']:.2f}" if m["bound"] is not None else ""
            print(f"{name:28s} {m['unit']:6s} {m['median']:12.6g} {m['q1']:12.6g} {m['q3']:12.6g} "
                  f"{m['spread']:7.3f} {bound:>6s}")
        sample_counts = [s for s in report["workloads"][workload]["samples"] if s]
        if sample_counts:
            print(f"samples per run: {sample_counts[0]}")
        for line in count_mismatches:
            print(f"COUNT MISMATCH {line}")
    if args.label:
        out = HERE / "results" / f"{args.label}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"\nwrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
