"""Merge perfbench's saved runs of one seed into one BENCH_<n>.json.

    python3 tools/bench_merge.py --seed N --out BENCH_<n>.json [--note TEXT ...]

Run from the repository root after `perfbench/run.py --seed N --trace 0|1` for each
workload.  Keeps the provenance once and each run's verdict and medians; times nothing.
"""
import argparse
import json
from pathlib import Path

ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
ap.add_argument("--seed", type=int, required=True)
ap.add_argument("--out", type=Path, required=True)
ap.add_argument("--note", action="append", default=[], help="a caveat to keep with the numbers")
args = ap.parse_args()
bench = {"provenance": None, "notes": args.note, "workloads": {}}
for path in sorted(Path(".bench_work/results").glob(f"*-seed{args.seed}-trace[01].json")):
    run = json.loads(path.read_text(encoding="utf-8"))
    prov = run["provenance"]
    entry = bench["workloads"].setdefault(prov.pop("workload"), {})
    entry.update((k, prov.pop(k)) for k in ("config_sha256", "inputs_sha256"))
    entry["per_layer" if prov.pop("trace") else "end_to_end"] = {
        "correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"],
        "medians": {name: m["value"] for name, m in run["metrics"].items()}}
    bench["provenance"] = bench["provenance"] or prov
    if prov != bench["provenance"]:
        raise SystemExit(f"{path}: provenance differs from the other runs'")
args.out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
