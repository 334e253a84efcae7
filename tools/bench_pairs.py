"""Paired before/after runs of the benchmark, written to one BENCH_*.json.

    python3 tools/bench_pairs.py BASE HEAD --seeds 14 23 --out BENCH_tag.json

BASE and HEAD are git revisions of this repository.  Each is exported with
``git archive`` into its own temporary directory, so neither tree holds a
``__pycache__`` or any untracked file, and the runs write no bytecode.  For
every workload in HEAD's BENCHMARK.json and every seed, one pair runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` in
each tree, alternating which side runs first.  T is the ``run_seconds`` of
HEAD's BENCHMARK.json, the same on both sides.  The file records each run's
final JSON line, q1, median and q3 per side and metric, and for each metric
how many pairs HEAD won (ties count for neither side).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> str:
    commit = subprocess.run(["git", "rev-parse", "--verify", rev], cwd=REPO, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=REPO, check=True,
                             capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[str, dict]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{tree.name} {workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return lines[0], json.loads(lines[-1])


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    out = {}
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        head_wins = base_wins = 0
        for b, h in zip(values["base"], values["head"]):
            if h != b:
                head_better = h < b if direction == "lower" else h > b
                head_wins += head_better
                base_wins += not head_better
        out[name] = {
            "better": direction,
            **{side: dict(zip(("q1", "median", "q3"),
                              np.percentile(v, [25, 50, 75]).tolist()))
               for side, v in values.items()},
            "head_wins": head_wins,
            "base_wins": base_wins,
            "pairs": len(values["head"]),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 10), metavar=("FIRST", "LAST"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.seeds[0] > args.seeds[1]:
        parser.error(f"--seeds FIRST LAST: FIRST {args.seeds[0]} is after LAST {args.seeds[1]}")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        revs = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
        spec = json.loads((trees["head"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        seconds = spec["run_seconds"]
        doc = {"revisions": revs, "seconds": seconds,
               "machine": {"platform": platform.platform(), "processor": _cpu_model()},
               "workloads": {}}
        for w in (w["name"] for w in spec["workloads"]):
            runs: dict[str, list[dict]] = {"base": [], "head": []}
            pairs = []
            for i, seed in enumerate(range(args.seeds[0], args.seeds[1] + 1)):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    line, result = run_once(trees[side], w, seed, seconds)
                    doc["machine"].setdefault("report", line[line.find("python "):])
                    runs[side].append(result)
                    pair[side] = result
                pairs.append(pair)
                print(f"{w} seed {seed}: done", file=sys.stderr, flush=True)
            doc["workloads"][w] = {"pairs": pairs, "summary": summarize(runs, better)}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return f"{line.split(':', 1)[1].strip()} x {os.cpu_count()}"
    except OSError:
        pass
    return f"{platform.processor() or 'unknown'} x {os.cpu_count()}"


if __name__ == "__main__":
    sys.exit(main())
