"""Record reference.json: the outputs every benchmark job must reproduce.

    python3 perfbench/make_reference.py

Runs each workload once per input variant on the current checkout, checks
the physics bounds, and stores a digest of the output (sampled rows,
column sums, summary) that ``run.py`` compares to 1e-12.  The stored file
was recorded from the code before any performance work; regenerate it
only for a change that is meant to alter the outputs.
"""
from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    env = run.job_env()
    work = run.BENCH_DIR / ".work"
    work.mkdir(exist_ok=True)
    reference = {}
    try:
        for wl in run.WORKLOADS.values():
            for seed in range(wl.variants):
                out_path = work / "out.csv"
                argv = [sys.executable, "-m", "gaqb.cli", *wl.args(seed, False),
                        "--out", str(out_path)]
                job = run.run_job(argv, env, work)
                if job.code != 0:
                    print(f"{wl.variant(seed)}: exit {job.code}\n{job.stderr}", file=sys.stderr)
                    return 1
                out = run.parse_csv(out_path)
                errors = wl.check(out, seed)
                if errors:
                    print(f"{wl.variant(seed)}: {errors}", file=sys.stderr)
                    return 1
                reference[wl.variant(seed)] = run.digest(out)
                print(f"{wl.variant(seed)}: {len(out.data)} rows, {job.wall:.2f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
