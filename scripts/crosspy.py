"""Check that gospf's outputs do not depend on the Python version.

    python3 scripts/crosspy.py --python /usr/bin/python3.10 \
        --python /usr/bin/python3.13

Under each interpreter, gospf is imported from this checkout's `src/`, and
these outputs are hashed:
- daily-pair: every file the daily CLI pair writes (`gen-traffic`, `run`,
  `run --mode baseline` and `compare` on garr48);
- churn-96, seed 1: `metrics.csv` of its run;
- gap-small, seed 2: the `gap.csv` text of every scenario, and the metrics
  csv and summary text of every scenario's run.
The scenarios are the ones `perfbench/workloads.py` builds. One line per
output gives each interpreter's hash; the exit code is 1 if any output
differs between interpreters or an interpreter fails. Standard library only.
"""

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def output_hashes() -> dict[str, str]:
    """The outputs' hashes under the running interpreter."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import gospf.engine
    import gospf.oracle
    import workloads

    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        daily = workloads.DailyPair(1, Path(tmp), workloads.Tally())
        daily.run(daily.setup())
        files = sorted(p for p in Path(tmp).rglob("*") if p.is_file())
        hashes["daily-pair"] = sha("".join(f"{p.relative_to(tmp).as_posix()}\0{p.read_text()}\0"
                                           for p in files))
    churn = workloads.Churn96(1, None, workloads.Tally())
    hashes["churn-96 metrics.csv"] = sha(gospf.engine.run(churn.setup()).metrics.csv_text())
    scenarios = workloads.GapSmall(2, None, workloads.Tally()).setup()
    hashes["gap-small gap.csv"] = sha("".join(
        gospf.oracle.gap_csv(gospf.oracle.heuristic_gap(s)) for s in scenarios))
    metrics = [gospf.engine.run(s).metrics for s in scenarios]
    hashes["gap-small metrics"] = sha("".join(m.csv_text() + m.summary_text() for m in metrics))
    return hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--python", action="append", default=[], metavar="PATH",
                        help="an interpreter to compare; give it once per interpreter")
    parser.add_argument("--hashes", action="store_true",
                        help="print this interpreter's hashes as JSON and exit")
    args = parser.parse_args(argv)
    if args.hashes:
        print(json.dumps(output_hashes()))
        return 0
    if not args.python:
        parser.error("give at least one --python")

    found = {}
    for python in args.python:
        done = subprocess.run([python, "-B", __file__, "--hashes"],
                              capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"{python}: exit code {done.returncode}")
            return 1
        found[python] = json.loads(done.stdout)

    mismatch = False
    for name in found[args.python[0]]:
        values = {python: hashes[name] for python, hashes in found.items()}
        same = len(set(values.values())) == 1
        mismatch |= not same
        print(f"{name}: {'identical' if same else 'DIFFERENT'}")
        for python, value in values.items():
            print(f"  {value[:16]}  {python}")
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
