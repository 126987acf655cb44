"""Record the digests of the pinned artifacts for a range of seeds.

    python3 perfbench/record_digests.py --first 0 --last 31

Runs ``synth`` and ``simulate`` once per workload and seed and writes the
SHA-256 of each pinned artifact into ``perfbench/digests.json``, which
``run.py`` then requires every later commit to reproduce byte for byte.  Only
re-record when an artifact change is intended and explained.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def record(cli, workload: str, seed: int) -> dict:
    work = run.WORK / f"record-{workload}-{seed}-{os.getpid()}"
    try:
        wl = run.Workload(workload, seed, work)
        digests = {}
        for argv in (wl.gridworld, *(["--out", str(wl.out[cmd]), *wl.argv[cmd]] for cmd in run.PINNED)):
            code, _, err = run.run_cli(cli, argv)
            if code != 0:
                raise SystemExit(f"{workload} seed {seed}: {argv[2]} exited {code}: {err}")
        for cmd, names in run.PINNED.items():
            actual = run.file_digests(wl.out[cmd])
            digests[cmd] = {name: actual[name] for name in names}
        return digests
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=31)
    parser.add_argument("--workload", action="append", choices=sorted(run.workloads.WHY))
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    import prefplan.cli as cli

    table = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    for workload in args.workload or sorted(run.workloads.WHY):
        for seed in range(args.first, args.last + 1):
            table.setdefault(workload, {})[str(seed)] = record(cli, workload, seed)
            print(f"{workload} seed {seed}", file=sys.stderr)
        table[workload] = dict(sorted(table[workload].items(), key=lambda kv: int(kv[0])))
    run.DIGESTS.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
