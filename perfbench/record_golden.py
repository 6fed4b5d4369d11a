"""Record the golden output digests that ``run.py`` checks outputs against.

    python3 perfbench/record_golden.py [--seeds 0-20]

For each seed, at full and smoke size, this stores digests of the clean
reports and repaired CSVs (clean_wide) and of the first ops' scoped error
counts (crud_tall).  Re-record only in a change whose purpose is to change
what the program outputs; a performance change must reproduce them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-20", help="inclusive range, e.g. 0-20")
    args = parser.parse_args()
    first, last = (int(part) for part in args.seeds.split("-"))
    work_dir = BENCH_DIR / "out" / "golden-work"
    golden = workloads.load_golden()
    try:
        for sizes in (workloads.FULL, workloads.SMOKE):
            for seed in range(first, last + 1):
                shutil.rmtree(work_dir, ignore_errors=True)
                work_dir.mkdir(parents=True)
                clean = workloads.CleanWide(sizes, seed, work_dir)
                clean.setup()
                if not all(op.ok for op in clean.run(0)):
                    raise SystemExit(f"clean_wide failed on seed {seed}")
                golden[workloads.golden_key(clean.name, sizes, seed)] = clean.digests()
                crud = workloads.CrudTall(sizes, seed, work_dir)
                crud.setup()
                if not all(op.ok for op in crud.run(0)):
                    raise SystemExit(f"crud_tall failed on seed {seed}")
                golden[workloads.golden_key(crud.name, sizes, seed)] = {
                    "error_counts": crud.golden_digest()
                }
                print(f"recorded seed {seed} ({'full' if sizes is workloads.FULL else 'smoke'})",
                      flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
