#!/usr/bin/env python3
"""Run the headline minimal-summand surveys and export their records.

Covers both admission modes for triangular numbers (k=2) and the repeats
survey for tetrahedral numbers (k=3), over [1, 10^6] by default.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from binsum import ResultCache, dump_records_csv, dump_records_json, run_experiment, summary_line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=10**6)
    parser.add_argument("--cache-dir", type=Path, default=None)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    args = parser.parse_args(argv)

    cache = None if args.cache_dir is None else ResultCache(args.cache_dir)
    jobs = [
        {"k": 2, "n_min": 1, "n_max": args.n_max, "mode": "repeats"},
        {"k": 3, "n_min": 1, "n_max": args.n_max, "mode": "repeats"},
        {"k": 2, "n_min": 1, "n_max": args.n_max, "mode": "distinct"},
    ]
    records = []
    for params in jobs:
        record, hit = run_experiment("survey-H", params, cache=cache)
        print(summary_line(record) + (" [cached]" if hit else ""))
        records.append(record)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / f"headline_surveys.{args.format}"
    if args.format == "csv":
        dump_records_csv(records, out)
    else:
        dump_records_json(records, out)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
