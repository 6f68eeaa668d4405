"""Reading back the CSV that ``ScanResult.to_csv`` writes, for round-trip tests."""

import csv

from spinmoment.scan import _CSV_HEADER


def read_scan_csv(path: str):
    """Read back a scan CSV: returns (rows, header) with numeric fields parsed.

    Each row is (v1, v2, in_r, in_s, in_t) with in_s None when it was skipped.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header}")
        for rec in reader:
            v1, v2, fr, fs, ft = rec
            rows.append(
                (float(v1), float(v2), int(fr), None if fs == "" else int(fs), int(ft))
            )
    return rows, header
