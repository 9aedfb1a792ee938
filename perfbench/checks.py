"""Output checks for one benchmark experiment; each raises CheckFailed."""

from __future__ import annotations

import math
from pathlib import Path

SUMMARY_HEADER = "method,task,mean_error,stderr,repeats"

#: Row order of summary.csv, with the mode that produces each row.
SUMMARY_ROWS = (("optimal", "filtering"), ("optimal", "prediction"),
                ("nonparametric", "filtering"), ("nonparametric", "prediction"))

#: Decisions by which the optimal filter may differ from the reference filter.
REFERENCE_SLACK = 2


class CheckFailed(Exception):
    """An experiment's output is missing or wrong."""


def expected_rows(mode: str) -> list:
    methods = {"optimal": ("optimal",), "nonparametric": ("nonparametric",),
               "both": ("optimal", "nonparametric")}[mode]
    return [row for row in SUMMARY_ROWS if row[0] in methods]


def check_summary(path, mode: str, repeats: int) -> dict:
    """Parse summary.csv; returns {(method, task): mean_error}.

    Requires the exact header, one row per method and task that ``mode``
    runs (in the harness's order), finite errors in [0, 1], a finite
    nonnegative standard error and the expected repeat count.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckFailed(f"cannot read {path}: {exc}") from exc
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != SUMMARY_HEADER:
        raise CheckFailed(f"{path}: bad header or missing final newline")
    rows = lines[1:-1]
    want = expected_rows(mode)
    if len(rows) != len(want):
        raise CheckFailed(f"{path}: {len(rows)} rows, expected {len(want)}")
    errors = {}
    for line, key in zip(rows, want):
        fields = line.split(",")
        if len(fields) != 5 or tuple(fields[:2]) != key:
            raise CheckFailed(f"{path}: row {line!r}, expected {','.join(key)},...")
        try:
            mean, stderr, count = float(fields[2]), float(fields[3]), int(fields[4])
        except ValueError as exc:
            raise CheckFailed(f"{path}: row {line!r}: {exc}") from exc
        if not (math.isfinite(mean) and 0.0 <= mean <= 1.0):
            raise CheckFailed(f"{path}: {','.join(key)} mean_error {mean} not in [0, 1]")
        if not (math.isfinite(stderr) and stderr >= 0.0):
            raise CheckFailed(f"{path}: {','.join(key)} stderr {stderr} is not >= 0")
        if count != repeats:
            raise CheckFailed(f"{path}: {','.join(key)} has {count} repeats, expected {repeats}")
        errors[key] = mean
    return errors


def check_error_table(errors: dict, table: dict) -> None:
    """Every mean error in ``table`` ({(method, task): (target, tol)}) within tolerance."""
    for key, (target, tol) in table.items():
        got = errors.get(key)
        if got is None or abs(got - target) > tol:
            raise CheckFailed(f"{','.join(key)} error {got} outside {target} +- {tol}")


def check_reference_errors(errors: dict, reference: dict, decisions: int) -> None:
    """The optimal filter's errors equal the reference filter's (:mod:`reference`).

    ``decisions`` is the number of scored steps over all repeats; the two
    may differ by at most REFERENCE_SLACK decisions, which allows for
    near-ties that round differently (half a decision more absorbs the
    rounding of the means).
    """
    for key, want in reference.items():
        got = errors.get(key)
        if got is None or abs(got - want) > (REFERENCE_SLACK + 0.5) / decisions:
            raise CheckFailed(f"{','.join(key)} error {got}, reference filter gives {want}")


def check_same_bytes(path_a, path_b, what: str) -> None:
    if Path(path_a).read_bytes() != Path(path_b).read_bytes():
        raise CheckFailed(f"{what}: {path_a} and {path_b} differ")


def check_trace_files(out_dir, repeats: int, rows: int) -> None:
    """trace_<r>.csv exists for every repeat with a header and ``rows`` data rows."""
    for r in range(repeats):
        path = Path(out_dir) / f"trace_{r}.csv"
        try:
            with open(path, "rb") as fh:
                lines = sum(1 for _ in fh)
        except OSError as exc:
            raise CheckFailed(f"cannot read {path}: {exc}") from exc
        if lines != rows + 1:
            raise CheckFailed(f"{path}: {lines - 1} data rows, expected {rows}")
