"""Readers of the CLI's CSV output, for round-trip and reference checks."""
import csv
import typing

import numpy as np

from chaossde.cli import ExperimentReport


def read_report_csv(path: str) -> list[ExperimentReport]:
    """The reports of a ``table1`` CSV, each field parsed to its declared type."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if tuple(rows[0]) != ExperimentReport.FIELDS:
        raise ValueError("not a report CSV")
    types = typing.get_type_hints(ExperimentReport)
    return [ExperimentReport(*(types[name](v) for name, v in zip(ExperimentReport.FIELDS, row)))
            for row in rows[1:]]


def read_curve_csv(path: str) -> dict[str, np.ndarray]:
    """The columns of a ``fig1`` curve CSV by name."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(header)}
