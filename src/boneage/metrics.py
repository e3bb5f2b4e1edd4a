"""Accuracy metrics for age predictions against expert readings.

Ages are in months throughout. MAPE uses the expert reading as the
denominator. A reference table of twelve expert/system pairs ships
with the package (data/table1.csv) and anchors the self-test: its MAE
is 2.8 months and its MAPE is about 0.0182.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from typing import List, Sequence, Tuple

import numpy as np

from .errors import ContractError


@dataclass
class MetricsReport:
    """Per-case readings plus summary errors, rows sorted by case id."""

    cases: List[Tuple[str, float, float]]
    mae_months: float
    mape: float

    @property
    def count(self) -> int:
        return len(self.cases)

    def format_lines(self) -> List[str]:
        lines = [
            f"cases: {self.count}",
            f"mae_months: {self.mae_months:.4f}",
            f"mape: {self.mape:.6f}",
        ]
        for case_id, expert, system in self.cases:
            lines.append(f"  {case_id}: expert={expert:g} system={system:g}")
        return lines


def _as_pairs(expert: Sequence[float], system: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    e = np.asarray(expert, dtype=np.float64)
    s = np.asarray(system, dtype=np.float64)
    if e.ndim != 1 or e.shape != s.shape:
        raise ContractError(f"expert/system lengths differ: {e.shape} vs {s.shape}")
    if e.size == 0:
        raise ContractError("metrics need at least one case")
    return e, s


def mae(expert: Sequence[float], system: Sequence[float]) -> float:
    """Mean absolute error in months."""
    e, s = _as_pairs(expert, system)
    return float(np.mean(np.abs(e - s)))


def mape(expert: Sequence[float], system: Sequence[float]) -> float:
    """Mean absolute percentage error, as a fraction of the expert reading."""
    e, s = _as_pairs(expert, system)
    if np.any(e <= 0):
        raise ContractError("expert ages must be strictly positive for MAPE")
    return float(np.mean(np.abs(e - s) / e))


def _id_sort_key(case_id: str):
    # numeric ids sort numerically, everything else lexicographically after
    return (0, int(case_id), "") if case_id.isdigit() else (1, 0, case_id)


def evaluate(
    predictions: Sequence[Tuple[str, float]], labels: Sequence[Tuple[str, float]]
) -> MetricsReport:
    """Join (id, system_months) with (id, expert_months) and score them.

    The two id sets must match exactly; the report's rows are sorted by
    id, so input order never matters.
    """
    sys_map = {str(i): float(v) for i, v in predictions}
    exp_map = {str(i): float(v) for i, v in labels}
    if len(sys_map) != len(predictions) or len(exp_map) != len(labels):
        raise ContractError("duplicate case ids")
    missing = sorted(set(exp_map) - set(sys_map), key=_id_sort_key)
    extra = sorted(set(sys_map) - set(exp_map), key=_id_sort_key)
    if missing or extra:
        raise ContractError(
            f"id mismatch: missing predictions for {missing}, unmatched predictions {extra}"
        )
    ids = sorted(exp_map, key=_id_sort_key)
    cases = [(i, exp_map[i], sys_map[i]) for i in ids]
    expert = [c[1] for c in cases]
    system = [c[2] for c in cases]
    return MetricsReport(cases=cases, mae_months=mae(expert, system), mape=mape(expert, system))


def read_table(source, text: str, columns: Sequence[str]) -> List[tuple]:
    """Read a CSV text's data rows as (id, floats...): the first of
    ``columns`` is the id, which must be ASCII, the rest must be finite
    numbers. ``source`` names the text in errors, with the line for a
    bad cell."""
    reader = csv.DictReader(text.splitlines())
    out = []
    for row in reader:
        if any(row.get(c) is None for c in columns):
            raise ContractError(f"{source}: needs columns {','.join(columns)}")
        if not row[columns[0]].isascii():
            raise ContractError(f"{source}:{reader.line_num}: {columns[0]} must be ASCII, got {row[columns[0]]!r}")
        values = []
        for c in columns[1:]:
            cell = f"{source}:{reader.line_num}: {c} must be"
            try:
                values.append(float(row[c]))
            except ValueError:
                raise ContractError(f"{cell} a number, got {row[c]!r}") from None
            if not math.isfinite(values[-1]):
                raise ContractError(f"{cell} finite, got {row[c]!r}")
        out.append((row[columns[0]], *values))
    if not out:
        raise ContractError(f"{source}: no data rows")
    return out


def load_reference_table() -> List[Tuple[str, float, float]]:
    """The reference table bundled with the package, as (case_id,
    expert_months, system_months) rows."""
    src = resources.files("boneage").joinpath("data/table1.csv")
    columns = ("case_id", "expert_months", "system_months")
    return read_table(src, src.read_text(encoding="ascii"), columns)


def selftest_report() -> MetricsReport:
    """Evaluate the bundled reference table."""
    cases = load_reference_table()
    labels = [(i, expert) for i, expert, _ in cases]
    predictions = [(i, system) for i, _, system in cases]
    return evaluate(predictions, labels)
