"""Report containers and deterministic CSV/JSON emission.

JSON floats are Python's shortest round-trip repr and CSV floats a fixed
17-significant-digit format, so identical runs produce byte-identical output;
+-inf is written as the strings "inf"/"-inf", the CSV spelling, so the JSON
is strict.  Files are written atomically (temp file + rename).
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Any, Optional


def _normalize(obj: Any) -> Any:
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    return obj


def to_json_bytes(obj: Any) -> bytes:
    return json.dumps(_normalize(obj), sort_keys=True, indent=2,
                      allow_nan=False).encode("utf-8")


def atomic_write_bytes(path: str, data: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".gsbench-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class Result:
    """Base of the CLI's result dataclasses.

    Each subclass has a ``verdict`` (exit 1 when false) and serializes with
    ``to_dict()``, all of its fields unless it overrides this."""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ChainReport(Result):
    """Per-index rows of an inequality chain, factors kept in log domain.
    ``to_dict()`` is the summary; the rows go to CSV."""

    experiment: str
    params: dict
    columns: list
    rows: list = field(default_factory=list)
    verdict: bool = True
    first_crossing_index: Optional[int] = None

    def add_row(self, row: dict) -> None:
        self.rows.append(row)

    def all_hold(self) -> bool:
        return all(r.get("verdict", True) for r in self.rows)

    def to_dict(self) -> dict:
        return self.summary_dict()

    def summary_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": self.params,
            "columns": list(self.columns),
            "n_rows": len(self.rows),
            "verdict": self.verdict,
            "first_crossing_index": self.first_crossing_index,
        }

    def write_csv(self, path: str) -> None:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(self.columns))
        writer.writeheader()
        for row in self.rows:
            out = {}
            for k in self.columns:
                v = row.get(k, "")
                if isinstance(v, float):
                    v = format(v, ".17g")
                out[k] = v
            writer.writerow(out)
        atomic_write_bytes(path, buf.getvalue().encode())
