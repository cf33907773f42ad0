"""Run records and their on-disk formats.

Every experiment emits a flat stream of rows

    experiment,seed,task,L,q,observable,value,aux1,aux2

with floats rendered as %.17g (round-trip exact) so that repeated runs can
be compared byte for byte.  Optional integer-valued fields are left empty
when absent.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

#: value column tags
OBSERVABLES = ("xi2", "m2", "s2", "shannon_pe")

CSV_HEADER = "experiment,seed,task,L,q,observable,value,aux1,aux2"


def format_value(x) -> str:
    """Canonical text for one CSV cell."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


@dataclass(frozen=True)
class RunRecord:
    experiment: str
    seed: int
    task: int
    L: int
    q: int | None
    observable: str
    value: float
    aux1: float | None = None
    aux2: float | None = None

    def __post_init__(self):
        if self.observable not in OBSERVABLES:
            raise ValueError(f"unknown observable {self.observable!r}")

    def to_csv_line(self) -> str:
        f = format_value
        return (f"{f(self.experiment)},{f(self.seed)},{f(self.task)},"
                f"{f(self.L)},{f(self.q)},{f(self.observable)},"
                f"{f(self.value)},{f(self.aux1)},{f(self.aux2)}")

    def to_dict(self) -> dict:
        return asdict(self)


def write_csv(records, path) -> None:
    """Stream the rows to path; joining the whole file into one string
    first would hold it all in memory."""
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(rec.to_csv_line() + "\n" for rec in records)


def render_csv(records) -> str:
    return CSV_HEADER + "\n" + "".join(r.to_csv_line() + "\n" for r in records)


def write_jsonl(records, path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")


def _jsonable(obj):
    if hasattr(obj, "to_dict"):
        return _jsonable(obj.to_dict())
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "tolist"):  # numpy scalars and arrays
        return _jsonable(obj.tolist())
    return obj


def dump_summary(summary, fh) -> None:
    """The one summary text, printed or written: sorted, indented JSON
    with no NaN or infinity, and a final newline."""
    json.dump(_jsonable(summary), fh, indent=2, sort_keys=True,
              allow_nan=False)
    fh.write("\n")


def write_summary(summary: dict, path) -> None:
    with open(path, "w") as fh:
        dump_summary(summary, fh)
