"""Run records and their on-disk formats.

Every experiment emits a flat stream of rows

    experiment,seed,task,L,q,observable,value,aux1,aux2

with floats rendered as %.17g (round-trip exact) so that repeated runs can
be compared byte for byte.  The optional fields q, aux1 and aux2 are left
empty when absent.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple


def format_value(x) -> str:
    """Canonical text for one CSV cell."""
    if x is None:
        return ""
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


class RunRecord(NamedTuple):
    experiment: str
    seed: int
    task: int
    L: int
    q: int | None
    observable: str
    value: float
    aux1: float | None = None
    aux2: float | None = None

    def to_csv_line(self) -> str:
        return ",".join(map(format_value, self))


CSV_HEADER = ",".join(RunRecord._fields)


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
            fh.write(json.dumps(rec._asdict(), sort_keys=True) + "\n")


def _plain(obj):
    """json's fallback: SummaryStats as its dict, an exact rational as its
    text "p/q", numpy values as Python ones (numpy floats are Python floats
    already)."""
    if isinstance(obj, Fraction):
        return str(obj)
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} "
                    "is not JSON serializable")


def dump_summary(summary, fh) -> None:
    """The one summary text, printed or written: sorted, indented JSON
    with no NaN or infinity, and a final newline."""
    json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False,
              default=_plain)
    fh.write("\n")


def write_summary(summary: dict, path) -> None:
    with open(path, "w") as fh:
        dump_summary(summary, fh)
