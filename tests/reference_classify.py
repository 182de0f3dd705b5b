"""The earlier row-based layouts of ``occob classify``.

The command used to take the rows of ``strata_table``, render each as a
list of cells (``cells`` here) and write the text table, the CSV through
``csv.writer`` and the JSON through ``json.dumps`` from those rows, one
dict per row.  It now renders each window vector's cells once and writes
every line from the genus and the vector; all three layouts must come out
as these functions write them.
"""

from __future__ import annotations

import csv
import io
import json

from occob.classify import StrataRow, strata_table
from occob.objects import GeneralObject


def cells(row: StrataRow) -> list[str]:
    """One row of the classify table as the text and CSV layouts write it."""
    counts = [str(n) for _, n in row.windows]
    return [str(row.genus), *counts, str(row.c_number), "true" if row.in_b else "false"]


def _header(obj: GeneralObject) -> list[str]:
    return ["g"] + [f"w_{b}" for b in sorted(obj.branes)] + ["c", "b_flag"]


def reference_text(obj: GeneralObject, max_genus: int, max_windows: int) -> str:
    """What ``classify`` prints without ``--json``."""
    table = list(map(cells, strata_table(obj, max_genus, max_windows)))
    return "\n".join([" ".join(_header(obj)), *map(" ".join, table)]) + "\n"


def reference_csv(obj: GeneralObject, max_genus: int, max_windows: int) -> str:
    """What ``classify --csv`` writes to its file."""
    table = list(map(cells, strata_table(obj, max_genus, max_windows)))
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(_header(obj))
    writer.writerows(table)
    return fh.getvalue()


def reference_json(obj: GeneralObject, max_genus: int, max_windows: int) -> str:
    """What ``classify --json`` prints."""
    payload = {
        "format": 1,
        "branes": sorted(obj.branes),
        "rows": [
            {
                "g": row.genus,
                "w": dict(row.windows),
                "c": row.c_number,
                "b_flag": row.in_b,
            }
            for row in strata_table(obj, max_genus, max_windows)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
