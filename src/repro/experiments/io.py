"""Result formatting and persistence for the jobs."""
from __future__ import annotations

import json
import os
from typing import List, Mapping, Sequence

RESULTS_DIR = os.environ.get(
    "REPRO_RESULTS_DIR", os.path.join(os.path.dirname(__file__), "../../../results")
)


def fmt_markdown_table(rows: Sequence[Mapping], columns: Sequence[str]) -> str:
    """Render dict rows as a GitHub markdown table (fixed column order)."""

    def cell(v) -> str:
        if v is None:
            return "-"
        if isinstance(v, float):
            return f"{v:.4g}"
        return str(v)

    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for r in rows:
        lines.append("| " + " | ".join(cell(r.get(c)) for c in columns) + " |")
    return "\n".join(lines)


def save_results(name: str, rows: List[Mapping], columns: Sequence[str]) -> str:
    """Persist rows as JSON + markdown under results/; returns the md path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    jpath = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(jpath, "w") as f:
        json.dump(rows, f, indent=1, default=str)
    mpath = os.path.join(RESULTS_DIR, f"{name}.md")
    with open(mpath, "w") as f:
        f.write(fmt_markdown_table(rows, columns) + "\n")
    return mpath
