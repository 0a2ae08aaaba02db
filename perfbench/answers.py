"""Answer checking against committed references and the enumeration baseline.

A reference file ``reference/<workload>.json`` holds, for the workload's
default seed, one row per query of the generated pool:
``[s, t, tb, te, tspg_size, tspg_digest]``.  ``make_reference.py`` writes
the files after cross-checking every answer by independent routes.

For any other seed the benchmark verifies answers with the ``EPtgTSG``
enumeration baseline, which finishes only on queries whose path count fits
its expansion budget; the share checked is reported.
"""
from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable, List, Optional, Sequence

from repro.baselines.ep import ep_run

DEFAULT_SEED = 17
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
# Expansion budget of one enumeration check (the runner's INF stand-in is
# 500 k; a check that needs more counts as unverified, not failed).
CHECK_EXPANSIONS = 100_000


def digest(edges: Iterable) -> str:
    """Order-independent digest of a tspG edge set."""
    h = hashlib.sha1()
    for u, v, ts in sorted(edges):
        h.update(f"{u},{v},{ts};".encode())
    return h.hexdigest()[:16]


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str, seed: int) -> Optional[List[list]]:
    """Reference rows for ``seed``, or None when none is committed."""
    path = reference_path(workload)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        ref = json.load(f)
    return ref["rows"] if ref["seed"] == seed else None


def matches_reference(row: Sequence, q, edges: Optional[list], size: int) -> bool:
    """``edges`` None means only the size is known (the workload runner)."""
    if list(row[:4]) != [q.s, q.t, q.tb, q.te]:
        return False  # the query stream itself changed
    if size != row[4]:
        return False
    return edges is None or digest(edges) == row[5]


def enumeration_check(adj, q, size: int, edges: Optional[list]) -> Optional[bool]:
    """Compare with the EPtgTSG baseline; None when it exceeds its budget."""
    res = ep_run("EPtgTSG", adj, q, max_expansions=CHECK_EXPANSIONS)
    if res.inf:
        return None
    if edges is None:
        return len(res.edges) == size
    return res.edges == sorted(edges)
