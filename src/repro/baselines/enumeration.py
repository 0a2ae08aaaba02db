"""Temporal simple path enumeration and the naive tspG construction.

This is the engine behind the EP* baselines (and the brute-force oracle in
tests): DFS from ``s`` over a (possibly reduced) graph, enforcing strictly
ascending timestamps within ``[τb, τe]`` and vertex-simplicity, unioning the
edges of every path that reaches ``t``.

The paper bounds baselines with a 12-hour wall clock (INF); we bound them
with an *expansion budget* — the number of edge extensions attempted —
which plays the same role deterministically.  Exceeding the budget raises
:class:`EnumerationBudgetExceeded`.
"""
from __future__ import annotations

from typing import Iterator, List, Optional, Set, Tuple

from repro.graph.adjacency import TemporalAdjacency
from repro.graph.schema import Edge


class EnumerationBudgetExceeded(Exception):
    """Raised when DFS enumeration exceeds its expansion budget (paper: INF)."""


def iter_simple_paths(
    adj: TemporalAdjacency,
    s: int,
    t: int,
    tb: int,
    te: int,
    max_expansions: Optional[int] = None,
) -> Iterator[List[Edge]]:
    """Yield every temporal simple path ``s → t`` within ``[τb, τe]``.

    Paths are yielded as edge lists; the traversal explores out-neighbors in
    ascending temporal order, depth-first on an explicit stack of
    ``(vertex, τ, neighbor iterator)`` frames.  ``max_expansions`` bounds
    the total number of attempted edge extensions across the whole
    enumeration.
    """
    expansions = 0
    path: List[Edge] = []
    visited: Set[int] = {s}
    stack = [(s, tb - 1, iter(adj.out_asc(s)))]
    while stack:
        frame = stack[-1]
        cur, tcur, nbrs = frame
        for ts, w in nbrs:
            if ts <= tcur:
                continue
            if ts > te:
                break
            expansions += 1
            if max_expansions is not None and expansions > max_expansions:
                raise EnumerationBudgetExceeded(
                    f"exceeded {max_expansions} expansions"
                )
            if w in visited:
                continue
            path.append((cur, w, ts))
            if w == t:
                yield list(path)
                path.pop()
            else:
                visited.add(w)
                stack.append((w, ts, iter(adj.out_asc(w))))
                break
        if stack[-1] is frame:
            stack.pop()
            if stack:
                visited.discard(cur)
                path.pop()


def tspg_by_enumeration(
    adj: TemporalAdjacency,
    s: int,
    t: int,
    tb: int,
    te: int,
    max_expansions: Optional[int] = None,
    materialize: bool = False,
) -> Tuple[List[Edge], int]:
    """Naive tspG: union of vertices/edges over all enumerated paths.

    Returns ``(sorted edge list, number of paths)``.  Mirrors the baseline's
    per-edge "already inserted?" check via a set.  With ``materialize`` the
    enumerated paths are kept in memory before the union — the paper's
    baselines do this ("enumerate all temporal simple paths, then construct
    the tspG"), and it is what gives them the exponential space profile of
    Exp-3; leave it off for memory-lean enumeration.
    """
    n_paths = 0
    if materialize:
        paths: List[List[Edge]] = []
        for p in iter_simple_paths(adj, s, t, tb, te, max_expansions):
            paths.append(p)
        n_paths = len(paths)
        edges: Set[Edge] = set()
        for p in paths:
            edges.update(p)
        return sorted(edges), n_paths
    edges = set()
    for p in iter_simple_paths(adj, s, t, tb, te, max_expansions):
        n_paths += 1
        edges.update(p)
    return sorted(edges), n_paths


def count_paths(
    adj: TemporalAdjacency,
    s: int,
    t: int,
    tb: int,
    te: int,
    max_paths: int,
) -> Tuple[int, bool]:
    """Count temporal simple paths up to ``max_paths`` (Exp-7).

    Counting is #P-hard, so the harness caps it; returns ``(count, capped)``.
    """
    n = 0
    for _ in iter_simple_paths(adj, s, t, tb, te):
        n += 1
        if n >= max_paths:
            return n, True
    return n, False
