"""Escaped Edges Verification (paper Alg. 6) + BiDirSearch (Alg. 7).

EEV turns the tight upper-bound graph ``Gt`` into the exact tspG without
enumerating all temporal simple paths:

1. Pre-verify every ``s``-out and ``t``-in edge (Lemma 2) and every edge one
   hop after an earlier ``s``-out edge / one hop before a later ``t``-in edge
   (Lemma 10).
2. For each remaining ("escaped") unverified edge, run a bidirectional DFS
   for one temporal simple path through it.  If found, confirm every edge of
   the path plus every timestamp-substitutable parallel edge between
   consecutive interior path vertices (Lemma 11); if not found, the edge is
   not in the tspG.

BiDirSearch carries both paper optimizations: the longer half-window is
searched first (so its vertex claims constrain the cheaper half), and
neighbors are explored latest-first forward / earliest-first backward,
biasing toward short paths.  Both halves are one iterative DFS
(:func:`_half`): backward is forward on Gᴿ = {(v, u, −τ)}.

Implementation note beyond the paper: the DFS additionally prunes with
*Gt-local polarity times* — a forward step to ``w`` at τ is skipped when no
temporal path ``w → t`` departs after τ inside ``Gt`` (``D_gt(w) ≤ τ``),
and symmetrically backward with ``A_gt``.  The bound ignores the visited
set, so it is admissible: it only removes provably dead branches and the
returned result is unchanged (property-tested against brute force); on
dense tight graphs it removes almost all backtracking.
"""
from __future__ import annotations

import math
from typing import Callable, Generator, List, Optional, Set, Tuple

from repro.core.polarity import arrival_times, departure_times
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.schema import Edge

_Polarity = Optional[dict]


# Expansions a second-half attempt may spend before the search escalates to
# claim-aware pruning: the second direction's polarity map is recomputed
# over Gt minus the first half's claims, O(window edges), and the half
# re-runs unbudgeted (same result, far smaller tree).
_PHASE2_BUDGET = 2000


def _half(
    visited: Set[int],
    nbrs: Callable[[int], List[Tuple[int, int]]],
    sign: int,
    start: int,
    ts0: int,
    goal: int,
    avoid: int,
    end: int,
    pol: _Polarity,
    claims: frozenset = frozenset(),
    budget: float = math.inf,
) -> Generator[List[Edge], None, Optional[bool]]:
    """One half of BiDirSearch: a DFS from ``start`` to ``goal`` on an
    explicit stack.  Forward (``sign = 1``) walks ``gt.out_edges``; backward
    (``sign = -1``) walks ``gt.in_edges``, i.e. Gᴿ's out-lists: keys
    ``sign·τ`` strictly increase along the walk up to ``sign·end``, and
    ``pol`` (D forward, A backward, unlabeled = ``ts0``) prunes a step to
    ``w`` unless ``sign·pol[w] > key``.

    Yields its live edge stack (G orientation) at each arrival at ``goal``.
    Returns whether a step hit a vertex of ``claims``, or ``None`` once
    more than ``budget`` steps were tried, leaving ``visited`` dirty.
    """
    if start == goal:
        yield []
        return False
    hit = False
    kend = sign * end
    path: List[Edge] = []
    stack = [(start, sign * ts0, iter(nbrs(start)))]
    while stack:
        frame = stack[-1]
        cur, kcur, steps = frame
        for ts, w in steps:
            key = sign * ts
            if key <= kcur:
                break  # the rest of the list is no later in the walk
            if key > kend or w == avoid:
                continue
            budget -= 1
            if budget < 0:
                return None
            if w in visited:
                hit = hit or w in claims
                continue
            e = (cur, w, ts) if sign > 0 else (w, cur, ts)
            if w == goal:
                path.append(e)
                yield path
                path.pop()
            elif pol is None or sign * pol.get(w, ts0) > key:
                visited.add(w)
                path.append(e)
                stack.append((w, key, iter(nbrs(w))))
                break
        if stack[-1] is frame:
            stack.pop()
            if stack:
                visited.discard(cur)
                path.pop()
    return hit


def bidir_search(
    edge: Edge,
    gt: TemporalAdjacency,
    s: int,
    t: int,
    tb: int,
    te: int,
    arrival: _Polarity = None,
    departure: _Polarity = None,
) -> Optional[List[Edge]]:
    """Find one temporal simple path ``s → t`` through ``edge`` (Alg. 7).

    Returns the path as an edge list, or ``None`` when no such path exists.
    ``arrival``/``departure`` are optional Gt-local polarity maps used as
    admissible dead-branch pruning (see module docstring); the result is
    identical with or without them.

    The longer half-window is searched first (optimization i); each of its
    completions is extended by a budgeted second half.  A second half that
    fails without meeting a first-half claim fails the whole search
    (conflict-directed backjumping).
    """
    u0, v0, ts0 = edge
    visited: Set[int] = {u0, v0}
    # _half's arguments after ``visited``, the polarity map last.
    fwd = (gt.out_edges, 1, v0, ts0, t, s, te, departure)
    bwd = (gt.in_edges, -1, u0, ts0, s, t, tb, arrival)
    first, second = (fwd, bwd) if ts0 - tb > te - ts0 else (bwd, fwd)
    for head in _half(visited, *first):
        claimed = frozenset(visited)
        search = _half(visited, *second, claimed - {u0, v0}, _PHASE2_BUDGET)
        try:
            tail = next(search)
        except StopIteration as stop:
            tail, hit = None, stop.value
            if hit is None:  # out of budget: escalate
                visited &= claimed
                polarity = departure_times if second is fwd else arrival_times
                pol = polarity(gt, s, t, tb, te, claimed)
                tail, hit = next(_half(visited, *second[:-1], pol), None), True
        if tail is not None:
            f, b = (head, tail) if first is fwd else (tail, head)
            return b[::-1] + [edge] + f
        if not hit:
            return None
    return None


def confirm_path(
    path: List[Edge], gt: TemporalAdjacency, confirmed: Set[Edge]
) -> None:
    """Add a found path and its Lemma-11 substitutes to ``confirmed``.

    Edges at positions 1, 2, l-1, l are covered by the Lemma-2/10
    pre-verification; substitutes are generated for interior positions only
    (paper Alg. 6 L11-19), but the path's own edges are always added — the
    set union makes the overlap harmless.
    """
    l = len(path)
    confirmed.update(path)
    for i in range(3, l - 1):  # 1-based interior positions 3 .. l-2
        a, b, _ = path[i - 1]
        lo = path[i - 2][2]  # τ_{i-1}
        hi = path[i][2]  # τ_{i+1}
        for ts_j, w in gt.out_edges(a):
            if ts_j <= lo:
                break  # descending order: the rest are ≤ lo too
            if w == b and ts_j < hi:
                confirmed.add((a, b, ts_j))


def preverified_edges(
    gt: TemporalAdjacency, s: int, t: int
) -> Set[Edge]:
    """Lemma-2 and Lemma-10 confirmations (Alg. 6 L2-5)."""
    out: Set[Edge] = set()
    s_min = {}
    for ts, v in gt.out_edges(s):
        out.add((s, v, ts))  # Lemma 2
        s_min[v] = min(ts, s_min.get(v, ts))
    t_max = {}
    for ts, u in gt.in_edges(t):
        out.add((u, t, ts))  # Lemma 2
        t_max[u] = max(ts, t_max.get(u, ts))
    for u, tmin in s_min.items():
        for ts, v in gt.out_edges(u):
            if ts > tmin:
                out.add((u, v, ts))  # Lemma 10 i)
    for v, tmax in t_max.items():
        for ts, u in gt.in_edges(v):
            if ts < tmax:
                out.add((u, v, ts))  # Lemma 10 ii)
    return out


def eev(
    gt: TemporalAdjacency, s: int, t: int, tb: int, te: int
) -> List[Edge]:
    """Exact tspG edge set from the tight upper-bound graph (Alg. 6).

    After the Lemma-2/10 pre-verification, each edge not yet confirmed is
    searched, and the path found is confirmed with its Lemma-11 substitutes
    (Alg. 6 L6-19).
    """
    confirmed = preverified_edges(gt, s, t)
    arrival = arrival_times(gt, s, t, tb, te)
    departure = departure_times(gt, s, t, tb, te)
    for edge in gt.by_ts:
        if edge in confirmed:
            continue
        path = bidir_search(edge, gt, s, t, tb, te, arrival, departure)
        if path is not None:  # else: proven absent from every simple path
            confirm_path(path, gt, confirmed)
    # Gt's own tuples in sorted order: confirmed ⊆ gt.edges.
    return [e for e in gt.edges if e in confirmed]
