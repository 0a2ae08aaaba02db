"""Spans around the program's public functions, recorded from outside.

:class:`Tracer` replaces a function as bound in a module namespace with a
wrapper that records a span (name, start, end, parent, query id) plus
counters read off the call's arguments and result, then calls the original.
The entry points are called unchanged; they look their callees up in their
module's namespace at call time, so they reach the wrappers.  Spans stay in
memory until :meth:`Tracer.write`; :meth:`Tracer.restore` puts every
original back.

A span's self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    qid: int
    counts: Dict[str, float] = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


Counter = Callable[[tuple, dict, object], Dict[str, float]]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.qid = -1
        self._stack: List[int] = []
        self._patched: list = []

    def wrap(
        self,
        module,
        attr: str,
        name,
        counter: Optional[Counter] = None,
    ) -> None:
        """Record a span around every call of ``module.attr``.

        ``name`` is the span name, or a function of the call's arguments
        that returns it.
        """
        orig = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            span = Span(label, 0.0, 0.0, stack[-1] if stack else -1, self.qid)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start
            if counter is not None:
                span.counts = counter(args, kwargs, out)
            return out

        self.patch(module, attr, traced)

    def patch(self, module, attr: str, fn) -> None:
        """Bind ``module.attr`` to ``fn`` until :meth:`restore`."""
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, fn)

    def restore(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")

    # -- aggregation -----------------------------------------------------

    def self_ms(self, name: str) -> Dict[int, float]:
        """Self time of ``name`` spans in ms, summed per query id."""
        out: Dict[int, float] = {}
        for s in self.spans:
            if s.name == name:
                out[s.qid] = out.get(s.qid, 0.0) + 1e3 * s.self_s
        return out

    def count(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)


def time_metrics(
    tracer: Tracer, name: str, metric: str, qids: List[int], scale: float = 1.0
) -> Dict[str, float]:
    """``metric`` (workload total) and ``metric_p50`` (per-query median).

    Queries that never entered the layer count as 0 in the median.
    """
    per_q = tracer.self_ms(name)
    vals = [per_q.get(q, 0.0) * scale for q in qids]
    return {
        metric: sum(vals),
        f"{metric}_p50": statistics.median(vals) if vals else 0.0,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- kernel layers ---------------------------------------------------------

def _n_labels(args, kwargs, out):
    A, D = out
    return {"labels": len(A) + len(D)}


def _quick_counts(args, kwargs, out):
    return {"scanned": len(args[0]), "kept": len(out)}


def _adj_counts(args, kwargs, out):
    return {"edges": out.m}


def _tcv_counts(args, kwargs, out):
    return {"entries": sum(len(v) for v in out.values())}


def _tight_counts(args, kwargs, out):
    return {"gq": args[0].m, "gt": out.m}


def _eev_counts(args, kwargs, out):
    return {"tspg": len(out)}


def _bidir_counts(args, kwargs, out):
    return {"found": int(out is not None)}


def _polarity_name(args, kwargs):
    blocked = args[5] if len(args) > 5 else kwargs.get("blocked")
    return "core.eev.escalation" if blocked else "core.eev.polarity"


def trace_kernel(tracer: Tracer) -> None:
    """Wrap the kernel phases as ``vug_local`` and ``eev`` reach them."""
    from repro.core import eev, vug

    tracer.wrap(vug, "polarity_times", "core.polarity", _n_labels)
    tracer.wrap(vug, "quick_ubg_edges", "core.quick_ubg", _quick_counts)
    tracer.wrap(vug, "TemporalAdjacency", "graph.adjacency.subgraph", _adj_counts)
    tracer.wrap(vug, "tcv_from_source", "core.tcv", _tcv_counts)
    tracer.wrap(vug, "tcv_to_target", "core.tcv", _tcv_counts)
    tracer.wrap(vug, "tight_ubg", "core.tight_ubg", _tight_counts)
    tracer.wrap(vug, "eev", "core.eev", _eev_counts)
    tracer.wrap(eev, "bidir_search", "core.eev.bidir", _bidir_counts)
    tracer.wrap(eev, "arrival_times", _polarity_name)
    tracer.wrap(eev, "departure_times", _polarity_name)


def kernel_metrics(tracer: Tracer, qids: List[int]) -> Dict[str, float]:
    m: Dict[str, float] = {}
    m.update(time_metrics(tracer, "core.polarity", "core.polarity.ms", qids))
    m["core.polarity.labels"] = tracer.count("core.polarity", "labels")
    m.update(time_metrics(tracer, "core.quick_ubg", "core.quick_ubg.ms", qids))
    scanned = tracer.count("core.quick_ubg", "scanned")
    m["core.quick_ubg.edges_scanned"] = scanned
    m["core.quick_ubg.keep_ratio"] = ratio(
        tracer.count("core.quick_ubg", "kept"), scanned
    )
    m.update(
        time_metrics(
            tracer, "graph.adjacency.subgraph", "graph.adjacency.subgraph_ms", qids
        )
    )
    m.update(time_metrics(tracer, "core.tcv", "core.tcv.ms", qids))
    m["core.tcv.entries"] = tracer.count("core.tcv", "entries")
    m.update(time_metrics(tracer, "core.tight_ubg", "core.tight_ubg.ms", qids))
    gq = tracer.count("core.tight_ubg", "gq")
    gt = tracer.count("core.tight_ubg", "gt")
    m["core.tight_ubg.pruned_ratio"] = ratio(gq - gt, gq)
    m.update(time_metrics(tracer, "core.eev", "core.eev.ms", qids))
    m.update(time_metrics(tracer, "core.eev.polarity", "core.eev.polarity_ms", qids))
    m.update(time_metrics(tracer, "core.eev.bidir", "core.eev.bidir_ms", qids))
    calls = tracer.calls("core.eev.bidir")
    m["core.eev.bidir_calls"] = calls
    m["core.eev.bidir_found_ratio"] = ratio(
        tracer.count("core.eev.bidir", "found"), calls
    )
    m["core.eev.escalations"] = tracer.calls("core.eev.escalation")
    m.update(
        time_metrics(tracer, "core.eev.escalation", "core.eev.escalation_ms", qids)
    )
    m["core.vug.gq_edges"] = gq
    m["core.vug.gt_edges"] = gt
    m["core.vug.tspg_edges"] = tracer.count("core.eev", "tspg")
    return m


# -- dataflow phases -------------------------------------------------------

# (module, attribute, span name, separator before s/jobs/tasks).  The last
# entry is the result collection the benchmark itself calls.
DATAFLOW_PHASES = (
    ("repro.core.vug", "quick_ubg_dataflow", "core.vug.quick_ubg_dataflow", "."),
    ("repro.core.vug", "tight_ubg_dataflow", "core.vug.tight_ubg_dataflow", "."),
    ("repro.core.vug", "eev_df", "core.eev.eev_df", "."),
    ("repro.graph.schema", "spark_edges_to_list", "graph.schema.collect", "_"),
)


def tag_jobs(tracer: Tracer, spark, module, attr: str, name: str) -> None:
    """Run every call of ``module.attr`` inside the Spark job group
    ``<name>#<query id>``."""
    from spark_env import job_group

    orig = getattr(module, attr)

    def grouped(*args, **kwargs):
        with job_group(spark, f"{name}#{tracer.qid}"):
            return orig(*args, **kwargs)

    tracer.patch(module, attr, grouped)


def trace_dataflow(tracer: Tracer, spark) -> None:
    """Wrap the dataflow phases, each in a span and a job group."""
    import importlib

    for mod_name, attr, name, _ in DATAFLOW_PHASES:
        module = importlib.import_module(mod_name)
        tag_jobs(tracer, spark, module, attr, name)
        tracer.wrap(module, attr, name)


def dataflow_metrics(
    tracer: Tracer, spark, qids: List[int]
) -> Dict[str, float]:
    from spark_env import group_counts

    m: Dict[str, float] = {}
    for _, _, name, sep in DATAFLOW_PHASES:
        m.update(time_metrics(tracer, name, f"{name}{sep}s", qids, scale=1e-3))
        jobs = tasks = 0
        for q in qids:
            c = group_counts(spark, f"{name}#{q}")
            jobs += c["jobs"]
            tasks += c["tasks"]
        m[f"{name}{sep}jobs"] = jobs
        m[f"{name}{sep}tasks"] = tasks
    return m
