"""Local Spark for the benchmark: start, settings record, job counters, stop.

Everything Spark writes goes under the checkout's ``.perfbench/tmp``.  The
JVM and its Python workers are children of this process; :func:`stop_spark`
shuts the JVM down and waits until every descendant process has exited.
"""
from __future__ import annotations

import contextlib
import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set

# Dataflow test-scale inputs fit one partition; more partitions only add
# per-task overhead to the hundreds of small jobs one query launches.
DATAFLOW_SHUFFLE_PARTITIONS = 1
# The repo's job entry points (jobs/_common.py) run the workload runner with
# 16 shuffle partitions and Spark's default adaptive execution.
RUNNER_SHUFFLE_PARTITIONS = 16
# Broadcast joins off, as in the repo's test session (conftest.py): with them
# on, asynchronous broadcast jobs made TightUBG's job count vary (140-142)
# between identical runs of one query.
SESSION_CONF = {
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}


@dataclass
class SparkRun:
    spark: object
    start_s: float
    cores: int


def start_spark(root: str, shuffle_partitions: int) -> SparkRun:
    """Launch a ``local[k]`` session (k = min(4, nproc)) and time it."""
    tmp = os.path.join(root, ".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    src = os.path.join(root, "src")
    # Python workers import ``repro`` from the checkout, not from site-packages.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    cores = max(1, min(4, os.cpu_count() or 1))
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{cores}]",
            "--driver-memory 1g",
            f"--driver-java-options -Djava.io.tmpdir={tmp}",
            f"--conf spark.local.dir={tmp}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            # Keep every job and stage of a run readable by statusTracker().
            "--conf spark.ui.retainedJobs=100000",
            "--conf spark.ui.retainedStages=100000",
            "pyspark-shell",
        ]
    )
    t0 = time.perf_counter()
    from pyspark.sql import SparkSession

    builder = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(shuffle_partitions))
        .config("spark.sql.warehouse.dir", os.path.join(tmp, "warehouse"))
    )
    for k, v in SESSION_CONF.items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return SparkRun(spark, time.perf_counter() - t0, cores)


def spark_settings(spark) -> Dict[str, str]:
    """The settings recorded with every Spark result."""
    conf = spark.conf
    jvm = spark.sparkContext._jvm
    return {
        "master": spark.sparkContext.master,
        "spark.sql.adaptive.enabled": conf.get("spark.sql.adaptive.enabled"),
        "spark.sql.shuffle.partitions": conf.get("spark.sql.shuffle.partitions"),
        "spark.sql.autoBroadcastJoinThreshold": conf.get(
            "spark.sql.autoBroadcastJoinThreshold"
        ),
        "spark_version": spark.version,
        "java_version": str(jvm.System.getProperty("java.version")),
    }


def base_settings(root: str) -> Dict[str, str]:
    """Python version, nproc and git SHA (recorded for every workload)."""
    return {
        "python_version": platform.python_version(),
        "nproc": str(os.cpu_count()),
        "git_sha": git_sha(root),
    }


def git_sha(root: str) -> str:
    """HEAD's commit, read from ``.git`` without running git; "unknown"
    outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


@contextlib.contextmanager
def job_group(spark, group: str) -> Iterator[None]:
    """Tag every job launched inside the block with ``group``.

    Lazy work is attributed to the group active when its job is launched,
    i.e. to the call that forced it, not to the call that built the plan.
    """
    sc = spark.sparkContext
    prev = sc.getLocalProperty("spark.jobGroup.id")
    sc.setJobGroup(group, group)
    try:
        yield
    finally:
        sc.setLocalProperty("spark.jobGroup.id", prev)


def group_counts(spark, group: str) -> Dict[str, int]:
    """Jobs, stages and completed tasks launched under ``group``."""
    st = spark.sparkContext.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    stages: Set[int] = set()
    for j in jobs:
        info = st.getJobInfo(j)
        if info is not None:
            stages.update(info.stageIds)
    tasks = 0
    for sid in stages:
        info = st.getStageInfo(sid)
        if info is not None:
            tasks += info.numCompletedTasks
    return {"jobs": len(jobs), "stages": len(stages), "tasks": tasks}


def _descendants(pid: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop_spark(spark, timeout: float = 60.0) -> None:
    """Stop the session and the JVM, then wait for every child process."""
    from pyspark import SparkContext

    procs = _descendants(os.getpid())
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.stdin.close()  # the gateway JVM exits when its stdin closes
            proc.wait(timeout=timeout)
    deadline = time.monotonic() + timeout
    while any(_alive(p) for p in procs):
        if time.monotonic() > deadline:
            raise RuntimeError(f"Spark processes still running: {procs}")
        time.sleep(0.1)
