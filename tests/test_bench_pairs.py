"""tools/bench_pairs.py on two fake checkouts whose perfbench/run.py prints a
fixed JSON result: alternation, statistics and the appended entry."""
import importlib.util
import json
import os
import textwrap

import pytest

TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools",
    "bench_pairs.py",
)

# Each call appends its side's name to a shared log, then prints the
# side's next latency; the parent reads 10, 11, 12 ms and the change 5,
# 6, 13 ms, so the change wins two pairs of three.
FAKE_RUN = textwrap.dedent(
    """
    import json, os, sys
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    side = os.path.basename(here)
    log = os.path.join(os.path.dirname(here), "log")
    with open(log, "a") as f:
        f.write(side + "\\n")
    n = open(log).read().split().count(side)
    p50 = {"parent": [10, 11, 12], "change": [5, 6, 13]}[side][n - 1]
    print("# " + " ".join(sys.argv[1:]))
    print(json.dumps({
        "correct": True, "attempted": 7, "failed": 0,
        "metrics": {
            "query_p50_ms": {"value": p50, "unit": "ms"},
            "queries_per_s": {"value": 1000 / p50, "unit": "1/s"},
        },
    }))
    """
)


@pytest.fixture()
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _checkout(root, side):
    os.makedirs(root / side / "perfbench")
    (root / side / "perfbench" / "run.py").write_text(FAKE_RUN)
    bench = {
        "end_to_end": [
            {"name": "query_p50_ms", "better": "lower"},
            {"name": "queries_per_s", "better": "higher"},
        ]
    }
    (root / side / "BENCHMARK.json").write_text(json.dumps(bench))
    return str(root / side)


def test_pairs_alternate_and_append(tool, tmp_path, capsys):
    parent, change = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change")
    out = tmp_path / "BENCH_vug.json"
    out.write_text("[]")
    argv = [
        "--parent", parent, "--parent-sha", "aaa", "--change", change,
        "--change-sha", "bbb", "--workload", "kernel_dense", "--seed", "23",
        "--runs", "3", "--seconds", "2", "--out", str(out),
    ]
    assert tool.main(argv) == 0
    order = (tmp_path / "log").read_text().split()
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    (e,) = json.loads(out.read_text())
    assert (e["parent_sha"], e["change_sha"], e["pairs"]) == ("aaa", "bbb", 3)
    assert e["command"] == (
        "python3 perfbench/run.py --workload kernel_dense --seed 23"
        " --seconds 2 --trace 0"
    )
    p50 = e["metrics"]["query_p50_ms"]
    assert p50["parent"]["runs"] == [10, 11, 12]
    assert p50["change"]["median"] == 6
    assert p50["change_wins"] == 2
    assert e["metrics"]["queries_per_s"]["change_wins"] == 2
    assert e["answers"]["change"] == {"attempted": 21, "failed": 0, "correct": True}
    assert "change better in 2/3" in capsys.readouterr().out


def test_missing_sha_is_refused(tool, tmp_path):
    with pytest.raises(SystemExit, match="give its SHA"):
        tool.sha_of(str(tmp_path), None)
