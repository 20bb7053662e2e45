"""The bench gate table, driven with doctored copies of the baselines."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.bench.gates import GATES, check, main

REPO = Path(__file__).resolve().parent.parent
BASELINES = {
    kind: json.loads((REPO / f"BENCH_{kind}.json").read_text())
    for kind in ("build", "query", "shard")
}
ANSWERED = "/points/workers_2/queries_answered"
WHOLE_STREAM = 4 * 400  # clients x queries per client
SC_P50 = "/families/sc/batched_p50_seconds"
SC_P50_BASE = BASELINES["query"]["families"]["sc"]["batched_p50_seconds"]
QPS = "/points/workers_1/throughput_qps"
QPS_BASE = BASELINES["shard"]["points"]["workers_1"]["throughput_qps"]

_DROP = object()


def _set(doc, pointer, value):
    *path, last = pointer.split("/")[1:]
    for key in path:
        doc = doc[key]
    if value is _DROP:
        del doc[last]
    else:
        doc[last] = value


# (kind, edits to the candidate, verdict name, expected status)
CASES = {
    "exact-violated": ("build", {"/identical_weights": False},
                       "exact /identical_weights", "FAIL"),
    "exact-held": ("build", {}, "exact /identical_weights", "pass"),
    "exact-count-violated": ("shard", {"/points/workers_1/restarts": 1},
                             "exact /points/workers_1/restarts", "FAIL"),
    "exact-type-mismatch": ("query", {"/identical_answers": 1},
                            "exact /identical_answers", "FAIL"),
    "at-least-violated": ("query", {"/families/sc/speedup": 4.99},
                          "at_least /families/sc/speedup", "FAIL"),
    "at-least-at-threshold": ("query", {"/families/sc/speedup": 5.0},
                              "at_least /families/sc/speedup", "pass"),
    "at-least-stream-short": ("shard", {ANSWERED: WHOLE_STREAM - 1},
                              f"at_least {ANSWERED}", "FAIL"),
    "at-least-stream-whole": ("shard", {ANSWERED: WHOLE_STREAM},
                              f"at_least {ANSWERED}", "pass"),
    "2-cpus-violated": ("build", {"/cpu_count": 2, "/speedup": 1.49},
                        "at_least_if_2_cpus /speedup", "FAIL"),
    "2-cpus-at-threshold": ("build", {"/cpu_count": 2, "/speedup": 1.5},
                            "at_least_if_2_cpus /speedup", "pass"),
    "2-cpus-skipped-on-1-cpu": ("shard", {"/cpu_count": 1, "/scaling_ratio": 0.1},
                                "at_least_if_2_cpus /scaling_ratio", "skip"),
    "drift-lower-violated": ("query", {SC_P50: SC_P50_BASE * 2.01},
                             f"drift {SC_P50}", "FAIL"),
    "drift-lower-at-threshold": ("query", {SC_P50: SC_P50_BASE * 2},
                                 f"drift {SC_P50}", "pass"),
    "drift-higher-violated": ("shard", {QPS: QPS_BASE * 0.49},
                              f"drift {QPS}", "FAIL"),
    "drift-higher-at-threshold": ("shard", {QPS: QPS_BASE * 0.5},
                                  f"drift {QPS}", "pass"),
    "workload-mismatch": ("query", {"/workload/n": 2999}, "workload", "FAIL"),
    "kind-mismatch": ("build", {"/bench": "query"}, "candidate kind", "FAIL"),
    "missing-pointer": ("query", {"/families/sc": _DROP},
                        "at_least /families/sc/speedup", "FAIL"),
    "missing-pointer-drift": ("shard", {QPS: _DROP}, f"drift {QPS}", "FAIL"),
}


@pytest.mark.parametrize("kind,edits,name,status", CASES.values(), ids=list(CASES))
def test_gate_verdicts(kind, edits, name, status):
    baseline = BASELINES[kind]
    candidate = copy.deepcopy(baseline)
    for pointer, value in edits.items():
        _set(candidate, pointer, value)
    verdicts = {o.name: o.status for o in check(kind, candidate, baseline)}
    assert verdicts[name] == status


@pytest.mark.parametrize("kind", sorted(BASELINES))
def test_committed_baselines_pass_their_own_gates(kind):
    outcomes = check(kind, BASELINES[kind], BASELINES[kind])
    assert [o for o in outcomes if o.status == "FAIL"] == []
    assert len(outcomes) == 3 + sum(g.kind == kind for g in GATES)


def test_bad_invocations_exit_2(tmp_path, capsys):
    assert main(["query", "--baseline", str(tmp_path / "absent.json")]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--baseline", "BENCH_query.json"])
    assert exc.value.code == 2
