"""The counter gate's comparison: exact, and it names what differs."""

import copy
import json
import math
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import check_counters  # noqa: E402

EXPECTED = json.loads((TOOLS / "expected_counters.json").read_text())


def _changed(workload, name, change):
    measured = copy.deepcopy(EXPECTED)
    change(measured[workload], name)
    return check_counters.compare(EXPECTED, measured)


def test_equal_counters_pass():
    assert check_counters.compare(EXPECTED, copy.deepcopy(EXPECTED)) == []


def test_committed_file_lists_every_counter_of_every_workload():
    benchmark = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    assert sorted(EXPECTED) == sorted(w["name"] for w in benchmark["workloads"])
    for counters in EXPECTED.values():
        assert sorted(counters) == sorted(check_counters.COUNTERS)


def test_count_off_by_one_is_named():
    def bump(counters, name):
        counters[name] += 1

    diff = _changed("exec-narrow", "core.node_firings", bump)
    assert len(diff) == 1
    assert "exec-narrow: core.node_firings" in diff[0]


def test_missing_counter_is_named():
    diff = _changed("serve-warm", "runtime.cache.compiles", dict.pop)
    assert len(diff) == 1
    assert "serve-warm: runtime.cache.compiles" in diff[0]
    assert "absent" in diff[0]


def test_float_differing_in_the_last_digit_is_named():
    def nudge(counters, name):
        counters[name] = math.nextafter(counters[name], math.inf)

    diff = _changed("exec-wide", "sim.modeled_gbs_geomean", nudge)
    assert len(diff) == 1
    assert "exec-wide: sim.modeled_gbs_geomean" in diff[0]


def test_missing_workload_names_each_of_its_counters():
    measured = copy.deepcopy(EXPECTED)
    del measured["compile-all"]
    diff = check_counters.compare(EXPECTED, measured)
    assert len(diff) == len(check_counters.COUNTERS)
    assert all(line.startswith("compile-all: ") for line in diff)


def test_a_mismatch_line_states_the_signed_change_and_percent():
    diff = check_counters.compare({"exec-narrow": {"core.node_firings": 34739}},
                                  {"exec-narrow": {"core.node_firings": 27012}})
    assert diff == ["exec-narrow: core.node_firings: expected 34739, "
                    "measured 27012 (-7727, -22.2%)"]


def test_a_change_from_zero_or_absent_has_no_percent():
    assert check_counters.change(0, 3) == " (+3)"
    assert check_counters.change(0.5, 0.75) == " (+0.25, +50.0%)"
    assert check_counters.change("absent", 3) == ""
    assert check_counters.change(3, "absent") == ""
