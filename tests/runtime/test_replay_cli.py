"""``python -m repro.runtime``: one replay path, through the worker pool."""

import json

from repro.runtime.__main__ import main


def test_replay_serves_the_trace_through_the_pool(capsys):
    assert main(["--trace-size", "12", "--workers", "2"]) == 0
    report = capsys.readouterr().out
    assert "12 requests, pool=2xinline\n" in report
    assert "executor" not in report
    assert "policy" not in report and "makespan" not in report
    assert "served          : 12 ok, 0 errors, 0 incorrect results" in report
    assert "backend" not in report
    # One row per pool worker under the table header.
    assert len(report.split("rate_rps")[1].strip().splitlines()) == 3


def test_replay_masks_an_inline_kill(capsys):
    plan = json.dumps([{"kind": "kill", "worker": 0, "after_batches": 1}])
    assert main(["--trace-size", "12", "--workers", "2",
                 "--fault-plan", plan]) == 0
    report = capsys.readouterr().out
    assert "served          : 12 ok, 0 errors" in report
    assert "faults          : 1 worker restarts" in report


def test_exit_code_means_every_response_served(capsys, monkeypatch):
    from repro.runtime import engine

    def refuses(program, request):
        raise engine.EngineError("refused")

    monkeypatch.setattr(engine, "execute", refuses)
    assert main(["--trace-size", "4", "--workers", "1"]) == 1
    assert "0 ok, 4 errors" in capsys.readouterr().out


def test_unknown_app_is_a_usage_error(capsys):
    assert main(["--trace-size", "4", "--apps", "no-such-app"]) == 1
    assert "unknown apps" in capsys.readouterr().err
