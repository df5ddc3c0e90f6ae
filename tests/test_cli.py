"""The ``python -m repro`` command-line surface."""

import pytest

from repro.__main__ import COMMANDS, main


def test_default_prints_tables(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "DMP" in out
    assert "memory-centric" in out


def test_unknown_command_shows_usage(capsys):
    assert main(["nope"]) == 2
    out = capsys.readouterr().out
    assert "Commands" in out


@pytest.mark.parametrize("argv", [
    ["nope"],
    ["--backend"],
    ["tables", "--backend", "lockstep"],
    ["trace", "--out"],
    ["bench", "--out"],
    ["synthesize", "--budget", "x"],
    ["synthesize", "--opt", ","],
    ["synthesize", "--opt", "silent-stores", "--budget", "0"],
    ["synthesize", "--opt", "silent-stores", "--budget", "-1"],
    ["precision", "--opt", ","],
    ["precision", "--budget", "0"],
    ["precision", "--budget", "-1"],
    ["precision", "--budget", "1", "--max-false-positives", "-1"],
    ["report", "--out"],
    ["stats", "/nonexistent.json"],
], ids=" ".join)
def test_bad_input_exits_2_with_a_message(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out.strip()
    assert "Traceback" not in captured.out + captured.err


def test_fig6_command(capsys):
    assert main(["fig6"]) == 0
    out = capsys.readouterr().out
    assert "separation" in out


def test_urg_command(capsys):
    assert main(["urg"]) == 0
    out = capsys.readouterr().out
    assert "accuracy: 12/12" in out


def test_command_registry_complete():
    assert set(COMMANDS) == {"tables", "urg", "fig6", "audit", "stats",
                             "trace", "bench", "lint", "synthesize",
                             "precision", "report"}


def test_global_backend_flag(capsys, monkeypatch):
    import os
    from repro.engine import REPRO_BACKEND_ENV
    monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)
    assert main(["tables", "--backend", "pool"]) == 0
    assert os.environ.get(REPRO_BACKEND_ENV) == "pool"
    # Drop the value main() just exported directly — a second
    # monkeypatch.delenv would record "pool" as the state to restore
    # and re-export it at teardown, polluting later tests.
    os.environ.pop(REPRO_BACKEND_ENV, None)
    assert main(["tables", "--backend", "warp-drive"]) == 2
    assert "unknown backend" in capsys.readouterr().out
    assert REPRO_BACKEND_ENV not in os.environ


def test_bench_command(tmp_path, capsys):
    import json
    out_path = tmp_path / "bench.json"
    assert main(["bench", "--quick", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "KIPS" in out
    assert "speedup" in out
    report = json.loads(out_path.read_text())
    for entry in report["workloads"].values():
        assert entry["identical"]
        assert entry["fastpath"]["instructions"] > 0


def test_lint_command_flags_leaky_program(tmp_path, capsys):
    prog = tmp_path / "leaky.s"
    prog.write_text(
        ".secret 0x1000 +8\n"
        "    li x1, 0x1000\n"
        "    load x2, 0(x1)\n"
        "    store x2, 0(x1)\n"
        "    halt\n")
    assert main(["lint", str(prog)]) == 1
    out = capsys.readouterr().out
    assert "LEAKS(silent-stores, store_silence)" in out
    assert "=> LEAKS" in out


def test_lint_command_clean_program_and_opts(tmp_path, capsys):
    prog = tmp_path / "clean.s"
    prog.write_text(
        ".secret 0x1000 +8\n"
        "    li x1, 0x2000\n"
        "    store x1, 0(x1)\n"
        "    halt\n")
    assert main(["lint", str(prog), "--opts", "silent-stores"]) == 0
    out = capsys.readouterr().out
    assert "=> CLEAN" in out
    assert "[contracts: silent-stores]" in out


def test_lint_command_json_out(tmp_path, capsys):
    import json
    prog = tmp_path / "leaky.s"
    prog.write_text(
        ".secret 0x1000 +8\n"
        "    li x1, 0x1000\n"
        "    load x2, 0(x1)\n"
        "    store x2, 0(x1)\n"
        "    halt\n")
    out_path = tmp_path / "report.json"
    assert main(["lint", str(prog), "--json",
                 "--out", str(out_path)]) == 1
    payload = json.loads(out_path.read_text())
    assert payload["ok"] is False
    (report,) = payload["reports"]
    assert report["findings"]
    verdicts = {entry["pc"]: entry["verdict"]
                for entry in report["verdicts"]}
    assert verdicts[0] == "SAFE"
    assert "silent-stores" in verdicts[2] or "silent-stores" in \
        verdicts[1]


def test_lint_command_rejects_bad_input(tmp_path, capsys):
    # Bad input is exit 2 — distinct from "LEAKS found" (exit 1).
    assert main(["lint"]) == 2
    assert "usage" in capsys.readouterr().out
    assert main(["lint", str(tmp_path / "missing.s")]) == 2
    assert "lint:" in capsys.readouterr().out
    prog = tmp_path / "ok.s"
    prog.write_text("    halt\n")
    assert main(["lint", str(prog), "--opts", "not-a-plugin"]) == 2
    assert "bad --opts" in capsys.readouterr().out
    # An empty list, or the retired tracer, would apply no contract.
    for opts in (",", "pipeline-tracer"):
        assert main(["lint", str(prog), "--opts", opts]) == 2
        assert "bad --opts" in capsys.readouterr().out
    bad = tmp_path / "bad.s"
    bad.write_text("    frobnicate x1, x2\n")
    assert main(["lint", str(bad)]) == 2
    assert "lint:" in capsys.readouterr().out


def test_lint_command_sticky_flag_restores_baseline(tmp_path, capsys):
    """A branch-gated but dynamically silent store: SAFE under the
    path-sensitive default, LEAKS under ``--sticky``."""
    prog = tmp_path / "gated.s"
    prog.write_text(
        ".secret 0x140 +8\n"
        "    li x1, 0x140\n"
        "    load x3, 0(x1)\n"
        "    beq x3, x3, join\n"
        "    addi x9, x0, 1\n"
        "join:\n"
        "    li x6, 9\n"
        "    store x6, 0x100(x0)\n"
        "    halt\n")
    args = ["lint", str(prog), "--opts", "silent-stores"]
    assert main(args) == 0
    assert "=> CLEAN" in capsys.readouterr().out
    assert main(args + ["--sticky"]) == 1
    out = capsys.readouterr().out
    assert "LEAKS(silent-stores" in out


def test_precision_command_smoke(tmp_path, capsys):
    import json
    out_path = tmp_path / "precision.json"
    assert main(["precision", "--budget", "1", "--json",
                 "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["ok"] is True            # no soundness escapes
    assert payload["outcomes"]
    assert payload["false_positives"] <= \
        payload["sticky_false_positives"]
    for row in payload["plugins"].values():
        assert {"trials", "confirmed", "false_positives"} <= set(row)


def test_precision_command_rejects_bad_input(capsys):
    assert main(["precision", "--budget", "zero"]) == 2
    assert "usage" in capsys.readouterr().out
    assert main(["precision", "--opt", "not-a-plugin"]) == 2
    assert "no contract" in capsys.readouterr().out


def test_precision_command_ratchet(capsys):
    assert main(["precision", "--budget", "1",
                 "--max-false-positives", "0"]) == 1
    out = capsys.readouterr().out
    assert "exceed the pinned ratchet" in out


def _clean_enabled_registry():
    """Reset the process registry and force-enable recording, so the
    CLI tests hold regardless of the ambient REPRO_TELEMETRY value.
    Returns the enabled flag to restore."""
    from repro import telemetry
    telemetry.REGISTRY.reset()
    saved = telemetry.REGISTRY.enabled
    telemetry.REGISTRY.set_enabled(True)
    return saved


def _restore_registry(saved):
    from repro import telemetry
    telemetry.REGISTRY.set_enabled(saved)
    telemetry.REGISTRY.reset()


def test_report_command(capsys):
    saved = _clean_enabled_registry()
    try:
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "== run report ==" in out
        assert "phase profile" in out
        assert "engine.runner" in out
        assert "repro_cache_hits_total" in out
        assert "simulated metrics" in out
    finally:
        _restore_registry(saved)


def test_report_command_json_out(tmp_path, capsys, monkeypatch):
    import json
    from repro.telemetry import PHASE_METRIC
    # No ./BENCH_PERF.json and no --perf: the report has no perf block.
    monkeypatch.chdir(tmp_path)
    saved = _clean_enabled_registry()
    out_path = tmp_path / "report.json"
    try:
        assert main(["report", "--json", "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["bench_perf"] is None
        assert PHASE_METRIC in payload["telemetry"]
        assert "repro_cache_misses_total" in payload["telemetry"]
        assert payload["simulated"]
    finally:
        _restore_registry(saved)


@pytest.mark.parametrize("text", [
    "[1]",
    '{"workloads": {"fig6": {}}}',
    "not json",
    None,
], ids=["list", "partial-report", "not-json", "missing"])
def test_report_command_rejects_a_bad_perf_file(text, tmp_path, capsys):
    perf = tmp_path / "perf.json"
    if text is not None:
        perf.write_text(text)
    assert main(["report", "--perf", str(perf)]) == 2
    captured = capsys.readouterr()
    assert str(perf) in captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("command", ["lint", "report"])
def test_unwritable_out_exits_2(command, tmp_path, capsys, monkeypatch):
    # Bad input, not a traceback; for lint, exit 1 would read as LEAKS.
    monkeypatch.chdir(tmp_path)
    prog = tmp_path / "ok.s"
    prog.write_text("    halt\n")
    argv = ["lint", str(prog)] if command == "lint" else ["report"]
    out_path = tmp_path / "no" / "such" / "dir" / "report.json"
    saved = _clean_enabled_registry()
    try:
        assert main(argv + ["--json", "--out", str(out_path)]) == 2
    finally:
        _restore_registry(saved)
    captured = capsys.readouterr()
    assert str(out_path) in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_trace_command(tmp_path, capsys):
    import json
    out_path = tmp_path / "trace.json"
    assert main(["trace", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "SQ head-of-line stalls" in out
    assert "!" in out
    assert "perfetto" in out.lower()
    document = json.loads(out_path.read_text())
    assert document["traceEvents"]
    assert {event["ph"] for event in document["traceEvents"]} <= \
        {"X", "i", "M"}
