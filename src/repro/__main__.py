"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``tables``   print Table I and Table II (default)
``urg``      run the Figures 1/7 universal-read-gadget demo
``fig6``     run the Figure 6 silent-store histogram
``audit``    show the MLD framework auditing a toy optimization
``stats``    render the stats blocks in benchmarks/results/*.json
             (or in explicitly listed result/RunResult JSON files)
``trace``    run the Figure 5 amplified probes with event tracing on,
             render ASCII pipeline timelines, and export a
             Perfetto-loadable Chrome trace (``--out PATH`` to choose
             the JSON destination)
``bench``    measure simulated-instruction throughput (KIPS) of the
             fig5/fig6/fig7 workloads under the reference and
             fast-path kernels, print the speedup table, and write
             ``BENCH_PERF.json`` (``--out PATH`` to choose the
             destination; ``--quick`` for a smaller fig6/fig7 load)
``lint``     statically check ``.s`` programs for MLD leakage:
             ``python -m repro lint prog.s [--opts a,b,...] [--json]
             [--out PATH]`` — taint from the program's ``.secret`` /
             ``.public`` directives, contracts from the named
             optimizations (default: every one with a contract);
             ``--sticky`` selects the path-blind baseline analysis;
             exits 1 if any program leaks, 2 on lint error/bad input
``precision`` classify every static LEAKS verdict over the
             progen/gated/example corpus by secret-pair differential
             trial — confirmed vs false positive, path-sensitive vs
             sticky side by side:
             ``python -m repro precision [--opt a,b] [--budget N]
             [--seed N] [--json] [--out PATH]
             [--max-false-positives N]`` — exits 1 on any soundness
             escape or when the false-positive ratchet is exceeded
``synthesize`` learn each optimization's leakage contract by
             differential secret-pair fuzzing and diff it against the
             declared LINT_CONTRACT:
             ``python -m repro synthesize [--opt NAME] [--budget N]
             [--seed N] [--no-minimize] [--json] [--out PATH]`` —
             prints the learned-vs-declared status table (or the JSON
             report CI archives); exits 1 on any learned-but-
             undeclared clause
``report``   run one command and report the telemetry it recorded:
             ``python -m repro report [--out PATH] <command>
             [args...]`` — prints the command's own output, then the
             wall-clock phase profile and counters of that run;
             ``--out`` writes them as JSON; exits with the command's
             exit code

Every command accepts a global ``--backend NAME`` flag (equivalent to
setting ``REPRO_BACKEND=NAME``) that selects the execution backend —
``serial`` or ``pool`` — for every engine batch the command runs.
Results are bitwise identical across backends; only scheduling and
wall-clock change.

Bad input — an unknown command, an unknown backend name (from
``--backend`` or ``REPRO_BACKEND``), a flag without its value, an
argument a command does not take, a malformed or out-of-range number, a
plug-in list naming no contracted optimization, a missing file, an
unwritable ``--out`` — prints a message and exits 2.
"""

import json
import sys


class UsageError(Exception):
    """Bad command-line input; :func:`main` prints it and exits 2."""


def flag_value(args, name, usage):
    """Remove ``name VALUE`` from ``args`` and return ``VALUE`` (None
    when the flag is absent); a flag without a value is a
    :class:`UsageError` carrying ``usage``."""
    if name not in args:
        return None
    flag = args.index(name)
    if flag + 1 == len(args):
        raise UsageError(usage)
    value = args[flag + 1]
    del args[flag:flag + 2]
    return value


def flag_present(args, name):
    """Remove the boolean flag ``name`` from ``args``; True when it was
    there."""
    if name not in args:
        return False
    args.remove(name)
    return True


def no_arguments(command, args):
    """A command that takes no arguments: any is a :class:`UsageError`."""
    if args:
        raise UsageError(f"usage: python -m repro {command}")


def emit_json(payload, as_json, out, what):
    """The ``--json``/``--out`` report writer: print ``payload`` as
    JSON (``as_json`` without ``out``) or write it to ``out``, naming
    ``what`` was written.  An unwritable ``out`` is a
    :class:`UsageError`."""
    if not (as_json or out):
        return
    text = json.dumps(payload, indent=2, sort_keys=True)
    if not out:
        print(text)
        return
    try:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    except OSError as error:
        raise UsageError(f"cannot write {what} to {out}: "
                         f"{error.strerror or error}") from None
    print(f"wrote {what} to {out}")


def int_value(text, default, usage, minimum=None):
    """``int(text)``, ``default`` when ``text`` is None; a malformed
    number, or one below ``minimum``, is a :class:`UsageError` carrying
    ``usage``."""
    if text is None:
        return default
    try:
        value = int(text)
    except ValueError:
        raise UsageError(usage) from None
    if minimum is not None and value < minimum:
        raise UsageError(f"{usage}\nexpected a number of at least "
                         f"{minimum}, got {value}")
    return value


def contracted_names(text, flag, command):
    """The plug-in names in a comma-separated ``flag`` value (every
    plug-in with a lint contract when ``text`` is None).  An empty list
    or a name without a contract is a :class:`UsageError`: either would
    leave the command checking nothing."""
    from repro.lint import contracted_plugin_names
    known = contracted_plugin_names()
    if text is None:
        return known
    names = tuple(name for name in text.split(",") if name)
    if not names:
        raise UsageError(f"{command}: bad {flag}: no plug-in named in "
                         f"{text!r}")
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise UsageError(f"{command}: bad {flag}: no contract for "
                         f"{unknown}; known: {list(known)}")
    return names


def cmd_tables(*args):
    no_arguments("tables", args)
    from repro.core.classification import render_table as render_ii
    from repro.core.landscape import render_table as render_i
    print("Table I — leakage landscape\n")
    print(render_i())
    print("\n")
    print(render_ii())


def cmd_urg(*args):
    no_arguments("urg", args)
    from repro.attacks.dmp_attack import DMPSandboxAttack
    secret = b"Pandora 2021"
    attack = DMPSandboxAttack()
    attack.runtime.place_kernel_secret(
        attack.config.kernel_secret_base, secret)
    results = attack.leak_bytes(attack.config.kernel_secret_base,
                                len(secret))
    leaked = bytes(r.leaked_byte or 0 for r in results)
    print(f"kernel secret: {secret!r}")
    print(f"leaked via 3-level IMP + Prime+Probe: {leaked!r}")
    print(f"accuracy: {sum(r.correct for r in results)}/{len(results)}")


def cmd_fig6(*args):
    no_arguments("fig6", args)
    from repro.analysis.histogram import TimingHistogram
    from repro.attacks.bsaes_attack import (
        BSAESSilentStoreAttack, BSAESVictimServer,
    )
    server = BSAESVictimServer(bytes(range(16)), b"public-header-00")
    attack = BSAESSilentStoreAttack(server, bytes(range(16, 32)))
    samples = attack.histogram_runs(runs_per_type=12)
    histogram = TimingHistogram()
    histogram.extend("correct guess", samples["correct"])
    histogram.extend("incorrect guess", samples["incorrect"])
    print(histogram.render(bin_width=16))
    print(f"\nseparation: "
          f"{histogram.separation('correct guess', 'incorrect guess')} "
          "cycles (paper: > 100)")


def cmd_audit(*args):
    no_arguments("audit", args)
    import runpy
    import os
    path = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "examples", "leakage_audit.py")
    runpy.run_path(path, run_name="__main__")


def cmd_stats(*paths):
    """Render stats blocks from results JSON (bench or RunResult)."""
    import glob
    import os
    from repro.stats import extract_stats_blocks, render_stats
    paths = list(paths)
    if not paths:
        results_dir = os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir,
            "benchmarks", "results")
        paths = sorted(glob.glob(os.path.join(results_dir, "*.json")))
    if not paths:
        print("no results JSON found; run the benches first:\n"
              "  PYTHONPATH=src python -m pytest benchmarks -q")
        return
    shown = 0
    for path in paths:
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as error:
            raise UsageError(f"stats: {path}: {error}") from None
        name = os.path.splitext(os.path.basename(path))[0]
        for label, block in extract_stats_blocks(payload, source=name):
            print(render_stats(block, title=label))
            print()
            shown += 1
    if not shown:
        print("no stats blocks found in: " + ", ".join(paths))


def cmd_trace(*args):
    """Trace the Figure 5 amplified probes and export the evidence.

    Runs the silent (secret == store value) and non-silent probes with
    a full :class:`~repro.engine.TraceSpec`, prints one ASCII timeline
    per run — the non-silent one shows the store-queue head-of-line
    stall burst (``!``) that *is* the amplification — and writes every
    run as a separate process of one Perfetto-loadable Chrome trace.
    """
    import os
    from repro.attacks.amplification import amplified_probe_spec
    from repro.engine import TraceSpec, execute_spec
    from repro.trace import (
        chrome_document, render_timeline, run_trace_events,
        write_chrome_trace,
    )
    usage = "usage: python -m repro trace [--out PATH]"
    args = list(args)
    out = flag_value(args, "--out", usage)
    if args:
        raise UsageError(usage)
    if out is None:
        out = os.path.join(os.path.dirname(__file__), os.pardir,
                           os.pardir, "benchmarks", "results",
                           "trace_fig5.json")
    specs = [
        amplified_probe_spec(0x1111, 0x1111, label="fig5 silent probe"),
        amplified_probe_spec(0x2222, 0x1111,
                             label="fig5 non-silent probe"),
    ]
    events = []
    for pid, spec in enumerate(specs, start=1):
        result = execute_spec(spec.replace(trace=TraceSpec()))
        stalls = result.metrics.get("counters", {}).get(
            "pipeline.sq.head_of_line_stall_cycles", 0)
        print(f"=== {result.label}: {result.cycles} cycles, "
              f"{stalls} SQ head-of-line stall cycles ===")
        print(render_timeline(result.trace))
        print()
        events.extend(run_trace_events(result.trace, label=result.label,
                                       pid=pid))
    try:
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        write_chrome_trace(out, events)
    except OSError as error:
        raise UsageError(f"cannot write trace to {out}: "
                         f"{error.strerror or error}") from None
    print(f"wrote {len(events)} Chrome trace events to {out}")
    print("open in https://ui.perfetto.dev or chrome://tracing")


def cmd_bench(*args):
    """KIPS throughput of the attack workloads, both kernels.

    Every workload runs under the reference loop and the fast-path
    kernel; the table shows simulated KIPS for each plus the wall-clock
    speedup, and the ``identical`` column is the bitwise-equivalence
    check (per-run cycle counts, stats and attack outcomes must match
    across kernels — a speedup bought with drift is a bug, and the
    differential suite would also fail).  Returns 1 when any workload
    drifted.
    """
    from repro.analysis.throughput import REPORT_NAME, render_table, run_suite
    usage = "usage: python -m repro bench [--out PATH] [--quick]"
    args = list(args)
    out = flag_value(args, "--out", usage) or REPORT_NAME
    quick = flag_present(args, "--quick")
    if args:
        raise UsageError(usage)
    report = run_suite(runs_per_type=4 if quick else 12,
                       secret=b"Pan!" if quick else b"Pandora!",
                       best_of=1 if quick else 5)
    print(render_table(report))
    emit_json(report, False, out, "throughput report")
    drifted = [name for name, entry in report["workloads"].items()
               if not entry["identical"]]
    if drifted:
        print(f"ERROR: kernels diverged on: {', '.join(drifted)}")
        return 1
    return 0


def cmd_lint(*args):
    """Static MLD leakage check of ``.s`` programs.

    ``python -m repro lint prog.s [prog2.s ...] [--opts a,b] [--json]
    [--out PATH] [--sticky]``.  Default contracts are every registered
    optimization that exports one; ``--opts`` narrows to a
    comma-separated list of registry names.  ``--sticky`` disables the
    post-dominator implicit-flow scoping (the path-blind baseline the
    precision harness measures against).  ``--json`` prints (or with
    ``--out`` writes) the machine-readable report the CI job archives.
    Exit codes: 0 clean, 1 LEAKS found, 2 lint error / bad input.
    """
    from repro.isa.assembler import AssemblyError
    from repro.isa.text import assemble_file
    from repro.lint import lint_program, rows_for_names
    usage = ("usage: python -m repro lint <prog.s> [--opts a,b] "
             "[--json] [--out PATH] [--sticky]")
    args = list(args)
    as_json = flag_present(args, "--json")
    path_sensitive = not flag_present(args, "--sticky")
    out = flag_value(args, "--out", usage)
    opts = contracted_names(flag_value(args, "--opts", usage), "--opts",
                            "lint")
    if not args:
        raise UsageError(usage)
    contracts = rows_for_names(opts)
    reports = []
    for path in args:
        try:
            program = assemble_file(path)
        except (OSError, AssemblyError) as error:
            raise UsageError(f"lint: {error}") from None
        except ValueError as error:         # not UTF-8 text
            raise UsageError(f"lint: {path}: {error}") from None
        reports.append(lint_program(program, contracts=contracts,
                                    program_name=path,
                                    path_sensitive=path_sensitive))
    payload = {"reports": [report.to_json_dict() for report in reports],
               "ok": all(report.ok for report in reports)}
    emit_json(payload, as_json, out, "lint report")
    if not as_json:
        for report in reports:
            print(report.render())
            print()
    return 0 if payload["ok"] else 1


def cmd_synthesize(*args):
    """Learned-vs-declared contract diff over the plug-in catalog.

    ``python -m repro synthesize [--opt NAME[,NAME...]] [--budget N]
    [--seed N] [--no-minimize] [--json] [--out PATH]``.  Default scope
    is every registered optimization with a contract.  ``--json``
    prints (or with ``--out`` writes) the machine-readable contract-
    diff report the CI job archives.  Returns 1 if synthesis learned
    any clause the declared contract misses, 2 on bad input.
    """
    from repro.engine import ResultCache
    from repro.lint import render_report, report_json, synthesize_all
    from repro.lint.synthesize import DEFAULT_BUDGET
    usage = ("usage: python -m repro synthesize [--opt a,b] "
             "[--budget N] [--seed N] [--no-minimize] [--json] "
             "[--out PATH]")
    args = list(args)
    as_json = flag_present(args, "--json")
    minimize = not flag_present(args, "--no-minimize")
    out = flag_value(args, "--out", usage)
    names = contracted_names(flag_value(args, "--opt", usage), "--opt",
                             "synthesize")
    budget = int_value(flag_value(args, "--budget", usage),
                       DEFAULT_BUDGET, usage, minimum=1)
    seed = int_value(flag_value(args, "--seed", usage), 0, usage)
    if args:
        raise UsageError(usage)
    results = synthesize_all(opts=names, budget=budget, seed=seed,
                             cache=ResultCache(), minimize=minimize)
    payload = report_json(results, budget=budget, seed=seed)
    emit_json(payload, as_json, out, "contract-diff report")
    if not as_json:
        print(render_report(results))
    return 0 if payload["ok"] else 1


def cmd_precision(*args):
    """Classify static LEAKS verdicts as confirmed or false positive.

    ``python -m repro precision [--opt a,b] [--budget N] [--seed N]
    [--json] [--out PATH] [--max-false-positives N]``.  Lints the
    progen/gated/example corpus with both the path-sensitive analysis
    and the sticky baseline, runs secret-pair differential trials for
    every flag, and prints the per-plugin false-positive table (or the
    JSON report CI archives).  Exit codes: 0 ok, 1 if any confirmed
    divergence went unflagged (soundness escape) or the path-sensitive
    false-positive count exceeds ``--max-false-positives`` (the CI
    ratchet), 2 on bad usage.
    """
    from repro.engine import ResultCache
    from repro.lint.precision import DEFAULT_BUDGET, check_precision
    usage = ("usage: python -m repro precision [--opt a,b] "
             "[--budget N] [--seed N] [--json] [--out PATH] "
             "[--max-false-positives N]")
    args = list(args)
    as_json = flag_present(args, "--json")
    out = flag_value(args, "--out", usage)
    names = contracted_names(flag_value(args, "--opt", usage), "--opt",
                             "precision")
    budget = int_value(flag_value(args, "--budget", usage),
                       DEFAULT_BUDGET, usage, minimum=1)
    seed = int_value(flag_value(args, "--seed", usage), 0, usage)
    max_fp = int_value(flag_value(args, "--max-false-positives", usage),
                       None, usage, minimum=0)
    if args:
        raise UsageError(usage)
    report = check_precision(budget=budget, seed=seed, opts=names,
                             cache=ResultCache())
    emit_json(report.to_json_dict(), as_json, out, "precision report")
    if not as_json:
        print(report.render())
    if not report.ok:
        print(f"ERROR: {report.missed} confirmed divergence(s) "
              "not statically flagged")
        return 1
    if max_fp is not None and report.false_positives > max_fp:
        print(f"ERROR: {report.false_positives} false positives "
              f"exceed the pinned ratchet of {max_fp}")
        return 1
    return 0


def cmd_report(*args):
    """Run one command and report the telemetry it recorded.

    ``python -m repro report [--out PATH] <command> [args...]``.
    Everything after the command's name is its own argv, so ``--out``
    belongs to ``report`` only before the name.  Resets the process
    registry, runs the command in process (its output is printed as
    it would be bare), then prints the wall-clock phase profile and
    counters that run recorded.  ``--out`` writes ``{"command",
    "exit_code", "telemetry"}`` as JSON.  Returns the command's exit
    code.
    """
    from repro.telemetry import REGISTRY
    from repro.telemetry.report import render_report
    usage = ("usage: python -m repro report [--out PATH] <command> "
             "[args...]\ncommands: "
             + ", ".join(name for name in COMMANDS if name != "report"))
    args = list(args)
    out = None
    if args[:1] == ["--out"]:
        if len(args) < 2:
            raise UsageError(usage)
        out, args = args[1], args[2:]
    if not args or args[0] not in COMMANDS or args[0] == "report":
        raise UsageError(usage)
    REGISTRY.reset()
    rc = int(COMMANDS[args[0]](*args[1:]) or 0)
    snapshot = REGISTRY.snapshot()
    print()
    print(render_report(snapshot, " ".join(args)))
    emit_json({"command": args, "exit_code": rc, "telemetry": snapshot},
              False, out, "run report")
    return rc


COMMANDS = {"tables": cmd_tables, "urg": cmd_urg, "fig6": cmd_fig6,
            "audit": cmd_audit, "stats": cmd_stats, "trace": cmd_trace,
            "bench": cmd_bench, "lint": cmd_lint,
            "synthesize": cmd_synthesize, "precision": cmd_precision,
            "report": cmd_report}


def _route_backend(argv):
    """Route every engine batch this command runs through the backend
    named by the global ``--backend NAME`` flag, else by
    ``REPRO_BACKEND``.  One check covers both sources: an unknown name
    is a :class:`UsageError` (before the flag's value is exported); an
    empty ``REPRO_BACKEND`` means no override."""
    import os
    from repro.engine import BACKEND_NAMES, REPRO_BACKEND_ENV
    flag = flag_value(argv, "--backend",
                      "usage: python -m repro [command] --backend "
                      + "|".join(BACKEND_NAMES))
    name = (flag if flag is not None
            else os.environ.get(REPRO_BACKEND_ENV) or None)
    if name is not None and name not in BACKEND_NAMES:
        source = "--backend" if flag is not None else REPRO_BACKEND_ENV
        raise UsageError(f"unknown backend {name!r} (from {source}); "
                         f"known: {list(BACKEND_NAMES)}")
    if flag is not None:
        os.environ[REPRO_BACKEND_ENV] = flag


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _route_backend(argv)
        command = argv[0] if argv else "tables"
        if command not in COMMANDS:
            raise UsageError(__doc__)
        rc = COMMANDS[command](*argv[1:])
    except UsageError as error:
        print(error)
        return 2
    return int(rc or 0)


if __name__ == "__main__":
    raise SystemExit(main())
