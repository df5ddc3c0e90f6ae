"""The verdict pass: contracts × taint analysis → per-pc verdicts.

:func:`lint_program` checks an assembled program against a set of
compiled contract rows; :func:`lint_spec` lifts that to a full
:class:`~repro.engine.specs.SimSpec` — contracts default to the spec's
*enabled* plug-ins (a static checker predicts what the configured
simulator can observe; an optimization the machine doesn't run cannot
leak on it), taint seeds merge the program's directives with the
spec's :class:`~repro.engine.specs.TaintSpec`, and initial register
constants come from the spec's ``regs``.
"""

from collections.abc import Iterable, Mapping

from repro.engine.specs import SimSpec, TaintSpec
from repro.isa.assembler import Program
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.lint.cfg import def_chain, reaching_definitions
from repro.lint.contracts import ContractRow, LintError, \
    applicable_taps, rows_for_names, rows_for_specs
from repro.lint.report import Finding, LintReport
from repro.lint.taint import Origin, State, TaintAnalysis, analyze_taint
from repro.isa.text import render_instruction


def _frames_to_text(origin: Origin) -> tuple[str, ...]:
    frames = []
    for frame in origin:
        if isinstance(frame, tuple) and len(frame) == 2:
            pc, why = frame
            frames.append(f"pc {pc}: {why}" if isinstance(pc, int)
                          and pc >= 0 else str(why))
        else:
            frames.append(str(frame))
    return tuple(frames)


def _tap_taint(tap: str, inst: Instruction, analysis: TaintAnalysis,
               pc: int, state: State) -> tuple[bool, Origin]:
    """Resolve one contract tap to ``(tainted, origin)`` at ``pc``."""
    op = inst.op
    if tap == "rs1":
        if not op.reads_rs1:
            return False, ()
        av = state.reg(inst.rs1)
        return av.tainted, av.origin
    if tap == "rs2":
        if not op.reads_rs2:
            return False, ()
        av = state.reg(inst.rs2)
        return av.tainted, av.origin
    if tap == "store_value":
        if op is not Op.STORE:
            return False, ()
        av = state.reg(inst.rs2)
        return av.tainted, av.origin
    if tap == "address":
        if op not in (Op.LOAD, Op.STORE):
            return False, ()
        av = state.reg(inst.rs1)
        return av.tainted, av.origin
    if tap == "old_memory_value":
        if op is not Op.STORE:
            return False, ()
        addr_av = state.reg(inst.rs1)
        addr = analysis.resolve_address(pc)
        tainted = state.mem.taint_at(addr, inst.width) \
            or addr_av.tainted
        if not tainted:
            return False, ()
        if addr_av.tainted:
            return True, addr_av.origin + \
                ((pc, "old value read via tainted address"),)
        return True, ((pc, state.mem.origin_at(addr, inst.width)),)
    if tap in ("loaded_value", "result"):
        av = analysis.result_av(pc)
        return av.tainted, av.origin
    raise LintError(f"unknown tap {tap!r}")


def tainted_tap_pairs(program: Program,
                      taint: TaintSpec | None = None,
                      reg_consts: Mapping[int, int] | None = None,
                      path_sensitive: bool = True,
                      ) -> frozenset[tuple[str, str]]:
    """The program's static leakage signature: every canonical
    (op-name, tap) pair through which a secret can reach an MLD.

    This is the feature extractor of the contract synthesizer
    (:mod:`repro.lint.synthesize`): it runs the same taint analysis as
    :func:`lint_program` and resolves the same taps through
    :func:`_tap_taint`, but aggregates over *all* reachable
    instructions instead of matching contract rows.  An instruction
    executing under tainted control contributes every tap it carries —
    mirroring the checker's implicit-flow rule, where a row fires on a
    control-dominated op regardless of data taint.  By construction,
    for any compiled row ``r``: the checker flags ``r`` on this
    program iff ``signature & row_pairs(r)`` is non-empty (given the
    program writes no produced results to x0, which the case generator
    guarantees) — provided both run with the same ``path_sensitive``
    setting, which is why the synthesizer and the checker share the
    default.
    """
    taint = taint if taint is not None else TaintSpec()
    secret = tuple(program.secret_regions) + tuple(taint.secret)
    public = tuple(program.public_regions) + tuple(taint.public)
    analysis = analyze_taint(
        program, secret_regions=secret, public_regions=public,
        secret_regs=taint.secret_regs, reg_consts=reg_consts,
        path_sensitive=path_sensitive)
    pairs = set()
    for pc, inst in enumerate(program):
        state = analysis.state(pc)
        if state is None:
            continue                    # unreachable
        for tap in applicable_taps(inst.op):
            if state.control:
                pairs.add((inst.op.value, tap))
                continue
            tainted, _ = _tap_taint(tap, inst, analysis, pc, state)
            if tainted:
                pairs.add((inst.op.value, tap))
    return frozenset(pairs)


def lint_program(program: Program,
                 contracts: tuple[ContractRow, ...] = (),
                 taint: TaintSpec | None = None,
                 opts: Iterable[str] | None = None,
                 program_name: str = "",
                 reg_consts: Mapping[int, int] | None = None,
                 path_sensitive: bool = True) -> LintReport:
    """Check ``program`` against contract rows; return a report.

    ``contracts`` is a tuple of compiled
    :class:`~repro.lint.contracts.ContractRow`; alternatively pass
    ``opts`` — plug-in registry names — and the rows are compiled with
    default constructions.  ``taint`` is an optional
    :class:`~repro.engine.specs.TaintSpec` merged with the program's
    ``.secret`` / ``.public`` directives.
    """
    if opts is not None:
        if contracts:
            raise LintError("pass contracts or opts, not both")
        contracts = rows_for_names(tuple(opts))
    taint = taint if taint is not None else TaintSpec()
    secret = tuple(program.secret_regions) + tuple(taint.secret)
    public = tuple(program.public_regions) + tuple(taint.public)
    analysis = analyze_taint(
        program, secret_regions=secret, public_regions=public,
        secret_regs=taint.secret_regs, reg_consts=reg_consts,
        path_sensitive=path_sensitive)
    reach = reaching_definitions(program)
    labels_at = {}
    for name, pc in sorted(program.labels.items()):
        labels_at.setdefault(pc, []).append(name)
    findings = []
    unreachable = []
    rendered = []
    for pc, inst in enumerate(program):
        rendered.append(render_instruction(inst, labels_at))
        state = analysis.state(pc)
        if state is None:
            unreachable.append(pc)
            continue
        for row in contracts:
            if not row.matches_op(inst.op):
                continue
            if inst.op.writes_rd and inst.rd == 0 \
                    and row.ops is None:
                continue                # x0 result is discarded
            tainted_taps = []
            witness = []
            for tap in row.taps:
                tainted, origin = _tap_taint(tap, inst, analysis, pc,
                                             state)
                if tainted:
                    tainted_taps.append(tap)
                    for frame in _frames_to_text(origin):
                        if frame not in witness:
                            witness.append(frame)
            if state.control and not tainted_taps:
                # Implicit flow: under tainted control, whether this
                # MLD fires at all is secret-dependent.
                tainted_taps = ["control"]
                witness = list(_frames_to_text(state.control_origin)) \
                    or ["tainted branch dominates this instruction"]
            if not tainted_taps:
                continue
            use_reg = inst.rs1 if inst.op.reads_rs1 else None
            if use_reg:
                chain = def_chain(program, reach, pc, use_reg)
                if chain:
                    path = " <- ".join(f"pc {def_pc}"
                                       for def_pc in chain)
                    frame = f"def-use: {path}"
                    if frame not in witness:
                        witness.append(frame)
            findings.append(Finding(
                pc=pc, op=inst.op.value, text=rendered[-1],
                plugin=row.plugin, mld=row.mld,
                taps=tuple(tainted_taps), witness=tuple(witness),
                detail=row.detail))
    return LintReport(
        program_name=program_name,
        instructions=tuple(rendered),
        findings=tuple(findings),
        contracts=tuple(dict.fromkeys(row.plugin
                                      for row in contracts)),
        secret_regions=tuple(sorted(set(secret))),
        public_regions=tuple(sorted(set(public))),
        unreachable=tuple(unreachable))


def lint_spec(spec: SimSpec, opts: Iterable[str] | None = None,
              program_name: str = "",
              path_sensitive: bool = True) -> LintReport:
    """Check a :class:`SimSpec` — the static mirror of running it.

    Contracts come from the spec's enabled plug-ins (or ``opts``
    registry-name overrides); taint seeds merge the program directives
    with ``spec.taint``; ``spec.regs`` pins initial register
    constants.  The returned verdicts predict exactly which enabled
    MLDs the engine can observe diverging under secret-pair trials —
    the property :mod:`repro.lint.soundness` enforces.

    The report is memoized on the spec instance, as
    :meth:`SimSpec.fingerprint` memoizes its digest, under the
    compiled contract rows, ``program_name`` and ``path_sensitive``.
    The rows are compiled on every call, so a contract edit lints
    again.
    """
    if not isinstance(spec, SimSpec):
        raise LintError(f"lint_spec wants a SimSpec, got "
                        f"{type(spec).__name__}")
    if opts is not None:
        contracts = rows_for_names(tuple(opts))
    else:
        contracts = rows_for_specs(spec.plugins)
    memo = spec.__dict__.setdefault("_lint_memo", {})
    key = (contracts, program_name, path_sensitive)
    report = memo.get(key)
    if report is None:
        report = memo[key] = lint_program(
            spec.program, contracts=contracts,
            taint=spec.taint if spec.taint is not None else TaintSpec(),
            program_name=program_name or spec.label,
            reg_consts=dict(spec.regs), path_sensitive=path_sensitive)
    return report
