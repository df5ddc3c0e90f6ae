"""Verdict structures and rendering for the static leakage checker."""

import json
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Finding:
    """One ``LEAKS(opt, mld)`` verdict at one static instruction."""

    pc: int
    op: str
    text: str                  # rendered instruction
    plugin: str
    mld: str
    taps: tuple                # tainted tap names, in contract order
    witness: tuple             # human-readable taint-flow frames
    detail: str = ""

    @property
    def verdict(self) -> str:
        return f"LEAKS({self.plugin}, {self.mld})"

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "pc": self.pc, "op": self.op, "text": self.text,
            "plugin": self.plugin, "mld": self.mld,
            "taps": list(self.taps), "witness": list(self.witness),
            "detail": self.detail, "verdict": self.verdict,
        }


@dataclass(frozen=True)
class LintReport:
    """Full checker output for one program under one contract set.

    Frozen: :func:`~repro.lint.checker.lint_spec` hands one memoized
    report to every caller."""

    program_name: str
    instructions: tuple         # rendered instruction texts, by pc
    findings: tuple = ()
    contracts: tuple = ()       # plug-in names that were checked
    secret_regions: tuple = ()
    public_regions: tuple = ()
    unreachable: tuple = ()     # statically dead pcs (never flagged)

    @property
    def ok(self) -> bool:
        return not self.findings

    def flagged_pcs(self, plugin: str | None = None) -> list[int]:
        return sorted({finding.pc for finding in self.findings
                       if plugin is None or finding.plugin == plugin})

    def leaking_plugins(self) -> list[str]:
        return sorted({finding.plugin for finding in self.findings})

    def verdict(self, pc: int) -> str:
        """The per-instruction verdict string for ``pc``."""
        hits = [finding for finding in self.findings
                if finding.pc == pc]
        if not hits:
            return "SAFE"
        return "; ".join(finding.verdict for finding in hits)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "program": self.program_name,
            "contracts": list(self.contracts),
            "secret_regions": [list(region)
                               for region in self.secret_regions],
            "public_regions": [list(region)
                               for region in self.public_regions],
            "ok": self.ok,
            "verdicts": [
                {"pc": pc, "text": text, "verdict": self.verdict(pc)}
                for pc, text in enumerate(self.instructions)],
            "findings": [finding.to_json_dict()
                         for finding in self.findings],
            "unreachable": list(self.unreachable),
        }

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, **kwargs)

    def render(self) -> str:
        """Terminal listing: one verdict per static instruction."""
        lines = [f"lint: {self.program_name or '<program>'}  "
                 f"[contracts: {', '.join(self.contracts) or 'none'}]"]
        for start, end in self.secret_regions:
            lines.append(f"  .secret {start:#x}..{end:#x}")
        for start, end in self.public_regions:
            lines.append(f"  .public {start:#x}..{end:#x}")
        by_pc: dict[int, list[Finding]] = {}
        for finding in self.findings:
            by_pc.setdefault(finding.pc, []).append(finding)
        for pc, text in enumerate(self.instructions):
            verdict = self.verdict(pc)
            if pc in self.unreachable:
                verdict = "DEAD"
            lines.append(f"  {pc:4d}  {text:<28s} {verdict}")
            for finding in by_pc.get(pc, ()):
                taps = ", ".join(finding.taps)
                lines.append(f"        ^ tainted taps: {taps}")
                for frame in finding.witness:
                    lines.append(f"          via {frame}")
        flagged = len({finding.pc for finding in self.findings})
        lines.append(
            f"  => {'CLEAN' if self.ok else 'LEAKS'}: "
            f"{len(self.findings)} finding(s) at {flagged} "
            f"instruction(s)")
        return "\n".join(lines)
