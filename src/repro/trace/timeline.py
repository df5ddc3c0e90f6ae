"""ASCII pipeline timeline rendering (gem5-pipeview / Konata style).

Turns a run's trace payload into a terminal timeline: one row per
dynamic instruction, one column per cycle (or per ``scale`` cycles
when the window is wider than the terminal), with lifecycle stages and
store-queue events overlaid:

``D``  dispatch          ``@``  store address resolved
``I``  issue             ``$``  SS-Load issued / returned
``C``  complete          ``F``  store line fill requested
``R``  retire            ``!``  store-queue head-of-line stall
``x``  squashed          ``P``  store performed (non-silent)
``=``  waiting in RS     ``s``  silent dequeue
``-``  executing         ``.``  in flight

A dedicated footer row aggregates every ``sq`` head-of-line stall in
the window, so the Figure 5 amplification — a burst of ``!`` columns
while the non-silent target store re-fetches its line — is visible
even when the per-instruction rows are truncated.

:func:`store_timelines` reads the same stream as the paper's Figure 4
store sequences: one ``#seq text: dispatch@c -> ... -> dequeue@c`` line
per store.
"""

from repro.trace.buffer import events_of

#: Marker precedence within one column (later entries win).
_PRIORITY = [".", "=", "-", "D", "I", "C", "R", "@", "$", "F", "P", "s",
             "!", "x"]
_RANK = {mark: rank for rank, mark in enumerate(_PRIORITY)}

_SQ_MARKS = {
    "address_resolved": "@",
    "ss_load_issued": "$",
    "ss_load_returned": "$",
    "fill_request": "F",
    "hol_stall": "!",
    "silent_dequeue": "s",
    "perform": "P",
}

_INST_MARKS = {
    "dispatch": "D",
    "issue": "I",
    "complete": "C",
    "retire": "R",
    "squash": "x",
}

LEGEND = ("D dispatch  I issue  C complete  R retire  x squash  "
          "@ addr resolved  $ ss-load  F fill  ! HOL stall  "
          "P perform  s silent dequeue")


class _Row:
    __slots__ = ("seq", "pc", "text", "marks", "first", "last",
                 "issue", "complete")

    def __init__(self, seq, pc):
        self.seq = seq
        self.pc = pc
        self.text = ""
        self.marks = []     # (cycle, marker char)
        self.first = None
        self.last = None
        self.issue = None
        self.complete = None

    def note(self, cycle, mark):
        self.marks.append((cycle, mark))
        self.first = cycle if self.first is None else min(self.first,
                                                          cycle)
        self.last = cycle if self.last is None else max(self.last, cycle)


def _collect_rows(events):
    rows = {}
    hol_cycles = []
    for cycle, category, name, seq, pc, addr, info in events:
        if category == "sq" and name == "hol_stall":
            hol_cycles.append(cycle)
        if seq < 0:
            continue
        if category == "inst":
            mark = _INST_MARKS.get(name)
        elif category == "sq":
            mark = _SQ_MARKS.get(name)
        else:
            continue
        if mark is None:
            continue
        row = rows.get(seq)
        if row is None:
            row = rows[seq] = _Row(seq, pc)
        if name == "dispatch" and info:
            row.text = info
        if name == "issue":
            row.issue = cycle
        elif name == "complete":
            row.complete = cycle
        row.note(cycle, mark)
    return rows, hol_cycles


def _paint(row, lo, scale, columns):
    """Render one instruction row into a character list."""
    cells = [" "] * columns

    def column(cycle):
        return min(columns - 1, max(0, (cycle - lo) // scale))

    def put(cycle, mark):
        slot = column(cycle)
        if _RANK.get(mark, 0) >= _RANK.get(cells[slot], -1):
            cells[slot] = mark

    first, last = row.first, row.last
    for cycle in range(max(first, lo), last + 1, scale):
        stage = "."
        if row.issue is not None and cycle < row.issue:
            stage = "="
        elif (row.issue is not None and row.complete is not None
                and row.issue <= cycle < row.complete):
            stage = "-"
        put(cycle, stage)
    for cycle, mark in row.marks:
        put(cycle, mark)
    return "".join(cells).rstrip()


def _axis(lo, hi, scale, columns, indent):
    """Two header lines: cycle numbers and a tick ruler."""
    numbers = [" "] * columns
    ticks = []
    for slot in range(columns):
        cycle = lo + slot * scale
        if slot % 10 == 0:
            ticks.append("|")
            label = str(cycle)
            for offset, char in enumerate(label):
                if slot + offset < columns:
                    numbers[slot + offset] = char
        else:
            ticks.append(".")
    return [indent + "".join(numbers).rstrip(),
            indent + "".join(ticks)]


def render_timeline(trace, start=None, end=None, width=72, max_rows=40):
    """Render a trace (buffer or payload) as an ASCII timeline.

    ``start``/``end`` bound the cycle window (defaults cover every
    event); ``width`` caps the number of timeline columns (cycles are
    grouped ``scale``-per-column as needed); ``max_rows`` caps the
    instruction rows (oldest first, truncation reported).
    """
    events = events_of(trace)
    rows, hol_cycles = _collect_rows(events)
    if not rows and not hol_cycles:
        return "(no pipeline events traced)"

    cycles = [row.first for row in rows.values()] \
        + [row.last for row in rows.values()] + hol_cycles
    lo = min(cycles) if start is None else start
    hi = max(cycles) if end is None else end
    span = max(1, hi - lo + 1)
    scale = max(1, -(-span // width))
    columns = min(width, -(-span // scale))

    visible = [row for _seq, row in sorted(rows.items())
               if row.last >= lo and row.first <= hi]
    truncated = max(0, len(visible) - max_rows)
    if truncated:
        visible = visible[:max_rows]

    label_width = 30
    indent = " " * (label_width + 1)
    lines = [f"cycles {lo}..{hi}"
             + (f"  ({scale} cycles/column)" if scale > 1 else "")]
    lines.extend(_axis(lo, hi, scale, columns, indent))
    for row in visible:
        text = row.text or "(?)"
        label = f"#{row.seq:<4d} {text}"
        if len(label) > label_width:
            label = label[:label_width - 1] + "…"
        lines.append(f"{label:<{label_width}s} "
                     + _paint(row, lo, scale, columns))
    if truncated:
        lines.append(f"... ({truncated} more instructions not shown)")

    window_hol = [cycle for cycle in hol_cycles if lo <= cycle <= hi]
    if window_hol:
        cells = [" "] * columns
        for cycle in window_hol:
            cells[min(columns - 1, (cycle - lo) // scale)] = "!"
        lines.append(f"{'SQ head-of-line stalls':<{label_width}s} "
                     + "".join(cells).rstrip()
                     + f"  ({len(window_hol)} cycles)")
    lines.append("")
    lines.append(LEGEND)
    return "\n".join(lines)


#: Lifecycle ``inst`` events in Figure 4 order -> their timeline step.
_LIFECYCLE_STEPS = {"dispatch": "dispatch", "issue": "issue",
                    "complete": "complete", "retire": "commit"}

#: ``sq`` events -> the Figure 4 steps they mark on a store (``perform``
#: depends on its outcome tag; see :func:`store_timelines`).
_STORE_STEPS = {
    "address_resolved": ("address_resolves",),
    "ss_load_issued": ("ss_load_issued",),
    "ss_load_returned": ("ss_load_returned",),
    "silent_dequeue": ("dequeue", "silent_dequeue"),
}


def store_timelines(trace):
    """Figure 4 timelines for every traced store, oldest first.

    Reads the ``inst``/``sq`` events of a trace (buffer or payload):
    each line is ``#seq text: `` then the lifecycle steps (dispatch,
    issue, complete, commit) and the store-queue steps in cycle order,
    joined by `` -> ``; a squashed store ends in `` [SQUASHED]``.
    """
    texts, lifecycle, steps, squashed = {}, {}, {}, set()
    for cycle, category, name, seq, _pc, _addr, info in events_of(trace):
        if seq < 0:
            continue
        if category == "inst":
            if name in _LIFECYCLE_STEPS:
                lifecycle.setdefault(seq, {})[name] = cycle
                if name == "dispatch":
                    texts[seq] = info
            elif name == "squash":
                squashed.add(seq)
        elif category == "sq":
            marks = _STORE_STEPS.get(name, ())
            if name == "perform":
                marks = ("dequeue", "performed_nonsilent"
                         if info == "nonsilent"
                         else "performed_no_candidate")
            for step in marks:
                steps.setdefault(seq, {})[step] = cycle
    lines = []
    for seq in sorted(steps):
        life = lifecycle.get(seq, {})
        pairs = [(step, life[name])
                 for name, step in _LIFECYCLE_STEPS.items() if name in life]
        pairs += sorted(steps[seq].items(), key=lambda pair: pair[1])
        flag = " [SQUASHED]" if seq in squashed else ""
        lines.append(f"#{seq} {texts.get(seq, '?')}: "
                     + " -> ".join(f"{step}@{cycle}"
                                   for step, cycle in pairs) + flag)
    return lines
