"""Chrome trace-event export (Perfetto / ``chrome://tracing`` loadable).

Maps the simulator's event stream onto the Chrome trace-event JSON
format (the ``traceEvents`` array of ``"X"`` complete spans, ``"i"``
instants and ``"M"`` metadata records that both Perfetto and
``chrome://tracing`` open directly):

* each traced run becomes one *process*; instruction lifetimes
  (dispatch → retire/squash) are complete spans, greedily packed onto
  pipeline lanes so overlapping instructions render on separate rows
  (the classic pipeline-diagram view);
* store-queue, memory and optimization events become instants on
  dedicated tracks, so a Figure-5 head-of-line stall reads as a burst
  of ``hol_stall`` marks under the blocked store's span.

Timestamps are cycles reported as microseconds (one cycle == 1 "us"):
the units are nominal, the *shape* is what the viewer is for.
"""

import json

from repro.trace.buffer import events_of

#: tid offsets for the non-pipeline tracks of a run process.
_TRACK_TIDS = {"fetch": 900, "sq": 901, "mem": 902, "opt": 903}


def _metadata(pid, name, tid=None):
    event = {"ph": "M", "pid": pid,
             "name": "process_name" if tid is None else "thread_name",
             "args": {"name": name}}
    if tid is not None:
        event["tid"] = tid
    return event


def _pack_lanes(spans):
    """Greedy interval packing: span -> lane index (no overlap per lane)."""
    lane_free_at = []
    lanes = []
    for start, end in spans:
        for lane, free_at in enumerate(lane_free_at):
            if free_at <= start:
                lane_free_at[lane] = end
                lanes.append(lane)
                break
        else:
            lane_free_at.append(end)
            lanes.append(len(lane_free_at) - 1)
    return lanes


def run_trace_events(trace, label="run", pid=1):
    """Chrome trace events for one run's trace (buffer or payload)."""
    events = events_of(trace)
    out = [_metadata(pid, label)]

    # Instruction lifecycle -> one span per dynamic instruction.
    insts = {}
    for cycle, category, name, seq, pc, addr, info in events:
        if category != "inst" or seq < 0:
            continue
        rec = insts.setdefault(seq, {"first": cycle, "last": cycle,
                                     "pc": pc, "text": "", "marks": [],
                                     "squashed": False})
        rec["first"] = min(rec["first"], cycle)
        rec["last"] = max(rec["last"], cycle)
        if name == "dispatch" and info:
            rec["text"] = info
        if name == "squash":
            rec["squashed"] = True
        rec["marks"].append((cycle, name))

    ordered = sorted(insts.items())
    lanes = _pack_lanes([(rec["first"], rec["last"] + 1)
                         for _seq, rec in ordered])
    used_lanes = 0
    for (seq, rec), lane in zip(ordered, lanes):
        used_lanes = max(used_lanes, lane + 1)
        name = rec["text"] or f"#{seq}"
        if rec["squashed"]:
            name += " [SQUASHED]"
        out.append({
            "ph": "X", "pid": pid, "tid": lane, "name": name,
            "cat": "inst", "ts": rec["first"],
            "dur": max(1, rec["last"] - rec["first"]),
            "args": {"seq": seq, "pc": rec["pc"],
                     "events": [f"{mark}@{cycle}"
                                for cycle, mark in rec["marks"]]},
        })
    for lane in range(used_lanes):
        out.append(_metadata(pid, f"pipeline lane {lane}", tid=lane))

    # Everything else -> instants on per-category tracks.
    seen_tracks = set()
    for cycle, category, name, seq, pc, addr, info in events:
        tid = _TRACK_TIDS.get(category)
        if tid is None:
            continue
        seen_tracks.add((tid, category))
        args = {}
        if seq >= 0:
            args["seq"] = seq
        if addr >= 0:
            args["addr"] = hex(addr)
        if info:
            args["info"] = info
        out.append({"ph": "i", "pid": pid, "tid": tid, "name": name,
                    "cat": category, "ts": cycle, "s": "t", "args": args})
    for tid, category in sorted(seen_tracks):
        out.append(_metadata(pid, f"{category} events", tid=tid))
    return out


def chrome_document(trace_events):
    """Wrap a flat event list in the JSON-object trace format."""
    return {"traceEvents": list(trace_events), "displayTimeUnit": "ms"}


def write_chrome_trace(path, trace_events):
    """Write a Perfetto-loadable JSON file; returns ``path``."""
    with open(path, "w") as handle:
        json.dump(chrome_document(trace_events), handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    return path
