"""Secret-taint abstract interpretation over repro-ISA programs.

The abstract state tracks, per program point:

* **registers** — for each architectural register an abstract value
  ``AV(tainted, const, origin)``: may it carry secret-derived data,
  and (when exactly known) which constant it holds.  Constant folding
  reuses :mod:`repro.isa.semantics` — the *same* functions the
  pipeline executes — so the analysis can never disagree with the
  simulator about an arithmetic fact.
* **memory** — secret byte ranges seeded from ``.secret`` directives /
  :class:`~repro.engine.specs.TaintSpec` (with ``.public`` carved
  out), plus a weak-update record of constant-address stores and two
  escape flags for stores through unknown addresses.
* **control** — the set of *open* tainted branches: branches whose
  condition was tainted and whose influence region (branch →
  immediate post-dominator) the current program point still sits in.
  While the set is non-empty, *which* instructions execute is itself
  a secret, so every produced value (and every MLD tap) is treated as
  tainted.  Each branch is dropped from the set on the edge into its
  immediate post-dominator — the join point where both arms have
  reconverged.  That is sound because every value *written* inside
  the region was tainted on the way, so abstract values that could
  disagree at the join are already tainted; agreeing values never
  depended on the branch.  A branch with no post-dominator (an arm
  that cannot reach the exit) stays open forever — the sticky
  fallback.  ``path_sensitive=False`` keeps every branch open
  forever, which *is* the classic sticky implicit-flow
  over-approximation; it is retained as the measurable baseline for
  :mod:`repro.lint.precision`.

Statically infeasible edges are pruned with the constant lattice:
when both branch operands are exact untainted constants the fixpoint
follows only the real successor (via the simulator's own
:func:`~repro.isa.semantics.branch_taken`), the feasible successor
map shrinks, and the post-dominators are recomputed over the pruned
graph — iterated until the feasible map stops changing.  Computing
post-dominators over a *superset* of the feasible edges only ever
yields a later join point, so each round of the iteration is sound.

The fixpoint is a join-monotone worklist at instruction granularity.
``const`` flattens to ``None`` on conflict and a per-pc widening
threshold drops constants on pathological programs, so the lattice
has finite height and the loop always terminates.
"""

from collections.abc import Iterable, Mapping, Sequence

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.semantics import (
    ALU_FUNCS, branch_taken, effective_address,
)
from repro.lint.cfg import (
    immediate_postdominators, static_successors, successors,
)

#: Witness chains are capped: deep provenance reads poorly and the
#: fixpoint only needs *a* path, not all of them.
MAX_ORIGIN_FRAMES = 8

#: After this many joins at one pc, constants are widened away there.
WIDEN_AFTER = 32

#: A provenance chain: ``(pc, "what happened")`` frames, oldest first.
Origin = tuple[tuple[int, str], ...]


class AV:
    """Abstract value: taint bit + optional exact constant + origin.

    ``origin`` is a tuple of human-readable witness frames explaining
    where the taint came from; it is deliberately excluded from
    equality/hash so provenance bookkeeping can never affect the
    fixpoint.
    """

    __slots__ = ("tainted", "const", "origin")

    def __init__(self, tainted: bool = False, const: int | None = None,
                 origin: Origin = ()) -> None:
        self.tainted = tainted
        self.const = const
        self.origin = origin if tainted else ()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AV) and self.tainted == other.tainted
                and self.const == other.const)

    def __hash__(self) -> int:
        return hash((self.tainted, self.const))

    def __repr__(self) -> str:
        flag = "T" if self.tainted else "-"
        const = "?" if self.const is None else hex(self.const)
        return f"AV({flag},{const})"

    def widened(self) -> "AV":
        return self if self.const is None else \
            AV(self.tainted, None, self.origin)


UNTAINTED = AV(False, None)
ZERO = AV(False, 0)


def _join_av(a: AV, b: AV) -> AV:
    if a == b:
        return a if a.origin or not b.origin else b
    tainted = a.tainted or b.tainted
    const = a.const if a.const == b.const else None
    origin = a.origin or b.origin
    return AV(tainted, const, origin)


def _extend(origin: Origin, frame: tuple[int, str]) -> Origin:
    if len(origin) >= MAX_ORIGIN_FRAMES:
        return origin
    return origin + (frame,)


def _subtract_intervals(regions: Iterable[tuple[int, int]],
                        carve: Iterable[tuple[int, int]],
                        ) -> tuple[tuple[int, int], ...]:
    """Subtract ``carve`` intervals from ``regions`` (all end-exclusive)."""
    result = list(regions)
    for cstart, cend in carve:
        next_result = []
        for start, end in result:
            if cend <= start or cstart >= end:
                next_result.append((start, end))
                continue
            if start < cstart:
                next_result.append((start, cstart))
            if cend < end:
                next_result.append((cend, end))
        result = next_result
    return tuple(sorted(result))


def _overlaps(regions: Iterable[tuple[int, int]], start: int,
              end: int) -> bool:
    return any(rstart < end and start < rend for rstart, rend in regions)


class MemState:
    """Abstract memory: secret seed regions + weak store record."""

    __slots__ = ("secret_regions", "stores", "unknown_store",
                 "unknown_tainted_store")

    #: Beyond this many distinct constant store addresses, collapse to
    #: the unknown-store summary (keeps the state bounded on
    #: pathological programs; never reached by the attack gadgets).
    MAX_TRACKED_STORES = 256

    def __init__(self, secret_regions: Iterable[tuple[int, int]] = (),
                 stores: Mapping[tuple[int, int], AV] | None = None,
                 unknown_store: bool = False,
                 unknown_tainted_store: bool = False) -> None:
        self.secret_regions = tuple(secret_regions)
        self.stores = dict(stores or {})    # (addr, width) -> AV
        self.unknown_store = unknown_store
        self.unknown_tainted_store = unknown_tainted_store

    def key(self) -> tuple:
        return (self.secret_regions,
                tuple(sorted((addr, width, av.tainted, av.const)
                             for (addr, width), av in
                             self.stores.items())),
                self.unknown_store, self.unknown_tainted_store)

    def copy(self) -> "MemState":
        return MemState(self.secret_regions, self.stores,
                        self.unknown_store, self.unknown_tainted_store)

    def any_secret(self) -> bool:
        """Is *any* abstract memory location possibly tainted?"""
        return (bool(self.secret_regions) or self.unknown_tainted_store
                or any(av.tainted for av in self.stores.values()))

    def taint_at(self, addr: int | None, width: int) -> bool:
        """May ``[addr, addr+width)`` hold secret data?  ``addr=None``
        means the address is unknown — any tainted location answers."""
        if addr is None:
            return self.any_secret()
        if self.unknown_tainted_store:
            return True
        end = addr + width
        if _overlaps(self.secret_regions, addr, end):
            return True
        return any(av.tainted and saddr < end and addr < saddr + swidth
                   for (saddr, swidth), av in self.stores.items())

    def origin_at(self, addr: int | None, width: int) -> str:
        """A witness frame for :meth:`taint_at` (best effort)."""
        if addr is not None:
            end = addr + width
            for rstart, rend in self.secret_regions:
                if rstart < end and addr < rend:
                    return f".secret {rstart:#x}..{rend:#x}"
            for (saddr, swidth), av in sorted(self.stores.items()):
                if av.tainted and saddr < end and addr < saddr + swidth:
                    return (av.origin[-1][1] if av.origin
                            else f"tainted store @ {saddr:#x}")
        if self.unknown_tainted_store:
            return "tainted store to unknown address"
        if self.secret_regions:
            regions = ", ".join(f"{start:#x}..{end:#x}"
                                for start, end in self.secret_regions)
            return f"unknown address may alias .secret {regions}"
        return "tainted store to unknown address"

    def record_store(self, addr: int | None, width: int,
                     av: AV) -> None:
        if addr is None or len(self.stores) >= self.MAX_TRACKED_STORES:
            self.unknown_store = True
            if av.tainted:
                self.unknown_tainted_store = True
            return
        existing = self.stores.get((addr, width))
        self.stores[(addr, width)] = av if existing is None \
            else _join_av(existing, av)

    def join(self, other: "MemState") -> "MemState":
        if self.key() == other.key():
            return self
        secret = tuple(sorted(set(self.secret_regions)
                              | set(other.secret_regions)))
        stores = dict(self.stores)
        for key, av in other.stores.items():
            stores[key] = av if key not in stores \
                else _join_av(stores[key], av)
        return MemState(
            secret, stores,
            self.unknown_store or other.unknown_store,
            self.unknown_tainted_store or other.unknown_tainted_store)


class State:
    """One program point's abstract state.

    ``control`` is the frozenset of open tainted-branch pcs (empty =
    no implicit flow in scope; truthiness therefore matches the old
    sticky-bool reading).  ``control_origins`` maps each open branch
    to its provenance chain; like ``AV.origin`` it is excluded from
    :meth:`key` so witness bookkeeping can never affect the fixpoint.
    Both are treated as immutable — never mutated in place.
    """

    __slots__ = ("regs", "mem", "control", "control_origins")

    def __init__(self, regs: tuple[AV, ...], mem: MemState,
                 control: frozenset[int] = frozenset(),
                 control_origins: Mapping[int, Origin] | None = None,
                 ) -> None:
        self.regs = regs                  # tuple of 32 AVs, x0 pinned
        self.mem = mem
        self.control = frozenset(control)
        self.control_origins = dict(control_origins or {})

    @property
    def control_origin(self) -> Origin:
        """Provenance of the oldest open tainted branch (for witnesses)."""
        if not self.control:
            return ()
        return self.control_origins.get(min(self.control), ())

    def key(self) -> tuple:
        return (tuple((av.tainted, av.const) for av in self.regs),
                self.mem.key(), tuple(sorted(self.control)))

    def reg(self, index: int) -> AV:
        return self.regs[index]

    def with_reg(self, index: int, av: AV) -> "State":
        if index == 0:
            return self
        regs = list(self.regs)
        regs[index] = av
        return State(tuple(regs), self.mem, self.control,
                     self.control_origins)

    def without_branches(self, closed: frozenset[int]) -> "State":
        """Drop branches whose influence region ends here."""
        remaining = self.control - closed
        if remaining == self.control:
            return self
        origins = {pc: origin
                   for pc, origin in self.control_origins.items()
                   if pc in remaining}
        return State(self.regs, self.mem, remaining, origins)

    def join(self, other: "State") -> "State":
        regs = tuple(_join_av(a, b)
                     for a, b in zip(self.regs, other.regs))
        origins = dict(other.control_origins)
        origins.update(self.control_origins)
        return State(regs, self.mem.join(other.mem),
                     self.control | other.control, origins)

    def widened(self) -> "State":
        return State(tuple(av.widened() for av in self.regs),
                     self.mem, self.control, self.control_origins)


def _initial_state(secret_regions: Iterable[tuple[int, int]],
                   public_regions: Iterable[tuple[int, int]],
                   secret_regs: set[int],
                   reg_consts: dict[int, int]) -> State:
    regs = []
    for index in range(32):
        if index == 0:
            regs.append(ZERO)
        elif index in secret_regs:
            regs.append(AV(True, None,
                           ((-1, f"secret register x{index}"),)))
        else:
            regs.append(AV(False, reg_consts.get(index)))
    secret = _subtract_intervals(secret_regions, public_regions)
    return State(tuple(regs), MemState(secret_regions=secret))


class TaintAnalysis:
    """Fixpoint result: per-pc in-states plus query helpers."""

    def __init__(self, program: Sequence[Instruction],
                 states: dict[int, State],
                 exit_state: State | None,
                 ipdom: Mapping[int, int | None] | None = None,
                 feasible: Mapping[int, tuple[int, ...]] | None = None,
                 path_sensitive: bool = False) -> None:
        self.program = program
        self.states = states              # pc -> State (absent: unreachable)
        self.exit_state = exit_state
        self.ipdom = dict(ipdom or {})
        self.feasible = dict(feasible or {})
        self.path_sensitive = path_sensitive

    def state(self, pc: int) -> State | None:
        return self.states.get(pc)

    def reachable(self, pc: int) -> bool:
        return self.states.get(pc) is not None

    def resolve_address(self, pc: int) -> int | None:
        """Constant effective address of the memory op at ``pc``."""
        state = self.states.get(pc)
        if state is None:
            return None
        inst = self.program[pc]
        base = state.reg(inst.rs1).const
        if base is None:
            return None
        return effective_address(base, inst.imm)

    def result_av(self, pc: int) -> AV:
        """Abstract value produced by the instruction at ``pc``."""
        state = self.states.get(pc)
        if state is None:
            return UNTAINTED
        return _produced_value(self.program[pc], state, pc)


def _produced_value(inst: Instruction, state: State, pc: int) -> AV:
    """The AV an instruction writes to ``rd`` (loads, ALU, rdcycle)."""
    op = inst.op
    if op is Op.LOAD:
        addr = None
        base = state.reg(inst.rs1).const
        if base is not None:
            addr = effective_address(base, inst.imm)
        addr_av = state.reg(inst.rs1)
        tainted = state.mem.taint_at(addr, inst.width) or addr_av.tainted
        origin: Origin = ()
        if tainted:
            if addr_av.tainted:
                origin = _extend(addr_av.origin,
                                 (pc, "load via tainted address"))
            else:
                where = "unknown address" if addr is None \
                    else f"{addr:#x}"
                origin = _extend(
                    ((pc, state.mem.origin_at(addr, inst.width)),),
                    (pc, f"load from {where}"))
        return AV(tainted, None, origin)
    if op is Op.RDCYCLE:
        # The cycle counter is the receiver's timer: architecturally
        # public, even though its *value* is what attacks measure.
        return AV(False, None)
    needs_a, needs_b = op.reads_rs1, op.reads_rs2
    a_av = state.reg(inst.rs1) if needs_a else ZERO
    b_av = state.reg(inst.rs2) if needs_b else ZERO
    tainted = (a_av.tainted and needs_a) or (b_av.tainted and needs_b)
    const = None
    a, b = a_av.const, b_av.const
    if (not needs_a or a is not None) and (not needs_b or b is not None):
        const = ALU_FUNCS[op](a if needs_a else 0,
                              b if needs_b else 0, inst.imm)
    origin = a_av.origin or b_av.origin
    if tainted:
        origin = _extend(origin, (pc, f"{op.value} result"))
    return AV(tainted, const, origin)


def analyze_taint(program: Sequence[Instruction],
                  secret_regions: Iterable[tuple[int, int]] = (),
                  public_regions: Iterable[tuple[int, int]] = (),
                  secret_regs: Iterable[int] = (),
                  reg_consts: Mapping[int, int] | None = None,
                  path_sensitive: bool = True) -> TaintAnalysis:
    """Run the abstract interpretation to fixpoint.

    ``secret_regions`` / ``public_regions`` are merged with the
    program's own directives by the caller (:mod:`repro.lint.checker`);
    ``secret_regs`` marks initially tainted registers and
    ``reg_consts`` optionally pins known initial register constants
    (from :class:`~repro.engine.specs.SimSpec` ``regs``).

    With ``path_sensitive`` (the default) control taint is scoped to
    each tainted branch's post-dominator region and infeasible edges
    are pruned; pruning can tighten the post-dominators, so the two
    are iterated until the feasible successor map reaches a fixpoint.
    ``path_sensitive=False`` reproduces the sticky-flag baseline:
    control taint, once raised, never clears.
    """
    init = _initial_state(tuple(secret_regions), tuple(public_regions),
                          set(secret_regs), dict(reg_consts or {}))
    size = len(program)
    if not size:
        return TaintAnalysis(program, {}, init,
                             path_sensitive=path_sensitive)
    if not path_sensitive:
        states, exit_state = _fixpoint(program, init, None)
        return TaintAnalysis(program, states, exit_state,
                             feasible=_feasible_map(program, states),
                             path_sensitive=False)
    feasible = static_successors(program)
    seen_maps = {_map_key(feasible)}
    ipdom = immediate_postdominators(program, feasible)
    while True:
        states, exit_state = _fixpoint(program, init, ipdom)
        observed = _feasible_map(program, states)
        key = _map_key(observed)
        if key in seen_maps:
            break
        seen_maps.add(key)
        feasible = observed
        ipdom = immediate_postdominators(program, feasible)
    return TaintAnalysis(program, states, exit_state, ipdom=ipdom,
                         feasible=observed, path_sensitive=True)


def _map_key(succs: Mapping[int, tuple[int, ...]]) -> tuple:
    return tuple(sorted((pc, tuple(sorted(out)))
                        for pc, out in succs.items()))


def _feasible_map(program: Sequence[Instruction], states: Mapping[int, State],
                  ) -> dict[int, tuple[int, ...]]:
    """Successor edges actually followed at the fixpoint.

    Unreachable pcs get no out-edges, and exactly-folded branches keep
    only their real successor — this is the pruned graph the next
    post-dominator round runs on.  A branch's fold is read from its
    fixpoint in-state, the same test :func:`_transfer` applies.
    """
    feasible: dict[int, tuple[int, ...]] = {}
    for pc, inst in enumerate(program):
        state = states.get(pc)
        if state is None:
            feasible[pc] = ()
            continue
        folded = _folded_target(inst, state, pc) \
            if inst.op.is_branch else None
        feasible[pc] = (folded,) if folded is not None \
            else tuple(sorted(successors(program, pc)))
    return feasible


def _fixpoint(program: Sequence[Instruction], init: State,
              ipdom: Mapping[int, int | None] | None,
              ) -> tuple[dict[int, State], State | None]:
    """One worklist run.  ``ipdom=None`` means sticky control taint;
    otherwise each open branch is closed on the edge into its
    immediate post-dominator."""
    size = len(program)
    states = {0: init}
    exit_states: list[State] = []
    visits = {pc: 0 for pc in range(size)}
    worklist = [0]
    while worklist:
        pc = worklist.pop()
        state = states[pc]
        inst = program[pc]
        for succ, out in _transfer(inst, state, pc, size):
            if ipdom is not None and out.control:
                closed = frozenset(branch for branch in out.control
                                   if ipdom.get(branch) == succ)
                if closed:
                    out = out.without_branches(closed)
            if succ >= size:
                exit_states.append(out)
                continue
            current = states.get(succ)
            if current is None:
                states[succ] = out
                worklist.append(succ)
                continue
            joined = current.join(out)
            if joined.key() != current.key():
                visits[succ] += 1
                if visits[succ] > WIDEN_AFTER:
                    joined = joined.widened()
                states[succ] = joined
                worklist.append(succ)
    exit_state = None
    for state in exit_states:
        exit_state = state if exit_state is None \
            else exit_state.join(state)
    return states, exit_state


def _folded_target(inst: Instruction, state: State, pc: int) -> int | None:
    """The one real successor of a branch whose operands are exact
    untainted constants (via the simulator's own branch test), else
    ``None``."""
    a_av, b_av = state.reg(inst.rs1), state.reg(inst.rs2)
    if a_av.const is None or b_av.const is None \
            or a_av.tainted or b_av.tainted:
        return None
    taken = branch_taken(inst.op, a_av.const, b_av.const)
    return inst.target if taken else pc + 1


def _transfer(inst: Instruction, state: State, pc: int,
              size: int) -> tuple[tuple[int, State], ...]:
    """Successor states of executing ``inst`` in ``state``."""
    op = inst.op
    if op is Op.HALT:
        return ((size, state),)
    if op is Op.JMP:
        return ((inst.target, state),)
    if op.is_branch:
        a_av, b_av = state.reg(inst.rs1), state.reg(inst.rs2)
        out = state
        if a_av.tainted or b_av.tainted:
            origin = _extend(a_av.origin or b_av.origin,
                             (pc, f"branch {op.value} on tainted "
                                  f"condition"))
            origins = dict(state.control_origins)
            origins.setdefault(pc, origin)
            out = State(state.regs, state.mem,
                        state.control | {pc}, origins)
        folded = _folded_target(inst, state, pc)
        if folded is not None:
            return ((folded, out),)
        fall, taken = pc + 1, inst.target
        if fall == taken:
            return ((fall, out),)
        return ((fall, out), (taken, out))
    if op is Op.STORE:
        value_av = state.reg(inst.rs2)
        base_av = state.reg(inst.rs1)
        addr = None
        if base_av.const is not None:
            addr = effective_address(base_av.const, inst.imm)
        stored = value_av
        if state.control and not stored.tainted:
            stored = AV(True, stored.const,
                        _extend(state.control_origin,
                                (pc, "store under tainted control")))
        if base_av.tainted:
            addr = None                   # tainted pointer: anywhere
        mem = state.mem.copy()
        mem.record_store(addr, inst.width, stored)
        if base_av.tainted and not mem.unknown_tainted_store:
            # A secret-addressed store of a public value still makes
            # memory contents secret-dependent (which word changed?).
            mem.unknown_tainted_store = True
        out = State(state.regs, mem, state.control,
                    state.control_origins)
        return ((pc + 1, out),)
    if op in (Op.FENCE, Op.NOP):
        return ((pc + 1, state),)
    if op.writes_rd:
        value = _produced_value(inst, state, pc)
        if state.control and not value.tainted:
            value = AV(True, value.const,
                       _extend(state.control_origin,
                               (pc, "written under tainted control")))
        return ((pc + 1, state.with_reg(inst.rd, value)),)
    return ((pc + 1, state),)


__all__ = [
    "AV", "MAX_ORIGIN_FRAMES", "MemState", "Origin", "State",
    "TaintAnalysis", "UNTAINTED", "WIDEN_AFTER", "ZERO",
    "analyze_taint", "successors",
]
