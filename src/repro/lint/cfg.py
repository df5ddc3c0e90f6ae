"""Control-flow graph, post-dominators and reaching definitions.

The machine is word-indexed at the instruction level (one pc per
instruction), so the CFG works directly on instruction indices: no
byte offsets, no delay slots.  ``len(program)`` is the single exit
node — ``halt``, a fall-off-the-end, and a branch to the end all flow
there (the assembler already bounds targets to ``0..len``).

Post-dominators are what make the taint analysis *path*-aware: the
immediate post-dominator of a branch is the join point where its two
arms reconverge, so control taint raised at a secret-dependent branch
can be confined to the region between the branch and its ipdom instead
of poisoning the rest of the program (:mod:`repro.lint.taint`).  The
computation accepts an optional *feasible* successor map so edges the
constant lattice proves dead can be pruned — a superset of the feasible
edges always yields a sound (later-or-equal) join point, which is what
lets the taint fixpoint iterate pruning and post-dominators together.
"""

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op

#: Pseudo-pc of the "definition" every register has on entry (the
#: initial register file / :class:`~repro.engine.specs.SimSpec` regs).
ENTRY_DEF = -1

#: pc → tuple of successor pcs (the exit node ``len(program)`` only
#: ever appears as a target, never as a key).
SuccMap = Mapping[int, tuple[int, ...]]


def successors(program: Sequence[Instruction], pc: int) -> tuple[int, ...]:
    """Static successor pcs of ``program[pc]`` (exit = ``len(program)``)."""
    inst = program[pc]
    op = inst.op
    if op is Op.HALT:
        return (len(program),)
    if op is Op.JMP:
        return (inst.target,)
    if op.is_branch:
        fall, taken = pc + 1, inst.target
        return (fall,) if taken == fall else (fall, taken)
    return (pc + 1,)


def static_successors(program: Sequence[Instruction]) -> dict[int, tuple[int, ...]]:
    """The full static successor map — every edge the encoding allows."""
    return {pc: successors(program, pc) for pc in range(len(program))}


@dataclass
class BasicBlock:
    """Maximal straight-line run ``[start, end)`` of instructions."""

    start: int
    end: int
    succs: tuple = ()
    preds: tuple = field(default_factory=tuple)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.end))


def build_cfg(program: Sequence[Instruction]) -> tuple[list[BasicBlock], dict[int, int]]:
    """Partition ``program`` into basic blocks with edges.

    Returns ``(blocks, block_of)``: the block list in program order and
    a pc → block-index map.  The exit node ``len(program)`` appears as
    a zero-length block so every edge has a real endpoint.
    """
    size = len(program)
    leaders = {0, size}
    for pc in range(size):
        if program[pc].is_branch or program[pc].op in (Op.JMP, Op.HALT):
            for succ in successors(program, pc):
                leaders.add(succ)
            leaders.add(pc + 1)
    starts = sorted(leader for leader in leaders if leader <= size)
    if starts[-1] != size:
        starts.append(size)
    blocks = []
    block_of = {}
    for index, start in enumerate(starts):
        end = starts[index + 1] if index + 1 < len(starts) else size
        blocks.append(BasicBlock(start=start, end=end))
        for pc in range(start, end):
            block_of[pc] = index
    block_of[size] = len(blocks) - 1      # the zero-length exit block
    index_of = {block.start: index for index, block in enumerate(blocks)}
    preds: dict[int, list[int]] = {index: []
                                   for index in range(len(blocks))}
    for index, block in enumerate(blocks):
        if block.start == block.end:        # exit block
            continue
        last = block.end - 1
        succ_indices = tuple(sorted(index_of[succ]
                                    for succ in successors(program, last)))
        block.succs = succ_indices
        for succ in succ_indices:
            preds[succ].append(index)
    for index, block in enumerate(blocks):
        block.preds = tuple(sorted(set(preds[index])))
    return blocks, block_of


# ----------------------------------------------------------------------
# post-dominators
# ----------------------------------------------------------------------

def _exit_postorder(size: int, succs: SuccMap) -> list[int]:
    """Depth-first post-order of the reverse CFG from the exit node:
    exactly the exit-reaching pcs, with the exit itself last."""
    preds: list[list[int]] = [[] for _ in range(size + 1)]
    for pc in range(size):
        for succ in succs.get(pc, ()):
            preds[succ].append(pc)
    seen = [False] * (size + 1)
    seen[size] = True
    order: list[int] = []
    stack = [(size, iter(preds[size]))]
    while stack:
        node, pending = stack[-1]
        for pred in pending:
            if not seen[pred]:
                seen[pred] = True
                stack.append((pred, iter(preds[pred])))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def exit_reaching(size: int, succs: SuccMap) -> frozenset[int]:
    """Pcs from which the exit node ``size`` is reachable over ``succs``.

    A pc outside this set sits on an unconditional infinite loop (or is
    cut off by pruned edges); post-dominance is undefined for it, and a
    branch with such a pc on one arm must keep sticky control taint —
    whether the *other* arm ever executes again is itself the secret.
    """
    return frozenset(_exit_postorder(size, succs))


def immediate_postdominators(program: Sequence[Instruction],
                             succs: SuccMap | None = None,
                             ) -> dict[int, int | None]:
    """Per-pc immediate post-dominator over the instruction CFG.

    ``ipdom[pc]`` is the strict post-dominator of ``pc`` closest to it
    — the join point where all paths out of ``pc`` reconverge — or
    ``None`` when no join exists: ``pc`` cannot reach the exit, or one
    of its arms leads into a region that cannot (control taint raised
    there must stay sticky).  Pass ``succs`` to compute over a pruned
    (feasible-edge) graph; the default is the full static CFG.

    The tree is built directly with the Cooper–Harvey–Kennedy
    iteration over the reverse CFG.  Its root is a virtual sink joined
    to the exit node and to every pc that cannot reach the exit, so
    those pcs are leaves under the root and a pc whose paths meet only
    at the root has no join point.
    """
    size = len(program)
    if succs is None:
        succs = static_successors(program)
    root = size + 1
    order = _exit_postorder(size, succs)
    # Intersection climbs from the lower rank: post-order rank for the
    # exit-reaching pcs, distinct negative ranks for the others (whose
    # parent is the root), the root above everything.
    rank = [-1 - node for node in range(size + 2)]
    for index, node in enumerate(order):
        rank[node] = index
    rank[root] = len(order)
    unset = -1                          # parent of a pc not yet processed
    parent = [root] * (size + 2)
    for node in order[:-1]:
        parent[node] = unset

    def intersect(a: int, b: int) -> int:
        while a != b:
            while rank[a] < rank[b]:
                a = parent[a]
            while rank[b] < rank[a]:
                b = parent[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in reversed(order[:-1]):
            new = unset
            for succ in succs.get(node, ()):
                if parent[succ] != unset:
                    new = succ if new == unset else intersect(succ, new)
            if parent[node] != new:
                parent[node] = new
                changed = True
    return {node: None if parent[node] == root else parent[node]
            for node in range(size + 1)}


def postdominator_sets(program: Sequence[Instruction],
                       succs: SuccMap | None = None,
                       ) -> dict[int, frozenset[int]]:
    """Per-pc post-dominator sets over the instruction-level CFG.

    ``pdom[pc]`` contains every node (including ``pc`` itself) that
    lies on *all* paths from ``pc`` to the exit node ``len(program)``:
    its ancestor chain in the :func:`immediate_postdominators` tree.
    A pc that cannot reach the exit gets the singleton ``{pc}`` —
    post-dominance is undefined there, and the singleton keeps any
    branch into such a region sticky (its arms never produce a common
    post-dominator).
    """
    ipdom = immediate_postdominators(program, succs)
    pdom: dict[int, frozenset[int]] = {}
    for start in ipdom:
        path: list[int] = []
        node: int | None = start
        while node is not None and node not in pdom:
            path.append(node)
            node = ipdom[node]
        chain: frozenset[int] = frozenset() if node is None else pdom[node]
        for pc in reversed(path):
            chain = chain | {pc}
            pdom[pc] = chain
    return pdom


def reaching_definitions(program: Sequence[Instruction]) -> dict[int, dict]:
    """Per-pc reaching definitions for every architectural register.

    Returns ``reach`` with ``reach[pc][reg]`` = frozenset of defining
    pcs that may reach ``pc``'s *inputs* (:data:`ENTRY_DEF` stands for
    the initial register file).  Classic forward may-analysis at
    instruction granularity — programs are tiny (static instructions),
    so the simple worklist converges in a handful of passes.
    """
    size = len(program)
    entry = {reg: frozenset((ENTRY_DEF,)) for reg in range(32)}
    reach: dict[int, dict | None] = {pc: None for pc in range(size + 1)}
    reach[0] = dict(entry)
    worklist = [0]
    while worklist:
        pc = worklist.pop()
        state = reach[pc]
        if pc >= size or state is None:
            continue
        inst = program[pc]
        out = state
        if inst.op.writes_rd and inst.rd != 0:
            out = dict(state)
            out[inst.rd] = frozenset((pc,))
        for succ in successors(program, pc):
            current = reach[succ]
            if current is None:
                reach[succ] = dict(out)
                worklist.append(succ)
                continue
            changed = False
            for reg, defs in out.items():
                merged = current[reg] | defs
                if merged != current[reg]:
                    current[reg] = merged
                    changed = True
            if changed:
                worklist.append(succ)
    filled: dict[int, dict] = {}
    for pc in range(size + 1):          # unreachable code: entry defs
        state = reach[pc]
        filled[pc] = dict(entry) if state is None else state
    return filled


def def_chain(program: Sequence[Instruction],
              reach: Mapping[int, dict], pc: int,
              reg: int, limit: int = 8) -> tuple[int, ...]:
    """Witness helper: one def-use chain ending at ``pc``'s use of ``reg``.

    Walks reaching definitions backwards (picking the highest defining
    pc for determinism) until the entry definition or ``limit`` frames.
    Returns a tuple of pcs, most recent first.
    """
    chain = []
    seen = set()
    current_pc, current_reg = pc, reg
    while len(chain) < limit:
        defs = reach[current_pc].get(current_reg)
        if not defs:
            break
        def_pc = max(defs)
        if def_pc == ENTRY_DEF or def_pc in seen:
            break
        seen.add(def_pc)
        chain.append(def_pc)
        inst = program[def_pc]
        if inst.op.reads_rs1 and inst.rs1 != 0:
            current_pc, current_reg = def_pc, inst.rs1
        else:
            break
    return tuple(chain)
