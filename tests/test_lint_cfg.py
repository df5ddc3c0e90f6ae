"""Post-dominator and CFG edge cases (lint/cfg.py).

The taint analysis clears control taint at each branch's immediate
post-dominator, so a malformed post-dominator tree is a *soundness*
bug, not just a precision bug.  These tests pin the edge cases the
tree solver must get right — unreachable blocks, self-loop branches,
branches to the exit node, infinite loops — property-check
well-formedness over the full random-program vocabulary (including
back-edge-heavy shapes) against a brute-force oracle, and compare the
solver with the iterative-intersection solver it replaced on programs
far too large for that oracle.
"""

import glob
import os
import random

import pytest
from hypothesis import given, settings

from repro.isa.assembler import Assembler
from repro.isa.text import assemble_file
from repro.lint.cfg import (
    build_cfg, exit_reaching, immediate_postdominators,
    postdominator_sets, static_successors,
)
from repro.lint.progen import programs
from tests.spec_catalog import attack_specs


def asm_program(build):
    asm = Assembler()
    build(asm)
    return asm.assemble()


# ----------------------------------------------------------------------
# brute-force oracle
# ----------------------------------------------------------------------

def reachable_from(pc, succs, size, *, removed=None):
    """Nodes reachable from ``pc`` without passing through ``removed``."""
    seen = set()
    frontier = [pc]
    while frontier:
        node = frontier.pop()
        if node in seen or node == removed:
            continue
        seen.add(node)
        if node < size:
            frontier.extend(succs.get(node, ()))
    return seen


def brute_force_pdom(program, succs):
    """pdom by path enumeration, on the solver's declared semantics.

    ``d`` post-dominates ``pc`` iff every path from ``pc`` to a *sink*
    passes through ``d``, where the sinks are the exit node plus every
    node that cannot reach the exit (such nodes are truncation points:
    the solver pins their pdom to the singleton so any branch into a
    non-terminating region keeps sticky control taint).  Equivalently:
    with ``d`` removed, ``pc`` can reach no sink."""
    size = len(program)
    can_exit = exit_reaching(size, succs)
    sinks = {size} | {pc for pc in range(size) if pc not in can_exit}
    pdom = {size: frozenset((size,))}
    for pc in range(size):
        if pc in sinks:
            pdom[pc] = frozenset((pc,))
            continue
        doms = {pc}
        for candidate in range(size + 1):
            if candidate == pc:
                continue
            seen = set()
            frontier = [pc]
            hit = False
            while frontier and not hit:
                node = frontier.pop()
                if node == candidate or node in seen:
                    continue
                seen.add(node)
                if node in sinks:
                    hit = True
                    break
                frontier.extend(succs.get(node, ()))
            if not hit:
                doms.add(candidate)
        pdom[pc] = frozenset(doms)
    return pdom


def assert_well_formed(program, succs=None):
    size = len(program)
    succs = static_successors(program) if succs is None else succs
    pdom = postdominator_sets(program, succs)
    ipdom = immediate_postdominators(program, succs)
    can_exit = exit_reaching(size, succs)
    assert ipdom[size] is None
    oracle = brute_force_pdom(program, succs)
    for pc in range(size):
        assert pc in pdom[pc]
        if pc not in can_exit:
            # No join exists; control taint must stay sticky.
            assert pdom[pc] == frozenset((pc,))
            assert ipdom[pc] is None
        # Exactness against the path-enumeration oracle.
        assert pdom[pc] == oracle[pc]
        if ipdom[pc] is not None:
            assert ipdom[pc] in pdom[pc] - {pc}
        # The strict post-dominators form a chain: every one contains
        # the ipdom in its own pdom set or is the ipdom itself.
        strict = pdom[pc] - {pc}
        if ipdom[pc] is not None:
            for node in strict:
                assert node == ipdom[pc] or node in pdom[ipdom[pc]]
    # Following ipdom links always terminates (tree, no cycles).
    for pc in range(size):
        seen = set()
        node = pc
        while node is not None and node != size:
            assert node not in seen
            seen.add(node)
            node = ipdom[node]
    return pdom, ipdom


# ----------------------------------------------------------------------
# pinned edge cases
# ----------------------------------------------------------------------

def test_straight_line_chain():
    program = asm_program(lambda asm: (asm.li(1, 1), asm.nop(),
                                       asm.halt()))
    _, ipdom = assert_well_formed(program)
    assert ipdom == {0: 1, 1: 2, 2: 3, 3: None}


def test_diamond_joins_at_postdominator():
    def build(asm):
        asm.beq(1, 2, "else")       # 0
        asm.addi(3, 0, 1)           # 1
        asm.jmp("join")             # 2
        asm.label("else")
        asm.addi(3, 0, 2)           # 3
        asm.label("join")
        asm.halt()                  # 4
    program = asm_program(build)
    _, ipdom = assert_well_formed(program)
    assert ipdom[0] == 4            # the join, not either arm


def test_unreachable_block_after_halt():
    def build(asm):
        asm.li(1, 1)                # 0
        asm.halt()                  # 1
        asm.addi(2, 0, 5)           # 2: unreachable
        asm.addi(3, 0, 6)           # 3: unreachable
        asm.halt()                  # 4
    program = asm_program(build)
    pdom, ipdom = assert_well_formed(program)
    # Unreachable-from-entry code still gets a consistent tree (the
    # solver is entry-agnostic): 2 -> 3 -> 4 -> exit.
    assert ipdom[2] == 3 and ipdom[3] == 4
    blocks, block_of = build_cfg(program)
    assert block_of[2] != block_of[1]


def test_self_loop_branch_joins_at_fallthrough():
    def build(asm):
        asm.li(1, 3)                # 0
        asm.label("spin")
        asm.bne(1, 0, "spin")       # 1: branches to itself
        asm.halt()                  # 2
    program = asm_program(build)
    assert static_successors(program)[1] == (2, 1)
    _, ipdom = assert_well_formed(program)
    assert ipdom[1] == 2            # every exiting path falls through


def test_branch_to_exit_node():
    def build(asm):
        asm.beq(1, 2, 2)            # 0: taken edge = len(program)
        asm.li(3, 1)                # 1
        asm.halt()                  # 2... target 2 is halt
    program = asm_program(build)
    _, ipdom = assert_well_formed(program)
    assert ipdom[0] == 2


def test_fall_off_the_end_reaches_exit():
    program = asm_program(lambda asm: (asm.li(1, 1), asm.nop()))
    _, ipdom = assert_well_formed(program)
    assert ipdom[1] == 2            # the implicit exit node


def test_infinite_loop_pins_singleton_pdom():
    def build(asm):
        asm.beq(1, 2, "loop")       # 0: one arm never terminates
        asm.halt()                  # 1
        asm.label("loop")
        asm.jmp("loop")             # 2: unconditional self-loop
    program = asm_program(build)
    pdom, ipdom = assert_well_formed(program)
    assert 2 not in exit_reaching(len(program),
                                  static_successors(program))
    assert pdom[2] == frozenset((2,))
    # The branch must stay sticky: whether the terminating arm runs
    # is itself the secret, so no join point may exist.
    assert ipdom[0] is None


def test_back_edge_loop_joins_after_loop():
    def build(asm):
        asm.li(1, 4)                # 0
        asm.label("loop")
        asm.addi(2, 2, 1)           # 1
        asm.addi(1, 1, -1)          # 2
        asm.bne(1, 0, "loop")       # 3: back edge
        asm.store(2, 0, 0x100)      # 4
        asm.halt()                  # 5
    program = asm_program(build)
    _, ipdom = assert_well_formed(program)
    assert ipdom[3] == 4            # loop exit, despite the back edge


def test_pruned_edges_move_the_join_later():
    """Post-dominators over a pruned (feasible-edge) successor map:
    folding a branch to one arm moves the join to that arm."""
    def build(asm):
        asm.beq(1, 2, "else")       # 0
        asm.addi(3, 0, 1)           # 1
        asm.jmp("join")             # 2
        asm.label("else")
        asm.addi(3, 0, 2)           # 3
        asm.label("join")
        asm.halt()                  # 4
    program = asm_program(build)
    pruned = dict(static_successors(program))
    pruned[0] = (1,)                # constant lattice folded the branch
    _, ipdom = assert_well_formed(program, pruned)
    assert ipdom[0] == 1            # join is now the arm itself


def test_matches_brute_force_on_edge_cases():
    def build(asm):
        asm.li(1, 2)                # 0
        asm.label("outer")
        asm.beq(1, 2, "skip")       # 1
        asm.label("inner")
        asm.addi(2, 2, 1)           # 2
        asm.bne(2, 0, "inner")      # 3: nested self-ish loop
        asm.label("skip")
        asm.addi(1, 1, -1)          # 4
        asm.bne(1, 0, "outer")      # 5: outer back edge
        asm.halt()                  # 6
    program = asm_program(build)
    succs = static_successors(program)
    assert postdominator_sets(program, succs) == \
        brute_force_pdom(program, succs)


# ----------------------------------------------------------------------
# property: well-formed over the full random-program vocabulary
# ----------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(programs())
def test_postdominators_well_formed_on_random_programs(program):
    """Random programs are back-edge-heavy by construction (any branch
    target in [0, len] is legal), so this drives the solver through
    irreducible loops, unreachable tails, and multi-exit shapes."""
    assert_well_formed(program)


@settings(max_examples=60, deadline=None)
@given(programs())
def test_pruned_graphs_stay_well_formed(program):
    """The taint fixpoint recomputes post-dominators over pruned
    (feasible-edge) successor maps; dropping a branch arm must never
    break the tree."""
    succs = dict(static_successors(program))
    for pc, targets in succs.items():
        if len(targets) == 2:
            succs[pc] = targets[:1]     # fold every branch one way
    assert_well_formed(program, succs)


# ----------------------------------------------------------------------
# reference: the iterative-intersection solver the tree replaced
# ----------------------------------------------------------------------

def reference_pdom(program, succs):
    """Post-dominator sets by iterated set intersection, from a full
    universe down to the maximal fixpoint.  Quadratic, but exact on the
    same sink semantics as the oracle, so it can check the tree on
    programs the path-enumeration oracle is too slow for."""
    size = len(program)
    preds = {node: [] for node in range(size + 1)}
    for pc in range(size):
        for succ in succs.get(pc, ()):
            preds[succ].append(pc)
    can_exit = {size}
    frontier = [size]
    while frontier:
        for pred in preds[frontier.pop()]:
            if pred not in can_exit:
                can_exit.add(pred)
                frontier.append(pred)
    universe = frozenset(range(size + 1))
    pdom = {size: frozenset((size,))}
    for pc in range(size):
        pdom[pc] = universe if pc in can_exit else frozenset((pc,))
    changed = True
    while changed:
        changed = False
        for pc in reversed(range(size)):
            if pc not in can_exit:
                continue
            meet = None
            for succ in succs.get(pc, ()):
                meet = pdom[succ] if meet is None else meet & pdom[succ]
            new = frozenset((pc,)) if meet is None else meet | {pc}
            if new != pdom[pc]:
                pdom[pc] = new
                changed = True
    return pdom


def reference_ipdom(pdom, size):
    """The strict post-dominators form a chain, so the immediate one
    is the chain element with the largest post-dominator set."""
    ipdom = {size: None}
    for pc in range(size):
        strict = pdom[pc] - {pc}
        ipdom[pc] = max(strict, key=lambda node: (len(pdom[node]), -node)) \
            if strict else None
    return ipdom


def large_program(length=1200, seed=13):
    """At least ``length`` instructions of forward-branch diamonds,
    if/else arms, counted loops (back edges, some with a diamond
    inside) and straight-line ALU traffic; halfway through, a branch
    whose taken arm enters a non-terminating loop."""
    rng = random.Random(seed)
    asm = Assembler()
    asm.li(1, 4)
    spin_branch_placed = False
    while len(asm) < length:
        here = len(asm)
        if not spin_branch_placed and here >= length // 2:
            asm.beq(3, 4, "spin")
            spin_branch_placed = True
        shape = rng.randrange(5)
        if shape == 0:                  # diamond
            asm.beq(rng.randrange(1, 8), rng.randrange(1, 8), f"skip{here}")
            asm.addi(rng.randrange(1, 8), 0, rng.randrange(16))
            asm.label(f"skip{here}")
        elif shape == 1:                # if / else
            asm.bne(rng.randrange(1, 8), rng.randrange(1, 8), f"else{here}")
            asm.addi(2, 2, 1)
            asm.jmp(f"join{here}")
            asm.label(f"else{here}")
            asm.addi(2, 2, -1)
            asm.label(f"join{here}")
        elif shape == 2:                # counted loop, maybe a diamond inside
            asm.li(8, 3)
            asm.label(f"loop{here}")
            if rng.randrange(2):
                asm.beq(8, 1, f"inner{here}")
                asm.addi(5, 5, 1)
                asm.label(f"inner{here}")
            asm.addi(8, 8, -1)
            asm.bne(8, 0, f"loop{here}")
        else:                           # straight-line traffic
            asm.add(rng.randrange(1, 8), rng.randrange(1, 8),
                    rng.randrange(1, 8))
    asm.halt()
    asm.label("spin")
    asm.jmp("spin")
    return asm.assemble()


def reference_programs():
    """Every catalog attack program, the shipped examples and one
    generated program past a thousand instructions."""
    cases = [(f"spec-{name}", spec.program)
             for name, spec in attack_specs().items()]
    examples = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples", "programs")
    for path in sorted(glob.glob(os.path.join(examples, "*.s"))):
        cases.append((f"example-{os.path.basename(path)}",
                      assemble_file(path)))
    cases.append(("generated", large_program()))
    return cases


REFERENCE_PROGRAMS = reference_programs()


def test_reference_corpus_covers_the_required_shapes():
    names = [name for name, _ in REFERENCE_PROGRAMS]
    assert "spec-packing" in names
    assert len([name for name in names if name.startswith("example-")]) == 4
    program = dict(REFERENCE_PROGRAMS)["generated"]
    succs = static_successors(program)
    assert len(program) >= 1000
    assert any(target < pc for pc, targets in succs.items()
               for target in targets)                  # a back edge
    can_exit = exit_reaching(len(program), succs)
    assert any(pc in can_exit and any(t not in can_exit for t in targets)
               for pc, targets in succs.items())       # into a spin loop


@pytest.mark.parametrize("folded", [False, True],
                         ids=["static", "folded"])
@pytest.mark.parametrize("program", [program for _, program in
                                     REFERENCE_PROGRAMS],
                         ids=[name for name, _ in REFERENCE_PROGRAMS])
def test_tree_matches_reference_solver(program, folded):
    """Identical sets and immediate post-dominators, over the static
    successor map and over one with every branch folded one way."""
    succs = dict(static_successors(program))
    if folded:
        for pc, targets in succs.items():
            if len(targets) == 2:
                succs[pc] = targets[:1]
    pdom = reference_pdom(program, succs)
    assert postdominator_sets(program, succs) == pdom
    assert immediate_postdominators(program, succs) == \
        reference_ipdom(pdom, len(program))
