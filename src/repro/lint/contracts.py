"""Static leakage contracts, compiled from plug-in descriptors.

Every optimization plug-in class in :mod:`repro.optimizations` exports
a declarative ``LINT_CONTRACT`` descriptor naming which operand
positions feed its MLD — the static mirror of the dynamic leakage
function the plug-in implements.  The descriptor is plain data::

    LINT_CONTRACT = {
        "mld": "store_silence",              # MLD outcome label
        "rows": (
            {"ops": (Op.STORE,),             # ops the MLD observes
             "taps": ("store_value", "old_memory_value"),
             "detail": "store is elided iff ..."},
        ),
    }

Rows may be *conditional* on constructor kwargs: a ``"when"`` mapping
selects the row only when the named kwarg (with the descriptor's
``"defaults"`` filling in unspecified ones) equals — or, for
tuple-valued kwargs such as rule lists, contains — the given value.
That is how ``computation-simplification`` exposes one row per
configured rule and how ``computation-reuse`` exposes *no* rows for
the value-independent ``sn`` variant.  ``"ops"`` may also be the
string ``"kwarg:<name>"`` to follow an op-set kwarg (value prediction,
computation reuse), or ``None`` for "any result-producing op"
(register-file compression).

An optional ``"domains"`` mapping declares, per kwarg, the alternative
values the contract is *conditional over* — the ablation axes the
``when``-clause synthesizer (:mod:`repro.lint.synthesize`) re-fuzzes
under to learn minimal ``when`` conditions and to catch contracts that
are conditional on something reality is not.  For a tuple-valued kwarg
the domain lists members that may be dropped; for a scalar kwarg it
lists alternative values to switch to.

This module compiles descriptors + :class:`~repro.engine.specs.
PluginSpec` kwargs into concrete :class:`ContractRow` tuples for the
checker.  Keeping compilation here (and the descriptors as inert class
attributes) avoids any import cycle between the optimizations and the
lint layer.
"""

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.engine.specs import PluginSpec, plugin_factory, plugin_names
from repro.isa.opcodes import Op

#: Tap names the checker knows how to resolve.
KNOWN_TAPS = frozenset({
    "rs1", "rs2", "store_value", "old_memory_value", "loaded_value",
    "address", "result",
})


def canonical_tap(op: Op, tap: str) -> str:
    """The canonical name of ``tap`` on ``op``.

    Several tap names are aliases for the same abstract value on a
    given op — ``store_value`` *is* ``rs2`` on a STORE, ``address``
    *is* ``rs1`` on a LOAD/STORE, ``loaded_value`` *is* ``result`` on
    a LOAD — and the checker resolves them identically.  Synthesis
    compares *sets* of (op, tap) pairs between learned and declared
    contracts, so both sides must speak the canonical vocabulary or
    equal contracts would diff as gaps.
    """
    if tap == "store_value" and op is Op.STORE:
        return "rs2"
    if tap == "address" and op in (Op.LOAD, Op.STORE):
        return "rs1"
    if tap == "loaded_value":
        return "result"
    return tap


def applicable_taps(op: Op) -> tuple[str, ...]:
    """The canonical taps that carry a value on ``op``, in a fixed
    order — the feature vector synthesis observes per instruction."""
    taps = []
    if op.reads_rs1:
        taps.append("rs1")
    if op.reads_rs2:
        taps.append("rs2")
    if op is Op.STORE:
        taps.append("old_memory_value")
    if op.writes_rd:
        taps.append("result")
    return tuple(taps)


def producing_ops() -> tuple[Op, ...]:
    """Every op that writes a destination register, sorted by name —
    the expansion of a contract row whose ``ops`` is ``None``."""
    return tuple(sorted((op for op in Op if op.writes_rd),
                        key=lambda op: op.value))


def row_pairs(row: "ContractRow") -> frozenset[tuple[str, str]]:
    """One compiled row as a frozenset of canonical (op-name, tap)
    pairs — the unit the contract differ intersects.

    Pairs whose tap carries no value on the op (a ``result`` tap on an
    op-set that includes STORE, say) are dropped: the checker can never
    resolve them tainted, so they are unwitnessable by construction.
    """
    ops = row.ops if row.ops is not None else producing_ops()
    pairs = set()
    for op in ops:
        allowed = applicable_taps(op)
        for tap in row.taps:
            canon = canonical_tap(op, tap)
            if canon in allowed:
                pairs.add((op.value, canon))
    return frozenset(pairs)


class LintError(Exception):
    """Raised for malformed contracts or checker misuse."""


@dataclass(frozen=True)
class ContractRow:
    """One compiled contract clause: ops × taps → MLD outcome.

    ``when`` records the descriptor conditions the row was selected
    under, as a sorted ``((kwarg, value), ...)`` tuple — retained so
    the synthesizer can diff learned conditions against declared ones
    and re-evaluate selection under ablated constructions.
    ``ops_kwarg`` names the kwarg an ``"ops": "kwarg:<name>"`` row
    followed (empty for literal op sets): such a row is *structurally*
    conditional on that kwarg even though its ``when`` is empty.
    """

    plugin: str
    mld: str
    ops: object                # frozenset[Op] | None (any producing op)
    taps: tuple
    detail: str = ""
    when: tuple = ()
    ops_kwarg: str = ""

    def matches_op(self, op: Op) -> bool:
        if self.ops is None:
            return op.writes_rd
        return op in self.ops


def _coerce_ops(ops: Iterable | None) -> frozenset[Op] | None:
    if ops is None:
        return None
    coerced = frozenset(op if isinstance(op, Op) else Op(op)
                        for op in ops)
    if not coerced:
        raise LintError("contract row has an empty op set")
    return coerced


def _kwarg(name: str, kwargs: Mapping, defaults: Mapping,
           plugin: str) -> object:
    if name in kwargs:
        return kwargs[name]
    if name in defaults:
        return defaults[name]
    raise LintError(f"contract for {plugin!r} references kwarg "
                    f"{name!r} with no default")


def _condition_holds(actual: object, needed: object) -> bool:
    if isinstance(actual, (tuple, list, set, frozenset)):
        return needed in actual
    return actual == needed


def _row_selected(row: Mapping, kwargs: Mapping, defaults: Mapping,
                  plugin: str) -> bool:
    for name, needed in row.get("when", {}).items():
        if not _condition_holds(
                _kwarg(name, kwargs, defaults, plugin), needed):
            return False
    return True


def when_holds(when: Iterable[tuple[str, object]], kwargs: Mapping,
               defaults: Mapping, plugin: str) -> bool:
    """Would a compiled row with conditions ``when`` be selected
    under ``kwargs``?  Same semantics as descriptor ``"when"``
    mappings: membership for tuple-valued kwargs, equality otherwise.
    """
    return all(_condition_holds(_kwarg(name, kwargs, defaults, plugin),
                                needed)
               for name, needed in when)


def contract_rows(plugin_spec: PluginSpec) -> tuple[ContractRow, ...]:
    """Compile one plug-in's contract into :class:`ContractRow` tuples.

    A plug-in without a ``LINT_CONTRACT`` descriptor (an out-of-tree
    observer) contributes no rows: it asserts no MLD, so the checker has
    nothing to flag for it.
    """
    factory = plugin_factory(plugin_spec.name)
    descriptor = getattr(factory, "LINT_CONTRACT", None)
    if descriptor is None:
        return ()
    kwargs = dict(plugin_spec.kwargs)
    defaults = descriptor.get("defaults", {})
    mld = descriptor["mld"]
    rows = []
    for row in descriptor["rows"]:
        if not _row_selected(row, kwargs, defaults, plugin_spec.name):
            continue
        ops = row.get("ops")
        ops_kwarg = ""
        if isinstance(ops, str):
            if not ops.startswith("kwarg:"):
                raise LintError(f"bad ops reference {ops!r} in "
                                f"{plugin_spec.name!r} contract")
            ops_kwarg = ops[len("kwarg:"):]
            ops = _kwarg(ops_kwarg, kwargs, defaults,
                         plugin_spec.name)
        taps = tuple(row["taps"])
        unknown = set(taps) - KNOWN_TAPS
        if unknown:
            raise LintError(
                f"{plugin_spec.name!r} contract uses unknown taps "
                f"{sorted(unknown)}; known: {sorted(KNOWN_TAPS)}")
        when = tuple(sorted(row.get("when", {}).items()))
        rows.append(ContractRow(
            plugin=plugin_spec.name, mld=mld, ops=_coerce_ops(ops),
            taps=taps, detail=row.get("detail", ""), when=when,
            ops_kwarg=ops_kwarg))
    return tuple(rows)


def rows_for_specs(plugin_specs: Iterable[PluginSpec],
                   ) -> tuple[ContractRow, ...]:
    """Compile contracts for a tuple of :class:`PluginSpec`."""
    rows = []
    for spec in plugin_specs:
        rows.extend(contract_rows(spec))
    return tuple(rows)


def rows_for_names(names: Iterable[str]) -> tuple[ContractRow, ...]:
    """Compile contracts for registry names (default constructions)."""
    return rows_for_specs(tuple(PluginSpec.of(name) for name in names))


def contracted_plugin_names() -> tuple[str, ...]:
    """Registry names of every plug-in exporting a contract, sorted."""
    return tuple(
        name for name in plugin_names()
        if getattr(plugin_factory(name), "LINT_CONTRACT", None)
        is not None)


@dataclass(frozen=True)
class WhenCandidate:
    """One ablation axis of a plug-in construction.

    ``condition`` is the ``(kwarg, value)`` clause under test; running
    the plug-in with ``kwargs`` instead of its declared construction
    removes exactly that clause's support (drops the member for a
    tuple-valued kwarg, switches to an alternative for a scalar one).
    If a leak observed under the declared construction *dies* under
    ``kwargs``, the condition is necessary — a learned ``when``.  If it
    *persists* and no declared row applies under ``kwargs``, the
    declared contract is conditional on something reality is not.
    """

    plugin: str
    kwarg: str
    value: object
    kwargs: tuple = field(default=())   # sorted kwarg items, hashable

    @property
    def condition(self) -> tuple[str, object]:
        return (self.kwarg, self.value)

    def construction(self) -> dict:
        return dict(self.kwargs)

    def describe(self) -> str:
        ablated = dict(self.kwargs)[self.kwarg]
        if isinstance(ablated, tuple):
            shown = "(" + ",".join(display_value(v)
                                   for v in ablated) + ")"
        else:
            shown = display_value(ablated)
        return f"{self.kwarg}={shown}"


def display_value(value: object) -> str:
    """Render a kwarg/condition value for reports (ops → mnemonics)."""
    if isinstance(value, Op):
        return value.value
    if isinstance(value, (tuple, list, frozenset, set)):
        return "(" + ",".join(sorted(display_value(v) for v in value))             + ")"
    return str(value)


def contract_defaults(plugin: str) -> dict:
    """The descriptor-declared default construction of ``plugin``."""
    descriptor = getattr(plugin_factory(plugin), "LINT_CONTRACT", None)
    if descriptor is None:
        return {}
    return dict(descriptor.get("defaults", {}))


def when_candidates(plugin_spec: PluginSpec,
                    ) -> tuple[WhenCandidate, ...]:
    """The ablation axes of ``plugin_spec``, from its descriptor's
    ``"domains"`` — one candidate per droppable member (tuple-valued
    kwargs) or per alternative value (scalar kwargs), each carrying
    the full ablated construction to re-fuzz under."""
    factory = plugin_factory(plugin_spec.name)
    descriptor = getattr(factory, "LINT_CONTRACT", None)
    if descriptor is None:
        return ()
    defaults = descriptor.get("defaults", {})
    domains = descriptor.get("domains", {})
    kwargs = dict(plugin_spec.kwargs)
    active = dict(defaults)
    active.update(kwargs)
    for name, value in active.items():
        # Spec kwargs must fingerprint: sets become sorted tuples.
        if isinstance(value, (set, frozenset, list)):
            active[name] = tuple(sorted(
                value, key=lambda v: str(getattr(v, "value", v))))
    candidates = []
    for name in sorted(domains):
        if name not in active:
            raise LintError(
                f"{plugin_spec.name!r} contract declares a domain for "
                f"kwarg {name!r} with no default or spec value")
        current = active[name]
        if isinstance(current, (tuple, list, set, frozenset)):
            members = tuple(current)
            for value in domains[name]:
                if value not in members:
                    continue
                ablated = tuple(v for v in members if v != value)
                construction = dict(active)
                construction[name] = ablated
                candidates.append(WhenCandidate(
                    plugin=plugin_spec.name, kwarg=name, value=value,
                    kwargs=tuple(sorted(construction.items(),
                                        key=lambda item: item[0]))))
        else:
            for value in domains[name]:
                if value == current:
                    continue
                construction = dict(active)
                construction[name] = value
                candidates.append(WhenCandidate(
                    plugin=plugin_spec.name, kwarg=name, value=current,
                    kwargs=tuple(sorted(construction.items(),
                                        key=lambda item: item[0]))))
    return tuple(candidates)
