"""Declarative simulation specifications.

Every experiment in the repo is a *replay* attack: thousands of
independent simulator runs, each fully described by (program, core
config, memory-hierarchy geometry, optimization plug-ins, initial
memory image, initial registers).  :class:`SimSpec` captures exactly
that description as plain, picklable data so that one spec can be

* **built** into a ready-to-run core (:meth:`SimSpec.build` via
  :class:`repro.engine.session.Session`),
* **shipped** to a worker process by the trial runner
  (:mod:`repro.engine.runner`), and
* **fingerprinted** into a stable content hash that keys the result
  cache (:mod:`repro.engine.cache`).

Specs never hold live simulator objects — caches, hierarchies and
plug-ins are described by small frozen dataclasses and only
instantiated at build time, so a spec is cheap to copy, hash and
pickle.
"""

import dataclasses
import enum
import hashlib
import json
import operator
from dataclasses import dataclass, field

from repro.isa.assembler import Program, normalize_regions
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.memory.cache import Cache
from repro.memory.flatmem import FlatMemory
from repro.memory.hierarchy import MemoryHierarchy, MemoryLatencies
from repro.memory.tlb import TLB
from repro.pipeline.config import CPUConfig


class SpecError(Exception):
    """Raised for malformed specs (unknown plug-ins, bad geometry)."""


# ----------------------------------------------------------------------
# hierarchy description
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CacheSpec:
    """Geometry of one cache level (see :class:`repro.memory.Cache`)."""

    num_sets: int = 64
    ways: int = 4
    line_size: int = 64
    policy: str = "lru"
    seed: int = 0

    def build(self, extra_seed=0):
        return Cache(num_sets=self.num_sets, ways=self.ways,
                     line_size=self.line_size, policy=self.policy,
                     seed=self.seed ^ extra_seed)


@dataclass(frozen=True)
class TLBSpec:
    """Geometry of the optional TLB (see :class:`repro.memory.TLB`)."""

    entries: int = 64
    page_size: int = 4096
    walk_latency: int = 30

    def build(self):
        return TLB(entries=self.entries, page_size=self.page_size,
                   walk_latency=self.walk_latency)


@dataclass(frozen=True)
class LatencySpec:
    """Picklable mirror of :class:`repro.memory.MemoryLatencies`.

    The live class carries a lazily-created RNG; this spec carries only
    the numbers, so it hashes and pickles cleanly.
    """

    l1_hit: int = 2
    l2_hit: int = 12
    memory: int = 120
    store_perform: int = 1
    jitter: int = 0
    seed: int = 0

    @classmethod
    def from_latencies(cls, latencies):
        """Lift a live :class:`MemoryLatencies` into a spec."""
        if isinstance(latencies, cls) or latencies is None:
            return latencies if latencies is not None else cls()
        return cls(l1_hit=latencies.l1_hit, l2_hit=latencies.l2_hit,
                   memory=latencies.memory,
                   store_perform=latencies.store_perform,
                   jitter=latencies.jitter, seed=latencies.seed)

    def build(self, extra_seed=0):
        return MemoryLatencies(
            l1_hit=self.l1_hit, l2_hit=self.l2_hit, memory=self.memory,
            store_perform=self.store_perform, jitter=self.jitter,
            seed=self.seed ^ extra_seed)


@dataclass(frozen=True)
class HierarchySpec:
    """Full memory-system description: backing memory + caches + TLB."""

    memory_size: int = 1 << 20
    l1: CacheSpec = CacheSpec()
    l2: object = None                 # CacheSpec or None
    latencies: LatencySpec = LatencySpec()
    prefetch_buffer_size: int = 0
    tlb: object = None                # TLBSpec or None

    def build(self, memory=None, extra_seed=0):
        """Instantiate a :class:`MemoryHierarchy` (and its memory)."""
        if memory is None:
            memory = FlatMemory(self.memory_size)
        l2 = self.l2.build(extra_seed) if self.l2 is not None else None
        tlb = self.tlb.build() if self.tlb is not None else None
        return MemoryHierarchy(
            memory, l1=self.l1.build(extra_seed), l2=l2,
            latencies=self.latencies.build(extra_seed),
            prefetch_buffer_size=self.prefetch_buffer_size, tlb=tlb)


# ----------------------------------------------------------------------
# plug-in description
# ----------------------------------------------------------------------

#: Registry of plug-in factories keyed by the plug-in class ``name``
#: attribute.  Populated lazily (to keep import order flexible) plus
#: via :func:`register_plugin` for out-of-tree plug-ins.
_PLUGIN_REGISTRY = {}


def _builtin_plugins():
    from repro import optimizations as opt
    return {
        "silent-stores": opt.SilentStorePlugin,
        "computation-reuse": opt.ComputationReusePlugin,
        "computation-simplification": opt.ComputationSimplificationPlugin,
        "value-prediction": opt.ValuePredictionPlugin,
        "register-file-compression": opt.RegisterFileCompressionPlugin,
        "operand-packing": opt.OperandPackingPlugin,
        "early-terminating-multiplier": opt.EarlyTerminatingMultiplierPlugin,
        "indirect-memory-prefetcher": opt.IndirectMemoryPrefetcher,
    }


def register_plugin(name, factory):
    """Register an out-of-tree plug-in factory for :class:`PluginSpec`."""
    _PLUGIN_REGISTRY[name] = factory


def plugin_names():
    """Every registered plug-in name (built-ins included), sorted."""
    if not _PLUGIN_REGISTRY:
        _PLUGIN_REGISTRY.update(_builtin_plugins())
    return sorted(_PLUGIN_REGISTRY)


def plugin_factory(name):
    if not _PLUGIN_REGISTRY:
        _PLUGIN_REGISTRY.update(_builtin_plugins())
    try:
        return _PLUGIN_REGISTRY[name]
    except KeyError:
        raise SpecError(f"unknown plug-in {name!r}; known: "
                        f"{sorted(_PLUGIN_REGISTRY)}") from None


@dataclass(frozen=True)
class PluginSpec:
    """An optimization plug-in by registry name + constructor kwargs."""

    name: str
    kwargs: tuple = ()      # sorted (key, value) pairs

    @classmethod
    def of(cls, name, **kwargs):
        return cls(name=name, kwargs=tuple(sorted(kwargs.items())))

    def build(self):
        return plugin_factory(self.name)(**dict(self.kwargs))


# ----------------------------------------------------------------------
# trace description
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TraceSpec:
    """Configuration of the run's :class:`repro.trace.TraceBuffer`.

    ``categories`` is a tuple of category names to record (empty means
    all of :data:`repro.trace.CATEGORIES`); ``sample`` keeps every
    N-th event per category.  Attaching a ``TraceSpec`` to a
    :class:`SimSpec` never changes simulated behaviour — emission is
    observation only — but it does enter the fingerprint (see
    :meth:`SimSpec.fingerprint`) because the resulting
    :class:`~repro.engine.session.RunResult` carries the trace payload.
    """

    capacity: int = 65536
    categories: tuple = ()
    sample: int = 1

    def build(self, metrics=None):
        from repro.trace.buffer import TraceBuffer
        return TraceBuffer(
            capacity=self.capacity,
            categories=self.categories if self.categories else None,
            sample=self.sample, metrics=metrics)


# ----------------------------------------------------------------------
# taint description
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TaintSpec:
    """Static taint seed for the :mod:`repro.lint` checker.

    ``secret`` / ``public`` are canonical ``(start, end)`` byte ranges
    (end exclusive) marking which parts of the initial memory image
    hold secrets (resp. attacker-chosen data); ``secret_regs`` names
    architectural registers preloaded with secret values.  The spec is
    *metadata about* a simulation, not part of it: attaching or
    changing a ``TaintSpec`` never alters simulated behaviour, so —
    like ``fastpath`` — it stays outside :meth:`SimSpec.fingerprint`
    and cached results survive annotation.  Program-level ``.secret`` /
    ``.public`` directives are merged in by the checker.
    """

    secret: tuple = ()        # (start, end) byte ranges, end exclusive
    public: tuple = ()
    secret_regs: tuple = ()   # architectural register indices

    @classmethod
    def of(cls, secret=(), public=(), secret_regs=()):
        """Build a normalized spec (sorted, validated regions)."""
        return cls(secret=normalize_regions(secret, "secret"),
                   public=normalize_regions(public, "public"),
                   secret_regs=tuple(sorted(set(
                       int(reg) for reg in secret_regs))))


# ----------------------------------------------------------------------
# the simulation spec
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SimSpec:
    """One complete, picklable simulation description.

    ``mem_writes`` are word-granular ``(addr, value, width)`` writes and
    ``mem_blobs`` are ``(addr, bytes)`` images; together they form the
    initial memory image.  ``regs`` preloads architectural registers.
    ``seed`` perturbs every seeded randomness source in the built
    simulation (latency jitter, random-replacement caches), which is
    how the trial runner derives independent-but-reproducible trials.
    ``record_regs`` names architectural registers whose final values
    are captured into the run's observations.  ``label`` and ``meta``
    are presentation-only and excluded from the fingerprint;
    ``collect_stats`` toggles the run's :mod:`repro.stats` record and
    never changes simulated behaviour (it enters the fingerprint only
    when False — see :meth:`fingerprint`).  ``trace`` optionally
    attaches a :class:`TraceSpec`; a traced run's
    :class:`~repro.engine.session.RunResult` carries the deterministic
    event payload, so a non-``None`` trace is its own fingerprint
    dimension (again see :meth:`fingerprint`).  ``fastpath`` selects
    the :class:`~repro.pipeline.fastpath.FastPathCPU` kernel (the
    default) or the reference :class:`~repro.pipeline.cpu.CPU` loop;
    the two are bitwise-equivalent by contract, so the toggle never
    enters the fingerprint and both kernels share cached results.
    ``taint`` optionally attaches a :class:`TaintSpec` for the static
    leakage checker; like ``fastpath`` it is lint metadata about the
    run, never changes (or re-fingerprints) the simulation, and
    existing cache entries survive its addition.
    """

    program: Program
    config: object = None             # CPUConfig or None for defaults
    hierarchy: HierarchySpec = HierarchySpec()
    plugins: tuple = ()               # PluginSpec instances
    mem_writes: tuple = ()            # (addr, value, width)
    mem_blobs: tuple = ()             # (addr, bytes)
    regs: tuple = ()                  # (arch_index, value)
    max_cycles: object = None
    seed: int = 0
    record_regs: tuple = ()
    label: str = ""
    meta: tuple = ()                  # free-form (key, value) pairs
    collect_stats: bool = True
    trace: object = None              # TraceSpec or None (tracing off)
    fastpath: bool = True             # fast-path kernel (bitwise-equal)
    taint: object = None              # TaintSpec or None (lint metadata)

    def replace(self, **changes):
        return dataclasses.replace(self, **changes)

    # -- building ------------------------------------------------------

    def build_memory(self):
        memory = FlatMemory(self.hierarchy.memory_size)
        for addr, data in self.mem_blobs:
            memory.write_bytes(addr, bytes(data))
        for addr, value, width in self.mem_writes:
            memory.write(addr, value, width)
        return memory

    def build(self):
        """Instantiate a ready :class:`repro.engine.session.Session`."""
        from repro.engine.session import Session
        return Session.from_spec(self)

    # -- serialization -------------------------------------------------

    def to_json_dict(self):
        """Canonical JSON-able form of the complete spec.

        :meth:`from_json_dict` reconstructs a spec with the identical
        :meth:`fingerprint`, so specs can be persisted, diffed and
        shipped across machines without invalidating cached results.
        Plug-in kwargs must themselves be JSON-able.
        """
        return {
            "program": {
                "instructions": [
                    [inst.op.value, inst.rd, inst.rs1, inst.rs2,
                     inst.imm, inst.width,
                     -1 if inst.target is None else int(inst.target),
                     inst.annotation]
                    for inst in self.program],
                "labels": dict(self.program.labels),
                "secret_regions": _canonical(
                    self.program.secret_regions),
                "public_regions": _canonical(
                    self.program.public_regions),
            },
            "config": (None if self.config is None
                       else _canonical(self.config)),
            "hierarchy": _canonical(self.hierarchy),
            "plugins": _canonical(self.plugins),
            "mem_writes": _canonical(self.mem_writes),
            "mem_blobs": [[addr, bytes(data).hex()]
                          for addr, data in self.mem_blobs],
            "regs": _canonical(self.regs),
            "max_cycles": self.max_cycles,
            "seed": self.seed,
            "record_regs": _canonical(self.record_regs),
            "label": self.label,
            "meta": _canonical(self.meta),
            "collect_stats": self.collect_stats,
            "trace": (None if self.trace is None
                      else _canonical(self.trace)),
            "fastpath": self.fastpath,
            "taint": (None if self.taint is None
                      else _canonical(self.taint)),
        }

    def to_json(self, **kwargs):
        return json.dumps(self.to_json_dict(), sort_keys=True, **kwargs)

    @classmethod
    def from_json_dict(cls, data):
        """Rebuild a spec from :meth:`to_json_dict` output.

        Keys this version no longer writes (the retired ``backend``
        scheduling hint) are ignored, so older spec JSON still loads.
        """
        instructions = [
            Instruction(op=Op(op), rd=rd, rs1=rs1, rs2=rs2, imm=imm,
                        width=width,
                        target=None if target == -1 else target,
                        pc=pc, annotation=annotation)
            for pc, (op, rd, rs1, rs2, imm, width, target, annotation)
            in enumerate(data["program"]["instructions"])]
        program = Program(
            instructions, data["program"]["labels"],
            secret_regions=_from_canonical(
                data["program"].get("secret_regions", [])),
            public_regions=_from_canonical(
                data["program"].get("public_regions", [])))
        return cls(
            program=program,
            config=_from_canonical(data["config"]),
            hierarchy=_from_canonical(data["hierarchy"]),
            plugins=_from_canonical(data["plugins"]),
            mem_writes=_from_canonical(data["mem_writes"]),
            mem_blobs=tuple((addr, bytes.fromhex(blob))
                            for addr, blob in data["mem_blobs"]),
            regs=_from_canonical(data["regs"]),
            max_cycles=data["max_cycles"],
            seed=data["seed"],
            record_regs=_from_canonical(data["record_regs"]),
            label=data.get("label", ""),
            meta=_from_canonical(data.get("meta", [])),
            collect_stats=data.get("collect_stats", True),
            trace=_from_canonical(data.get("trace")),
            fastpath=data.get("fastpath", True),
            taint=_from_canonical(data.get("taint")))

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))

    # -- fingerprinting ------------------------------------------------

    def fingerprint(self):
        """Stable content hash of everything that affects the run.

        ``result_version`` stamps the :class:`RunResult` schema, not
        the simulation: bumping it orphans persisted cache entries
        whose payloads predate a new result field (version 2 added
        ``metrics``, version 3 added ``trace``).  ``collect_stats``
        enters the hash only when False, so the default keeps one
        fingerprint per simulation while a metrics-less run can never
        satisfy a metrics-wanting cache lookup.  Symmetrically,
        ``trace`` enters the hash only when not None: the default keeps
        one fingerprint per simulation while a traced run (whose result
        carries the event payload) caches separately per trace
        configuration.  ``fastpath`` never enters the hash: the
        fast-path kernel is bitwise-equivalent to the reference loop
        (enforced by ``tests/test_fastpath_equivalence.py``), so a
        result computed by either kernel satisfies both — which is
        also what lets the differential suite compare cached goldens
        across kernels at all.  ``taint`` likewise never enters the
        hash: it only seeds the static checker, so annotating a spec
        with lint metadata keeps every previously cached result (and
        golden-fingerprint pin) valid.

        The hashed bytes are what ``json.dumps(payload, sort_keys=True,
        separators=(",", ":"))`` gives for the dict of those fields,
        joined from one text per key: a frozen component keeps its text
        on itself (:func:`_fp_text`), a config's is memoized under a
        typed key (:func:`_config_text`), and the spec's own values take
        two encoder calls.

        The digest is memoized on the (frozen) instance: sweeps and
        repeated batches fingerprint the same spec object many times,
        and the hash is a pure function of its content.  ``replace()``
        builds a fresh instance, so derived specs never inherit a
        stale memo.
        """
        memo = self.__dict__.get("_fingerprint_memo")
        if memo is not None:
            return memo
        plugins = self.plugins
        if type(plugins) in (tuple, list):
            plugins_text = "[" + ",".join(map(_fp_text, plugins)) + "]"
        else:
            plugins_text = _fp_text(plugins)
        # The keys between "hierarchy" and "plugins", and those between
        # "program" and "trace", each in one encoder call.
        head = _ENCODER.encode({
            "max_cycles": self.max_cycles,
            "mem_blobs": [[addr, bytes(data).hex()]
                          for addr, data in self.mem_blobs],
            "mem_writes": _canonical(self.mem_writes)})
        tail = _ENCODER.encode({
            "record_regs": _canonical(self.record_regs),
            "regs": _canonical(self.regs),
            "result_version": 3,
            "seed": self.seed})
        pairs = ['"config":' + _config_text(self.config),
                 '"hierarchy":' + _fp_text(self.hierarchy),
                 head[1:-1],
                 '"plugins":' + plugins_text,
                 '"program":"' + self.program.encode().hex() + '"',
                 tail[1:-1]]
        if not self.collect_stats:
            pairs.insert(0, '"collect_stats":false')
        if self.trace is not None:
            pairs.append('"trace":' + _fp_text(self.trace))
        blob = "{" + ",".join(pairs) + "}"
        digest = hashlib.sha256(blob.encode()).hexdigest()
        object.__setattr__(self, "_fingerprint_memo", digest)
        return digest


#: The fingerprint's JSON encoder: what ``json.dumps(value,
#: sort_keys=True, separators=(",", ":"))`` builds on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _fp_text(value):
    """``value``'s fingerprint text: ``_ENCODER.encode(_canonical(value))``.

    A frozen spec component (a hierarchy, cache, latency, TLB, plug-in
    or trace spec) joins its fields' texts in key order and keeps the
    result on itself, as a :class:`SimSpec` keeps its digest, so the
    specs that share it serialize it once.  A component that holds an
    unhashable (mutable) value keeps nothing.  The text is the
    object's own, never an equal one's: ``LatencySpec(jitter=0)`` and
    ``LatencySpec(jitter=False)`` are equal but serialize as ``0`` and
    ``false``.
    """
    keys = _COMPONENT_KEYS.get(type(value))
    if keys is None:
        if value is None:
            return "null"
        if type(value) is int:
            return int.__repr__(value)
        return _ENCODER.encode(_canonical(value))
    text = value.__dict__.get("_fingerprint_text")
    if text is None:
        text = "{" + ",".join([
            piece if name is None
            else piece + _fp_text(getattr(value, name))
            for piece, name in keys]) + "}"
        try:
            hash(value)
        except TypeError:       # holds a mutable value: keep nothing
            return text
        object.__setattr__(value, "_fingerprint_text", text)
    return text


#: Every :class:`CPUConfig` field but ``plugin_options``, in one call.
_config_scalars = operator.attrgetter(*(
    f.name for f in dataclasses.fields(CPUConfig)
    if f.name != "plugin_options"))

#: Field types whose values serialize alike whenever they are equal
#: *and* of one type (``0 == False`` but they serialize as ``0`` and
#: ``false``; floats are left out, where ``0.0 == -0.0``).
_KEYED_TYPES = frozenset((int, bool, str, type(None)))

#: :func:`_config_text` memo: ``(field types, field values)`` -> text.
_CONFIG_TEXTS = {}


def _config_text(config):
    """A spec's config text for the fingerprint (``None``: the default).

    :class:`CPUConfig` is mutable and unhashable, so it cannot keep its
    text on itself like a frozen component.  Its text is memoized under
    a key made of every field's type and value, and only when every
    field is an ``int``, ``bool``, ``str`` or ``None`` and
    ``plugin_options`` is empty; any other config is serialized every
    time.
    """
    if config is None:
        return _DEFAULT_CONFIG_TEXT
    if type(config) is not CPUConfig \
            or type(config.plugin_options) is not dict \
            or config.plugin_options:
        return _fp_text(config)
    values = _config_scalars(config)
    types = tuple(map(type, values))
    if not _KEYED_TYPES.issuperset(types):
        return _fp_text(config)
    key = (types, values)
    text = _CONFIG_TEXTS.get(key)
    if text is None:
        text = _CONFIG_TEXTS[key] = _fp_text(config)
    return text


#: Exact types :func:`_canonical` returns unchanged (subclasses such as
#: ``IntEnum`` members take the general path below).
_SCALAR_TYPES = frozenset((type(None), bool, int, float, str))

#: Public field names per dataclass type, looked up once per process.
_FIELD_NAMES = {}


def _canonical(obj):
    """Canonical JSON-able form for fingerprinting nested specs.

    Scalars and plain tuples and lists, which make up nearly every spec
    field, are answered first.
    """
    cls = type(obj)
    if cls in _SCALAR_TYPES:
        return obj
    if cls is tuple or cls is list:
        return [item if type(item) in _SCALAR_TYPES else _canonical(item)
                for item in obj]
    names = _FIELD_NAMES.get(cls)
    if names is None and dataclasses.is_dataclass(cls):
        names = _FIELD_NAMES[cls] = tuple(
            f.name for f in dataclasses.fields(cls)
            if not f.name.startswith("_"))
    if names is not None:
        fields = {name: _canonical(getattr(obj, name)) for name in names}
        return {"__type__": cls.__name__, **fields}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, (bytes, bytearray)):
        return bytes(obj).hex()
    if isinstance(obj, (int, float, str)):
        return obj
    raise SpecError(f"cannot fingerprint {type(obj).__name__}: {obj!r}")


def _component_keys(cls):
    """The ``(piece, field)`` pairs :func:`_fp_text` joins for ``cls``.

    They come in the key order ``sort_keys`` gives :func:`_canonical`'s
    dict of ``cls``.  The ``"__type__"`` piece is whole (its field is
    None); each other piece is a field's ``"name":`` prefix.
    """
    names = [f.name for f in dataclasses.fields(cls)
             if not f.name.startswith("_")]
    return tuple(
        (_ENCODER.encode("__type__") + ":" + _ENCODER.encode(cls.__name__),
         None) if key == "__type__" else (_ENCODER.encode(key) + ":", key)
        for key in sorted(names + ["__type__"]))


#: The frozen spec components that keep their fingerprint text.
_COMPONENT_KEYS = {
    cls: _component_keys(cls)
    for cls in (CacheSpec, TLBSpec, LatencySpec, HierarchySpec,
                PluginSpec, TraceSpec)}

#: The text of ``CPUConfig()``, which every spec that leaves ``config``
#: at None fingerprints as.
_DEFAULT_CONFIG_TEXT = _fp_text(CPUConfig())


def _spec_types():
    from repro.pipeline.config import CPUConfig
    return {cls.__name__: cls
            for cls in (CacheSpec, TLBSpec, LatencySpec, HierarchySpec,
                        PluginSpec, TraceSpec, TaintSpec, CPUConfig)}


def _from_canonical(obj):
    """Inverse of :func:`_canonical`.

    Collapsed representations come back in the spec's native shape:
    lists become tuples (every sequence field on a spec is a tuple) and
    ``__type__``-tagged dicts become the named spec dataclass.  Enum
    fields stay as their values — the spec classes accept those
    wherever they accept the enum.
    """
    if isinstance(obj, dict):
        if "__type__" in obj:
            cls = _spec_types().get(obj["__type__"])
            if cls is None:
                raise SpecError(
                    f"unknown spec type {obj['__type__']!r}")
            return cls(**{name: _from_canonical(value)
                          for name, value in obj.items()
                          if name != "__type__"})
        return {key: _from_canonical(value)
                for key, value in obj.items()}
    if isinstance(obj, list):
        return tuple(_from_canonical(item) for item in obj)
    return obj
