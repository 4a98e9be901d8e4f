"""Content-addressed compiled-model cache: compile once, run many.

The process-isolated executor re-runs a job's ``make_sim`` factory on
every forked attempt, the differential runner compiles the same circuit
once per voting leg, and a resumed campaign recompiles everything it
already compiled yesterday.  For the compiled backends that redundant
work — lowering, model extraction, code generation — dominates campaign
wall clock on small designs.  This module removes it:

* **key** — a stable SHA-256 over the printed circuit IR (plus the
  flattening pass's canonical cover paths), the backend name, the
  :data:`~repro.backends.pycodegen.CODEGEN_VERSION`, and every
  compile-affecting option (value probes, JIT mode, lane count,
  compiler identity).
  Identical instrumented circuits hash identically regardless of which
  process or host built them; *any* change to the codegen contract is a
  version bump that invalidates every entry at once.
* **value** — the generated source plus the pickled
  :class:`~repro.backends.model.CircuitModel`, persisted on disk with
  the same atomic write-then-rename discipline as checkpoint shards,
  fronted by an in-process LRU.  A Python source also persists as
  ``marshal`` bytecode, stamped with the interpreter's bytecode magic
  number and a SHA-256 of the bytes: a load uses it only when both
  match, and compiles the stored source otherwise.  Transient
  per-process artifacts (the schedule, the ``exec``'d module class, a
  loaded ``.so``) are memoized on the in-memory entry only — they are
  never pickled.
* **manifest** — what a campaign derives from its spec before it
  compiles (cover names, driven inputs, reconstruction recipes, the
  circuit fingerprint), stored beside the models under a key the
  campaign computes (:class:`~repro.runtime.service.PreparedCampaign`),
  so a warm campaign parses and instruments nothing.  A
  :class:`LazyCircuit` carries that fingerprint to the backends, which
  key their compile on it and materialize the tree only on a miss.
* **fork-safety** — the in-process LRU is populated *before* the
  executor forks its workers, so every child inherits warm entries via
  copy-on-write and compiles nothing; the disk tier covers fresh
  processes (a second CLI invocation, a resumed campaign).  Cache files
  are only ever replaced atomically, so concurrent readers see either
  the old entry or the new one, never a torn write.

A corrupted or truncated cache file is treated as a miss: the model is
recompiled (or the manifest re-derived) and the file silently
overwritten — the cache can only ever cost a recompile, never a crash or
a wrong simulation.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import marshal
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from types import CodeType
from typing import Any, Callable, Optional

from ..ir.nodes import Circuit
from ..ir.printer import print_circuit
from ..runtime.telemetry import obs
from .model import build_model
from .pycodegen import CODEGEN_VERSION
from .schedule import Schedule

#: cache file format version (the *container*, not the generated code)
CACHE_FORMAT_VERSION = 2

CACHE_SUFFIX = ".model.pkl"
MANIFEST_SUFFIX = ".manifest.json"


class LazyCircuit:
    """A circuit known by its fingerprint; the tree is built on demand.

    ``load`` returns the :class:`~repro.ir.nodes.Circuit` (or
    :class:`~repro.passes.CompileState`) the fingerprint describes.  A
    compile keys on ``fingerprint`` alone, so a cache hit never calls
    ``load``; a miss calls it once, and every later miss shares the tree.
    With no fingerprint given, it is computed from the tree.
    """

    def __init__(self, load: Callable[[], Any],
                 fingerprint: Optional[str] = None) -> None:
        self._load = load
        self._fingerprint = fingerprint
        self._tree = None
        self._lock = threading.Lock()

    def tree(self):
        """The circuit, loaded on first use (thread-safe, at most once)."""
        with self._lock:
            if self._tree is None:
                self._tree = self._load()
            return self._tree

    @property
    def fingerprint(self) -> str:
        """The circuit's :func:`circuit_fingerprint`, given or computed once."""
        if self._fingerprint is None:
            self._fingerprint = circuit_fingerprint(self.tree())
        return self._fingerprint


def materialize(circuit_or_state):
    """The circuit or state itself, loading a :class:`LazyCircuit`'s tree."""
    if isinstance(circuit_or_state, LazyCircuit):
        return circuit_or_state.tree()
    return circuit_or_state


def circuit_fingerprint(circuit_or_state) -> str:
    """A stable hex digest of a circuit (or CompileState) identity.

    Hashes the printed IR — the printer is deterministic and
    round-trippable, so structurally identical circuits fingerprint
    identically across processes — plus the canonical cover-path map a
    :class:`~repro.passes.CompileState` may carry (two states with the
    same flat circuit but different hierarchical cover names must not
    share compiled cover tables).
    """
    if isinstance(circuit_or_state, LazyCircuit):
        return circuit_or_state.fingerprint
    hasher = hashlib.sha256()
    circuit = getattr(circuit_or_state, "circuit", circuit_or_state)
    if not isinstance(circuit, Circuit):
        raise TypeError(f"cannot fingerprint {circuit_or_state!r}")
    hasher.update(print_circuit(circuit).encode())
    cover_paths = getattr(circuit_or_state, "cover_paths", None)
    if cover_paths:
        for local, canonical in sorted(cover_paths.items()):
            hasher.update(f"\x00{local}\x01{canonical}".encode())
    return hasher.hexdigest()


def cache_key(
    circuit_or_state,
    backend: str,
    counter_width: Optional[int] = None,
    options: tuple = (),
) -> str:
    """The full content-addressed cache key for one compile request.

    ``options`` carries any further compile-affecting knobs (value-probe
    tuples, JIT mode, ...) — anything that changes the generated source
    must be in the key or two different compiles would collide.

    The cover-minimizer version is part of the key: a minimized circuit
    already fingerprints differently from the full one, but two *tool*
    versions may derive different bases for the same circuit text, and a
    stale cached model would then report the wrong counter set.
    """
    from ..analysis.implication import MINIMIZER_VERSION

    tail = (
        f"{backend}|cg{CODEGEN_VERSION}|mv{MINIMIZER_VERSION}"
        f"|cw{counter_width}|{options!r}"
    )
    hasher = hashlib.sha256()
    hasher.update(circuit_fingerprint(circuit_or_state).encode())
    hasher.update(tail.encode())
    return hasher.hexdigest()


@dataclass
class CacheEntry:
    """One compiled model: persisted payload + per-process memoization.

    ``model``, ``source`` and ``bytecode`` survive pickling to disk;
    ``runtime`` is a per-process memo dict (schedule, code object,
    exec'd classes, loaded ``.so``) that is deliberately dropped on
    serialization.  A code object itself does not pickle, and its
    ``marshal`` form is readable only by the interpreter version that
    wrote it, so ``bytecode`` is stamped with that version's magic number
    (see :meth:`code`).
    """

    key: str
    backend: str
    model: Any  # CircuitModel
    source: Optional[str] = None
    codegen_version: int = CODEGEN_VERSION
    #: (bytecode magic number, sha256 hex, marshal bytes) of ``source``
    bytecode: Optional[tuple] = None
    runtime: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def filename(self) -> str:
        """The file name the generated Python source compiles under."""
        return f"<generated {self.backend} {self.model.name}>"

    def compile_source(self) -> None:
        """Compile the Python source once; keep the code and its bytecode."""
        code = compile(self.source, self.filename, "exec")
        data = marshal.dumps(code)
        self.bytecode = (importlib.util.MAGIC_NUMBER, hashlib.sha256(data).hexdigest(), data)
        self.runtime["code"] = code

    def code(self) -> CodeType:
        """The code object of the Python source, made once per process.

        Unmarshals ``bytecode`` only when its magic number is this
        interpreter's and its digest matches — ``marshal`` is not safe
        against corrupted data — and compiles ``source`` otherwise, so a
        damaged or foreign entry costs a compile, never a crash.
        """
        code = self.runtime.get("code")
        if code is None:
            code = _load_bytecode(self.bytecode)
            if code is None:
                code = compile(self.source, self.filename, "exec")
            self.runtime["code"] = code
        return code

    def payload(self) -> dict:
        """The picklable on-disk form (runtime objects excluded)."""
        return {
            "format": CACHE_FORMAT_VERSION,
            "codegen_version": self.codegen_version,
            "key": self.key,
            "backend": self.backend,
            "source": self.source,
            "bytecode": self.bytecode,
            "model": self.model,
        }


def _load_bytecode(bytecode) -> Optional[CodeType]:
    """The code object in verified ``bytecode``, or None."""
    try:
        magic, digest, data = bytecode
    except (TypeError, ValueError):
        return None
    if (magic != importlib.util.MAGIC_NUMBER or not isinstance(data, bytes)
            or hashlib.sha256(data).hexdigest() != digest):
        return None
    try:
        code = marshal.loads(data)
    except (EOFError, TypeError, ValueError):
        return None
    return code if isinstance(code, CodeType) else None


class _Flight:
    """One build in progress: later askers wait on ``done``, share ``entry``."""

    __slots__ = ("done", "entry")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.entry: Optional[CacheEntry] = None


class ModelCache:
    """A two-tier (memory LRU + optional disk) compiled-model cache.

    ``directory=None`` gives a memory-only cache (still useful: forked
    workers inherit it).  ``max_entries`` bounds the in-process tier —
    evicted entries remain on disk.  All operations are thread-safe; the
    instance-level ``hits``/``misses`` counters back direct assertions
    while the ``repro_model_cache_{hits,misses}_total`` metrics feed
    campaign telemetry (and are forwarded from forked workers).
    """

    def __init__(self, directory=None, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._lru: OrderedDict[str, CacheEntry] = OrderedDict()
        self._flights: dict[str, _Flight] = {}
        self._lock = threading.RLock()

    # -- lookup ----------------------------------------------------------------

    def get_or_build(
        self, key: str, backend: str, build: Callable[[], CacheEntry]
    ) -> CacheEntry:
        """The entry for ``key``, compiling via ``build()`` on a miss.

        Hit order: in-process LRU, then disk.  A disk entry whose format
        or codegen version (or recorded key/backend) does not match is a
        miss and gets overwritten by the fresh compile.  The shared lock
        guards only the LRU: the disk read, ``build()`` and the disk
        write run outside it, single-flight per key — a second asker of
        a key being built waits for that build, askers of other keys do
        not wait at all.
        """
        started = time.perf_counter()
        while True:
            with self._lock:
                entry = self._lru.get(key)
                if entry is not None:
                    self._lru.move_to_end(key)
                    self._record_hit(backend, started)
                    return entry
                flight = self._flights.get(key)
                if flight is None:
                    flight = self._flights[key] = _Flight()
                    break
            flight.done.wait()
            if flight.entry is not None:
                with self._lock:
                    self._record_hit(backend, started)
                return flight.entry
            # the build this asker waited on raised: try it again
        try:
            entry = self._load_disk(key, backend)
            if entry is not None:
                with self._lock:
                    self._remember(entry)
                    self._record_hit(backend, started)
            else:
                with self._lock:
                    self.misses += 1
                if obs.enabled:
                    obs.inc("repro_model_cache_misses_total", backend=backend)
                entry = build()
                entry.key = key
                entry.backend = backend
                with self._lock:
                    self._remember(entry)
                self._store_disk(entry)
            flight.entry = entry
            return entry
        finally:
            with self._lock:
                del self._flights[key]
            flight.done.set()

    def contains(self, key: str) -> bool:
        """Whether ``key`` is resident in memory or readable from disk."""
        with self._lock:
            if key in self._lru:
                return True
        return self._load_disk(key, backend=None) is not None

    def clear_memory(self) -> None:
        """Drop the in-process tier (disk entries survive).

        Lets tests measure the warm-from-disk path explicitly.
        """
        with self._lock:
            self._lru.clear()

    def entry_path(self, key: str) -> Optional[Path]:
        """Where ``key`` persists on disk (None for memory-only caches)."""
        return self._path(key, CACHE_SUFFIX)

    def load_manifest(self, key: str) -> Optional[dict]:
        """The manifest stored under ``key``, or None.

        None without a disk tier, for an absent file, and for one that is
        truncated, garbage, fails its digest or names another key — every
        bad manifest is a miss.  Manifests have no memory tier: each
        lookup reads the disk, as a fresh process would.
        """
        path = self._path(key, MANIFEST_SUFFIX)
        if path is None:
            return None
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        digest, _, body = raw.partition(b"\n")
        if hashlib.sha256(body).hexdigest().encode() != digest:
            return None
        try:
            value = json.loads(body)
        except ValueError:
            return None
        if not isinstance(value, dict) or value.get("key") != key:
            return None
        return value

    def store_manifest(self, key: str, value: dict) -> None:
        """Persist ``value`` (JSON) as the manifest ``key``; no-op in memory."""
        path = self._path(key, MANIFEST_SUFFIX)
        if path is None:
            return
        body = json.dumps({**value, "key": key}, separators=(",", ":")).encode()
        _write_atomic(path, hashlib.sha256(body).hexdigest().encode() + b"\n" + body)

    # -- internals -------------------------------------------------------------

    def _record_hit(self, backend: str, started: float) -> None:
        self.hits += 1
        if obs.enabled:
            obs.inc("repro_model_cache_hits_total", backend=backend)
            # The span a compile would have occupied, shrunk to the
            # cache-lookup time — makes skipped compiles visible (and
            # countable) on the trace timeline.
            obs.tracer.record(
                "compile-skipped", "compile", started, time.perf_counter(),
                backend=backend,
            )

    def _remember(self, entry: CacheEntry) -> None:
        self._lru[entry.key] = entry
        self._lru.move_to_end(entry.key)
        while len(self._lru) > self.max_entries:
            self._lru.popitem(last=False)

    def _load_disk(self, key: str, backend: Optional[str]) -> Optional[CacheEntry]:
        path = self.entry_path(key)
        if path is None or not path.exists():
            return None
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except Exception:
            # Truncated, garbage, or unpicklable: a miss, never a crash.
            # The fresh compile overwrites the bad file atomically.
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("format") != CACHE_FORMAT_VERSION:
            return None
        if payload.get("codegen_version") != CODEGEN_VERSION:
            return None  # stale generated-code contract: recompile
        if payload.get("key") != key:
            return None  # renamed/copied file: content no longer addressed
        if backend is not None and payload.get("backend") != backend:
            return None
        return CacheEntry(
            key=payload["key"],
            backend=payload["backend"],
            model=payload["model"],
            source=payload.get("source"),
            codegen_version=payload["codegen_version"],
            bytecode=payload.get("bytecode"),
        )

    def _store_disk(self, entry: CacheEntry) -> None:
        path = self.entry_path(entry.key)
        if path is not None:
            _write_atomic(
                path, pickle.dumps(entry.payload(), protocol=pickle.HIGHEST_PROTOCOL)
            )

    def _path(self, key: str, suffix: str) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / f"{key}{suffix}"


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temporary file and a rename."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# -- process-wide default cache -------------------------------------------------

_default_cache: Optional[ModelCache] = None


def set_default_cache(cache: Optional[ModelCache]) -> Optional[ModelCache]:
    """Install (or clear, with None) the process-wide default cache.

    Backends constructed without an explicit ``cache=`` consult this, so
    one CLI flag (``--model-cache-dir``) turns on caching for every
    backend a campaign builds — including the copies forked workers
    inherit.  Returns the previous default so callers can restore it.
    """
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous


def default_cache() -> Optional[ModelCache]:
    """The process-wide default cache, or None when caching is off."""
    return _default_cache


def resolve_cache(explicit: Optional[ModelCache]) -> Optional[ModelCache]:
    """The cache a backend should use: explicit wins, else the default."""
    return explicit if explicit is not None else _default_cache


def compile_cached(
    circuit_or_state,
    backend: str,
    build: Callable[[], CacheEntry],
    cache: Optional[ModelCache] = None,
    options: tuple = (),
) -> CacheEntry:
    """The one compile-request path every software backend shares.

    Resolves the effective cache (explicit, else the process default);
    with no cache configured this is exactly a fresh ``build()`` — the
    pre-cache behavior, entry-shaped.

    The cache key is content-addressed over the printed circuit,
    ``backend`` name and ``options`` — backends put every input that
    changes their generated artifact into ``options`` (the c backend
    includes ``cc --version``, so a compiler upgrade misses instead of
    loading a stale ``.so``).  The counter width is never one of them:
    every backend clamps at read time.
    ``build`` runs at most once per key per process (concurrent askers
    of one key wait for the first one's build); concurrent processes may
    race to build the same key, which is safe because entries are
    written atomically and are bit-identical by construction.  Raises
    whatever ``build()`` raises on a miss; never raises on a hit.
    """
    effective = resolve_cache(cache)
    if effective is None:
        return build()
    key = cache_key(circuit_or_state, backend, options=options)
    return effective.get_or_build(key, backend, build)


def compile_schedule(
    circuit_or_state,
    backend: str,
    render: Optional[Callable] = None,
    cache: Optional[ModelCache] = None,
    options: tuple = (),
    bytecode: bool = False,
) -> CacheEntry:
    """Lower, build the model and render it, through :func:`compile_cached`.

    The compile path of every code-generating backend.  ``render`` maps
    the :class:`~repro.backends.model.CircuitModel` to the generated
    source (None for the interpreter, which needs only the model);
    ``options`` carries everything else that changes that source.  With
    ``bytecode`` the source is Python, compiled once on a miss and
    persisted as bytecode (:meth:`CacheEntry.code`).  A
    :class:`LazyCircuit` is materialized only on a miss.  The returned
    entry holds the process's :class:`~repro.backends.schedule.Schedule`
    in ``entry.runtime["schedule"]``, built once per entry and shared by
    every simulation of it.  Raises whatever lowering or ``render``
    raises on a miss.
    """

    def build() -> CacheEntry:
        with obs.span("compile", cat="compile", backend=backend):
            model = build_model(materialize(circuit_or_state))
            source = render(model) if render is not None else None
            entry = CacheEntry(key="", backend=backend, model=model, source=source)
            if bytecode:
                entry.compile_source()
        return entry

    entry = compile_cached(circuit_or_state, backend, build, cache=cache, options=options)
    if "schedule" not in entry.runtime:
        entry.runtime["schedule"] = Schedule(entry.model)
    return entry
