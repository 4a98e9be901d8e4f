"""Common coverage library: metadata database, counts, merging, filtering.

This is the "Common Library" row of the paper's Table 1.  The two data
structures that cross the compiler/simulator boundary are:

* :class:`CoverageDB` — metadata emitted by instrumentation passes, keyed by
  ``(metric, module, cover_name)``.  Pure compile-time information.
* cover counts — ``dict[str, int]`` from canonical hierarchical cover names
  (``inst.path.name``) to saturating counts.  Pure run-time information.

Because counts share one namespace across every backend, merging results
from different simulators (§5.3) is dictionary addition with saturation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..ir.nodes import Circuit, Cover, DefInstance
from ..ir.traversal import walk_stmts
from ..backends.api import CoverCounts, saturate

#: CoverageDB serialization format version this library reads and writes
COVERAGE_DB_VERSION = 1


class CoverageDBError(ValueError):
    """A coverage database file is malformed or from an unknown version."""


class InvalidCountsError(ValueError):
    """Cover counts contain values that cannot be merged (see the issues)."""

    def __init__(self, message: str, issues: Optional[list[str]] = None) -> None:
        super().__init__(message)
        self.issues = issues or []


@dataclass
class CoverageDB:
    """Metadata produced by instrumentation passes.

    ``entries[metric][module][cover_name]`` is a JSON-compatible payload
    whose schema is metric specific (see each pass module).

    ``exclusions`` maps *canonical* hierarchical cover keys
    (``inst.path.name``) to a human-readable reason the point is excluded
    from coverage denominators — typically a static unreachability proof
    from :mod:`repro.analysis.reachability`.  Canonical (not module-level)
    keys matter: a module instantiated twice can be dead in one instance
    and live in the other (the paper's read-only-I$ finding, §5.5).

    ``recipes`` is the minimal-basis reconstruction table written by
    :class:`~repro.analysis.implication.MinimizeCoversPass`:
    ``recipes[module][elided_cover]`` is a list of signed
    ``[coefficient, basis_cover]`` terms (module-local names) whose
    clamped sum reproduces the elided cover's count at every instance
    path.  An empty list marks a statically dead cover (reconstructs as
    0).  See :meth:`reconstruct_counts` and DESIGN.md §15.
    """

    entries: dict[str, dict[str, dict[str, Any]]] = field(default_factory=dict)
    exclusions: dict[str, str] = field(default_factory=dict)
    recipes: dict[str, dict[str, list]] = field(default_factory=dict)

    def add(self, metric: str, module: str, cover_name: str, payload: Any) -> None:
        self.entries.setdefault(metric, {}).setdefault(module, {})[cover_name] = payload

    def add_recipe(self, module: str, cover_name: str, terms: Iterable) -> None:
        """Record how an elided cover is reconstructed from basis counts."""
        self.recipes.setdefault(module, {})[cover_name] = [
            [int(coefficient), str(basis)] for coefficient, basis in terms
        ]

    def reconstruct_counts(
        self,
        counts: CoverCounts,
        tree: "InstanceTree",
        counter_width: Optional[int] = None,
    ) -> CoverCounts:
        """Fill in elided covers from basis counts via the recipe table.

        For every instance path of every module with recipes, the elided
        cover's canonical key gets the recipe's term sum, clamped at the
        ``counter_width`` saturation limit when one is given (which makes
        reconstruction bit-identical to a materialized saturating
        counter — see the soundness note in
        :mod:`repro.analysis.implication`).  Keys already present in
        ``counts`` are kept untouched, so merging full and minimized
        shards stays safe and repeated reconstruction is idempotent.
        A no-op (returning a copy) when the DB carries no recipes.
        """
        return apply_recipes(counts, self.expand_recipes(tree), counter_width)

    def expand_recipes(self, tree: "InstanceTree") -> list:
        """The recipe table resolved against ``tree``: canonical keys.

        One ``[key, [[coefficient, basis_key], ...]]`` per elided cover
        per instance path, in reconstruction order — plain JSON, so a
        campaign manifest stores it and :func:`apply_recipes` needs no
        circuit.
        """
        return [
            [f"{path}{name}",
             [[coefficient, f"{path}{basis}"] for coefficient, basis in terms]]
            for module, module_recipes in self.recipes.items()
            for path in tree.instance_paths(module)
            for name, terms in module_recipes.items()
        ]

    def exclude(self, cover_key: str, reason: str) -> None:
        """Mark a canonical cover key as excluded from denominators."""
        self.exclusions[cover_key] = reason

    def is_excluded(self, cover_key: str) -> bool:
        return cover_key in self.exclusions

    def get(self, metric: str, module: str) -> dict[str, Any]:
        return self.entries.get(metric, {}).get(module, {})

    def metrics(self) -> list[str]:
        return sorted(self.entries)

    def covers_of(self, metric: str) -> Iterable[tuple[str, str, Any]]:
        """Yield (module, cover_name, payload) for one metric."""
        for module, covers in self.entries.get(metric, {}).items():
            for name, payload in covers.items():
                yield module, name, payload

    def count(self, metric: str) -> int:
        """Number of cover statements a metric declared (module level)."""
        return sum(len(covers) for covers in self.entries.get(metric, {}).values())

    def merge(self, other: "CoverageDB") -> "CoverageDB":
        """Union of two databases.

        The same ``(metric, module, cover_name)`` key may appear in both
        sides only with an *identical* payload (e.g. two instrumentation
        runs over the same module).  Differing payloads mean the databases
        describe different circuits — silently keeping either side would
        mis-locate every report line for that cover, so the collision
        raises :class:`CoverageDBError` naming the key instead.
        """
        merged = CoverageDB(
            json.loads(json.dumps(self.entries)),
            dict(self.exclusions),
            json.loads(json.dumps(self.recipes)),
        )
        for metric, modules in other.entries.items():
            for module, covers in modules.items():
                existing = merged.entries.get(metric, {}).get(module, {})
                for name, payload in covers.items():
                    if name in existing and existing[name] != payload:
                        raise CoverageDBError(
                            f"conflicting payloads for "
                            f"({metric!r}, {module!r}, {name!r}) in merge: "
                            f"{existing[name]!r} != {payload!r}"
                        )
                    merged.add(metric, module, name, payload)
        # exclusion proofs union; when both sides excluded the same key the
        # first reason wins (both agree the point is out of the denominator)
        for key, reason in other.exclusions.items():
            merged.exclusions.setdefault(key, reason)
        # recipes describe the same static structure, so — like entries —
        # a shared key must carry an identical recipe on both sides
        for module, module_recipes in other.recipes.items():
            existing_recipes = merged.recipes.get(module, {})
            for name, terms in module_recipes.items():
                if name in existing_recipes and existing_recipes[name] != terms:
                    raise CoverageDBError(
                        f"conflicting recipes for ({module!r}, {name!r}) "
                        f"in merge: {existing_recipes[name]!r} != {terms!r}"
                    )
                merged.recipes.setdefault(module, {})[name] = json.loads(
                    json.dumps(terms)
                )
        return merged

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        payload: dict[str, Any] = {
            "version": COVERAGE_DB_VERSION,
            "entries": self.entries,
        }
        if self.exclusions:
            payload["exclusions"] = self.exclusions
        if self.recipes:
            payload["recipes"] = self.recipes
        return json.dumps(payload, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str, source: Optional[str] = None) -> "CoverageDB":
        """Deserialize, validating the version and the entries shape.

        ``source`` (a file name) is included in error messages so a bad
        shard or DB file can be identified in a multi-file campaign.
        """
        where = f" in {source}" if source else ""

        def fail(detail: str) -> "CoverageDBError":
            return CoverageDBError(f"bad coverage DB{where}: {detail}")

        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise fail(f"not valid JSON ({error})") from error
        if not isinstance(data, dict):
            raise fail(f"expected a JSON object, got {type(data).__name__}")
        version = data.get("version")
        if version is None:
            raise fail("missing 'version' field")
        if version != COVERAGE_DB_VERSION:
            raise fail(
                f"unsupported version {version!r} "
                f"(this library reads version {COVERAGE_DB_VERSION})"
            )
        entries = data.get("entries")
        if not isinstance(entries, dict):
            raise fail(
                "missing or non-object 'entries' field "
                f"(got {type(entries).__name__})"
            )
        for metric, modules in entries.items():
            if not isinstance(modules, dict):
                raise fail(f"metric {metric!r}: expected an object of modules")
            for module, covers in modules.items():
                if not isinstance(covers, dict):
                    raise fail(
                        f"metric {metric!r}, module {module!r}: "
                        "expected an object of cover payloads"
                    )
        exclusions = data.get("exclusions", {})
        if not isinstance(exclusions, dict):
            raise fail(
                f"non-object 'exclusions' field (got {type(exclusions).__name__})"
            )
        for key, reason in exclusions.items():
            if not isinstance(reason, str):
                raise fail(f"exclusion {key!r}: reason must be a string")
        recipes = data.get("recipes", {})
        if not isinstance(recipes, dict):
            raise fail(f"non-object 'recipes' field (got {type(recipes).__name__})")
        for module, module_recipes in recipes.items():
            if not isinstance(module_recipes, dict):
                raise fail(f"recipes for module {module!r}: expected an object")
            for name, terms in module_recipes.items():
                if not isinstance(terms, list) or not all(
                    isinstance(t, list)
                    and len(t) == 2
                    and type(t[0]) is int
                    and isinstance(t[1], str)
                    for t in terms
                ):
                    raise fail(
                        f"recipe ({module!r}, {name!r}): expected a list of "
                        "[coefficient, basis-cover] pairs"
                    )
        return CoverageDB(entries, exclusions, recipes)


class InstanceTree:
    """The circuit's instance hierarchy, for resolving canonical cover keys."""

    def __init__(self, circuit: Circuit) -> None:
        self.main = circuit.main
        self.children: dict[str, dict[str, str]] = {}
        for module in circuit.modules:
            table: dict[str, str] = {}
            for stmt in walk_stmts(module.body):
                if isinstance(stmt, DefInstance):
                    table[stmt.name] = stmt.module
            self.children[module.name] = table

    def resolve(self, key: str) -> tuple[str, str]:
        """Map a canonical cover key to ``(module, local_cover_name)``."""
        parts = key.split(".")
        module = self.main
        for part in parts[:-1]:
            module = self.children[module][part]
        return module, parts[-1]

    def instance_paths(self, module: str) -> list[str]:
        """All dotted instance paths at which ``module`` appears."""
        out: list[str] = []

        def walk(current: str, path: str) -> None:
            if current == module:
                out.append(path)
            for inst, child in self.children.get(current, {}).items():
                walk(child, f"{path}{inst}." if path else f"{inst}.")

        walk(self.main, "")
        return out


def apply_recipes(
    counts: CoverCounts, recipes: list, counter_width: Optional[int] = None
) -> CoverCounts:
    """``counts`` plus every elided cover of :meth:`CoverageDB.expand_recipes`.

    Each recipe's key that ``counts`` lacks gets its term sum over the
    counts so far, clamped to ``[0, 2**counter_width - 1]`` when a width
    is given; keys already present are kept untouched.
    """
    out: CoverCounts = dict(counts)
    limit = (1 << counter_width) - 1 if counter_width is not None else None
    for key, terms in recipes:
        if key in out:
            continue
        total = 0
        for coefficient, basis in terms:
            total += coefficient * out.get(basis, 0)
        if limit is not None:
            total = max(0, min(total, limit))
        out[key] = total
    return out


def merge_counts(*results: CoverCounts, counter_width: Optional[int] = None) -> CoverCounts:
    """Merge counts from any number of backends (saturating addition).

    This is the paper's headline property: "by construction, coverage can be
    trivially merged across backends".
    """
    merged: CoverCounts = {}
    for counts in results:
        for name, count in counts.items():
            merged[name] = merged.get(name, 0) + count
    if counter_width is not None:
        merged = {name: saturate(c, counter_width) for name, c in merged.items()}
    return merged


def count_issues(counts: CoverCounts, counter_width: Optional[int] = None) -> list[str]:
    """Describe every value in ``counts`` that cannot be merged as-is.

    Invalid values: non-``int`` counts (including ``bool``), negative
    counts, and — when ``counter_width`` is given — counts exceeding the
    saturation limit of that counter width (a backend can never report
    more than ``2**width - 1``, so a larger value is corrupt data).
    """
    issues: list[str] = []
    limit = (1 << counter_width) - 1 if counter_width is not None else None
    for name, count in counts.items():
        if type(count) is not int:
            issues.append(f"{name}: non-integer count {count!r}")
        elif count < 0:
            issues.append(f"{name}: negative count {count}")
        elif limit is not None and count > limit:
            issues.append(
                f"{name}: count {count} exceeds {counter_width}-bit "
                f"saturation limit {limit}"
            )
    return issues


def checked_merge_counts(
    *results: CoverCounts,
    counter_width: Optional[int] = None,
    on_invalid: str = "raise",
) -> CoverCounts:
    """:func:`merge_counts` with validation of every input map.

    ``on_invalid`` selects the policy for bad values:

    * ``"raise"`` — raise :class:`InvalidCountsError` listing every issue,
    * ``"clamp"`` — coerce into range (negatives to 0, oversized counts to
      the saturation limit); non-integer values are dropped,
    * ``"drop"`` — silently skip invalid entries.
    """
    if on_invalid not in ("raise", "clamp", "drop"):
        raise ValueError(f"on_invalid must be raise|clamp|drop, got {on_invalid!r}")
    if on_invalid == "raise":
        issues = [i for counts in results for i in count_issues(counts, counter_width)]
        if issues:
            raise InvalidCountsError(
                f"refusing to merge {len(issues)} invalid count(s): "
                + "; ".join(issues[:5])
                + ("; ..." if len(issues) > 5 else ""),
                issues,
            )
        return merge_counts(*results, counter_width=counter_width)
    limit = (1 << counter_width) - 1 if counter_width is not None else None
    cleaned: list[CoverCounts] = []
    for counts in results:
        good: CoverCounts = {}
        for name, count in counts.items():
            if type(count) is not int:
                continue  # unrepresentable either way
            if count < 0:
                if on_invalid == "clamp":
                    good[name] = 0
                continue
            if limit is not None and count > limit:
                if on_invalid == "clamp":
                    good[name] = limit
                continue
            good[name] = count
        cleaned.append(good)
    return merge_counts(*cleaned, counter_width=counter_width)


def apply_exclusions(counts: CoverCounts, db: CoverageDB) -> tuple[CoverCounts, dict[str, str]]:
    """Split counts into (countable, excluded-with-reason) by the DB's table.

    The first map is what reports should compute percentages over; the
    second is what they should *show* so an excluded point is visibly
    excluded rather than silently gone.  A nonzero count on an excluded
    key is kept in the excluded map (the reason string still explains why
    it is out of the denominator) — report generators may flag it, since a
    hit on a "statically unreachable" point means the proof and the
    hardware disagree.
    """
    countable: CoverCounts = {}
    excluded: dict[str, str] = {}
    for name, count in counts.items():
        if name in db.exclusions:
            excluded[name] = db.exclusions[name]
        else:
            countable[name] = count
    return countable, excluded


def covered_points(counts: CoverCounts, threshold: int = 1) -> set[str]:
    """Cover points hit at least ``threshold`` times."""
    return {name for name, count in counts.items() if count >= threshold}


def filter_covered(counts: CoverCounts, threshold: int = 1) -> set[str]:
    """Cover points NOT yet covered ``threshold`` times (§5.3 removal).

    These are the points that still need hardware counters in a subsequent
    FPGA-accelerated run; already-covered points can be excluded, reducing
    instrumentation area.
    """
    return {name for name, count in counts.items() if count < threshold}


def aggregate_by_module(counts: CoverCounts, tree: InstanceTree) -> dict[tuple[str, str], int]:
    """Sum counts over all instances of each module's cover statements."""
    out: dict[tuple[str, str], int] = {}
    for key, count in counts.items():
        module_cover = tree.resolve(key)
        out[module_cover] = out.get(module_cover, 0) + count
    return out


def excluded_module_covers(db: CoverageDB, tree: InstanceTree) -> set[tuple[str, str]]:
    """Module-level cover keys excluded at *every* instance path.

    Exclusions are canonical (per-instance) but report generators
    aggregate by module, so a ``(module, cover_name)`` pair leaves a
    report's denominator only when no instance of that module can reach
    it — a module dead in one instance and live in another (the
    read-only-I$ / writable-D$ pair) keeps its covers countable.
    """
    if not db.exclusions:
        return set()
    resolved: set[tuple[str, str]] = set()
    for key in db.exclusions:
        try:
            resolved.add(tree.resolve(key))
        except KeyError:
            continue  # stale key from another circuit revision
    out: set[tuple[str, str]] = set()
    for module, local in resolved:
        paths = tree.instance_paths(module)
        if paths and all(f"{p}{local}" in db.exclusions for p in paths):
            out.add((module, local))
    return out


def counts_to_json(counts: CoverCounts) -> str:
    return json.dumps(counts, indent=2, sort_keys=True)


def counts_from_json(text: str, source: Optional[str] = None) -> CoverCounts:
    """Deserialize a counts map, validating shape and values.

    Like :meth:`CoverageDB.from_json`, failures raise a *located* error
    (:class:`InvalidCountsError`, naming ``source`` when given) at load
    time — instead of handing malformed data onward to surface later as a
    ``TypeError`` deep inside a merge.
    """
    where = f" in {source}" if source else ""

    def fail(detail: str, issues: Optional[list[str]] = None) -> InvalidCountsError:
        return InvalidCountsError(f"bad cover counts{where}: {detail}", issues)

    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise fail(f"not valid JSON ({error})") from error
    if not isinstance(data, dict):
        raise fail(f"expected a JSON object of counts, got {type(data).__name__}")
    issues: list[str] = []
    for key, value in data.items():
        if not isinstance(key, str):
            issues.append(f"non-string cover name {key!r}")
        elif type(value) is not int:
            issues.append(f"{key}: non-integer count {value!r}")
        elif value < 0:
            issues.append(f"{key}: negative count {value}")
    if issues:
        raise fail(
            f"{len(issues)} invalid entr{'y' if len(issues) == 1 else 'ies'}: "
            + "; ".join(issues[:5])
            + ("; ..." if len(issues) > 5 else ""),
            issues,
        )
    return dict(data)


def all_cover_names(circuit: Circuit, tree: Optional[InstanceTree] = None) -> list[str]:
    """Every canonical cover key the circuit will report (all instances)."""
    tree = tree or InstanceTree(circuit)
    out: list[str] = []
    for module in circuit.modules:
        local = [s.name for s in walk_stmts(module.body) if isinstance(s, Cover)]
        if not local:
            continue
        for path in tree.instance_paths(module.name):
            out.extend(f"{path}{name}" for name in local)
    return sorted(out)
