"""Minimal-basis instrumentation: unit + differential tests (DESIGN.md §15).

The unit half pins the static machinery — atom decomposition, partition
and equivalence detection, basis selection, the reconstruction algebra
(including its saturation clamp), and the CoverageDB recipe plumbing.
The differential half is the acceptance criterion: on every bundled
design and every software backend, counts reconstructed from a
``--min-instrument`` run are bit-identical to full instrumentation.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.implication import (
    analyze_module_covers,
    cover_atoms,
    decompose,
    minimize_basis,
    minimize_circuit,
)
from repro.backends import BACKENDS, TreadleBackend
from repro.backends.api import input_widths
from repro.coverage import InstanceTree, all_cover_names, instrument
from repro.coverage.common import CoverageDB, CoverageDBError
from repro.ir.nodes import (
    FALSE,
    TRUE,
    Circuit,
    ClockType,
    Cover,
    Module,
    Port,
    Ref,
    UIntType,
    and_,
    not_,
)
from repro.runtime.differential import DifferentialRunner
from repro.runtime.executor import poked_blocks

# -- expression helpers -------------------------------------------------------

CLK = Ref("clock", ClockType())


def bit(name: str) -> Ref:
    return Ref(name, UIntType(1))


def cover(name: str, pred, en=TRUE) -> Cover:
    return Cover(name=name, clock=CLK, pred=pred, en=en)


def module_with(covers) -> Module:
    ports = [Port("clock", "input", ClockType())]
    return Module("M", ports=ports, body=list(covers))


# -- decomposition ------------------------------------------------------------


def test_decompose_flattens_conjunctions_and_peels_not():
    a, b, c = bit("a"), bit("b"), bit("c")
    atoms = decompose(and_(a, and_(b, not_(c))))
    assert atoms == frozenset({(True, a), (True, b), (False, c)})


def test_decompose_negated_conjunction_is_opaque():
    a, b = bit("a"), bit("b")
    conj = and_(a, b)
    assert decompose(not_(conj)) == frozenset({(False, conj)})


def test_decompose_constants():
    assert decompose(TRUE) == frozenset()
    assert decompose(FALSE) is None
    assert decompose(not_(bit("a")), polarity=False) == frozenset(
        {(True, bit("a"))}
    )


def test_cover_atoms_merges_pred_and_en():
    a, b = bit("a"), bit("b")
    assert cover_atoms(cover("x", a, en=b)) == frozenset(
        {(True, a), (True, b)}
    )


def test_cover_atoms_contradiction_is_dead():
    a = bit("a")
    assert cover_atoms(cover("x", and_(a, not_(a)))) is None
    assert cover_atoms(cover("y", a, en=FALSE)) is None


# -- graph construction -------------------------------------------------------


def _partition_module() -> Module:
    # the ExpandWhens shape: parent at the block head, one cover in each
    # arm of `when p` — the arms partition the parent exactly
    b, p = bit("b"), bit("p")
    return module_with(
        [
            cover("parent", b),
            cover("conseq", and_(b, p)),
            cover("alt", and_(b, not_(p))),
        ]
    )


def test_partition_detected():
    analysis = analyze_module_covers(_partition_module(), use_absint=False)
    assert analysis.partitions == {"parent": ("conseq", "alt")}
    assert not analysis.dead


def test_partition_with_multi_literal_guard():
    # nested whens: the pivot literal sits inside a larger conjunction
    b, p, q = bit("b"), bit("p"), bit("q")
    m = module_with(
        [
            cover("parent", and_(b, q)),
            cover("conseq", and_(and_(b, q), p)),
            cover("alt", and_(and_(b, q), not_(p))),
        ]
    )
    analysis = analyze_module_covers(m, use_absint=False)
    assert analysis.partitions == {"parent": ("conseq", "alt")}


def test_equivalence_and_guard_detected():
    a, p = bit("a"), bit("p")
    m = module_with(
        [
            cover("first", a),
            cover("twin", a),
            cover("nested", and_(a, p)),
        ]
    )
    analysis = analyze_module_covers(m, use_absint=False)
    assert ["first", "twin"] in analysis.equivalences
    assert analysis.guards.get("nested") in ("first", "twin")


def test_reachability_exclusions_enter_as_dead():
    analysis = analyze_module_covers(
        _partition_module(), dead_covers=["parent"], use_absint=False
    )
    assert "parent" in analysis.dead
    assert "parent" not in analysis.atoms
    assert not analysis.partitions  # the parent set no longer exists


# -- basis selection ----------------------------------------------------------


def test_minimize_elides_partition_parent():
    result = minimize_basis(
        analyze_module_covers(_partition_module(), use_absint=False)
    )
    assert result.basis == {"conseq", "alt"}
    assert set(result.recipes) == {"parent"}
    assert sorted(result.recipes["parent"]) == [(1, "alt"), (1, "conseq")]


def test_minimize_elides_duplicates_and_dead():
    a = bit("a")
    m = module_with(
        [cover("first", a), cover("twin", a), cover("never", FALSE)]
    )
    result = minimize_basis(analyze_module_covers(m, use_absint=False))
    assert result.basis == {"first"}
    assert result.recipes["twin"] == [(1, "first")]
    assert result.recipes["never"] == []  # dead: reconstructs as 0


def test_minimize_resolves_recipes_transitively():
    # two nested partitions: the grandparent's recipe must bottom out in
    # basis covers only, with coefficients composed through the parent
    b, p, q = bit("b"), bit("p"), bit("q")
    m = module_with(
        [
            cover("grand", b),
            cover("parent", and_(b, p)),
            cover("uncle", and_(b, not_(p))),
            cover("kid_c", and_(and_(b, p), q)),
            cover("kid_a", and_(and_(b, p), not_(q))),
        ]
    )
    result = minimize_basis(analyze_module_covers(m, use_absint=False))
    assert result.basis == {"uncle", "kid_c", "kid_a"}
    assert dict(
        (name, coefficient)
        for coefficient, name in result.recipes["grand"]
    ) == {"uncle": 1, "kid_c": 1, "kid_a": 1}


def test_guard_implication_never_shrinks_the_basis():
    # child <= parent is real, but a subtraction recipe is unsound under
    # saturation — both covers must stay materialized
    a, p = bit("a"), bit("p")
    m = module_with([cover("outer", a), cover("inner", and_(a, p))])
    result = minimize_basis(analyze_module_covers(m, use_absint=False))
    assert result.basis == {"outer", "inner"}
    assert not result.recipes


# -- reconstruction algebra ---------------------------------------------------


def _flat_circuit() -> Circuit:
    return Circuit("M", [module_with([])])


def _recipe_db() -> CoverageDB:
    db = CoverageDB()
    db.add_recipe("M", "parent", [(1, "conseq"), (1, "alt")])
    db.add_recipe("M", "never", [])
    return db


def test_reconstruct_counts_sums_basis():
    counts = _recipe_db().reconstruct_counts(
        {"conseq": 3, "alt": 4}, InstanceTree(_flat_circuit())
    )
    assert counts == {"conseq": 3, "alt": 4, "parent": 7, "never": 0}


def test_reconstruct_clamps_at_the_counter_limit():
    counts = _recipe_db().reconstruct_counts(
        {"conseq": 7, "alt": 5},
        InstanceTree(_flat_circuit()),
        counter_width=3,
    )
    assert counts["parent"] == 7  # min(7 + 5, 2**3 - 1)


def test_reconstruct_is_idempotent():
    # keys already present (a full-instrumentation run) are never touched
    full = {"conseq": 3, "alt": 4, "parent": 99, "never": 5}
    counts = _recipe_db().reconstruct_counts(
        full, InstanceTree(_flat_circuit())
    )
    assert counts == full


# -- CoverageDB plumbing ------------------------------------------------------


def test_recipes_survive_json_round_trip():
    db = _recipe_db()
    loaded = CoverageDB.from_json(db.to_json())
    assert loaded.recipes == db.recipes


def test_from_json_rejects_malformed_recipes():
    doc = json.loads(_recipe_db().to_json())
    doc["recipes"]["M"]["parent"] = [["1", "conseq"]]  # str coefficient
    with pytest.raises(CoverageDBError):
        CoverageDB.from_json(json.dumps(doc))


def test_merge_carries_recipes_and_rejects_conflicts():
    merged = _recipe_db().merge(CoverageDB())
    assert merged.recipes == _recipe_db().recipes
    other = CoverageDB()
    other.add_recipe("M", "parent", [(1, "elsewhere")])
    with pytest.raises(CoverageDBError):
        _recipe_db().merge(other)


# -- differential: bit-identity on every design and backend -------------------


def _bundled_circuits():
    from repro.cli import _bundled_designs

    return _bundled_designs()


def _drive(sim, circuit, cycles: int, seed: int) -> dict:
    rng = random.Random(seed)
    inputs = [
        p for p in circuit.top.inputs if p.name not in ("clock", "reset")
    ]
    widths = {p.name: getattr(p.type, "width", 1) or 1 for p in inputs}
    for _ in range(cycles):
        for p in inputs:
            sim.poke(p.name, rng.getrandbits(widths[p.name]))
        sim.step()
    return sim.cover_counts()


def _assert_bit_identical(circuit, cycles, seed, counter_width=None):
    full_state, _ = instrument(circuit, metrics=["line", "fsm"])
    min_state, min_db = instrument(
        circuit, metrics=["line", "fsm"], minimize=True
    )
    backend = TreadleBackend()
    full = _drive(
        backend.compile_state(full_state, counter_width=counter_width),
        full_state.circuit, cycles, seed,
    )
    mini = _drive(
        backend.compile_state(min_state, counter_width=counter_width),
        min_state.circuit, cycles, seed,
    )
    reconstructed = min_db.reconstruct_counts(
        mini, InstanceTree(min_state.circuit), counter_width=counter_width
    )
    assert reconstructed == full
    return len(full), len(mini)


@pytest.mark.parametrize("name", sorted(_bundled_circuits()))
def test_every_bundled_design_reconstructs_bit_identical(name):
    circuit = _bundled_circuits()[name]
    full_counters, min_counters = _assert_bit_identical(
        circuit, cycles=150, seed=11, counter_width=3
    )
    assert min_counters <= full_counters


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    cycles=st.integers(min_value=10, max_value=300),
)
def test_reconstruction_matches_under_random_campaigns(seed, cycles):
    circuit = _bundled_circuits()["SerialGcd"]
    _assert_bit_identical(circuit, cycles=cycles, seed=seed)


def test_every_registered_backend_votes_bit_identical():
    """The full BACKENDS registry agrees on reconstructed counts.

    Both treatments run through :class:`DifferentialRunner` — every
    backend is one voting leg — and the minimized run's quorum-merged
    counts, reconstructed, must equal the full run's quorum.
    """
    circuit = _bundled_circuits()["SerialGcd"]
    width, cycles, seed = 8, 400, 29
    full_state, _ = instrument(circuit, metrics=["line"])
    min_state, min_db = instrument(circuit, metrics=["line"], minimize=True)

    def run(state):
        rng = random.Random(seed)
        inputs = [
            p for p in state.circuit.top.inputs
            if p.name not in ("clock", "reset")
        ]
        widths = {p.name: getattr(p.type, "width", 1) or 1 for p in inputs}

        def stimulus(sim, cycle):
            for p in inputs:
                sim.poke(p.name, rng.getrandbits(widths[p.name]))

        def make_sim(backend_cls):
            def factory():
                rng.seed(seed)
                return backend_cls().compile(
                    state.circuit, counter_width=width
                )
            return factory

        result = DifferentialRunner().run(
            "min-instrument-diff",
            {name: make_sim(cls) for name, cls in BACKENDS.items()},
            cycles=cycles,
            stimulus=poked_blocks(stimulus, input_widths(state.circuit)),
            known_names=all_cover_names(state.circuit),
            counter_width=width,
        )
        assert result.agreed, result.report.format()
        return dict(result.merged)

    full = run(full_state)
    reconstructed = min_db.reconstruct_counts(
        run(min_state), InstanceTree(min_state.circuit), counter_width=width
    )
    assert reconstructed == full
    assert any(full.values())
