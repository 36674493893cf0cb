"""Simulation-engine tier tests.

Four layers of guarantees:

* **EngineSpec identity** — string/dict round-trips, sorted-param
  canonicalization, fail-fast validation against the registry, and
  registry-independent cache keys (an ``event`` job and an ``epoch`` job
  can never collide in the result store).
* **Reference integrity** — ``engine="event"`` is byte-identical to the
  default path (the golden hashes in ``test_determinism_golden.py``
  remain the source of truth for the event engine itself).
* **Epoch determinism** — two epoch runs are byte-identical, pinned
  digests under the golden environment, including a ``trefi_chunk``
  operating point.
* **Statistical equivalence** — the event-vs-epoch differential matrix:
  seeded random workloads × every registered defense must agree on mean
  slowdown % and alerts/tREFI within the stated tolerance
  (:func:`slowdown_within_tolerance` / :func:`alerts_within_tolerance`,
  the contract quoted in the README).  A registry-completeness guard
  fails loudly when an engine is registered without a golden digest or
  without appearing in the differential matrix.
"""

from __future__ import annotations

import gc
import hashlib
import random

import pytest

from repro.defenses import registered_defenses
from repro.errors import ConfigError, ReproError
from repro.exp import SweepSpec
from repro.exp.serialize import canonical_json, result_to_dict
from repro.sim import simulate_workload
from repro.sim.engines import (
    DEFAULT_ENGINE_SPEC,
    EngineSpec,
    registered_engines,
    resolve_engine,
)
from repro.workloads.synthetic import WorkloadSpec

from test_determinism_golden import needs_golden_env


def result_digest(result) -> str:
    return hashlib.sha256(
        canonical_json(result_to_dict(result)).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# EngineSpec identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("text,name,params", [
    ("event", "event", {}),
    ("epoch", "epoch", {}),
    ("epoch:trefi_chunk=4", "epoch", {"trefi_chunk": 4}),
    ("  epoch : trefi_chunk=2 ", "epoch", {"trefi_chunk": 2}),
])
def test_engine_spec_from_string(text, name, params):
    spec = EngineSpec.from_string(text)
    assert spec.name == name
    assert spec.params_dict == params


@pytest.mark.parametrize("spec", [
    EngineSpec("event"),
    EngineSpec.of("epoch", trefi_chunk=4),
])
def test_engine_spec_roundtrips(spec):
    assert EngineSpec.from_string(spec.to_string()) == spec
    assert EngineSpec.from_dict(spec.to_dict()) == spec


def test_engine_spec_params_sorted_identity():
    # Construction order can't perturb equality, hashing or labels.
    a = EngineSpec(name="x", params=(("b", 1), ("a", 2)))
    b = EngineSpec(name="x", params=(("a", 2), ("b", 1)))
    assert a == b and hash(a) == hash(b) and a.label == b.label


def test_engine_spec_rejects_empty_name():
    with pytest.raises(ConfigError):
        EngineSpec("")
    with pytest.raises(ConfigError):
        EngineSpec.from_string(":k=v")


def test_resolve_engine_defaults_and_errors():
    assert resolve_engine(None) == DEFAULT_ENGINE_SPEC
    assert resolve_engine("event") == EngineSpec("event")
    assert resolve_engine(EngineSpec("epoch")).name == "epoch"
    with pytest.raises(ReproError):
        resolve_engine("no-such-engine")
    with pytest.raises(ReproError):
        resolve_engine("epoch:bogus_param=1")
    with pytest.raises(ReproError):
        resolve_engine("epoch:trefi_chunk=maybe")  # type-checked
    with pytest.raises(ConfigError):
        resolve_engine(42)  # type: ignore[arg-type]


def test_builtin_registry_listing():
    names = [entry.name for entry in registered_engines()]
    assert "event" in names and "epoch" in names
    epoch = next(e for e in registered_engines() if e.name == "epoch")
    assert [p.name for p in epoch.params] == ["trefi_chunk"]
    assert epoch.params[0].default == 1


def test_epoch_rejects_bad_chunk():
    with pytest.raises(ConfigError):
        EngineSpec.of("epoch", trefi_chunk=0).build()


# ----------------------------------------------------------------------
# Cache-key separation and sweep threading
# ----------------------------------------------------------------------
def _sweep(engine):
    return SweepSpec.build(
        ["429.mcf"], ["qprac"], n_entries=500, engine=engine,
    )


def test_cache_keys_differ_by_engine():
    event_jobs = _sweep("event").expand()
    epoch_jobs = _sweep("epoch").expand()
    chunked_jobs = _sweep("epoch:trefi_chunk=4").expand()
    assert [j.label for j in event_jobs] == [j.label for j in epoch_jobs]
    for a, b, c in zip(event_jobs, epoch_jobs, chunked_jobs):
        assert len({a.cache_key(), b.cache_key(), c.cache_key()}) == 3


def test_sweepspec_normalizes_engine_strings():
    spec = _sweep("epoch:trefi_chunk=4")
    assert isinstance(spec.engine, EngineSpec)
    assert spec.engine.label == "epoch:trefi_chunk=4"
    assert all(job.engine == spec.engine for job in spec.expand())
    with pytest.raises(ReproError):
        _sweep("not-an-engine")


def test_sweep_runs_on_epoch_engine(tmp_path):
    from repro.exp import ResultStore, run_sweep

    store = ResultStore(tmp_path)
    sweep = run_sweep(_sweep("epoch"), store=store)
    assert sweep.executed == sweep.total_jobs
    replay = run_sweep(_sweep("epoch"), store=store)
    assert replay.cache_hits == replay.total_jobs
    for a, b in zip(sweep.outcomes, replay.outcomes):
        assert result_digest(a.result) == result_digest(b.result)
    # An event sweep over the same grid misses the epoch cache entirely.
    event_sweep = run_sweep(_sweep("event"), store=store)
    assert event_sweep.cache_hits == 0


# ----------------------------------------------------------------------
# Reference integrity + epoch determinism
# ----------------------------------------------------------------------
def test_event_engine_is_the_default_path():
    default = simulate_workload("429.mcf", defense="qprac", n_entries=1200)
    explicit = simulate_workload(
        "429.mcf", defense="qprac", n_entries=1200, engine="event"
    )
    assert result_digest(default) == result_digest(explicit)


def test_event_simulate_frees_its_system_without_the_cyclic_gc():
    """A finished system is freed by refcounting before ``simulate``
    returns, not left as a cycle for the next gen-2 collection."""
    from repro.cpu.system import MulticoreSystem
    from repro.defenses import DefenseSpec
    from repro.params import SystemConfig
    from repro.sim.engines.event import EventEngine, clear_inert_runs
    from repro.workloads import workload

    def systems() -> set[int]:
        return {
            id(obj) for obj in gc.get_objects()
            if isinstance(obj, MulticoreSystem)
        }

    clear_inert_runs()  # simulate in full, not by inert replay
    gc.collect()
    gc.disable()
    try:
        before = systems()
        EventEngine().simulate(
            workload("429.mcf"), SystemConfig(),
            DefenseSpec.of("qprac").factory(), 300, 0, "qprac",
        )
        left = systems() - before
    finally:
        gc.enable()
    assert not left


def test_epoch_deterministic_across_runs():
    first = simulate_workload(
        "429.mcf", defense="qprac", n_entries=1500, engine="epoch"
    )
    second = simulate_workload(
        "429.mcf", defense="qprac", n_entries=1500, engine="epoch"
    )
    assert result_digest(first) == result_digest(second)


#: Pinned digests per engine (golden environment): the epoch engine's
#: own golden table, next to the event engine's in
#: ``test_determinism_golden.py``.  (workload, defense, n_entries, seed)
#: -> sha256 of the result's canonical JSON.
GOLDEN_ENGINE_HASHES: dict[str, dict] = {
    # The event engine's digests are pinned (byte-identical to the
    # pre-engine-tier simulator) by GOLDEN_HASHES/GOLDEN_DEFENSE_HASHES
    # in test_determinism_golden.py; this entry records that fact for
    # the registry-completeness guard.
    "event": None,
    "epoch": {
        ("429.mcf", "qprac", 2000, 0):
            "19ddbea572a9eb27101f7d588c743f6298d7fb3e796d91492c0fd7046eb00de4",
        ("429.mcf", "baseline", 2000, 0):
            "4a40a51d41fa586d189cd1d24af3d1ac08530604808ea05d986acf357bec946d",
        ("ycsb-a", "moat", 2000, 0):
            "c625f6d50e2ac1a8d7aa9bbcbf8a7f8f733d842edc4db4a8eec24b0a105253c1",
        ("470.lbm", "qprac+proactive", 2000, 0):
            "3784983b5ccc97776d90e5b2f8e1502663322bd7eee7645dd217157336f78ee6",
    },
    "epoch:trefi_chunk=4": {
        ("429.mcf", "qprac", 2000, 0):
            "5d4c94a03d80d156de31fa608611ac6b36d1920f35cbb652e51b241a8200fb75",
    },
}


@needs_golden_env
@pytest.mark.parametrize("engine,cell", [
    (engine, cell)
    for engine, cells in GOLDEN_ENGINE_HASHES.items()
    if cells
    for cell in sorted(cells)
], ids=lambda v: str(v))
def test_epoch_matches_pinned_digest(engine, cell):
    workload, defense, n_entries, seed = cell
    result = simulate_workload(
        workload, defense=defense, n_entries=n_entries, seed=seed,
        engine=engine,
    )
    assert result_digest(result) == GOLDEN_ENGINE_HASHES[engine][cell]


def test_every_registered_engine_has_golden_coverage():
    """Registry-completeness guard: registering an engine without a
    pinned digest (and without a differential-matrix entry, below)
    fails loudly."""
    registered = {entry.name for entry in registered_engines()}
    pinned = {name.split(":")[0] for name in GOLDEN_ENGINE_HASHES}
    assert registered == pinned
    assert registered == set(DIFFERENTIAL_ENGINES)


# ----------------------------------------------------------------------
# Differential matrix: event vs epoch across all registered defenses
# ----------------------------------------------------------------------
#: Engines the differential matrix covers (the reference plus every
#: approximate engine judged against it).
DIFFERENTIAL_ENGINES = ("event", "epoch")

#: Entries per core for the matrix (small enough to keep the matrix
#: seconds-cheap, large enough for alerts to fire).
MATRIX_ENTRIES = 2000


def slowdown_within_tolerance(event_pct: float, epoch_pct: float) -> bool:
    """The stated slowdown-agreement contract between the engines.

    Two regimes: small slowdowns must agree within 2.5 percentage
    points absolute; large ones (the cadence defenses at aggressive
    T_RH, where the epoch engine is documented to over-estimate bank
    blackout cost) must agree within a factor of [0.25, 3.5] — the
    ordering and magnitude class survive, individual points do not.
    """
    if abs(event_pct) < 2.0 or abs(epoch_pct) < 2.0:
        return abs(event_pct - epoch_pct) <= 2.5
    return 0.25 <= epoch_pct / event_pct <= 3.5


def alerts_within_tolerance(event_at: float, epoch_at: float) -> bool:
    """Alerts/tREFI agreement: within 0.3 absolute, or 50% relative
    once rates are large (the epoch engine's shorter approximate clock
    inflates the denominator)."""
    return abs(event_at - epoch_at) <= max(0.3, 0.5 * max(event_at,
                                                          epoch_at))


def _random_workload(index: int) -> WorkloadSpec:
    """Seeded random workload for the differential matrix."""
    rng = random.Random(1000 + index)
    return WorkloadSpec(
        name=f"differential-{index}",
        suite="differential",
        acts_pki=round(rng.uniform(0.5, 24.0), 2),
        row_burst=round(rng.uniform(1.0, 5.0), 2),
        footprint_mb=rng.choice([16, 64, 128, 256]),
        zipf_alpha=round(rng.uniform(0.0, 1.3), 2),
        write_fraction=round(rng.uniform(0.0, 0.5), 2),
    )


def _matrix_defenses() -> list[str]:
    """Every registered defense, parameterized ones at the operating
    point the figure benchmarks use — registry-complete by
    construction."""
    designators = []
    for entry in registered_defenses():
        if entry.name == "baseline":
            continue
        if entry.name in ("pride", "mithril"):
            designators.append(f"{entry.name}:t_rh=256")
        else:
            designators.append(entry.name)
    return designators


_BASELINES: dict = {}


def _baseline(workload, engine):
    key = (workload.name, engine)
    if key not in _BASELINES:
        _BASELINES[key] = simulate_workload(
            workload, defense="baseline", n_entries=MATRIX_ENTRIES,
            seed=0, engine=engine,
        )
    return _BASELINES[key]


@pytest.mark.parametrize("defense", _matrix_defenses())
def test_differential_matrix_event_vs_epoch(defense):
    """Seeded random workloads × every registered defense: the epoch
    engine must agree with the event reference on slowdown % and
    alerts/tREFI within the stated tolerance."""
    index = _matrix_defenses().index(defense)
    workload = _random_workload(index % 4)
    results = {}
    for engine in DIFFERENTIAL_ENGINES:
        run = simulate_workload(
            workload, defense=defense, n_entries=MATRIX_ENTRIES,
            seed=0, engine=engine,
        )
        results[engine] = (
            run.slowdown_pct_vs(_baseline(workload, engine)),
            run.alerts_per_trefi,
        )
    event_slow, event_at = results["event"]
    epoch_slow, epoch_at = results["epoch"]
    assert slowdown_within_tolerance(event_slow, epoch_slow), (
        f"{defense} on {workload.name}: slowdown {event_slow:.2f}% "
        f"(event) vs {epoch_slow:.2f}% (epoch)"
    )
    assert alerts_within_tolerance(event_at, epoch_at), (
        f"{defense} on {workload.name}: alerts/tREFI {event_at:.4f} "
        f"(event) vs {epoch_at:.4f} (epoch)"
    )


def test_differential_headline_cell():
    """The paper's headline cell (429.mcf × qprac) agrees between
    engines — fixed coverage on top of the random matrix."""
    for defense in ("qprac", "qprac-noop"):
        results = {}
        for engine in DIFFERENTIAL_ENGINES:
            baseline = simulate_workload(
                "429.mcf", defense="baseline", n_entries=MATRIX_ENTRIES,
                seed=0, engine=engine,
            )
            run = simulate_workload(
                "429.mcf", defense=defense, n_entries=MATRIX_ENTRIES,
                seed=0, engine=engine,
            )
            results[engine] = (
                run.slowdown_pct_vs(baseline), run.alerts_per_trefi
            )
        event_slow, event_at = results["event"]
        epoch_slow, epoch_at = results["epoch"]
        assert slowdown_within_tolerance(event_slow, epoch_slow), defense
        assert alerts_within_tolerance(event_at, epoch_at), defense


def _reference_stream(workload, n_entries, seed, org, cpu) -> dict:
    """Every field ``_prepare_stream`` returns, rebuilt one access at a
    time through the canonical :class:`SetAssociativeCache` and the
    scalar address decoder, over the same front-end merge order."""
    import numpy as np

    from repro.cpu.cache import SetAssociativeCache
    from repro.dram.address import AddressMapper
    from repro.workloads.synthetic import generate_trace

    traces = [
        generate_trace(workload, n_entries, org, seed=seed * 1000 + c)
        for c in range(cpu.cores)
    ]
    insts = [np.cumsum(t.instruction_needs()).tolist() for t in traces]
    per_inst_ns = cpu.cycle_ns / cpu.issue_width
    fronts = [[i * per_inst_ns for i in core] for core in insts]
    loads_through = [
        np.cumsum(~t.is_write).tolist() for t in traces
    ]
    merged = sorted(
        (front, c, e)
        for c, core in enumerate(fronts) for e, front in enumerate(core)
    )
    llc = SetAssociativeCache(cpu.llc_bytes, cpu.llc_ways,
                              org.line_size_bytes)
    mapper = AddressMapper(org)
    reqs: list[list[tuple]] = [[] for _ in range(cpu.cores)]

    def request(c, e, addr, is_write, demand):
        ch, _r, _bg, _b, row, _col, flat = mapper.decode_flat(addr)
        reqs[c].append((fronts[c][e], insts[c][e], loads_through[c][e],
                        flat, row, ch, is_write, demand))

    for _front, c, e in merged:
        addr = int(traces[c].addresses[e])
        is_write = bool(traces[c].is_write[e])
        hit, writeback = llc.access(addr, is_write)
        if not hit:
            request(c, e, addr, is_write, True)
            if writeback is not None:
                request(c, e, writeback, True, False)
    return {
        "reqs": reqs,
        "load_inst": [
            [insts[c][e] for e in np.flatnonzero(~t.is_write).tolist()]
            for c, t in enumerate(traces)
        ],
        "front_total": [core[-1] for core in fronts],
        "total_instructions": [t.total_instructions for t in traces],
        "llc_hits": llc.hits,
        "llc_total": llc.hits + llc.misses,
        "writebacks": llc.writebacks,
    }


@pytest.mark.parametrize("llc_kib,overflowing", [
    (8192, "none"),   # the default LLC: every set takes the closed form
    (512, "some"),    # both the closed form and the LRU replay
    (64, "all"),      # every set overflows: evictions and writebacks
], ids=["8MB", "512KB", "64KB"])
def test_epoch_llc_filter_matches_canonical_cache(llc_kib, overflowing):
    """The epoch engine's stream preparation must equal a per-access
    pass through SetAssociativeCache.access, field for field, whichever
    way the set-decomposed filter splits the stream."""
    import dataclasses

    import numpy as np

    from repro.params import default_config
    from repro.sim.engines.epoch import _prepare_stream
    from repro.workloads.suites import workload as lookup_workload
    from repro.workloads.synthetic import generate_trace

    config = default_config()
    org = config.org
    cpu = dataclasses.replace(config.cpu, llc_bytes=llc_kib * 1024)
    workload = lookup_workload("ycsb-a")  # write-heavy: dirty evictions
    n_entries = 2000
    stream = _prepare_stream(workload, n_entries, 0, org, cpu)
    reference = _reference_stream(workload, n_entries, 0, org, cpu)

    # The cell must reach the filter path it is named for.
    lines = np.concatenate([
        generate_trace(workload, n_entries, org, seed=c).addresses
        for c in range(cpu.cores)
    ]) >> (org.line_size_bytes.bit_length() - 1)
    n_sets = cpu.llc_bytes // (cpu.llc_ways * org.line_size_bytes)
    distinct = np.bincount(np.unique(lines) & (n_sets - 1),
                           minlength=n_sets)
    overflow = distinct > cpu.llc_ways
    assert {"none": not overflow.any(), "all": overflow.all(),
            "some": overflow.any() and not overflow.all()}[overflowing]
    if overflowing != "none":
        assert reference["writebacks"] > 0, "must exercise writebacks"

    for c in range(cpu.cores):
        assert stream.reqs[c] == reference["reqs"][c], \
            f"core {c} request stream diverged"
    assert stream.load_inst == reference["load_inst"]
    assert stream.front_total == reference["front_total"]
    assert stream.total_instructions == reference["total_instructions"]
    assert stream.llc_hits == reference["llc_hits"]
    assert stream.llc_total == reference["llc_total"]


# ----------------------------------------------------------------------
# Engine metadata downstream: the CLI listing
# ----------------------------------------------------------------------
def test_cli_engines_listing(capsys):
    from repro.cli import main

    assert main(["engines"]) == 0
    out = capsys.readouterr().out
    assert "event" in out and "epoch" in out and "trefi_chunk" in out
