"""Tests for sweep specification expansion and content addressing."""

from __future__ import annotations

import pytest

from repro.defenses import DefenseSpec
from repro.errors import ConfigError, ReproError
from repro.exp import BASELINE, SweepSpec, overrides_label
from repro.params import MitigationVariant, default_config


def make_spec(**kwargs):
    defaults = dict(
        workloads=("541.leela", "429.mcf"),
        variants=("qprac", "qprac-noop"),
        n_entries=500,
    )
    defaults.update(kwargs)
    return SweepSpec.build(
        defaults.pop("workloads"), defaults.pop("variants"), **defaults
    )


class TestExpansion:
    def test_grid_size_and_order(self):
        spec = make_spec()
        jobs = spec.expand()
        # 2 workloads x (baseline + 2 variants).
        assert len(jobs) == 6
        assert [j.label for j in jobs] == [
            "541.leela/baseline",
            "541.leela/qprac",
            "541.leela/qprac-noop",
            "429.mcf/baseline",
            "429.mcf/qprac",
            "429.mcf/qprac-noop",
        ]

    def test_expansion_is_deterministic(self):
        spec = make_spec()
        assert spec.expand() == spec.expand()

    def test_no_baseline(self):
        jobs = make_spec(include_baseline=False).expand()
        assert not any(j.defense.is_baseline for j in jobs)
        assert len(jobs) == 4

    def test_overrides_axis(self):
        spec = make_spec(
            workloads=("541.leela",),
            variants=("qprac",),
            overrides=({"psq_size": 1}, {"psq_size": 3}),
            include_baseline=False,
        )
        jobs = spec.expand()
        assert len(jobs) == 2
        assert jobs[0].config.prac.psq_size == 1
        assert jobs[1].config.prac.psq_size == 3
        assert overrides_label(jobs[1].overrides) == "psq_size=3"

    def test_baseline_emitted_once_across_override_sets(self):
        spec = make_spec(
            workloads=("541.leela",),
            variants=("qprac",),
            overrides=({"psq_size": 1}, {"psq_size": 3}),
        )
        jobs = spec.expand()
        # Overrides only alter the defense: 1 shared baseline + 2 variants.
        assert len(jobs) == 3
        assert sum(1 for j in jobs if j.defense.is_baseline) == 1

    def test_defense_leaves_config_unchanged(self):
        """Every job of a grid runs the sweep's own configuration; only
        its defense tells a QPRAC variant from the baseline."""
        spec = make_spec()
        jobs = spec.expand()
        assert jobs[0].defense.is_baseline
        assert jobs[0].defense.label == BASELINE
        assert jobs[1].defense == DefenseSpec("qprac")
        assert all(j.config == spec.config for j in jobs)

    def test_string_defenses_resolved(self):
        spec = SweepSpec.build(["541.leela"], ["qprac"], n_entries=100)
        assert spec.defenses == (DefenseSpec("qprac"),)

    def test_variant_enum_rejected(self):
        """A QPRAC policy enum is not a defense name; the error points
        at its string form."""
        with pytest.raises(ConfigError, match="'qprac'"):
            SweepSpec.build(["541.leela"], [MitigationVariant.QPRAC])

    def test_mixed_defense_grid(self):
        spec = SweepSpec.build(
            ["541.leela"],
            ["qprac", "moat", DefenseSpec.of("pride", t_rh=256)],
            n_entries=100,
        )
        jobs = spec.expand()
        assert [j.label for j in jobs] == [
            "541.leela/baseline",
            "541.leela/qprac",
            "541.leela/moat",
            "541.leela/pride:t_rh=256",
        ]

    def test_duplicate_defenses_rejected(self):
        with pytest.raises(ConfigError, match="duplicate defenses"):
            make_spec(variants=("qprac", DefenseSpec("qprac")))

    def test_baseline_in_defenses_conflicts_with_include_baseline(self):
        with pytest.raises(ConfigError, match="already included"):
            make_spec(variants=("qprac", "baseline"))
        spec = make_spec(
            variants=("baseline", "qprac"), include_baseline=False
        )
        assert spec.expand()[0].defense.is_baseline

    def test_unregistered_defense_rejected(self):
        with pytest.raises(ReproError, match="unknown defense 'pancake'"):
            make_spec(variants=("pancake",))

    def test_missing_required_param_rejected(self):
        with pytest.raises(ReproError, match="requires parameter"):
            make_spec(variants=("mithril",))

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown PRAC override"):
            make_spec(overrides=({"not_a_knob": 1},))

    def test_empty_workloads_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec.build([], ["qprac"])

    def test_duplicate_workloads_rejected(self):
        with pytest.raises(ConfigError, match="duplicate workloads"):
            make_spec(workloads=("429.mcf", "429.mcf"))

    def test_key_includes_environment(self):
        from repro.exp.serialize import environment_fingerprint

        env = environment_fingerprint()
        assert set(env) == {"numpy", "python"}
        assert all(isinstance(v, str) and v for v in env.values())


class TestCacheKey:
    def test_key_is_stable_across_expansions(self):
        a = make_spec().expand()
        b = make_spec().expand()
        assert [j.cache_key() for j in a] == [j.cache_key() for j in b]

    def test_keys_are_unique_within_a_sweep(self):
        keys = [j.cache_key() for j in make_spec().expand()]
        assert len(set(keys)) == len(keys)

    def test_key_changes_with_overrides(self):
        plain = make_spec(
            include_baseline=False, variants=("qprac",),
            workloads=("541.leela",),
        ).expand()[0]
        overridden = make_spec(
            include_baseline=False, variants=("qprac",),
            workloads=("541.leela",), overrides=({"psq_size": 2},),
        ).expand()[0]
        assert plain.cache_key() != overridden.cache_key()

    def test_key_changes_with_entries_and_seed(self):
        base = make_spec().expand()[0]
        more = make_spec(n_entries=501).expand()[0]
        reseeded = make_spec(seed=7).expand()[0]
        assert base.cache_key() != more.cache_key()
        assert base.cache_key() != reseeded.cache_key()

    def test_salt_covers_only_simulation_sources(self):
        from repro.exp import code_version_salt
        from repro.exp.serialize import SIMULATION_SOURCES

        # Orchestration/reporting/CLI edits must leave the cache warm.
        for non_model in ("exp", "analysis", "cli.py", "energy", "security"):
            assert non_model not in SIMULATION_SOURCES
        # Trace generation and the device model must invalidate it — and
        # so must every defense implementation.
        for model in ("workloads", "sim", "core", "params.py",
                      "defenses", "mitigations"):
            assert model in SIMULATION_SOURCES
        assert len(code_version_salt()) == 64
        assert code_version_salt() == code_version_salt()

    def test_key_changes_with_config(self):
        base = make_spec().expand()[0]
        other = make_spec(
            config=default_config().with_prac(n_bo=64)
        ).expand()[0]
        assert base.cache_key() != other.cache_key()

    def test_key_changes_with_defense_params(self):
        plain = make_spec(
            variants=("moat",), include_baseline=False
        ).expand()[0]
        tuned = make_spec(
            variants=("moat:proactive_every_n_refs=4",),
            include_baseline=False,
        ).expand()[0]
        assert plain.cache_key() != tuned.cache_key()

    def test_key_is_independent_of_registration_order(self):
        """A job's key depends only on the spec's own (name, params)
        identity — registering additional defenses must not move it."""
        from repro.defenses import register_defense
        from repro.defenses.registry import REGISTRY

        job = make_spec(variants=("moat",)).expand()[1]
        before = job.cache_key()

        name = "order-probe-defense"
        assert name not in REGISTRY

        @register_defense(name, summary="cache-key stability probe")
        def build_probe(bank_index, config):
            raise AssertionError("never built")

        try:
            assert job.cache_key() == before
        finally:
            REGISTRY._entries.pop(name)
