"""Attribution self-test of the sweep benchmark.

Injects a fixed delay into one layer -- ``ResultStore.put`` -- through
the traced-run wrapper only (the program is not edited) and checks that
the trace and the end-to-end metrics flag it where they should.  The
delay is fixed work sized in reference-host seconds, so it scales with
the host like the figures it is compared with:

* the delay lands in ``store.put_s`` and not in its parent layers;
* it moves ``request_s_p50`` on ``service-mixed`` (whose median
  request appends a row) by more than the benchmark's bound;
* it does not move ``sweep_s`` on ``event-fig14`` (14 appends in an
  engine-bound sweep) by as much as the bound.

Each case runs seven pairs of passes of a real workload (about three
minutes in all), so the tier-1 suite does not collect this directory.
Run it from the root of a checkout with::

    python3 -m pytest sweepbench/tests -q
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark runner)

SEED = 0
PASSES = 7
#: Per-append delay.  The median service-mixed request runs one job
#: and appends one row in 70-85 ms (traced), so it gains about a third.
#: The 14 appends of event-fig14 add 0.35 s to a traced sweep of
#: 2.4-2.6 s, about 14%.  The bound on both metrics is 20%; this delay
#: leaves both results about as far from it as the noise of a
#: contended host allows.
DELAY_S = 0.025


def bounds() -> dict[str, float]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def base_and_slow(name: str, tmp_path: Path) -> tuple[list, list]:
    """Traced passes of ``name`` without and with the injected delay,
    alternating, so that both sample the same spells of host speed."""
    ref = run.reference_for(name, SEED, tmp_path)
    work = tmp_path / name
    work.mkdir()
    runs = ([], [])
    for i in range(2 * PASSES):
        inject = [f"store.put={DELAY_S}"] if i % 2 else []
        runs[i % 2].append(run.run_pass(
            name, SEED, work, ref, traced=True, index=i, inject=inject,
            timeout=170.0))
    return runs


def median_layer(passes: list, layer: str) -> float:
    """Median over ``passes`` of a layer metric as the benchmark reports
    it (times scaled to the reference host)."""
    return statistics.median(
        run.scaled_layer(p, layer) for p in passes)


def p50(passes: list) -> float:
    return statistics.median(run.scaled_timings(passes)[1])


def sweep_s(passes: list) -> float:
    return run.scaled_timings(passes)[0]


@pytest.fixture(scope="module")
def service_runs(tmp_path_factory):
    return base_and_slow("service-mixed", tmp_path_factory.mktemp("svc"))


@pytest.fixture(scope="module")
def fig14_runs(tmp_path_factory):
    return base_and_slow("event-fig14", tmp_path_factory.mktemp("fig14"))


def test_results_stay_correct_under_injection(service_runs, fig14_runs):
    for passes in (*service_runs, *fig14_runs):
        assert all(p["failed"] == 0 for p in passes)


def test_delay_lands_in_store_put(service_runs, fig14_runs):
    for base, slow in (service_runs, fig14_runs):
        puts = median_layer(base, "store.put_calls")
        assert puts > 0
        injected = puts * DELAY_S
        added = (median_layer(slow, "store.put_s")
                 - median_layer(base, "store.put_s"))
        # Scaled by probes taken between steps; on service-mixed the
        # work runs beside busy pool workers and takes longer.
        assert injected * 0.8 <= added <= injected * 2.0
        for parent in ("backend.execute_s", "runner.overhead_s"):
            moved = median_layer(slow, parent) - median_layer(base, parent)
            assert moved < 0.25 * injected, parent


def test_delay_moves_service_request_latency(service_runs):
    base, slow = service_runs
    assert p50(slow) > p50(base) * (1 + bounds()["request_s_p50"])


def test_delay_does_not_move_event_fig14_sweep(fig14_runs):
    base, slow = fig14_runs
    before, after = sweep_s(base), sweep_s(slow)
    assert abs(after - before) < bounds()["sweep_s"] * before


def test_benchmark_json_lists_the_reported_metrics(fig14_runs, tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    traced = fig14_runs[0]
    untraced = [dict(p, traced=False) for p in traced]
    ref = json.loads(
        run.reference_for("event-fig14", SEED, tmp_path).read_text())
    reported = set(run.per_layer(untraced + traced, ref))
    assert {m["name"] for m in spec["per_layer"]} == reported
