"""Tests for the sweep service: protocol, queue semantics, HTTP layer.

The acceptance contract of the service is digest equality: a sweep
submitted over HTTP must aggregate byte-identically to `repro sweep
--backend serial`, and resubmitting a completed spec must execute zero
jobs and report the same digest.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ReproError
from repro.exp import ResultStore, run_sweep, sweep_digest
from repro.obs import sweep_id_for
from repro.serve import (
    ServiceError,
    SweepHTTPServer,
    SweepRequest,
    SweepService,
    build_spec,
    client,
)

#: One small grid shared by most tests (2 jobs: baseline + qprac).
GRID = {"workloads": ["429.mcf"], "defenses": ["qprac"], "entries": 150}


def serial_digest(tmp_path, **grid) -> str:
    """Digest of a ``serial`` run of ``GRID`` (updated by ``grid``)."""
    grid = {**GRID, **grid}
    spec = build_spec(
        grid["workloads"], defenses=grid["defenses"],
        entries=grid["entries"], seed=grid.get("seed", 0),
    )
    store = ResultStore(tmp_path / "serial-cache")
    return sweep_digest(run_sweep(spec, store=store, backend="serial"))


def pool_pids() -> set[int]:
    """Live ``multiprocessing`` children of this process."""
    return {child.pid for child in multiprocessing.active_children()}


def running(pid: int) -> bool:
    """Whether ``pid`` is a process that has not exited (a zombie left
    for a non-reaping init counts as exited)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


@pytest.fixture
def service(tmp_path):
    svc = SweepService(cache_dir=tmp_path / "cache", workers=2).start()
    yield svc
    svc.stop(timeout=30.0)


@pytest.fixture
def http_service(tmp_path):
    svc = SweepService(cache_dir=tmp_path / "cache", workers=2)
    server = SweepHTTPServer(("127.0.0.1", 0), svc)
    svc.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield svc, base
    svc.stop(timeout=30.0)
    server.shutdown()
    server.server_close()


class TestProtocol:
    def test_defaults_mirror_the_cli(self):
        request = SweepRequest.from_payload({"workloads": ["429.mcf"]})
        assert request.entries == 5000
        assert request.nbo == 32
        assert request.n_mit == 1
        assert request.seed == 0
        assert request.engine == "event"
        assert request.defenses is None  # -> the evaluated variants
        assert request.backend == "serial"

    def test_spec_identical_to_cli_builder(self):
        request = SweepRequest.from_payload(GRID)
        via_service = sweep_id_for(request.spec())
        via_cli = sweep_id_for(
            build_spec(["429.mcf"], defenses=["qprac"], entries=150)
        )
        assert via_service == via_cli

    def test_run_options_stay_out_of_identity(self):
        plain = SweepRequest.from_payload(GRID)
        tweaked = SweepRequest.from_payload(
            dict(GRID, backend="pool", jobs=4, trace=True)
        )
        assert sweep_id_for(plain.spec()) == sweep_id_for(tweaked.spec())

    def test_unknown_field_rejected(self):
        with pytest.raises(ReproError, match="unknown submission field"):
            SweepRequest.from_payload(dict(GRID, warkloads=["x"]))

    def test_non_object_body_rejected(self):
        with pytest.raises(ReproError, match="JSON object"):
            SweepRequest.from_payload(["429.mcf"])

    def test_bad_types_rejected(self):
        with pytest.raises(ReproError, match="list of strings"):
            SweepRequest.from_payload({"workloads": "429.mcf"})
        with pytest.raises(ReproError, match="integer"):
            SweepRequest.from_payload(dict(GRID, entries="many"))

    def test_empty_grid_rejected(self):
        with pytest.raises(ReproError, match="workloads"):
            SweepRequest.from_payload({})

    def test_unknown_workload_rejected(self):
        with pytest.raises(ReproError):
            SweepRequest.from_payload({"workloads": ["no.such"]})

    def test_faults_need_the_fleet_backend(self):
        with pytest.raises(ReproError, match="remote-fleet"):
            SweepRequest.from_payload(dict(GRID, faults="kill-worker"))

    def test_bad_fault_plan_rejected(self):
        with pytest.raises(ReproError):
            SweepRequest.from_payload(dict(
                GRID, backend="remote-fleet", faults="explode-everything"
            ))

    def test_payload_round_trip(self):
        request = SweepRequest.from_payload(dict(GRID, jobs=2))
        again = SweepRequest.from_payload(request.to_payload())
        assert again == request


class TestService:
    def test_submit_runs_and_matches_serial_digest(self, service, tmp_path):
        snapshot, code = service.submit(GRID)
        assert code == 202
        assert snapshot["state"] == "queued"
        assert snapshot["total_jobs"] == 2
        final = service.status(snapshot["sweep_id"], wait_s=120.0)
        assert final["state"] == "done"
        assert final["executed"] == 2
        assert final["cache_hits"] == 0
        assert final["digest"] == serial_digest(tmp_path)
        assert final["aggregates"], "final payload carries the aggregates"

    def test_duplicate_submission_replays_with_zero_executed(
        self, service, tmp_path
    ):
        first, _ = service.submit(GRID)
        done = service.status(first["sweep_id"], wait_s=120.0)
        again, code = service.submit(GRID)
        assert code == 200
        assert again["replay"] is True
        assert again["executed"] == 0
        assert again["cache_hits"] == again["total_jobs"]
        assert again["digest"] == done["digest"]
        assert service.metrics.replays == 1

    def test_partial_cache_resumes_byte_identically(self, service, tmp_path):
        # Half the grid is already in the store (as after a coordinator
        # killed mid-sweep): resubmission executes only the remainder
        # and the digest still equals an uncached serial run.
        warm = build_spec(["429.mcf"], defenses=None, entries=150)
        subset = build_spec(["429.mcf"], defenses=["qprac"], entries=150)
        run_sweep(subset, store=ResultStore(service.cache_dir))
        snapshot, _ = service.submit({"workloads": ["429.mcf"],
                                      "entries": 150})
        final = service.status(snapshot["sweep_id"], wait_s=300.0)
        assert final["state"] == "done"
        assert final["cache_hits"] == 2  # baseline + qprac from the store
        assert final["executed"] == final["total_jobs"] - 2
        fresh = run_sweep(
            warm, store=ResultStore(service.cache_dir / "fresh")
        )
        assert final["digest"] == sweep_digest(fresh)

    def test_attach_while_queued(self, tmp_path):
        svc = SweepService(cache_dir=tmp_path / "cache", workers=1)
        # Not started: the record stays queued, the duplicate attaches.
        first, code1 = svc.submit(GRID)
        second, code2 = svc.submit(GRID)
        assert (code1, code2) == (202, 202)
        assert second["sweep_id"] == first["sweep_id"]
        assert second["submissions"] == 2
        assert svc.metrics.attached == 1
        svc._stopped = True  # never started; nothing to drain

    def test_invalid_submission_is_400(self, service):
        snapshot, code = service.submit({"workloads": ["no.such"]})
        assert code == 400
        assert "no.such" in snapshot["error"] or snapshot["error"]
        assert service.metrics.rejected == 1

    def test_queue_limit_is_429(self, tmp_path):
        svc = SweepService(cache_dir=tmp_path / "cache", queue_limit=1)
        svc.submit(GRID)  # workers not started: stays queued
        overflow, code = svc.submit(
            {"workloads": ["470.lbm"], "entries": 150}
        )
        assert code == 429
        assert "full" in overflow["error"]

    def test_draining_rejects_with_503(self, service):
        service.drain(timeout=30.0)
        snapshot, code = service.submit(GRID)
        assert code == 503
        assert "drain" in snapshot["error"]

    def test_failed_sweep_requeues_on_resubmit(self, service, monkeypatch):
        import repro.exp

        real_run_sweep = repro.exp.run_sweep
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("coordinator died")
            return real_run_sweep(*args, **kwargs)

        monkeypatch.setattr(repro.exp, "run_sweep", flaky)
        snapshot, _ = service.submit(GRID)
        failed = service.status(snapshot["sweep_id"], wait_s=120.0)
        assert failed["state"] == "failed"
        assert "coordinator died" in failed["error"]
        assert service.metrics.failed == 1
        retried, code = service.submit(GRID)
        assert code == 202
        final = service.status(snapshot["sweep_id"], wait_s=120.0)
        assert final["state"] == "done"
        assert final["digest"]

    def test_status_unknown_id_is_none(self, service):
        assert service.status("feedfacefeedface") is None

    def test_status_by_prefix(self, service):
        snapshot, _ = service.submit(GRID)
        service.status(snapshot["sweep_id"], wait_s=120.0)
        assert (
            service.status(snapshot["sweep_id"][:8])["sweep_id"]
            == snapshot["sweep_id"]
        )

    def test_events_cover_every_job(self, service):
        snapshot, _ = service.submit(GRID)
        service.status(snapshot["sweep_id"], wait_s=120.0)
        events, seq, terminal = service.events_since(
            snapshot["sweep_id"], 0
        )
        assert terminal
        assert seq == len(events) == snapshot["total_jobs"]
        assert {e["type"] for e in events} == {"job"}
        assert sorted(e["index"] for e in events) == [0, 1]

    def test_writes_sweep_trace_keyed_by_id(self, service):
        from repro.obs import trace_path_for

        snapshot, _ = service.submit(GRID)
        final = service.status(snapshot["sweep_id"], wait_s=120.0)
        expected = trace_path_for(service.cache_dir, snapshot["sweep_id"])
        assert final["trace_path"] == str(expected)
        assert expected.exists()


class TestWarmPool:
    """``pool`` requests reuse the worker thread's executor."""

    POOL = dict(GRID, backend="pool", jobs=2)

    def run(self, svc, **grid) -> dict:
        snapshot, code = svc.submit(dict(self.POOL, **grid))
        assert code == 202
        return svc.status(snapshot["sweep_id"], wait_s=120.0)

    def test_reused_workers_follow_each_requests_trace_flag(self, tmp_path):
        from repro.obs import read_trace

        svc = SweepService(cache_dir=tmp_path / "cache", workers=1).start()
        try:
            quiet = self.run(svc, trace=False)
            workers = pool_pids()
            traced = self.run(svc, trace=True, seed=1)
            third = self.run(svc, seed=2)
            assert pool_pids() == workers and len(workers) == 2
        finally:
            svc.stop(timeout=60.0)
        assert [quiet["state"], traced["state"], third["state"]] == [
            "done"] * 3
        assert quiet["digest"] == serial_digest(tmp_path)
        assert traced["digest"] == serial_digest(tmp_path / "1", seed=1)
        assert third["digest"] == serial_digest(tmp_path / "2", seed=2)
        # Telemetry follows the request, not the environment the
        # workers were forked with.
        quiet_jobs = read_trace(quiet["trace_path"])["jobs"]
        traced_jobs = read_trace(traced["trace_path"])["jobs"]
        assert not any("latency" in row for row in quiet_jobs)
        assert all(row["latency"]["count"] > 0 for row in traced_jobs)
        spawns = [
            read_trace(final["trace_path"])["header"]["metrics"]
            ["backend_metrics"]["spawned"]
            for final in (quiet, traced, third)
        ]
        assert spawns == [2, 0, 0]

    def test_killed_worker_fails_only_the_sweep_in_flight(self, tmp_path):
        svc = SweepService(cache_dir=tmp_path / "cache", workers=1).start()
        try:
            doomed, _ = svc.submit(dict(
                self.POOL, workloads=["429.mcf", "470.lbm"],
                defenses=["qprac", "moat"], entries=3000,
            ))
            deadline = time.monotonic() + 60.0
            while len(pool_pids()) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            killed = pool_pids()
            assert len(killed) == 2
            os.kill(min(killed), signal.SIGKILL)
            failed = svc.status(doomed["sweep_id"], wait_s=120.0)
            assert failed["state"] == "failed"
            assert "BrokenProcessPool" in failed["error"]
            after = self.run(svc)
            fresh = pool_pids()
        finally:
            svc.stop(timeout=60.0)
        assert after["state"] == "done"
        assert after["digest"] == serial_digest(tmp_path)
        assert len(fresh) == 2 and not fresh & killed

    def test_workers_exit_when_the_service_is_killed(self, tmp_path):
        # SIGKILL skips stop(): the idle warm workers must notice on
        # their own that the service is gone.
        script = (
            "import multiprocessing, os, signal\n"
            "from repro.serve import SweepService\n"
            f"svc = SweepService(cache_dir={str(tmp_path)!r}).start()\n"
            f"snapshot, _ = svc.submit({self.POOL!r})\n"
            "svc.status(snapshot['sweep_id'], wait_s=120.0)\n"
            "print(*[c.pid for c in multiprocessing.active_children()],"
            " flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        # A file, not a pipe: orphans holding a pipe would block run().
        out = tmp_path / "pids.txt"
        with out.open("w") as fh:
            subprocess.run([sys.executable, "-c", script], stdout=fh,
                           timeout=120)
        orphans = {int(pid) for pid in out.read_text().split()}
        assert len(orphans) == 2
        deadline = time.monotonic() + 30.0
        while orphans and time.monotonic() < deadline:
            orphans = {pid for pid in orphans if running(pid)}
            time.sleep(0.1)
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        assert not orphans

    #: ``repro serve`` in a child process, with its signal handlers:
    #: once the first sweep (argv[2]) has pool workers it prints the
    #: port, the sweep id and the worker pids, and after the drain the
    #: sweep's final snapshot.
    SERVE_SCRIPT = (
        "import json, multiprocessing, sys, threading, time\n"
        "from repro.serve import SweepService, serve\n"
        "svc = SweepService(cache_dir=sys.argv[1], workers=1)\n"
        "first = {}\n"
        "def ready(host, port):\n"
        "    def go():\n"
        "        snapshot, _ = svc.submit(json.loads(sys.argv[2]))\n"
        "        first['id'] = snapshot['sweep_id']\n"
        "        if sys.argv[3] == 'done':\n"
        "            svc.status(first['id'], wait_s=120.0)\n"
        "        while len(multiprocessing.active_children()) < 2:\n"
        "            time.sleep(0.01)\n"
        "        pids = [c.pid for c in multiprocessing.active_children()]\n"
        "        print(json.dumps([port, first['id'], pids]), flush=True)\n"
        "    threading.Thread(target=go, daemon=True).start()\n"
        "code = serve(svc, port=0, ready=ready)\n"
        "print(json.dumps(svc.status(first['id'])), flush=True)\n"
        "sys.exit(code)\n"
    )

    def serve_child(self, tmp_path, payload: dict, wait: str):
        """Start ``SERVE_SCRIPT``; returns the process, its output file
        and the ``[port, sweep_id, worker_pids]`` line."""
        # A file, not a pipe: workers inherit stdout.
        out = tmp_path / "serve.out"
        with out.open("w") as fh:
            proc = subprocess.Popen(
                [sys.executable, "-c", self.SERVE_SCRIPT,
                 str(tmp_path / "cache"), json.dumps(payload), wait],
                stdout=fh, start_new_session=True,
            )
        deadline = time.monotonic() + 120.0
        while not out.read_text() and time.monotonic() < deadline:
            assert proc.poll() is None, "service exited early"
            time.sleep(0.05)
        return proc, out, json.loads(out.read_text().splitlines()[0])

    def test_sigterm_to_one_worker_ends_it(self, tmp_path):
        # The worker must not run the inherited drain handler; the next
        # request replaces the broken pool.
        proc, out, (port, _, workers) = self.serve_child(
            tmp_path, self.POOL, "done")
        try:
            os.kill(workers[0], signal.SIGTERM)
            # Gone for good: the pool noticed, marked itself broken and
            # reaped its processes.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    os.kill(workers[0], 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("SIGTERM did not end the pool worker")
            base = f"http://127.0.0.1:{port}"
            snapshot = client.submit(base, dict(self.POOL, seed=1))
            after = client.wait_done(base, snapshot["sweep_id"],
                                     timeout=120.0)
        finally:
            os.killpg(proc.pid, signal.SIGTERM)
            proc.wait(timeout=60)
            for pid in workers:
                if running(pid):
                    os.kill(pid, signal.SIGKILL)
        assert proc.returncode == 0
        assert after["state"] == "done"
        assert after["digest"] == serial_digest(tmp_path, seed=1)
        from repro.obs import read_trace

        header = read_trace(after["trace_path"])["header"]
        assert header["metrics"]["backend_metrics"]["spawned"] == 2

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT],
                             ids=["SIGTERM", "SIGINT"])
    def test_group_signal_drains_the_sweep_in_flight(self, tmp_path,
                                                      signum):
        # Ctrl-C or `kill -<sig> -<pgid>` reaches the service, not its
        # workers, so the running sweep still finishes.
        grid = dict(self.POOL, workloads=["429.mcf", "470.lbm"],
                    defenses=["qprac", "moat"], entries=3000)
        proc, out, (_, sweep_id, workers) = self.serve_child(
            tmp_path, grid, "running")
        os.killpg(proc.pid, signum)
        try:
            proc.wait(timeout=120)
        finally:
            for pid in workers:
                if running(pid):
                    os.kill(pid, signal.SIGKILL)
        final = json.loads(out.read_text().splitlines()[-1])
        assert proc.returncode == 0
        assert final["sweep_id"] == sweep_id
        assert final["state"] == "done"
        assert final["executed"] == 6

    def test_stop_reaps_every_pool_worker(self, tmp_path):
        svc = SweepService(cache_dir=tmp_path / "cache", workers=2).start()
        first, _ = svc.submit(self.POOL)
        second, _ = svc.submit(dict(self.POOL, seed=1, jobs=1))
        for snapshot in (first, second):
            assert svc.status(snapshot["sweep_id"], wait_s=120.0)[
                "state"] == "done"
        assert pool_pids()
        svc.stop(timeout=60.0)
        assert multiprocessing.active_children() == []


class TestHTTP:
    def test_healthz(self, http_service):
        svc, base = http_service
        health = client.healthz(base)
        assert health["status"] == "ok"
        assert health["metrics"]["submissions"] == 0
        assert health["cache_dir"] == str(svc.cache_dir)

    def test_submit_poll_digest_equality(self, http_service, tmp_path):
        _svc, base = http_service
        snapshot = client.submit(base, GRID)
        final = client.wait_done(base, snapshot["sweep_id"], timeout=120.0)
        assert final["state"] == "done"
        assert final["digest"] == serial_digest(tmp_path)

    def test_duplicate_over_http_replays(self, http_service):
        _svc, base = http_service
        first = client.submit(base, GRID)
        client.wait_done(base, first["sweep_id"], timeout=120.0)
        again = client.submit(base, GRID)
        assert again["replay"] is True
        assert again["executed"] == 0

    def test_stream_ends_with_status_line(self, http_service):
        _svc, base = http_service
        snapshot = client.submit(base, GRID)
        lines = list(client.stream(base, snapshot["sweep_id"],
                                   timeout=120.0))
        assert lines[-1]["type"] == "status"
        assert lines[-1]["state"] == "done"
        jobs = [l for l in lines if l.get("type") == "job"]
        assert len(jobs) == snapshot["total_jobs"]

    def test_unknown_sweep_404(self, http_service):
        _svc, base = http_service
        with pytest.raises(ServiceError) as exc:
            client.status(base, "feedfacefeedface")
        assert exc.value.status == 404

    def test_invalid_body_400(self, http_service):
        _svc, base = http_service
        with pytest.raises(ServiceError) as exc:
            client.submit(base, {"workloads": ["no.such"]})
        assert exc.value.status == 400

    def test_malformed_json_400(self, http_service):
        _svc, base = http_service
        request = urllib.request.Request(
            f"{base}/sweeps", data=b"{nope",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=10)
        assert exc.value.code == 400

    def test_unknown_endpoint_404(self, http_service):
        _svc, base = http_service
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"{base}/nope", timeout=10)
        assert exc.value.code == 404

    def test_drain_rejects_new_submissions(self, http_service):
        svc, base = http_service
        svc.drain(timeout=30.0)
        assert client.healthz(base)["status"] == "draining"
        with pytest.raises(ServiceError) as exc:
            client.submit(base, GRID)
        assert exc.value.status == 503

    def test_chaos_fleet_through_the_service(self, http_service, tmp_path):
        # The PR-8 chaos harness must keep passing through the service
        # path: faults fire, the fleet recovers, the digest still
        # matches a clean serial run.
        _svc, base = http_service
        snapshot = client.submit(base, dict(
            GRID,
            backend="remote-fleet",
            hosts=["local"],
            faults="kill-worker:times=1",
        ))
        final = client.wait_done(base, snapshot["sweep_id"], timeout=300.0)
        assert final["state"] == "done"
        assert final["digest"] == serial_digest(tmp_path)
        assert final["fleet"]["hosts"]["local"]["status"] == "active"


class TestCli:
    def test_parser_has_service_commands(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0", "--workers", "2"])
        assert args.port == 0 and args.workers == 2
        args = parser.parse_args([
            "submit", "429.mcf", "--defenses", "qprac",
            "--entries", "150", "--url", "http://h:1", "--print-digest",
        ])
        assert args.workloads == ["429.mcf"] and args.print_digest
        args = parser.parse_args(["status", "abc123", "--watch"])
        assert args.sweep_id == "abc123" and args.watch
        args = parser.parse_args(["cache", "gc", "--spool-age", "60"])
        assert args.spool_age == 60.0

    def test_submission_payload_keeps_defaults_sparse(self):
        from repro.cli import _submission_payload, build_parser

        args = build_parser().parse_args(["submit", "429.mcf"])
        payload = _submission_payload(args)
        assert payload["workloads"] == ["429.mcf"]
        assert "defenses" not in payload  # service default applies
        assert "faults" not in payload

    def test_submit_and_status_against_live_server(
        self, http_service, capsys
    ):
        from repro.cli import main

        _svc, base = http_service
        rc = main([
            "submit", "429.mcf", "--defenses", "qprac",
            "--entries", "150", "--url", base, "--print-digest",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "aggregate sha256: " in out
        digest = out.split("aggregate sha256: ")[1].strip()
        rc = main(["status", "--url", base])
        assert rc == 0
        listing = capsys.readouterr().out
        assert "done" in listing
        rc = main(["status", "--url", base, "--print-digest",
                   next(iter(_svc._records))])
        assert rc == 0
        assert digest in capsys.readouterr().out
