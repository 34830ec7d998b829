"""Daemon vs. in-process sweeps under a two-client load (report only).

Two overlapping Figure-2 grids — alpha only, scale 1/8000, instances
1..3 and 1..5, both policies and both quanta — run two ways:

* ``daemon``: two concurrent clients of one ``repro serve --workers 2``;
* ``local``: two concurrent ``--no-daemon`` processes (serial, as
  ``repro fig2`` runs by default) sharing one ``REPRO_CACHE_DIR``.

Every run starts from a fresh, empty cache.  The ways alternate, and
which one goes first alternates too.  Per run the script records the
wall time from launching the two clients to both exiting, the points
the clients shared (cache hits plus coalesced, the numbers a ``repro
fig2`` sweep line prints) and the peak RSS of every process.  Both
ways must produce byte-identical CSVs, or the script exits nonzero.

Usage (from anywhere inside a checkout)::

    python benchmarks/service_compare.py     # writes BENCH_service.json
    python benchmarks/service_compare.py --runs 1 --out s.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.sim.client import ServeClient  # noqa: E402
from repro.sim.figures import figure2  # noqa: E402
from repro.sim.runner import (  # noqa: E402
    ResultCache,
    SweepRunner,
    default_cache_dir,
)
from repro.sim.serve import daemon_available  # noqa: E402

SCALE = 1 / 8000
#: The two clients' grids: Figure-2 instance ranges 1..N.
GRIDS = (3, 5)
WAYS = ("daemon", "local")
DAEMON_WORKERS = 2
START_TIMEOUT_S = 60.0


def _child(max_instances: int, socket_path: str | None, csv: str) -> int:
    """One client: the alpha Figure-2 grid, stats as JSON on stdout."""
    client = ServeClient(socket_path) if socket_path else None
    runner = SweepRunner(
        cache=ResultCache(default_cache_dir()),
        scheduler=client,
        tenant=f"grid{max_instances}",
    )
    try:
        figure = figure2(
            scale=SCALE, instances=range(1, max_instances + 1),
            workloads=("alpha",), runner=runner,
        )
    finally:
        if client is not None:
            client.close()
    Path(csv).write_text(figure.to_csv() + "\n")
    stats = runner.stats
    print(json.dumps({
        "points": stats.points,
        "executed": stats.executed,
        "cache_hits": stats.cache_hits,
        "coalesced": stats.coalesced,
    }))
    return 0


def _env(cache: Path) -> dict:
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _reap(proc: subprocess.Popen) -> tuple[int, float]:
    """Wait for ``proc``; its exit status and its own peak RSS in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # Linux: KiB


def _hwm_mb(pid: int) -> float | None:
    """A live process's peak RSS (``VmHWM``) in MB, where /proc has it."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return None


def _run(way: str, work: Path) -> dict:
    """One run of both clients, ``way`` daemon or local, cold cache."""
    cache = work / "cache"
    env = _env(cache)
    sock = work / "serve.sock"
    daemon = None
    started = time.perf_counter()
    if way == "daemon":
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--workers", str(DAEMON_WORKERS), "--socket", str(sock)],
            env=env, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + START_TIMEOUT_S
        while not daemon_available(sock):
            if time.monotonic() > deadline or daemon.poll() is not None:
                raise RuntimeError("repro serve never came up")
            time.sleep(0.05)
    daemon_start_s = time.perf_counter() - started
    clients = {}
    try:
        launched = time.perf_counter()
        for grid in GRIDS:
            command = [sys.executable, __file__, "--child", str(grid),
                       "--csv", str(work / f"{way}{grid}.csv")]
            if daemon is not None:
                command += ["--socket", str(sock)]
            clients[grid] = subprocess.Popen(
                command, env=env, stdout=subprocess.PIPE, text=True
            )
        rss = {}
        stats = {}
        for grid, proc in clients.items():
            with proc.stdout:
                out = proc.stdout.read()
            status, rss[f"client{grid}"] = _reap(proc)
            if status != 0:
                raise RuntimeError(f"client {grid} exited {status}")
            stats[grid] = json.loads(out.strip().splitlines()[-1])
        wall_s = time.perf_counter() - launched
        if daemon is not None:
            with ServeClient(sock, reconnect=0) as client:
                worker_pids = client.stats()["worker_pids"]
            for index, pid in enumerate(worker_pids):
                rss[f"worker{index}"] = _hwm_mb(pid)
            daemon.send_signal(signal.SIGINT)
            _, rss["daemon"] = _reap(daemon)
    finally:
        for proc in [*clients.values(), daemon]:
            if proc is not None and proc.returncode is None:
                proc.kill()
                proc.wait()
    return {
        "way": way,
        "wall_s": round(wall_s, 3),
        "daemon_start_s": round(daemon_start_s, 3) if daemon else None,
        "points": sum(s["points"] for s in stats.values()),
        "executed": sum(s["executed"] for s in stats.values()),
        "shared_points": sum(
            s["cache_hits"] + s["coalesced"] for s in stats.values()
        ),
        "peak_rss_mb": {
            name: None if mb is None else round(mb, 1)
            for name, mb in rss.items()
        },
        "csv": {grid: (work / f"{way}{grid}.csv").read_text()
                for grid in GRIDS},
    }


def _summary(runs: list[dict]) -> dict:
    def median(key):
        return round(statistics.median(run[key] for run in runs), 3)

    rss_names = sorted({name for run in runs for name in run["peak_rss_mb"]})
    return {
        "wall_s_median": median("wall_s"),
        "shared_points_median": median("shared_points"),
        "executed_median": median("executed"),
        "peak_rss_mb_max": {
            name: max(
                (run["peak_rss_mb"].get(name) or 0.0) for run in runs
            )
            for name in rss_names
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3,
                        help="runs of each way (default %(default)s)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_service.json"))
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--socket", help=argparse.SUPPRESS)
    parser.add_argument("--csv", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        return _child(args.child, args.socket, args.csv)

    runs: dict[str, list[dict]] = {way: [] for way in WAYS}
    scratch = Path(tempfile.mkdtemp(prefix="repro-service-"))
    try:
        for index in range(args.runs):
            order = WAYS if index % 2 == 0 else WAYS[::-1]
            for way in order:
                work = scratch / f"{way}{index}"
                work.mkdir()
                run = _run(way, work)
                runs[way].append(run)
                print(f"{way:>6} run {index}: wall {run['wall_s']:.2f}s, "
                      f"shared {run['shared_points']}, "
                      f"executed {run['executed']}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    reference = runs["local"][0]["csv"]
    identical = all(
        run["csv"] == reference for way in WAYS for run in runs[way]
    )
    for way in WAYS:
        for run in runs[way]:
            del run["csv"]
    document = {
        "benchmark": "benchmarks/service_compare.py",
        "purpose": "report only: two overlapping alpha Figure-2 grids "
                   "through one repro serve vs. two --no-daemon "
                   "processes sharing one cache directory",
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "grids": [f"alpha, scale 1/8000, instances 1..{n}, "
                  "2 policies x 2 quanta" for n in GRIDS],
        "daemon_workers": DAEMON_WORKERS,
        "runs_per_way": args.runs,
        "csv_identical": identical,
        "summary": {way: _summary(runs[way]) for way in WAYS},
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps(document["summary"], indent=1))
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
