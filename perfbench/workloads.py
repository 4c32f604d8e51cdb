"""The four adacheck benchmark workloads and the commands they time.

Every workload is a closed loop of "jobs" driven from this one process
with at most THREADS threads and connections.  A job is one user
command (`adacheck run`, `adacheck campaign`) or one serve request
pair (submit, then stream to the EOT line).  Every job's output is
checked; a wrong output, a non-zero exit or a refused submit counts as
a failed operation.

Each workload returns the same end-to-end metric set (see README.md for
what each metric means on each workload):

  setup_s      median over SETUP_REPEATS complete set-ups
  peak_rss_mb  peak resident memory of the measured processes (MiB)
  wall_s       median wall time of one `adacheck run` of the input
               (serve: `adacheck submit --follow`)
  cold_s       median `adacheck campaign` into an empty cache (serve:
               daemon start to the first job's EOT)
  warm_s       median replay of that campaign from the full cache
               (serve: one job alone on the warm daemon)
  jobs_per_s   jobs of the main phase completed per second
  job_p50_ms   median job latency of the main phase
  job_p99_ms   99th-percentile job latency of the main phase
"""

import json
import os
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

THREADS = max(1, min(4, os.cpu_count() or 1))
SETUP_REPEATS = 3
ENVIRONMENTS = ["poisson", "bursty-orbit", "weibull-infant"]
EOT_SCHEMA = b'"adacheck-serve-eot-v1"'
BURST_S = 1.0  # closed-loop serve burst between interleaved measurements

# Input sizes.  "full" is what the benchmark measures; "smoke" only
# proves that every path runs and every metric is produced.
SIZES = {
    "full": {"paper_runs": 1000, "dag_runs": 256, "job_runs": 256,
             "campaign_runs": 100, "campaign_seeds": 8, "warm_per_cold": 20,
             "probe_runs": 256, "probe_rounds": 3, "probe_min_ms": 250},
    "smoke": {"paper_runs": 16, "dag_runs": 8, "job_runs": 16,
              "campaign_runs": 8, "campaign_seeds": 2, "warm_per_cold": 2,
              "probe_runs": 8, "probe_rounds": 1, "probe_min_ms": 5},
}

CAMPAIGN_SUMMARY = re.compile(
    rb"campaign: (\d+) cached, (\d+) executed, (\d+) failed, (\d+) skipped; "
    rb"(\d+) runs")


class Tally:
    """Operations attempted and failed; the first failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lock = threading.Lock()

    def check(self, ok, what):
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if self.failed <= 5:
                    print("perfbench: wrong output: " + what, file=sys.stderr)


class Sample:
    def __init__(self, wall, rss_mib, returncode):
        self.wall = wall
        self.rss_mib = rss_mib
        self.returncode = returncode


def percentile(values, q):
    """Linear-interpolated q-th percentile (numpy's default rule)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def same_bytes(a, b):
    return Path(a).read_bytes() == Path(b).read_bytes()


class Bench:
    """One workload run: the built binaries, a work directory, the seed."""

    def __init__(self, root, build_dir, work_dir, seed, size):
        self.root = Path(root)
        self.adacheck = Path(build_dir) / "adacheck" / "adacheck"
        self.probe = Path(build_dir) / "perfbench_probe"
        self.wd = Path(work_dir)
        self.seed = seed
        self.size = SIZES[size]
        self.tally = Tally()

    # --- inputs -----------------------------------------------------------

    def scenario(self, name, runs):
        doc = json.loads((self.root / "scenarios" / name).read_text())
        doc["config"] = {"runs": runs, "seed": self.seed}
        doc.pop("output", None)
        return doc

    def write_inputs(self):
        """(Re)creates the work directory with every seeded document."""
        shutil.rmtree(self.wd, ignore_errors=True)
        self.wd.mkdir(parents=True)
        s = self.size
        job = self.scenario("smoke.json", s["job_runs"])
        job["name"] = "perfbench_job"
        for experiment in job["experiments"]:
            experiment["schemes"] = ["Poisson", "k-f-t", "A_D"]
        docs = {
            "paper_tables.json": self.scenario("paper_tables.json",
                                               s["paper_runs"]),
            "dag.json": self.scenario("dag_policy_sweep.json", s["dag_runs"]),
            "serve_job.json": job,
            "campaign_scenario.json": self.scenario("paper_tables.json",
                                                    s["campaign_runs"]),
            "campaign.json": campaign_doc("campaign_scenario.json", {
                "seeds": [self.seed + i for i in range(s["campaign_seeds"])],
                "environments": ENVIRONMENTS}),
        }
        for name in ["paper_tables.json", "dag.json"]:
            docs["campaign_" + name] = campaign_doc(name, {})
        for name, doc in docs.items():
            (self.wd / name).write_text(json.dumps(doc, indent=1) + "\n")

    # --- commands ---------------------------------------------------------

    def command(self, args, stdout=None):
        """Runs adacheck in the work directory; times it and reads its
        peak RSS from wait4."""
        with open(self.wd / (stdout or os.devnull), "wb") as out, \
                open(self.wd / "stderr.log", "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([str(self.adacheck)] + args, cwd=self.wd,
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(wall, usage.ru_maxrss / 1024.0, proc.returncode)

    def run(self, doc, threads, out, jsonl=None):
        args = ["run", doc, "--no-perf", "--quiet", "--threads=%d" % threads,
                "--out=" + out]
        if jsonl:
            args.append("--jsonl=" + jsonl)
        return self.command(args)

    def checked_run(self, doc, golden):
        s = self.run(doc, THREADS, "out.json")
        ok = s.returncode == 0 and same_bytes(self.wd / "out.json",
                                              self.wd / golden)
        self.tally.check(ok, "adacheck run %s: report differs from %s"
                         % (doc, golden))
        return s

    def campaign(self, doc, tag, cached, executed):
        """One `adacheck campaign` into ./cache; checks its report and
        JSONL against the golden pair and its cached/executed counts."""
        s = self.command(["campaign", doc, "--no-perf", "--cache=cache",
                          "--out=%s.json" % tag, "--jsonl=%s.jsonl" % tag],
                         stdout=tag + ".txt")
        ok = s.returncode == 0
        if ok and tag != "campaign_golden":
            ok = (same_bytes(self.wd / (tag + ".json"),
                             self.wd / "campaign_golden.json")
                  and same_bytes(self.wd / (tag + ".jsonl"),
                                 self.wd / "campaign_golden.jsonl"))
        text = (self.wd / (tag + ".txt")).read_bytes()
        summary = CAMPAIGN_SUMMARY.search(text)
        if ok and summary:
            n_cached, n_executed, n_failed, _, n_runs = map(
                int, summary.groups())
            ok = n_failed == 0 and (n_cached > 0) == cached and \
                (n_executed > 0) == executed and (n_runs == 0) == (not executed)
        self.tally.check(ok and summary is not None,
                         "adacheck campaign %s (%s) is wrong" % (doc, tag))
        return s

    def campaign_cycle(self, doc, cold, warm):
        """Cold campaign into an emptied cache, then warm_per_cold warm
        replays; appends the samples to `cold` and `warm`."""
        shutil.rmtree(self.wd / "cache", ignore_errors=True)
        cold.append(self.campaign(doc, "cold", cached=False, executed=True))
        for _ in range(self.size["warm_per_cold"]):
            warm.append(self.campaign(doc, "warm", cached=True, executed=False))

    def prefill(self, doc):
        """Set-up half of campaign_cycle: the golden cold run fills the
        cache, one warm replay must reproduce it."""
        shutil.rmtree(self.wd / "cache", ignore_errors=True)
        self.campaign(doc, "campaign_golden", cached=False, executed=True)
        self.campaign(doc, "warm", cached=True, executed=False)


def campaign_doc(scenario, entry):
    return {"schema": "adacheck-campaign-v1", "name": "perfbench",
            "matrix": [dict({"scenario": scenario}, **entry)]}


def timed_setups(setup):
    """Runs `setup(last)` SETUP_REPEATS times; returns the median time."""
    times = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        setup(rep == SETUP_REPEATS - 1)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def interleave(seconds, activities):
    """Runs one step at a time of whichever (share, step) activity is
    furthest below its share of the time spent so far, until `seconds`
    have passed and every activity has run.  Each metric's samples are
    thereby spread over the whole window, so slow drifts in machine
    speed reach all metrics alike.  Returns the time spent per activity.
    """
    spent = [0.0] * len(activities)
    start = time.perf_counter()
    while True:
        i = min(range(len(activities)),
                key=lambda k: spent[k] / activities[k][0])
        t0 = time.perf_counter()
        activities[i][1]()
        spent[i] += time.perf_counter() - t0
        if time.perf_counter() - start >= seconds and all(spent):
            return spent


def job_metrics(jobs, elapsed):
    """jobs_per_s and latency percentiles over the main phase's jobs."""
    return {"jobs_per_s": len(jobs) / elapsed,
            "job_p50_ms": percentile(jobs, 50) * 1e3,
            "job_p99_ms": percentile(jobs, 99) * 1e3}


def median_wall(samples):
    return statistics.median(s.wall for s in samples)


def mean_rss(samples):
    return statistics.fmean(s.rss_mib for s in samples)


# --- paper_tables and dag_graphs --------------------------------------------

def scenario_run(b, doc, seconds):
    """`adacheck run <doc>` in a closed loop (75% of the time),
    interleaved with the same document as a one-entry campaign, cold
    and warm."""
    camp = "campaign_" + doc

    def setup(_last):
        b.write_inputs()
        s = b.run(doc, 1, "golden_run.json")
        b.tally.check(s.returncode == 0, "golden run of " + doc)
        b.checked_run(doc, "golden_run.json")
        b.prefill(camp)

    setup_s = timed_setups(setup)
    runs, cold, warm = [], [], []
    spent = interleave(seconds, [
        (0.75, lambda: runs.append(b.checked_run(doc, "golden_run.json"))),
        (0.25, lambda: b.campaign_cycle(camp, cold, warm))])
    metrics = {"setup_s": setup_s, "peak_rss_mb": mean_rss(runs),
               "wall_s": median_wall(runs), "cold_s": median_wall(cold),
               "warm_s": median_wall(warm)}
    metrics.update(job_metrics([s.wall for s in runs], spent[0]))
    return metrics, {"jobs": len(runs), "cold": len(cold), "warm": len(warm)}


def paper_tables(b, seconds):
    return scenario_run(b, "paper_tables.json", seconds)


def dag_graphs(b, seconds):
    return scenario_run(b, "dag.json", seconds)


# --- campaign_cache ---------------------------------------------------------

def campaign_cache(b, seconds):
    """Seeds x environments campaign over the paper tables: cold, then
    warm_per_cold replays, for 90% of the time, interleaved with
    `adacheck run` of one of its cells (first seed, poisson) without the
    cache."""
    doc = "campaign_scenario.json"

    def setup(_last):
        b.write_inputs()
        b.prefill("campaign.json")
        s = b.run(doc, 1, "golden_run.json")
        b.tally.check(s.returncode == 0, "golden run of " + doc)

    setup_s = timed_setups(setup)
    cold, warm, runs = [], [], []
    spent = interleave(seconds, [
        (0.9, lambda: b.campaign_cycle("campaign.json", cold, warm)),
        (0.1, lambda: runs.append(b.checked_run(doc, "golden_run.json")))])
    jobs = cold + warm
    metrics = {"setup_s": setup_s, "peak_rss_mb": mean_rss(jobs),
               "wall_s": median_wall(runs), "cold_s": median_wall(cold),
               "warm_s": median_wall(warm)}
    metrics.update(job_metrics([s.wall for s in jobs], spent[0]))
    return metrics, {"jobs": len(jobs), "cold": len(cold), "warm": len(warm),
                     "runs": len(runs)}


# --- serve_small_jobs -------------------------------------------------------

class Daemon:
    """An `adacheck serve` process on an ephemeral port."""

    def __init__(self, b):
        port_file = b.wd / "port.txt"
        port_file.unlink(missing_ok=True)
        with open(b.wd / "serve.log", "ab") as log:
            self.proc = subprocess.Popen(
                [str(b.adacheck), "serve", "--port-file=port.txt", "--quiet"],
                cwd=b.wd, stdout=log, stderr=log)
        deadline = time.perf_counter() + 30
        while not (port_file.exists() and port_file.read_text().strip()):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.kill()
                raise RuntimeError("adacheck serve did not start")
            time.sleep(0.0005)
        self.port = int(port_file.read_text())
        self.rss_mib = None

    def shutdown(self):
        """Asks the daemon to exit; returns its exit code (peak RSS in
        rss_mib)."""
        with Client(self.port) as c:
            c.send({"req": "shutdown"})
            c.line()
        deadline = time.perf_counter() + 30
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rss_mib = usage.ru_maxrss / 1024.0
                return self.proc.returncode
            if time.perf_counter() > deadline:
                self.kill()
                return -1
            time.sleep(0.005)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Client:
    """One serve connection running jobs back to back."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.rfile = self.sock.makefile("rb")

    def __enter__(self):
        return self

    def __exit__(self, *_):
        self.rfile.close()
        self.sock.close()

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def line(self):
        line = self.rfile.readline()
        if not line:
            raise RuntimeError("serve connection closed")
        return line

    def job(self, submit, golden, tally):
        """Submit, then stream to EOT.  Returns (t_submit, t_ack,
        t_first_cell, t_eot, rejected)."""
        t0 = time.perf_counter()
        self.sock.sendall(submit)
        ack = json.loads(self.line())
        t1 = time.perf_counter()
        if not ack.get("ok"):
            tally.check(False, "submit refused: %s" % ack.get("error"))
            return t0, t1, t1, t1, bool(ack.get("queue_full"))
        self.send({"req": "stream", "job": ack["job"]})
        opening = json.loads(self.line())
        body, t2 = [], None
        while True:
            line = self.line()
            if EOT_SCHEMA in line:
                t3 = time.perf_counter()
                eot = json.loads(line)
                break
            if t2 is None:
                t2 = time.perf_counter()
            body.append(line)
        data = b"".join(body)
        tally.check(opening.get("ok") and eot.get("state") == "done" and
                    eot.get("bytes") == len(data) and data == golden,
                    "serve job %s: state %s, stream differs from the batch "
                    "JSONL" % (ack["job"], eot.get("state")))
        return t0, t1, t2 or t3, t3, False


def job_request(b):
    """The submit line for the job document and its golden JSONL."""
    doc = json.loads((b.wd / "serve_job.json").read_text())
    submit = (json.dumps({"req": "submit", "scenario": doc,
                          "source": "perfbench"}) + "\n").encode()
    return submit, (b.wd / "golden_run.jsonl").read_bytes()


def lone_job(b, port):
    """One job on its own connection, the daemon otherwise idle;
    returns its submit-to-EOT seconds."""
    with Client(port) as c:
        t = c.job(*job_request(b), b.tally)
    return t[3] - t[0]


def submit_follow(b, port):
    """`adacheck submit --follow`, the serve user command; its stdout
    must equal the batch JSONL."""
    s = b.command(["submit", "serve_job.json", "--port=%d" % port,
                   "--source=perfbench", "--follow"], stdout="follow.jsonl")
    ok = s.returncode == 0 and same_bytes(b.wd / "follow.jsonl",
                                          b.wd / "golden_run.jsonl")
    b.tally.check(ok, "adacheck submit --follow: stream differs from the "
                  "batch JSONL")
    return s


def cold_daemon_job(b):
    """Seconds from starting a fresh daemon to the EOT of its first job;
    the daemon is then shut down."""
    t0 = time.perf_counter()
    daemon = Daemon(b)
    try:
        lone_job(b, daemon.port)
        elapsed = time.perf_counter() - t0
        b.tally.check(daemon.shutdown() == 0, "serve shutdown exit code")
    finally:
        daemon.kill()
    return elapsed


def closed_loop(b, port, until):
    """THREADS connections, each submitting the job document and
    streaming it to EOT before submitting again, until the deadline.
    Returns the per-job timestamps."""
    submit, golden = job_request(b)
    results = [[] for _ in range(THREADS)]
    errors = []

    def loop(out):
        try:
            with Client(port) as c:
                while not out or time.perf_counter() < until:
                    out.append(c.job(submit, golden, b.tally))
        except Exception as e:  # noqa: BLE001 - reported as a failure
            errors.append(e)
            b.tally.check(False, "serve client: %s" % e)

    threads = [threading.Thread(target=loop, args=(r,)) for r in results]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    jobs = [j for r in results for j in r]
    if not jobs:
        raise RuntimeError("no serve job completed: %s" % errors)
    return jobs


def serve_setup(b):
    """Work directory, golden batch JSONL, daemon start, one warm-up job
    per connection.  Returns the running daemon."""
    b.write_inputs()
    s = b.run("serve_job.json", 1, "golden_run.json", jsonl="golden_run.jsonl")
    b.tally.check(s.returncode == 0, "golden run of serve_job.json")
    daemon = Daemon(b)
    try:
        closed_loop(b, daemon.port, 0)
    except BaseException:
        daemon.kill()
        raise
    return daemon


def serve_small_jobs(b, seconds):
    """Closed loop of THREADS connections in BURST_S bursts for 80% of
    the time, interleaved with `adacheck submit --follow` (wall_s),
    first jobs of freshly started daemons (cold_s) and lone jobs on the
    idle warm daemon (warm_s)."""
    daemons = []

    def setup(last):
        daemon = serve_setup(b)
        if last:
            daemons.append(daemon)
        else:
            b.tally.check(daemon.shutdown() == 0, "serve shutdown exit code")

    setup_s = timed_setups(setup)
    daemon = daemons[0]
    jobs, follows, cold, warm = [], [], [], []
    try:
        spent = interleave(seconds, [
            (0.8, lambda: jobs.extend(
                closed_loop(b, daemon.port, time.perf_counter() + BURST_S))),
            (0.1, lambda: follows.append(submit_follow(b, daemon.port))),
            (0.05, lambda: cold.append(cold_daemon_job(b))),
            (0.05, lambda: warm.append(lone_job(b, daemon.port)))])
        b.tally.check(daemon.shutdown() == 0, "serve shutdown exit code")
    finally:
        daemon.kill()
    metrics = {"setup_s": setup_s, "peak_rss_mb": daemon.rss_mib,
               "wall_s": median_wall(follows),
               "cold_s": statistics.median(cold),
               "warm_s": statistics.median(warm)}
    metrics.update(job_metrics([j[3] - j[0] for j in jobs], spent[0]))
    return metrics, {"jobs": len(jobs), "cold": len(cold), "warm": len(warm),
                     "follows": len(follows), "connections": THREADS}


def serve_layers(b, seconds):
    """Client-side serve phases for the traced run, and the job count."""
    daemon = serve_setup(b)
    try:
        jobs = closed_loop(b, daemon.port, time.perf_counter() + seconds)
        b.tally.check(daemon.shutdown() == 0, "serve shutdown exit code")
    finally:
        daemon.kill()
    rejected = sum(1 for j in jobs if j[4])

    def median_ms(start, end):
        return statistics.median(j[end] - j[start] for j in jobs) * 1e3

    return {
        "serve.submit_rtt_ms": median_ms(0, 1),
        "serve.first_cell_ms": median_ms(1, 2),
        "serve.stream_ms": median_ms(2, 3),
        "serve.rejected_frac": rejected / len(jobs),
    }, len(jobs)


WORKLOADS = {
    "paper_tables": paper_tables,
    "serve_small_jobs": serve_small_jobs,
    "campaign_cache": campaign_cache,
    "dag_graphs": dag_graphs,
}
