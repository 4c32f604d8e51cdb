#!/usr/bin/env python3
"""CI smoke client for `adacheck serve` (adacheck-serve-v1).

Exercises the documented protocol end to end against a daemon already
listening on 127.0.0.1:<port> (argv[1]):

  * submits scenarios/smoke.json twice at different priorities and
    waits for both to reach `done`,
  * streams one of them to SERVE_stream.jsonl (the CI step cmp's it
    against a batch `adacheck run --jsonl` of the same document),
  * submits the long scenarios/serve_soak.json job and cancels it,
  * checks submit validation errors name the job and its source and
    that unknown request types get a did-you-mean suggestion,
  * queries the stats verb, validates the adacheck-stats-v1 payload
    against the traffic just generated, and saves it to
    STATS_smoke.json (the CI step uploads it as an artifact),
  * asks the daemon to shut down (the CI step asserts exit code 0).

Exits non-zero (assertion) on any protocol deviation.
"""

import json
import socket
import sys
import time

EOT_SCHEMA = "adacheck-serve-eot-v1"


def reject_constant(name):
    raise ValueError("non-standard JSON constant " + name)


def unique_object(pairs):
    keys = [k for k, _ in pairs]
    assert len(keys) == len(set(keys)), "duplicate JSON keys: %r" % keys
    return dict(pairs)


def strict_loads(text):
    """json.loads that rejects NaN/Infinity and duplicate keys, as the
    project's own parser does (Python's default accepts both)."""
    return json.loads(text, parse_constant=reject_constant,
                      object_pairs_hook=unique_object)


def main():
    port = int(sys.argv[1])
    sock = socket.create_connection(("127.0.0.1", port), timeout=300)
    f = sock.makefile("rw", encoding="utf-8", newline="\n")

    def send(obj):
        f.write(json.dumps(obj) + "\n")
        f.flush()

    def rpc(obj):
        send(obj)
        return strict_loads(f.readline())

    def wait_done(job_id, want="done"):
        for _ in range(3000):
            st = rpc({"req": "status", "job": job_id})["job"]
            if st["state"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.1)
        assert st["state"] == want, st
        return st

    doc = json.load(open("scenarios/smoke.json"))

    # Two submissions of the same document at different priorities.
    lo = rpc({"req": "submit", "scenario": doc, "priority": 1, "source": "ci-lo"})
    hi = rpc({"req": "submit", "scenario": doc, "priority": 9, "source": "ci-hi"})
    assert lo["ok"] and hi["ok"], (lo, hi)
    assert lo["job"] != hi["job"], (lo, hi)

    # A long job, submitted by server-side path, to cancel later.
    soak = rpc({"req": "submit", "path": "scenarios/serve_soak.json",
                "priority": -5, "source": "ci-soak"})
    assert soak["ok"], soak

    # Stream the low-priority smoke job to completion; the bytes must
    # equal the batch run (the shell step cmp's the two files).
    send({"req": "stream", "job": lo["job"]})
    opening = strict_loads(f.readline())
    assert opening["ok"] and opening["req"] == "stream", opening
    chunks = []
    while True:
        line = f.readline()
        assert line, "stream closed before EOT"
        if '"%s"' % EOT_SCHEMA in line:
            eot = strict_loads(line)
            assert eot["schema"] == EOT_SCHEMA, eot
            assert eot["state"] == "done", eot
            assert eot["bytes"] == sum(len(c.encode()) for c in chunks), eot
            break
        chunks.append(line)
    with open("SERVE_stream.jsonl", "w", newline="") as out:
        out.write("".join(chunks))

    # Both priority submissions must complete.
    wait_done(lo["job"])
    wait_done(hi["job"])

    # Cancel the soak job: 90 cells x 20k runs cannot have finished.
    cancel = rpc({"req": "cancel", "job": soak["job"]})
    assert cancel["ok"], cancel
    st = wait_done(soak["job"], want="cancelled")
    assert st["cells_done"] < st["cells_total"], st

    # Errors name the failing document's source...
    bad = rpc({"req": "submit", "scenario": {"schema": "adacheck-scenario-v1"},
               "source": "ci-bad"})
    assert not bad["ok"], bad
    assert "ci-bad" in bad["error"] and bad.get("job", 0) > 0, bad

    # ...and unknown request types get a did-you-mean suggestion.
    typo = rpc({"req": "submitt"})
    assert not typo["ok"] and "did you mean" in typo["error"], typo

    listing = rpc({"req": "list"})
    states = sorted((j["job"], j["state"]) for j in listing["jobs"])
    print("serve smoke jobs:", states)
    assert len(listing["jobs"]) == 4, listing

    # The stats verb must reflect the traffic this script generated.
    reply = rpc({"req": "stats"})
    assert reply["ok"] and reply["req"] == "stats", reply
    stats = reply["stats"]
    assert stats["schema"] == "adacheck-stats-v1", stats
    counters = stats["counters"]
    # 4 submit requests, 3 of which became queued jobs (the invalid
    # document failed validation before entering the queue).
    assert counters["serve.jobs_submitted"] >= 3, counters
    assert counters["serve.jobs_failed"] >= 1, counters
    assert counters["serve.jobs_done"] >= 2, counters
    assert counters["serve.jobs_cancelled"] >= 1, counters
    assert counters["serve.requests.submit"] >= 4, counters
    assert "serve.queue_depth" in stats["gauges"], stats["gauges"]
    assert stats["histograms"]["serve.request_us.submit"]["count"] >= 4, stats

    # A request is counted when it completes, so the first stats reply
    # cannot include itself; the second must, and counters only grow.
    stats = rpc({"req": "stats"})["stats"]
    assert stats["counters"]["serve.requests.stats"] >= 1, stats["counters"]
    assert stats["counters"]["serve.requests.submit"] >= counters[
        "serve.requests.submit"], stats["counters"]
    with open("STATS_smoke.json", "w") as out:
        json.dump(stats, out, indent=1, sort_keys=True)
    print("serve stats:", {k: v for k, v in sorted(counters.items())
                           if not k.startswith("pool.")})

    bye = rpc({"req": "shutdown"})
    assert bye["ok"], bye


if __name__ == "__main__":
    main()
