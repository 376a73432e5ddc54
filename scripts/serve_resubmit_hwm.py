#!/usr/bin/env python3
"""Bounded-memory probe for `dynamo serve`: resubmit one manifest on a
keep-alive connection and check the server's peak RSS stops growing.

Every resubmission must reuse job 1 (the manifest's first submission),
so it queues nothing and keeps nothing. The server's VmHWM is read from
/proc/<pid>/status after 1,000 resubmissions and again after `--more`
further ones; the second may exceed the first by at most 10 %.

Usage: python3 scripts/serve_resubmit_hwm.py PORT PID MANIFEST [--more=20000]
Exit code 1 when a reply is not job 1 or the peak grew by more than 10 %.
"""
import argparse
import http.client
import sys

WARMUP = 1000
SLACK = 0.10


def vm_hwm_kb(pid):
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("port", type=int)
    parser.add_argument("pid", type=int)
    parser.add_argument("manifest")
    parser.add_argument("--more", type=int, default=20000)
    args = parser.parse_args()

    with open(args.manifest, "rb") as fh:
        body = fh.read()
    conn = http.client.HTTPConnection("127.0.0.1", args.port, timeout=10)

    def resubmit(count):
        for _ in range(count):
            conn.request("POST", "/campaigns", body, {"Connection": "keep-alive"})
            reply = conn.getresponse()
            data = reply.read()
            if reply.status != 202 or not data.startswith(b'{"id":1,'):
                sys.exit(f"resubmission answered {reply.status}: {data!r}")

    resubmit(WARMUP)
    first = vm_hwm_kb(args.pid)
    resubmit(args.more)
    last = vm_hwm_kb(args.pid)
    conn.close()
    print(f"serve VmHWM: {first} kB after {WARMUP} resubmissions, "
          f"{last} kB after {WARMUP + args.more}")
    if last > first * (1 + SLACK):
        sys.exit(f"VmHWM grew by more than {SLACK:.0%}")


if __name__ == "__main__":
    main()
