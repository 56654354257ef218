#!/usr/bin/env python3
"""Compare the device events of two merged --dump-trace timelines.

Usage: device_events_equal.py A.json B.json

Host spans (pid 1) carry wall time, so only the events of the other
processes (the device timelines and any sim-clock overlay) are
compared. Exits 1 when they differ or when A holds no device records.
"""
import json
import sys


def device_events(path):
    with open(path) as f:
        return [e for e in json.load(f) if e.get("pid") != 1]


a, b = (device_events(p) for p in sys.argv[1:3])
records = sum(1 for e in a if e.get("ph") == "X")
print(f"{sys.argv[1]}: {len(a)} device events, {records} records")
if not records:
    sys.exit(f"{sys.argv[1]} holds no device records")
if a != b:
    sys.exit(f"device events of {sys.argv[1]} and {sys.argv[2]} differ")
