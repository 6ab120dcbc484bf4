"""Fresh-process probes, started by run.py one at a time.

``child.py SRC setup ARGS_JSON`` imports ``sharplp.cli`` and parses each
command line of ARGS_JSON, nothing more; the parent times it from spawn to
exit as the set-up time.

``child.py SRC pass WORKLOAD SEED`` runs one pass of the workload with stdout
hashed instead of kept, and prints a JSON line with each invocation's exit
code, output digest and error, and the process's own peak resident memory.
"""
import json
import sys

src, mode = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)

if mode == "setup":
    from sharplp import cli

    for args in json.loads(sys.argv[3]):
        cli.parse_config(args)
    raise SystemExit(0)

import hashlib
import io
import resource

import workloads
from sharplp import cli


class HashSink(io.TextIOBase):
    """Text sink that keeps only the sha256 of what is written."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def writable(self):
        return True

    def write(self, s):
        self.hash.update(s.encode("utf-8"))
        return len(s)


ops = []
for inv in workloads.invocations(sys.argv[3], int(sys.argv[4])):
    sink = HashSink()
    op = workloads.run_invocation(cli, inv, stdout=sink)
    ops.append({"exit_code": op.exit_code, "sha256": sink.hash.hexdigest(), "error": op.error})
print(json.dumps({
    "ops": ops,
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
