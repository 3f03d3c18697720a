"""Record the stdout digest of every invocation the workloads can generate.

    python3 perfbench/record.py

Runs each candidate invocation at ``--threads 1`` and ``--threads 2``,
requires exit code 0, the same stdout at both thread counts and a clean
oracle verdict, and writes ``digests.json``.  Run it only at a commit whose
output is known to be right: the benchmark fails any later invocation whose
stdout differs from what this records.
"""

from __future__ import annotations

import json
import sys
from time import monotonic

import oracles
import workloads
from run import Runner


def main() -> int:
    runner = Runner(monotonic() + 3600, {})
    digests = {}
    for key in workloads.all_keys():
        outs = [runner.spawn([sys.executable, "-m", "zrel.cli", *key, "--threads", t])
                for t in ("1", "2")]
        if any(p.code != 0 for p in outs) or outs[0].stdout != outs[1].stdout:
            print(f"{' '.join(key)}: exit codes or outputs differ across threads")
            return 1
        problems = oracles.check_output(key, outs[0].stdout)
        if problems:
            print(f"{' '.join(key)}: {problems[0]}")
            return 1
        digests[oracles.digest_key(key)] = oracles.sha256(outs[0].stdout)
    oracles.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {oracles.DIGESTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
