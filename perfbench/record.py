"""Record the output digests that run.py checks every pass against.

    python3 perfbench/record.py

Runs one pass of every configuration in every workload's pool, plus the toy
ones, refuses to record outputs that fail their cross-check, and rewrites
expected.json.  Re-record only when an output is meant to change; the
package promises byte-identical output for fixed inputs.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import EXPECTED, ROOT, Meter, cli_env, digest, run_steps
from workloads import WORKLOADS, config_key, output_files


def main() -> int:
    expected: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        meter = Meter(work, cli_env(), {"interpreter"})
        for workload in WORKLOADS.values():
            for config in (*workload.pool, workload.toy):
                key = config_key(workload, config)
                steps = workload.steps(config)
                _done, problems = run_steps(steps, meter, traced=False)
                problems = problems or workload.cross_check(config, work)
                if problems:
                    print(f"{key}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                expected[key] = {name: digest(work / name) for name in output_files(steps)}
                print(key, file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
