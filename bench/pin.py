"""Regenerate ``expected.json``, the pinned verdict and plan of every instance.

    python3 bench/pin.py

Run only when a workload's definition changes on purpose.  Each answer
must pass the independent checks in ``check.py`` before it is pinned;
otherwise nothing is written and the exit code is 1.
"""
from __future__ import annotations

import json
import sys

import run  # first: it puts the checkout's src/ on sys.path

import check  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    pinned, problems = {}, []
    for workload in workloads.WORKLOADS:
        instances = workloads.build(workload, seed=0)
        results, _ = run.run_pass(instances)
        for inst in instances:
            result = results[inst.name]
            reason = result if isinstance(result, str) else check.confirm(inst, result)
            if reason is not None:
                problems.append(f"{inst.name}: {reason}")
                continue
            pinned[inst.name] = check.verdict(result)
    for line in problems:
        print(line, file=sys.stderr)
    if problems:
        return 1
    rows = [f" {json.dumps(name)}: {json.dumps(pinned[name])}" for name in sorted(pinned)]
    check.EXPECTED_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
