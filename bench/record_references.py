"""Record the output digests that runs at the default seed are compared with.

    python3 bench/record_references.py

Runs one pass of every workload at the default seed, checks every item,
and writes references.json.  Re-record only for an intended output change,
and say so where the change is described.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run
import workloads


def main() -> int:
    run.cap_threads()
    cli = run.load_program()
    import checks

    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / "work-references"
    workdir.mkdir(exist_ok=True)
    ctx = run.Context("", workdir, cli.main, checks)
    digests = {}
    try:
        for workload in workloads.WORKLOADS:
            for item in sorted(workloads.generate(workload, run.DEFAULT_SEED), key=lambda i: i.key):
                argv, paths = run._prepare(item, ctx)
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    rc = cli.main(argv)
                problems = checks.check(item, rc, paths, stdout.getvalue())
                if problems:
                    print(f"{item.key}: {problems}", file=sys.stderr)
                    return 1
                digests[item.key] = checks.digest(item, paths, stdout.getvalue())
                print(f"recorded {item.key}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # one item per line keeps re-recordings readable in a diff
    head = {"seed": run.DEFAULT_SEED, "rtol": checks.REFERENCE_RTOL, "atol": checks.REFERENCE_ATOL}
    lines = [f" {json.dumps(k)}: {json.dumps(v)}," for k, v in head.items()]
    lines += [' "items": {']
    lines += [f"  {json.dumps(k)}: {json.dumps(v)}," for k, v in digests.items()]
    lines[-1] = lines[-1].rstrip(",")
    run.REFERENCES.write_text("{\n" + "\n".join(lines) + "\n }\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
