#!/usr/bin/env python3
"""Write reference_batch.json: the batch_grid outputs of the current code.

    python3 perfbench/record_reference.py

Run it only when the pinned outputs are meant to change; batch_grid then
checks every later run against the file within run.BATCH_REL_TOL.
"""

import json

import run


def main() -> None:
    cli = run.load_cli()
    op = run.Op(calls=tuple(argv + tuple(run.JSON_OUT) for argv in run.BATCH_CALLS.values()),
                work=1)
    record = run.run_op(cli, op)
    reference = {}
    for key, call in zip(run.BATCH_CALLS, record.calls):
        if call.exit_code != 0:
            raise SystemExit(f"{key}: exit {call.exit_code}, error {call.error}")
        reference[key] = json.loads(call.stdout)
    run.REFERENCE_FILE.write_text(json.dumps(reference, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
