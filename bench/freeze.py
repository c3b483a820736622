#!/usr/bin/env python3
"""Write ``bench/golden.json``: the answers the benchmark checks.

    python3 bench/freeze.py

Run from the root of a source checkout.  Every value is computed by the
checked-out library, so run this only on a commit whose answers are
trusted; the demo transcript is taken from ``tests/cli_demo.py`` and
must match what the library prints.
"""

import json
import sys

import run


def main():
    sys.path.insert(0, str(run.SRC))
    sys.path.insert(0, str(run.ROOT / "tests"))
    from cli_demo import DEMO_EXPECTED, DEMO_SCRIPT
    lp = run.fresh_import()
    tr = run.NullTracer()

    ladder = {g.label: run.build_x(lp, tr, g)[1] for g in run.X_LADDER}
    sp2n = {str(n): run.count_sp2n(lp, tr, n)[1] for n in run.SP2N}
    if [sp2n[str(n)] for n in run.SP2N] != \
            [lp.sp2n_count(n) for n in run.SP2N]:
        raise SystemExit("staged sp2n pipeline disagrees with sp2n_count")

    blocks = {}
    sink = run.Capture()
    session = lp.cli.Session(sink)
    for g in run.CLI_GROUPS:
        _, answers = run.build_x(lp, tr, g)
        lines = run.block_commands(g, len(answers["forms"]),
                                   answers["elements"])
        blocks[g.label] = [[line, run.digest(run.run_command(
            tr, session, sink, line)[1])] for line in lines]

    demo = lp.cli.Session(sink)
    demo.run(DEMO_SCRIPT.splitlines())
    if sink.take() != DEMO_EXPECTED:
        raise SystemExit("demo transcript differs from tests/cli_demo.py")

    golden = {"x-ladder": ladder, "sp2n": sp2n, "cli-session": blocks,
              "demo": {"script": DEMO_SCRIPT, "expected": DEMO_EXPECTED}}
    path = run.BENCH / "golden.json"
    path.write_text(dump(golden))
    print(f"wrote {path}")


def dump(golden):
    """JSON with one entry per line (one command per line in a block)."""
    def value(v):
        if isinstance(v, list) and v and isinstance(v[0], list):
            return "[\n   " + ",\n   ".join(map(json.dumps, v)) + "\n  ]"
        return json.dumps(v)
    sections = []
    for key, entries in golden.items():
        body = ",\n".join(f"  {json.dumps(k)}: {value(v)}"
                           for k, v in entries.items())
        sections.append(f" {json.dumps(key)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    main()
