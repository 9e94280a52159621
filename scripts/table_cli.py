"""Command-line contract shared by the bench-table generators.

icollect_pulls and icollect_scenarios parse their flags with one parser
(tools/bench_table.h). Numeric flags take plain unsigned decimal
integers: a sign, trailing text, an empty value or a value beyond
uint64 must exit 2 with a message naming the flag, never be read as a
prefix or wrap around. check_pulls.py and check_scenarios.py import
check_table_cli() and run it against their generator.
"""

import json
import subprocess
import sys

UINT64_MAX = "18446744073709551615"

# (argv, flag the error message must name)
NEGATIVES = [
    (["--replicas", "5x"], "--replicas"),
    (["--replicas", "+4"], "--replicas"),
    (["--replicas", "-1"], "--replicas"),
    (["--replicas", ""], "--replicas"),
    (["--replicas", "0"], "--replicas"),
    (["--replicas"], "--replicas"),
    (["--seed", "-3"], "--seed"),
    (["--seed", " 7"], "--seed"),
    (["--seed", "0x10"], "--seed"),
    (["--seed", "18446744073709551616"], "--seed"),
    (["--seed", ""], "--seed"),
    (["--bogus"], "--bogus"),
]


def check_table_cli(generator: str) -> None:
    for args, flag in NEGATIVES:
        proc = subprocess.run([generator, *args], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, check=False)
        err = proc.stderr.decode(errors="replace")
        if proc.returncode != 2 or flag not in err:
            print(f"FAIL: {generator} {args!r}: exit {proc.returncode}, "
                  f"stderr {err!r} (expected exit 2 naming {flag})",
                  file=sys.stderr)
            sys.exit(1)
        print(f"  ok: {args!r} exits 2 naming {flag}")

    # The largest seed is accepted and echoed back exactly.
    proc = subprocess.run([generator, "--quick", "--seed", UINT64_MAX],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          check=False)
    if proc.returncode != 0 or proc.stderr:
        sys.stderr.buffer.write(proc.stderr)
        print(f"FAIL: {generator} --quick --seed {UINT64_MAX}: exit "
              f"{proc.returncode}", file=sys.stderr)
        sys.exit(1)
    doc = json.loads(proc.stdout)
    if str(doc["base_seed"]) != UINT64_MAX or doc["replicas"] != 2:
        print(f"FAIL: --quick --seed {UINT64_MAX} recorded base_seed "
              f"{doc['base_seed']}, replicas {doc['replicas']}",
              file=sys.stderr)
        sys.exit(1)
    print(f"  ok: --seed {UINT64_MAX} accepted, quiet stderr")
