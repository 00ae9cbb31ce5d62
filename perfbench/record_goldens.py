"""Record the JSON outputs of the cli workload's exit-0 JSON commands as
goldens (``perfbench/cli_goldens.json``).  Run from the checkout root on
a commit whose outputs are known good:

    python3 perfbench/record_goldens.py
"""

from __future__ import annotations

import json
import sys

from harness import run_child
from workloads import CLI_COMMANDS, GOLDENS, Cli, cli_key


def main() -> int:
    goldens = {}
    for cmd in CLI_COMMANDS:
        _, fmt, want, _ = cmd
        if fmt != "json" or want != 0:
            continue
        res = run_child(Cli.exec_argv(cmd))
        if res.code != 0:
            print(f"`{cli_key(cmd)}` exited {res.code}", file=sys.stderr)
            return 1
        goldens[cli_key(cmd)] = res.out.decode()
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(goldens)} goldens in {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
