"""Run one clvkit CLI command in-process and record its own peak resident set.

Usage: python3 measured.py PEAK_FILE CLI_ARG...

The command runs through ``clvkit.cli.main``, as ``python3 -m clvkit.cli``
would run it. At exit the process writes its ``VmHWM`` (the high-water mark
of its own address space, in KiB) to PEAK_FILE. Unlike the ``ru_maxrss``
a parent gets from ``wait4``, ``VmHWM`` starts afresh at exec, so it never
carries over the resident set of the process that spawned this one.
"""

from __future__ import annotations

import sys


def peak_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    peak_path, cli_args = argv[0], argv[1:]
    import clvkit.cli

    try:
        return clvkit.cli.main(cli_args)
    finally:
        with open(peak_path, "w", encoding="ascii") as fh:
            fh.write(f"{peak_kib()}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
