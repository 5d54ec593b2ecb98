#!/usr/bin/env python3
"""Bridge gem5 packet traces (and DynamoRIO-style memref dumps) onto the
text v1 request format (docs/traces.md).

Input formats, autodetected per line:

* gem5 CSV — the output of gem5's util/decode_packet_trace.py over a
  protobuf packet trace: ``tick,cmd,addr,size`` with cmd ``r``/``w``
  (ReadReq/WriteReq). Ticks are picoseconds in gem5's default
  configuration; --ticks-per-cycle (default 1000, i.e. a 1 GHz clock)
  converts tick deltas into the v1 pre_delay cycle counts.

* DynamoRIO memtrace — the memtrace_simple client's text output:
  ``<tid>: <pid or seq>, <read|write|ifetch> @ <hexaddr>`` or the common
  three-column variant ``<seq> <r|w|i> <hexaddr>``. No timing travels in
  these dumps; requests import with pre_delay 0 (use --pre-delay to
  space them uniformly instead).

Comment lines (``#``) and blank lines are skipped. Unparseable lines
abort with the line number — a silently mis-imported trace would replay
plausible-looking garbage.

The output is text v1; pack it with trace_convert into the framed v3
container for production replay.

Usage:
  scripts/import_gem5.py IN OUT [--ticks-per-cycle N] [--pre-delay N]
"""
import argparse
import re
import sys

GEM5_CSV = re.compile(r"^(\d+)\s*,\s*([rw])\s*,\s*(\d+)\s*,\s*(\d+)\s*$")
DRIO_AT = re.compile(
    r"^\s*\d+:\s*\d+,\s*(read|write|ifetch)\s*@\s*(?:0[xX])?([0-9a-fA-F]+)"
)
DRIO_COLS = re.compile(r"^\s*\d+\s+([rwi])\s+(?:0[xX])?([0-9a-fA-F]+)\s*$")

TYPE_CODE = {"r": "L", "w": "S", "i": "I",
             "read": "L", "write": "S", "ifetch": "I"}


def convert(lines, out, ticks_per_cycle, pre_delay):
    """Yields nothing; writes v1 lines to `out`. Returns request count."""
    out.write("# pipomonitor trace v1: <hex addr> <L|S|I|l|s|i>"
              " <pre_delay>\n")
    out.write("# imported by import_gem5.py\n")
    count = 0
    last_tick = None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = GEM5_CSV.match(line)
        if m:
            tick, cmd, addr = int(m.group(1)), m.group(2), int(m.group(3))
            delay = 0
            if last_tick is not None:
                if tick < last_tick:
                    raise ValueError(
                        f"line {line_no}: tick {tick} goes backwards "
                        f"(previous {last_tick})")
                delay = (tick - last_tick) // ticks_per_cycle
            last_tick = tick
            out.write(f"{addr:x} {TYPE_CODE[cmd]} {delay}\n")
            count += 1
            continue
        m = DRIO_AT.match(line) or DRIO_COLS.match(line)
        if m:
            kind, addr = m.group(1), int(m.group(2), 16)
            out.write(f"{addr:x} {TYPE_CODE[kind]} {pre_delay}\n")
            count += 1
            continue
        raise ValueError(f"line {line_no}: unrecognized record: {line!r}")
    return count


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("input", help="gem5 CSV or DynamoRIO memtrace text")
    ap.add_argument("output", help="text v1 trace to write")
    ap.add_argument("--ticks-per-cycle", type=int, default=1000,
                    help="gem5 ticks per CPU cycle (default 1000: "
                         "picosecond ticks, 1 GHz clock)")
    ap.add_argument("--pre-delay", type=int, default=0,
                    help="pre_delay for formats that carry no timing "
                         "(DynamoRIO; default 0)")
    args = ap.parse_args()
    if args.ticks_per_cycle <= 0:
        ap.error("--ticks-per-cycle must be > 0")
    if args.pre_delay < 0:
        ap.error("--pre-delay must be >= 0")
    try:
        with open(args.input, encoding="utf-8") as fin, \
                open(args.output, "w", encoding="utf-8") as fout:
            n = convert(fin, fout, args.ticks_per_cycle, args.pre_delay)
    except (OSError, ValueError) as e:
        print(f"import_gem5: {e}", file=sys.stderr)
        return 1
    if n == 0:
        print(f"import_gem5: {args.input}: no requests found",
              file=sys.stderr)
        return 1
    print(f"import_gem5: {n} requests -> {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
