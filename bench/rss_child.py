"""Run one solve path in a fresh process and report its peak RSS.

    python3 bench/rss_child.py {auto|strided|tabulation} K FILE1 FILE2

Prints one JSON object: the reported span and ``maxrss_mb``.  The strided
path builds the LCE index; the tabulation path builds none.
"""

import json
import resource
import sys

from paths import import_klcf, run_cli, span_tuple


def peak_rss_kb() -> int:
    """This process's own peak RSS.

    ru_maxrss keeps the parent's peak across fork and exec, so a child of a
    large benchmark process would report the parent's size; VmHWM belongs to
    the process image alone.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    path, k, f1, f2 = argv[0], int(argv[1]), argv[2], argv[3]
    klcf = import_klcf()
    if path == "auto":
        result = run_cli(klcf, k, f1, f2)
    elif path == "strided":
        text = klcf.load_inputs(f1, f2)
        result = span_tuple(klcf.klcf_strided(text, klcf.build_lce(text), k))
    elif path == "tabulation":
        result = span_tuple(klcf.klcf_tabulation(klcf.load_inputs(f1, f2), k))
    else:
        raise SystemExit(f"unknown path {path!r}")
    print(json.dumps({"result": result, "maxrss_mb": peak_rss_kb() / 1024}))


if __name__ == "__main__":
    main(sys.argv[1:])
