"""Exit 1 unless the given ``klcf --json`` outputs report the same span.

    python tests/same_span.py JSON JSON [JSON ...]

Each argument is one JSON object.  They must agree on every span key
(length, pos1, pos2, mismatches) that they all hold, so a reference that
reports no mismatch offsets is compared on the other three.
"""

import json
import sys

SPAN_KEYS = ("length", "pos1", "pos2", "mismatches")


def main(argv) -> int:
    outs = [json.loads(arg) for arg in argv]
    keys = [key for key in SPAN_KEYS if all(key in out for out in outs)]
    if len(outs) < 2 or not keys:
        print("same_span: need two or more outputs sharing a span key",
              file=sys.stderr)
        return 2
    return int(any(out[key] != outs[0][key] for out in outs for key in keys))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
