"""Time a fresh process's import of daflow plus a tiny warm-up job.

Usage: python3 setup_probe.py SRC_DIR WORK_DIR
Prints one JSON object: {"setup_s": seconds, "codes": [exit codes]}.
"""

import contextlib
import io
import json
import os
import sys
import time


def main() -> None:
    src, work = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import daflow.cli

    target = os.path.join(work, f"setup-{os.getpid()}.json")
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [
            daflow.cli.main(["gen", "--nx", "4", "--ny", "4", "--seed", "0", "--out", target]),
            daflow.cli.main(["run", "--target", target]),
        ]
    elapsed = time.perf_counter() - start
    os.unlink(target)
    print(json.dumps({"setup_s": elapsed, "codes": codes}))


if __name__ == "__main__":
    main()
