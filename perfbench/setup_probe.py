"""Set-up cost that every `hwpreg` command pays, in a fresh interpreter.

Prints one JSON object: seconds to import hwpreg, to build each group,
to load the nine bundled solutions, and their total; then the time of
the reference loop in this interpreter.
"""

import time

began = time.perf_counter()
import hwpreg  # noqa: E402  (the import is what is timed)

imported = time.perf_counter()
build_s = {}
for gid in hwpreg.GROUP_IDS:
    t = time.perf_counter()
    hwpreg.build_group(gid)
    build_s[gid] = time.perf_counter() - t
t = time.perf_counter()
for sid in hwpreg.SOLUTION_IDS:
    hwpreg.load_solution(sid)
done = time.perf_counter()

import json  # noqa: E402  (after timing, so it is not counted twice)
import statistics  # noqa: E402

from reference import reference  # noqa: E402

print(
    json.dumps(
        {
            "import_s": imported - began,
            "build_s": build_s,
            "load_s": done - t,
            "setup_s": done - began,
            "ref_s": statistics.median(reference() for _ in range(5)),
            "package": hwpreg.__file__,
        }
    )
)
