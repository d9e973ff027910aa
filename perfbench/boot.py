"""One cold boot: a fresh interpreter loads ``.lpa`` files from disk,
builds what serves them and answers one request, then prints ``ok`` and
its peak resident set in KiB if every answer equals the expected outputs
the benchmark stored beside them.

    python3 perfbench/boot.py blocks DIR   # every DIR/*.lpa, one Session each
    python3 perfbench/boot.py bundle DIR   # DIR/model.lpa via InferenceServer

``DIR/expected.npz`` holds ``<program>|in|<pi>`` and ``<program>|out|<po>``
arrays.  The process exits 1 on a wrong answer.
"""

from __future__ import annotations

import os
import resource
import sys


def _split(arrays, program):
    inputs, outputs = {}, {}
    for key, value in arrays.items():
        owner, kind, name = key.split("|", 2)
        if owner == program:
            (inputs if kind == "in" else outputs)[name] = value
    return inputs, outputs


def _report(ok):
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"ok {peak_kib}" if ok else "mismatch", flush=True)


def _same(got, want):
    import numpy as np

    return all(np.array_equal(got[name], words) for name, words in want.items())


def main(argv) -> int:
    import numpy as np

    from repro.artifact import load_artifact

    kind, folder = argv
    with np.load(os.path.join(folder, "expected.npz")) as data:
        arrays = {key: data[key] for key in data.files}
    ok = True
    if kind == "blocks":
        for entry in sorted(os.listdir(folder)):
            if not entry.endswith(".lpa"):
                continue
            session = load_artifact(os.path.join(folder, entry)).session()
            inputs, outputs = _split(arrays, entry[:-4])
            ok &= _same(session.run(inputs).outputs, outputs)
    elif kind == "bundle":
        from repro.serve import InferenceServer

        inputs, outputs = _split(arrays, "model")
        with InferenceServer(
            load_artifact(os.path.join(folder, "model.lpa"))
        ) as server:
            ok = _same(server.map([inputs])[0].outputs, outputs)
            # The answer is in: report before the pipeline threads stop.
            _report(ok)
        return 0 if ok else 1
    else:
        raise SystemExit(f"unknown boot kind {kind!r}")
    _report(ok)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
