"""One benchmark child process: a set-up, a CLI job, or a traced chain.

    python3 perfbench/child.py {setup|job|trace} SPEC_JSON

SPEC_JSON is a JSON object written by ``run.py``.  The child imports ccmine
from the ``src`` directory the spec names and refuses any other copy.  It
prints one JSON object as the last line of its standard output.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _import_cli(src: str):
    sys.path.insert(0, src)
    import ccmine.cli

    if not Path(ccmine.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"ccmine was imported from {ccmine.cli.__file__}, not from {src}")
    return ccmine.cli


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if none is found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _maxrss_mb() -> float:
    """Peak RSS of this process image.  ``getrusage`` is not used: after
    exec it still carries the peak of the parent it was forked from."""
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _speed() -> float:
    """How much faster than nominal this process runs the calibration
    kernel now.  Called after the peak RSS is read, so the kernel's arrays
    never count toward the job's memory."""
    import calib

    return calib.NOMINAL_S / statistics.median(calib.measure() for _ in range(3))


def setup(spec: dict) -> dict:
    """Import ccmine and load the job's fixed inputs through public loaders."""
    _import_cli(spec["src"])
    from ccmine.ccgen import CCDictionary
    from ccmine.corpus import Lexicon
    from ccmine.embed import EmbeddingTable
    from ccmine.filters import VisibilityTable

    t_import = time.perf_counter()
    loads = spec["loads"]
    if "lexicon" in loads:
        lexicon = Lexicon.from_file(loads["lexicon"])
        if spec.get("matcher"):
            lexicon.matcher
    if "embeddings" in loads:
        EmbeddingTable.load(loads["embeddings"])
    if "visibility" in loads:
        VisibilityTable.from_file(loads["visibility"])
    if "cc_dict" in loads:
        CCDictionary.load(loads["cc_dict"])
    t_end = time.perf_counter()
    return {
        "import_s": t_import - T_START,
        "load_s": t_end - t_import,
        "setup_s": t_end - T_START,
        "speed": _speed(),
        "blas_threads": _blas_threads(),
    }


def job(spec: dict) -> dict:
    """Run ``ccmine.cli.main(argv)`` once and time it."""
    cli = _import_cli(spec["src"])
    out = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(spec["argv"])
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        rc, error = 1, f"{type(exc).__name__}: {exc}"
    job_s = time.perf_counter() - start
    maxrss_mb = _maxrss_mb()
    return {
        "rc": rc,
        "job_s": job_s,
        "stdout": out.getvalue(),
        "error": error,
        "maxrss_mb": maxrss_mb,
        "speed": _speed(),
        "blas_threads": _blas_threads(),
    }


def trace(spec: dict) -> dict:
    """Run the traced chain and write its spans to ``spec['trace_path']``."""
    _import_cli(spec["src"])
    import tracing

    tracer = tracing.Tracer(spec["run_id"])
    rcs = tracing.run_chain(tracer, spec, _speed)
    tracer.dump(spec["trace_path"])
    return {"rcs": rcs, "blas_threads": _blas_threads()}


def main() -> None:
    mode, spec_text = sys.argv[1], sys.argv[2]
    spec = json.loads(spec_text)
    result = {"setup": setup, "job": job, "trace": trace}[mode](spec)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
