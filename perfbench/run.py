"""ccmine benchmark: offline-pipeline workloads through the public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S \
        --trace {0|1} [--scale {full|tiny}]

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The seed's inputs are generated outside timing and
cached under ``.perfbench/``.  Each workload is one CLI job, run again and
again, one fresh child process per run, until the time is spent.  A run's
time is the wall time of ``ccmine.cli.main(argv)`` inside its child.

Workloads and their work items:

- ``mine`` / ``mine_w2``: ``ccmine mine`` with ``--workers 1`` / ``2``;
  captions.
- ``build``: ``ccmine build-cc`` on the program's own mine artifacts;
  lexicon concepts.
- ``eval`` / ``eval_classic``: ``ccmine eval`` with the program's own
  dictionary, ``--metric iou-single`` / ``miou-classic``; images.
- ``sweep``: ``ccmine sweep --param sigmoid`` with 30 steps; (image, class)
  score fields.

End-to-end metrics:

- ``items_per_s``: work items per second, the median over the run's jobs.
- ``peak_rss_mb``: the largest peak RSS of any job child.
- ``setup_s``: the median time to import ccmine and load the job's fixed
  inputs through their public loaders, each time in a child of its own.

Rates and set-up times are scaled to a nominal host speed.  A shared host
slows every job, by up to twice, in bursts of seconds to minutes.  So each
child times a fixed calibration kernel (``calib.py``) right after its work,
and its time is multiplied by ``speed``, the kernel's nominal time over its
measured time.  The unscaled medians and every speed are printed on the
``run`` line.

The share of failed operations (CLI invocations plus output checks) is the
result's ``failed`` over ``attempted``.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
a traced child runs the whole chain and the per-layer metrics are
printed.  Outputs are checked on every run.  The last line of standard
output is one JSON object; the exit code is 1 when a job or a check
failed and 2 when the checkout has no program to measure.
"""

from __future__ import annotations

import os

# pin BLAS to one thread in this process and, through the environment, in
# every child; mine_w2 uses at most nproc worker processes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench"
WORKLOADS = ("mine", "mine_w2", "build", "eval", "eval_classic", "sweep")
SETUP_REPS = 7
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
# stop starting jobs after this long, whatever --seconds says, so a run
# ends within its limit
HARD_STOP_S = 110
KEEP_SEEDS = 24
NPROC = len(os.sched_getaffinity(0))
SWEEP_STEPS = 30


def run_child(mode: str, spec: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("CCMINE_WORKERS", None)
    env.pop("SOURCE_DATE_EPOCH", None)
    # its own session, so a timeout also ends the job's worker processes
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), mode, json.dumps(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited {proc.returncode}: {stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---- inputs ----


def program_digest() -> str:
    """sha256 over the ccmine sources, so cached program artifacts are never
    shared between two versions of the program."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ccmine").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


STAGES = ("base", "mined", "built")
# the input stage each workload needs; a traced run needs everything
NEEDS = {"mine": "base", "mine_w2": "mined", "build": "mined",
         "eval": "built", "eval_classic": "built", "sweep": "base"}


def prepare_inputs(seed: int, scale: str, stage: str) -> tuple[Path, Path, dict]:
    """Generate the seed's inputs up to ``stage`` once; later runs with the
    seed reuse them.  Returns the input directory, the directory of this
    program version's artifacts, and the manifest.

    Stages: ``base`` is what the generator writes; ``mined`` adds the
    program's ``mine --workers 1`` artifacts; ``built`` adds the dictionary
    ``build-cc`` makes from them.  So build consumes mine's output and eval
    consumes build's dictionary.  The program's artifacts are kept per
    version of its sources, and only once they pass their output checks.
    """
    import checks
    import gen

    key = f"v{gen.GEN_VERSION}-{scale}-{seed}"
    base = CACHE / "inputs"
    inp = base / key
    if not (inp / "ready_base").exists():
        tmp = base / f"{key}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        gen.generate(tmp, seed, scale)
        (tmp / "ready_base").write_text("")
        shutil.rmtree(inp, ignore_errors=True)
        os.replace(tmp, inp)
        cached = sorted(
            (d for d in base.iterdir() if (d / "ready_base").exists()),
            key=lambda d: d.stat().st_mtime,
        )
        for old in cached[:-KEEP_SEEDS]:
            shutil.rmtree(old, ignore_errors=True)
    os.utime(inp)
    man = json.loads((inp / "manifest.json").read_text())
    prog = inp / f"ccmine-{program_digest()}"
    prog.mkdir(exist_ok=True)
    for step, workload in (("mined", "mine"), ("built", "build")):
        if STAGES.index(step) > STAGES.index(stage):
            break
        if (prog / f"ready_{step}").exists():
            continue
        res = run_child("job", {"src": str(SRC), "argv": jobs(workload, inp, prog, man, prog)})
        if res["rc"] != 0:
            raise InputError(f"making inputs: {workload} exited {res['rc']}: {res['error']}")
        if workload == "mine":
            found = checks.check_mine(inp, man, prog / "cooc.txt", prog / "counts.txt", res["stdout"])
        else:
            found = checks.check_build(inp / "expected_cc.json", prog / "cc.json")
        bad = [f"{name}: {detail}" for name, ok, detail in found if not ok]
        if bad:
            raise InputError(f"making inputs: {workload} artifacts fail their checks: {bad}")
        (prog / f"ready_{step}").write_text("")
    return inp, prog, man


class InputError(RuntimeError):
    """The program could not make the artifacts a later workload consumes."""


def jobs(workload: str, inp: Path, prog: Path, man: dict, out: Path) -> list[str]:
    """A workload's CLI job as an argv list.  ``prog`` holds the program's
    own mine artifacts and dictionary; outputs go to ``out``."""
    if workload in ("mine", "mine_w2"):
        return [
            "mine", "--corpus", str(inp / "corpus.jsonl.gz"),
            "--lexicon", str(inp / "lexicon.txt"),
            "--out-matrix", str(out / "cooc.txt"), "--out-counts", str(out / "counts.txt"),
            "--workers", "1" if workload == "mine" else str(min(2, NPROC)),
        ]
    if workload == "build":
        return [
            "build-cc", "--matrix", str(prog / "cooc.txt"), "--counts", str(prog / "counts.txt"),
            "--lexicon", str(inp / "lexicon.txt"), "--embeddings", str(inp / "embeddings.ccemb"),
            "--visibility", str(inp / "visibility.jsonl"), "--unknown-visibility", "accept",
            "--gamma", repr(man["gamma"]), "--delta", "0.8", "--out", str(out / "cc.json"),
        ]
    data = [
        "--features-dir", str(inp / "features"), "--gt-dir", str(inp / "gt"),
        "--embeddings", str(inp / "embeddings.ccemb"),
    ]
    if workload in ("eval", "eval_classic"):
        metric = "iou-single" if workload == "eval" else "miou-classic"
        return ["eval", *data, "--metric", metric, "--cc-mode", "dict",
                "--cc-dict", str(prog / "cc.json"), "--out-json", str(out / f"{workload}.json")]
    if workload == "sweep":
        return ["sweep", "--param", "sigmoid", "--steps", str(SWEEP_STEPS), *data,
                "--out-json", str(out / "sweep.json")]
    raise ValueError(workload)


def items(workload: str, man: dict) -> int:
    """Work items of one job: captions, lexicon concepts, images, or
    (image, class) score fields."""
    return {
        "mine": man["captions"],
        "mine_w2": man["captions"],
        "build": man["concepts"],
        "eval": len(man["images"]),
        "eval_classic": len(man["images"]),
        "sweep": man["fields"],
    }[workload]


def setup_loads(workload: str, inp: Path, prog: Path) -> dict:
    if workload in ("mine", "mine_w2"):
        return {"loads": {"lexicon": str(inp / "lexicon.txt")}, "matcher": True}
    if workload == "build":
        return {"loads": {k: str(inp / f) for k, f in (
            ("lexicon", "lexicon.txt"), ("embeddings", "embeddings.ccemb"),
            ("visibility", "visibility.jsonl"))}}
    loads = {"embeddings": str(inp / "embeddings.ccemb")}
    if workload in ("eval", "eval_classic"):
        loads["cc_dict"] = str(prog / "cc.json")
    return {"loads": loads}


# ---- output checks ----


def artifacts(workload: str) -> list[str]:
    return {
        "mine": ["cooc.txt", "counts.txt"],
        "mine_w2": ["cooc.txt", "counts.txt"],
        "build": ["cc.json"],
        "eval": ["eval.json"],
        "eval_classic": ["eval_classic.json"],
        "sweep": ["sweep.json"],
    }[workload]


def check_outputs(workload: str, inp: Path, prog: Path, man: dict, out: Path,
                  summary: str | None) -> list:
    """The checks of one workload's outputs in ``out``.  ``summary`` is the
    mine job's standard output, or None where it is not at hand."""
    import checks

    if workload in ("mine", "mine_w2"):
        found = checks.check_mine(inp, man, out / "cooc.txt", out / "counts.txt", summary)
        if workload == "mine_w2":
            same = all(sha256(out / n) == sha256(prog / n) for n in artifacts(workload))
            found.append(("mine.workers2_byte_identical_to_workers1", same, ""))
        return found
    if workload == "build":
        return checks.check_build(inp / "expected_cc.json", out / "cc.json")
    if workload == "eval":
        return checks.check_eval_single(inp, man, out / "eval.json", prog / "cc.json")
    if workload == "eval_classic":
        return checks.check_eval_classic(inp, man, out / "eval_classic.json", prog / "cc.json")
    return checks.check_sweep(inp, man, out / "sweep.json", SWEEP_STEPS)


class Tally:
    """Attempted and failed operations: CLI invocations and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED {name}: {detail}")

    def checks(self, name: str, run_checks) -> None:
        """Count each check ``run_checks()`` returns; one that cannot even
        read the outputs counts as one failed check."""
        try:
            found = run_checks()
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            found = [(name, False, f"{type(exc).__name__}: {exc}")]
        for check_name, ok, detail in found:
            self.add(check_name, ok, detail)


def run_jobs(workload, inp, prog, man, out, seconds, tally) -> tuple[list[dict], dict[str, str]]:
    """Run the workload's job in fresh children until ``seconds`` have
    passed and it ran ``MIN_REPS`` times.  Every repetition must reproduce
    the first one's artifacts byte for byte."""
    argv = jobs(workload, inp, prog, man, out)
    reps: list[dict] = []
    digests: dict[str, str] = {}
    start = time.perf_counter()
    while True:
        res = run_child("job", {"src": str(SRC), "argv": argv})
        ok = res["rc"] == 0
        tally.add(f"{workload} exit code", ok, f"rc={res['rc']} {res['error'] or ''}")
        if ok:
            got = {n: sha256(out / n) for n in artifacts(workload)}
            if not digests:
                digests.update(got)
            elif got != digests:
                tally.add(f"{workload} repeat identical", False, "artifacts differ between repetitions")
            reps.append(res)
        elapsed = time.perf_counter() - start
        if elapsed > HARD_STOP_S or (elapsed >= seconds and len(reps) >= MIN_REPS):
            return reps, digests


def environment(blas_threads) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "platform": platform.platform(),
    }


def median(values):
    return statistics.median(values) if values else float("nan")


# ---- the two kinds of run ----


def end_to_end(workload, seed, seconds, scale, inp, prog, man, out, tally):
    setups = [
        run_child("setup", {"src": str(SRC), **setup_loads(workload, inp, prog)})
        for _ in range(SETUP_REPS)
    ]
    reps, digests = run_jobs(workload, inp, prog, man, out, seconds, tally)
    if reps:
        summary = reps[0]["stdout"]
        tally.checks(f"{workload}.outputs",
                     lambda: check_outputs(workload, inp, prog, man, out, summary))
    n = items(workload, man)
    metrics = {
        "items_per_s": (median([n / (r["job_s"] * r["speed"]) for r in reps]), "1/s"),
        "peak_rss_mb": (max((r["maxrss_mb"] for r in reps), default=float("nan")), "MB"),
        "setup_s": (median([s["setup_s"] * s["speed"] for s in setups]), "s"),
    }
    info = {
        "reps": len(reps),
        "job_s": [round(r["job_s"], 4) for r in reps],
        "speed": [round(r["speed"], 3) for r in reps],
        "unscaled_median_items_per_s": median([n / r["job_s"] for r in reps]),
        "setup_s": [round(s["setup_s"], 4) for s in setups],
        "setup_speed": [round(s["speed"], 3) for s in setups],
        "import_s": median([s["import_s"] for s in setups]),
        "items_per_job": n,
    }
    return metrics, {workload: digests}, info, setups[0]["blas_threads"]


TRACED_STAGES = ("mine", "build", "eval", "eval_classic", "sweep")


def traced(workload, seed, seconds, scale, inp, prog, man, out, tally):
    """Trace every stage once, and the workload's own stage until the time
    is spent; each traced run is paired with an untraced one."""
    import layers

    plain, tdir = out / "plain", out / "traced"
    plain.mkdir()
    tdir.mkdir()
    trace_path = CACHE / "traces" / f"{workload}-{scale}-seed{seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    stages = {
        label: {"plain": jobs(label, inp, prog, man, plain), "traced": jobs(label, inp, prog, man, tdir)}
        for label in TRACED_STAGES
    }
    stages["mine"]["traced"] = [str(inp / "corpus.jsonl.gz"), str(inp / "lexicon.txt"),
                                str(tdir / "cooc.txt"), str(tdir / "counts.txt")]
    spec = {
        "src": str(SRC),
        "run_id": f"{workload}-{scale}-{seed}-{os.getpid()}",
        "trace_path": str(trace_path),
        "stages": stages,
        "own": layers.OWN_STAGE.get(workload, workload),
        "seconds": seconds,
    }
    res = run_child("trace", spec)
    for name, rc in res["rcs"]:
        tally.add(f"traced {name} exit code", rc == 0, f"rc={rc}")
    for label in TRACED_STAGES:
        tally.checks(f"traced {label} outputs", lambda label=label: [
            (f"traced {name}", ok, detail)
            for name, ok, detail in check_outputs(label, inp, prog, man, tdir, None)
        ])
    digests: dict[str, dict[str, str]] = {}

    def same_as_untraced(label):
        digests[label] = {n: sha256(tdir / n) for n in artifacts(label)}
        same = digests[label] == {n: sha256(plain / n) for n in artifacts(label)}
        return [(f"traced {label} artifacts equal untraced", same, "")]

    for label in TRACED_STAGES:
        tally.checks(f"traced {label} artifacts equal untraced", lambda label=label: same_as_untraced(label))
    trace = json.loads(trace_path.read_text())
    metrics = layers.per_layer(trace, workload)
    info = {"trace_file": str(trace_path.relative_to(ROOT)), "spans": len(trace["spans"]),
            "pairs": trace["pairs"][spec["own"]]}
    return metrics, digests, info, res["blas_threads"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "ccmine" / "__init__.py").is_file():
        print(f"error: no ccmine sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    try:
        inp, prog, man = prepare_inputs(
            args.seed, args.scale, "built" if args.trace else NEEDS[args.workload]
        )
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = CACHE / "runs" / str(os.getpid())
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tally = Tally()
    try:
        run = traced if args.trace else end_to_end
        metrics, digests, info, blas_threads = run(
            args.workload, args.seed, args.seconds, args.scale, inp, prog, man, out, tally
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print("env " + json.dumps(environment(blas_threads), sort_keys=True))
    print("run " + json.dumps({"workload": args.workload, "seed": args.seed, "scale": args.scale,
                               "trace": args.trace, **info}, sort_keys=True))
    for label, files in sorted(digests.items()):
        for name, digest in sorted(files.items()):
            print(f"sha256 {label}/{name} {digest}")
    for name in ("cooc.txt", "counts.txt", "cc.json"):
        if (prog / name).exists():
            print(f"sha256 inputs/{name} {sha256(prog / name)}")
    for note in tally.notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    ratio = tally.failed / tally.attempted if tally.attempted else float("nan")
    print(f"metric failed_ops_ratio = {ratio:.6g} ({tally.failed} of {tally.attempted} operations)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
