"""Benchmark of su11 on three workloads, with outputs checked against references.

Run from the root of a checkout of the repository:

    python3 benchmark/run.py --workload verify-all|operators|series-quadrature \
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The su11 package is
imported from ``src/`` of the current directory; without it the run exits
with status 2.  See benchmark/README.md for the workloads and the metrics.
"""
from __future__ import annotations

import os

# Set before numpy is imported, here and in every child: one BLAS/OpenMP thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"  # one JSON record per run; ignored by git
WORKLOADS = ("verify-all", "operators", "series-quadrature")
SETUP_PROBES = 5
IMPORT_PROBES = 3
DIGITS_CONTROL_MAX = 8.0
CHILD_TIMEOUT_S = 60.0

# Seeds of `su11 verify --suite all` on which every check passes.  Its
# monte_carlo_spot check allows 3 stderr on 5 Monte Carlo estimates, so about
# 1.3% of seeds fail on correct code; 163 is the one such seed below 200.
VERIFY_SEEDS = tuple(s for s in range(200) if s != 163)


def _src() -> Path:
    src = Path.cwd() / "src"
    if not (src / "su11" / "__init__.py").is_file():
        print(f"benchmark: no su11 package under {src}; run from the repository root",
              file=sys.stderr)
        sys.exit(2)
    return src


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def _verify_argv(seed: int) -> list:
    vseed = VERIFY_SEEDS[seed % len(VERIFY_SEEDS)]
    return ["verify", "--suite", "all", "--seed", str(vseed)]


def _clear_caches(caches) -> None:
    for cache in caches:
        cache.cache_clear()


def _find_caches() -> list:
    """functools caches held by su11 modules; each op starts with them empty."""
    found = {}
    for key, module in list(sys.modules.items()):
        if key == "su11" or key.startswith("su11."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                    found[id(obj)] = obj
    return list(found.values())


# -- set-up ----------------------------------------------------------------

def setup(workload: str, seed: int):
    """Import su11, build the op list and run its first op once, untimed.

    Returns ``(su11, round_ops, caches)``; on verify-all the op list is the
    CLI argument vector and nothing is warmed, since every op is a fresh
    interpreter (or, traced, an in-process call with empty caches).
    """
    sys.path.insert(0, str(_src()))
    import su11
    if workload == "verify-all":
        import su11.cli  # noqa: F401
        return su11, [_verify_argv(seed)], _find_caches()
    import ops
    round_ops = ops.build_round(workload, seed)
    caches = _find_caches()
    _clear_caches(caches)
    _run_op(ops.RUNNERS[workload], su11, round_ops[0])
    return su11, round_ops, caches


def _run_op(runner, su11, op):
    """The op's outputs, or the text of the exception it raised (a failed op)."""
    try:
        return runner(su11, op)
    except Exception as exc:  # a failed op fails its checks; the run goes on
        return f"{type(exc).__name__}: {exc}"


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time from spawning a fresh interpreter to the end of set-up."""
    times = []
    argv = [sys.executable, str(HERE / "run.py"), "--probe-setup",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            child.wait(timeout=CHILD_TIMEOUT_S)
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with status {child.returncode}")
        times.append(elapsed)
    return statistics.median(times)


# -- timed loop ------------------------------------------------------------

def run_ops(workload: str, su11, round_ops: list, caches: list, seconds: float,
            traced: bool = False) -> dict:
    """Run whole rounds of the op list until ``seconds`` have passed.

    Returns the latencies, the loop's wall time, the outputs of the first
    round, whether every later round reproduced them exactly, and the
    gauss_jacobi cache misses.
    """
    if workload == "verify-all":
        call = _verify_in_process if traced else _verify_child
        env = _child_env(_src())
        runner = lambda api, argv: call(argv, env)  # noqa: E731
    else:
        import ops
        runner = ops.RUNNERS[workload]
    gauss = getattr(sys.modules.get("su11.jacobi"), "gauss_jacobi", None)
    gauss_info = (getattr(gauss, "cache_info", None)
                  or getattr(getattr(gauss, "__wrapped__", None), "cache_info", None))
    firsts = [None] * len(round_ops)
    latencies = []
    same = True
    misses = 0
    start = time.perf_counter()
    while True:
        for i, op in enumerate(round_ops):
            _clear_caches(caches)
            t0 = time.perf_counter()
            out = _run_op(runner, su11, op)
            latencies.append(time.perf_counter() - t0)
            if gauss_info is not None:
                misses += gauss_info().misses
            key = repr(out)
            if firsts[i] is None:
                firsts[i] = (out, key)
            elif key != firsts[i][1]:
                same = False
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    return {"latencies": latencies, "wall": wall, "outputs": [f[0] for f in firsts],
            "deterministic": same, "misses": misses}


def _verify_child(argv: list, env: dict) -> tuple:
    proc = subprocess.run([sys.executable, "-m", "su11", *argv], env=env,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout


def _verify_in_process(argv: list, env: dict) -> tuple:
    import su11.cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = su11.cli.main(list(argv))
    return status, buf.getvalue().encode()


# -- checks ----------------------------------------------------------------

def check(workload: str, round_ops: list, outputs: list) -> dict:
    """Score the first round's outputs, and the perturbed copy of the control."""
    import oracle
    if workload == "verify-all":
        status, stdout = (1, b"") if isinstance(outputs[0], str) else outputs[0]
        try:
            records = [json.loads(line) for line in stdout.decode().splitlines()]
        except ValueError:
            records = []
        ok, digits = oracle.score_verify(records)
        ok = ok and status == 0
        control_ok, control_digits = oracle.score_verify(records, perturbed=True)
        control_p50 = statistics.median(control_digits)
        return {"op_failed": [not ok], "seeded_ok": ok, "digits": digits,
                "control_digits_p50": control_p50,
                "control_caught": not control_ok and control_p50 <= DIGITS_CONTROL_MAX}
    expect = oracle.EXPECT[workload]
    op_failed, digits, control_digits = [], [], []
    seeded_ok, control_caught = True, True
    for op, out in zip(round_ops, outputs):
        exps = expect(op)
        if isinstance(out, str):  # the op raised
            scores = control = [(False, 0.0)] * len(exps)
        else:
            scores = [oracle.score(v, e) for v, e in zip(out, exps)]
            control = [oracle.score(oracle.perturb(v), e) for v, e in zip(out, exps)]
        failed = len(scores) != len(exps) or not all(p for p, _ in scores)
        op_failed.append(failed)
        if not op.fault:
            seeded_ok &= not failed
            control_caught &= not all(p for p, _ in control)
        digits += [d for _, d in scores]
        control_digits += [d for _, d in control]
    control_p50 = statistics.median(control_digits)
    return {"op_failed": op_failed, "seeded_ok": seeded_ok, "digits": digits,
            "control_digits_p50": control_p50,
            "control_caught": control_caught and control_p50 <= DIGITS_CONTROL_MAX}


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "verify-all" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _import_ms(src: Path) -> float:
    """Median time to import su11.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import su11.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    env = _child_env(src)
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S).stdout)
        for _ in range(IMPORT_PROBES))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = _src()

    if args.probe_setup:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    su11, round_ops, caches = setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    run = run_ops(args.workload, su11, round_ops, caches, args.seconds,
                  traced=tracer is not None)
    peak_rss_mb = _peak_rss_mb(args.workload)
    result = check(args.workload, round_ops, run["outputs"])

    rounds = len(run["latencies"]) // len(round_ops)
    attempted = len(run["latencies"])
    failed = rounds * sum(result["op_failed"])
    latency_ms = statistics.median(run["latencies"]) * 1e3
    if tracer is None:
        metrics = {
            "ops_per_s": (attempted / run["wall"], "1/s"),
            "latency_ms.p50": (latency_ms, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "digits_p50": (statistics.median(result["digits"]), "digits"),
        }
    else:
        import tracing
        metrics = tracing.per_op_metrics(tracer, attempted, run["misses"])
        metrics["cli.import_ms"] = (_import_ms(src), "ms")
        metrics["traced.latency_ms.p50"] = (latency_ms, "ms")
    correct = bool(run["deterministic"] and result["seeded_ok"] and result["control_caught"])
    if not correct:
        print(f"benchmark: check failed: deterministic={run['deterministic']} "
              f"seeded_ok={result['seeded_ok']} control_caught={result['control_caught']}",
              file=sys.stderr)
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  control_digits_p50=result["control_digits_p50"],
                  latencies_ms=[t * 1e3 for t in run["latencies"]])
    if tracer is not None:
        record["spans"] = tracer.table()
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
