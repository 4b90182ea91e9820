"""Benchmark of the ``swkb`` command line: three workloads end to end, each
repetition in a fresh interpreter, every output checked.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify8 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3

``--trace 0`` reports the end-to-end metrics of untraced runs.  ``--trace 1``
alternates untraced runs with traced ones and reports the per-layer metrics
of the traced runs plus the tracing overhead.  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 100
MIN_REPS = 3
MIN_SETUP_SAMPLES = 5
ENERGY_TOL = 1e-9
GAP_TOL = 1e-7
PERTURBATION = 0.04
FINGERPRINTS = {
    "reduce8": ["reduce", "--max-order", "8", "--format", "json"],
    "series10": ["series", "--order", "10", "--format", "json"],
}


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Tuple[str, ...]
    coefficients: Optional[Tuple[float, ...]] = None  # None: takes no config
    hbar: float = 1.0
    oracle_count: int = 0

    def config(self, seed: int) -> Optional[dict]:
        """Seed 0 gives the base superpotential; any other seed scales each
        nonzero coefficient by a factor within PERTURBATION of 1."""
        if self.coefficients is None:
            return None
        rng = random.Random(f"{self.name}:{seed}")
        coeffs = [c if seed == 0 or c == 0.0
                  else c * (1.0 + rng.uniform(-PERTURBATION, PERTURBATION))
                  for c in self.coefficients]
        return {"coefficients": coeffs, "hbar": self.hbar, "name": f"{self.name} seed {seed}"}

    def command(self, config_path: Optional[str]) -> List[str]:
        argv = list(self.argv)
        if config_path is not None:
            argv[1:1] = ["--config", config_path]
        return argv


WORKLOADS = {w.name: w for w in (
    Workload("verify8", ("verify", "--order", "8")),
    Workload("quantize8-cubic", ("quantize", "--order", "8", "--levels", "30", "--json"),
             coefficients=(0.0, 0.0, 0.0, 1.0 / 3.0), hbar=1.0, oracle_count=31),
    Workload("compare-mixed", ("compare", "--orders", "0,2,4", "--levels", "10", "--json"),
             coefficients=(0.0, 1.0, 0.0, 0.2), hbar=0.5, oracle_count=11),
)}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Counts the traced run must see above zero on each workload; a zero means a
# wrapped binding was missed or the workload stopped exercising the layer.
EXPECT_NONZERO = {
    "verify8": [
        "series.generate_series.calls", "series.terms_max",
        "antiderivative.antiderivative.calls", "antiderivative.found_ratio",
        "antiderivative.candidate_monomials.calls", "antiderivative.ansatz_cols",
        "reduction.quantization_integrands.calls",
    ],
    "quantize8-cubic": [
        "series.generate_series.calls", "antiderivative.antiderivative.calls",
        "antiderivative.candidate_monomials.calls",
        "reduction.quantization_integrands.calls",
        "quadrature.contour_integrate.calls", "quadrature.build_contour.calls",
        "quadrature.samples", "spectrum.action.calls", "spectrum.solve_level.calls",
    ],
    "compare-mixed": [
        "reduction.quantization_integrands.calls",
        "quadrature.contour_integrate.calls", "quadrature.build_contour.calls",
        "quadrature.samples", "spectrum.action.calls", "spectrum.solve_level.calls",
        "oracle.eigenvalues.calls",
    ],
}
EXACT_LAYERS = ("series", "antiderivative", "reduction", "wkb")
LAYER_UNITS = {"self_s": "s", "p50_s": "s", "p90_s": "s", "found_ratio": "ratio",
               "overhead_frac": "ratio", "oracle_err_max": "energy"}


# -- processes -------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    """Environment of every child: no inherited Python or swkb settings, one
    BLAS/OpenMP thread, a fixed hash seed."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "SWKB_THREADS"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def run_child(src: str, commands: List[List[str]], trace: bool) -> dict:
    """Run one fresh interpreter and return its record; a crash or timeout
    yields a record whose runs all failed."""
    job = json.dumps({"src": src, "commands": commands, "trace": trace})
    try:
        proc = subprocess.run([sys.executable, CHILD, job], env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode == 0:
            return json.loads(proc.stdout.splitlines()[-1])
        error = f"child exited {proc.returncode}: {proc.stderr[-2000:]}"
    except subprocess.TimeoutExpired:
        error = f"child timed out after {CHILD_TIMEOUT_S} s"
    return {"setup_s": None, "peak_rss_mb": None,
            "runs": [{"argv": c, "rc": -1, "wall_s": None, "wall_ref_s": None,
                      "stdout": "", "error": error}
                     for c in commands]}


# -- output checks ---------------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_run(run: dict, workload: Workload, seed: int, ref: dict,
              oracle: Optional[List[float]]) -> List[str]:
    """Every problem with one timed invocation; empty when it is correct."""
    if run["rc"] != 0 or run["error"]:
        return [f"exit code {run['rc']}: {run['error'] or run['stdout'][-500:]}"]
    wref = ref["workloads"][workload.name]
    if workload.name == "verify8":
        digest = sha256(run["stdout"])
        return [] if digest == wref["stdout_sha256"] else [f"stdout sha256 {digest}"]
    try:
        energies, top, gaps = parse_levels(json.loads(run["stdout"]), workload)
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        return [f"unreadable output: {exc!r}"]
    recorded = wref["energies"]
    problems = []
    if seed == 0:
        if len(energies) != len(recorded):
            problems.append(f"{len(energies)} energies, reference has {len(recorded)}")
        else:
            worst = max(abs(a - b) for a, b in zip(energies, recorded))
            if not worst <= ENERGY_TOL:
                problems.append(f"energy differs from reference by {worst:.3e}")
    if gaps is not None and not (gaps and max(gaps) < GAP_TOL):
        problems.append(f"degeneracy gaps {gaps}")
    tol = wref["oracle_tol"]
    if oracle is None or not len(top) == len(oracle) == len(tol):
        return problems + [f"{len(top)} levels, {len(oracle or [])} oracle values, "
                           f"{len(tol)} tolerances"]
    for n, (e, o, t) in enumerate(zip(top, oracle, tol)):
        if not abs(e - o) <= t:
            problems.append(f"level {n} is {abs(e - o):.3e} from the grid oracle (tolerance {t:.0e})")
    return problems


def parse_levels(out: dict, workload: Workload):
    """All energies in output order, the highest-order energy per level, and
    the degeneracy gaps, from the JSON output of quantize or compare."""
    if workload.name == "quantize8-cubic":
        energies = [out["levels"][str(n)] for n in range(len(out["levels"]))]
        return energies, energies, None
    levels = sorted(out["levels"], key=lambda r: r["n"])
    energies = [r["e_swkb"][k] for r in levels for k in sorted(r["e_swkb"], key=int)]
    top = [r["e_swkb"][max(r["e_swkb"], key=int)] for r in levels]
    return energies, top, [d["gap"] for d in out["degeneracy"]]


def oracle_error(run: dict, workload: Workload, oracle: Optional[List[float]]) -> float:
    """max over n >= 1 of |E_n(highest order) - E_n(grid oracle)|; 0 for a
    workload that solves no levels."""
    if oracle is None:
        return 0.0
    _, top, _ = parse_levels(json.loads(run["stdout"]), workload)
    return max(abs(a - b) for a, b in zip(top[1:], oracle[1:]))


# -- one workload ----------------------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: int, trace: bool,
                 root: str, workdir: str, ref: dict) -> dict:
    src = os.path.join(root, "src")
    config = workload.config(seed)
    config_path = None
    if config is not None:
        config_path = os.path.join(workdir, f"{workload.name}-{seed}.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
    attempted, failed, problems = 0, 0, []

    # Untimed: output fingerprints, and the grid oracle for the energy checks.
    checks = [list(argv) for argv in FINGERPRINTS.values()]
    if config_path is not None:
        checks.append(["oracle", "--config", config_path, "--count",
                       str(workload.oracle_count), "--potential", "minus", "--json"])
    record = run_child(src, checks, trace=False)
    oracle = None
    for key, run in zip(list(FINGERPRINTS) + ["oracle"], record["runs"]):
        attempted += 1
        bad = []
        if run["rc"] != 0 or run["error"]:
            bad = [f"{key}: exit code {run['rc']}: {run['error']}"]
        elif key == "oracle":
            try:
                oracle = json.loads(run["stdout"])["oracle"]["minus"]["eigenvalues"]
            except (ValueError, KeyError, TypeError) as exc:
                bad = [f"oracle: unreadable output: {exc!r}"]
        elif sha256(run["stdout"]) != ref["fingerprints"][key]:
            bad = [f"{key}: stdout sha256 {sha256(run['stdout'])}"]
        failed += bool(bad)
        problems += bad

    # Timed: one invocation per fresh interpreter, alternating with a traced
    # one when tracing.  A new round starts only if a typical round still
    # ends within ``seconds``, so a run lasts about ``seconds`` however long
    # one invocation takes.
    argv = workload.command(config_path)
    plain: List[dict] = []
    traced: List[dict] = []
    rounds: List[float] = []
    t0 = time.perf_counter()
    while (len(rounds) < MIN_REPS
           or time.perf_counter() - t0 + statistics.median(rounds) <= seconds):
        t1 = time.perf_counter()
        for is_traced in ((False, True) if trace else (False,)):
            rec = run_child(src, [argv], trace=is_traced)
            run = rec["runs"][0]
            bad = check_run(run, workload, seed, ref, oracle)
            if not bad and is_traced:
                bad = [f"traced count {k} is zero" for k in EXPECT_NONZERO[workload.name]
                       if rec["layers"][k] == 0]
            attempted += 1
            failed += bool(bad)
            problems += [f"seed {seed}: {p}" for p in bad]
            if not bad:
                (traced if is_traced else plain).append(rec)
        rounds.append(time.perf_counter() - t1)

    setups = [r["setup_s"] for r in plain]
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        rec = run_child(src, [], trace=False)
        if rec["setup_s"] is None:
            attempted += 1
            failed += 1
            problems.append("import-only child failed")
            break
        setups.append(rec["setup_s"])

    result = {"attempted": attempted, "failed": failed, "problems": problems,
              "samples": len(plain), "metrics": {}}
    if not plain or (trace and not traced):
        return result
    wall = statistics.median(r["runs"][0]["wall_ref_s"] for r in plain)
    result["measured_wall_s"] = statistics.median(r["runs"][0]["wall_s"] for r in plain)
    if trace:
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        traced_wall = statistics.median(r["runs"][0]["wall_ref_s"] for r in traced)
        layers["trace.overhead_frac"] = traced_wall / wall - 1.0
        layers["spectrum.oracle_err_max"] = oracle_error(plain[0]["runs"][0], workload, oracle)
        result["metrics"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        result["predictions"] = predictions(workload.name, layers)
    else:
        values = {"wall_s": wall, "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
        result["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return result


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name.rsplit(".", 1)[1], "count")


def predictions(workload: str, layers: Dict[str, float]) -> List[str]:
    """The layer-share predictions of the benchmark's design, each with the
    measured shares and whether it held."""
    self_s = {k.split(".")[0]: v for k, v in layers.items()
              if k.endswith(".self_s") and k.count(".") == 1}
    total = sum(self_s.values()) or 1.0
    share = {k: v / total for k, v in self_s.items()}
    exact = sum(share[k] for k in EXACT_LAYERS)
    numeric = share["quadrature"] + share["spectrum"]
    if workload == "verify8":
        top = max(share, key=share.get)
        claim, held = f"antiderivative has the largest self time (largest: {top})", top == "antiderivative"
    elif workload == "quantize8-cubic":
        claim, held = (f"quadrature+spectrum {numeric:.1%} outweigh the exact layers {exact:.1%}",
                       numeric > exact)
    else:
        claim, held = f"exact layers {exact:.1%} stay below 5%", exact < 0.05
    shares = ", ".join(f"{k} {v:.1%}" for k, v in sorted(share.items(), key=lambda kv: -kv[1]))
    return [f"prediction {'holds' if held else 'DOES NOT HOLD'}: {claim}", f"self-time shares: {shares}"]


# -- entry point -----------------------------------------------------------------


def run_metadata(root: str) -> dict:
    src = os.path.join(root, "src", "swkb")
    src_lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                src_lines += sum(1 for _ in fh)
    return {"commit": git_commit(root), "python": sys.version.split()[0],
            "numpy": package_version("numpy"), "scipy": package_version("scipy"),
            "nproc": os.cpu_count(), "src_lines": src_lines}


def git_commit(root: str) -> str:
    """HEAD of the checkout, read without running git; "unknown" outside a
    repository."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def package_version(name: str) -> str:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "missing"


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be >= 1 and --seed >= 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "swkb", "cli.py")):
        print(f"no swkb sources under {root}/src: run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    meta = run_metadata(root)
    print(json.dumps({"meta": meta, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace}))

    attempted, failed, metrics = 0, 0, {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        for name in names:
            res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                               root, workdir, ref)
            attempted += res["attempted"]
            failed += res["failed"]
            prefix = "" if len(names) == 1 else name + "."
            for key, m in res["metrics"].items():
                metrics[prefix + key] = m
                print(f"{name}  {key} = {m['value']:.6g} {m['unit']}")
            print(f"{name}  failed_frac = {res['failed']}/{res['attempted']}"
                  f"  samples = {res['samples']}"
                  f"  wall_s as measured = {res.get('measured_wall_s', math.nan):.4f} s")
            for line in res.get("predictions", []) + res["problems"]:
                print(f"{name}  {line}")
            sys.stdout.flush()
    correct = failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
