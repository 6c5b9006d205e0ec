#!/usr/bin/env python3
"""Output-identity gate between two builds of the repo (ROADMAP: "the same
outputs from fewer lines").

Runs each bench from a BASE build and a HEAD build and asserts that

  1. stdout is byte-identical after stripping the lines that legitimately
     vary per run (cache_check.py's volatile-line filter: TIME telemetry,
     artifact-write notices, engine_* cache metrics), and
  2. every TRACE_*.jsonl artifact is byte-identical, and both runs wrote
     the same set of them.

The MC benches x1 and x5 run at SWAPGAME_MC_SCALE=8, as in CI's other MC
gates; the x16 population and the protocol-MC benches x9, x11, x12 and
x14 (which drive proto::run_swap's event queues) at SWAPGAME_MC_SCALE=80,
as in perf-smoke's x16 determinism step.  No result cache is shared: both
sides evaluate every cell cold.

Usage:
  python3 tools/artifact_diff.py --base-build ../base/build \\
      --head-build build --out artifact-diff-out [bench ...]
  python3 tools/artifact_diff.py --list   # bench targets, for cmake --target

Layout under --out: <bench>/{base,head} (bench artifacts) and
<bench>/{base,head}.out (stdout).  Exit status: 0 = all identical.
"""

import argparse
import os
import pathlib
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from cache_check import stripped  # noqa: E402

MC_ENV = {"SWAPGAME_MC_SCALE": "8"}
SMOKE_ENV = {"SWAPGAME_MC_SCALE": "80"}

# bench binary -> extra environment
BENCHES = {
    "bench_fig2_timeline": {},
    "bench_table1_balances": {},
    "bench_table3_feasible_band": {},
    "bench_fig3_alice_t3": {},
    "bench_fig4_bob_t2": {},
    "bench_fig5_alice_t1": {},
    "bench_fig6_success_rate": {},
    "bench_fig7_bob_t2_collateral": {},
    "bench_fig8_t1_collateral": {},
    "bench_fig9_sr_collateral": {},
    "bench_x3_collateral_optimizer": {},
    "bench_x4_alpha_uncertainty": {},
    "bench_x6_fees_and_rates": {},
    "bench_x7_negotiation": {},
    "bench_x8_optionality": {},
    "bench_x10_viability_atlas": {},
    "bench_x13_sensitivity": {},
    "bench_x5_mechanism_comparison": MC_ENV,
    "bench_x1_mc_vs_analytic": MC_ENV,
    "bench_x9_timing_robustness": SMOKE_ENV,
    "bench_x11_protocol_families": SMOKE_ENV,
    "bench_x12_multihop": SMOKE_ENV,
    "bench_x14_fault_robustness": SMOKE_ENV,
    "bench_x16_population": SMOKE_ENV,
}


def run(binary: pathlib.Path, run_dir: pathlib.Path, extra_env: dict) -> str:
    run_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, SWAPGAME_BENCH_DIR=str(run_dir), **extra_env)
    env.pop("SWAPGAME_CACHE_DIR", None)
    proc = subprocess.run([str(binary)], env=env, capture_output=True,
                          text=True)
    (run_dir.parent / f"{run_dir.name}.out").write_text(proc.stdout +
                                                        proc.stderr)
    return proc.stdout


def diff_bench(name: str, base: pathlib.Path, head: pathlib.Path,
               out: pathlib.Path) -> list:
    errors = []
    binaries = {"base": base / "bench" / name, "head": head / "bench" / name}
    for side, binary in binaries.items():
        if not binary.is_file():
            errors.append(f"{side} binary {binary} not built")
    if errors:
        return errors
    stdout = {side: run(binary, out / side, BENCHES.get(name, {}))
              for side, binary in binaries.items()}
    if stripped(stdout["base"]) != stripped(stdout["head"]):
        errors.append(f"stdout differs (see {out}/base.out vs {out}/head.out)")
    traces = {side: sorted(p.name for p in (out / side).glob("TRACE_*.jsonl"))
              for side in binaries}
    if traces["base"] != traces["head"]:
        errors.append(f"trace sets differ: base {traces['base']} vs "
                      f"head {traces['head']}")
    for trace in traces["base"]:
        other = out / "head" / trace
        if other.is_file() and \
                (out / "base" / trace).read_bytes() != other.read_bytes():
            errors.append(f"{trace} differs")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("benches", nargs="*", help="bench binary names "
                    "(default: the full gated set, see --list)")
    ap.add_argument("--base-build", type=pathlib.Path)
    ap.add_argument("--head-build", type=pathlib.Path,
                    default=pathlib.Path("build"))
    ap.add_argument("--out", type=pathlib.Path,
                    default=pathlib.Path("artifact-diff-out"))
    ap.add_argument("--list", action="store_true",
                    help="print the gated bench targets and exit")
    args = ap.parse_args()
    if args.list:
        print(" ".join(BENCHES))
        return 0
    if args.base_build is None:
        ap.error("--base-build is required")

    names = args.benches or list(BENCHES)
    failures = 0
    for name in names:
        errors = diff_bench(name, args.base_build, args.head_build,
                            args.out / name)
        if errors:
            failures += 1
            for err in errors:
                print(f"FAIL {name}: {err}")
        else:
            print(f"ok   {name}: stdout and traces byte-identical")
    print(f"artifact_diff: {len(names)} bench(es), {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
