"""Command-line entry point.

    qndspin run --scenario NAME [--config PATH] [--trials N] [--seed S]
                [--out DIR] [--verify MANIFEST]

Scenarios come from the registry in qndspin.scenarios, and run_scenario
writes every artifact and manifest.  --verify re-runs the manifest's
scenario, trial count and seed, so --scenario must match it and
--trials and --seed are rejected; it re-runs into a temporary directory
and keeps nothing, so --out is rejected too.  Exit codes: 0 success,
2 configuration/validation error, 3 runtime or fit error (a numpy
overflow or invalid value among them), 4 reproducibility mismatch
under --verify.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import tempfile
import warnings
from pathlib import Path

from .config import ConfigError, RunConfig, load_and_validate
from .scenarios import SCENARIO_NAMES, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_VERIFY = 4


@functools.cache  # parse_args leaves a parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qndspin",
        description="Desk-scale QND spin-squeezing simulation scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a named scenario")
    run.add_argument("--config", type=Path, default=None,
                     help="JSON config; omitted keys fall back to defaults")
    run.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
    run.add_argument("--trials", type=int, default=None,
                     help="override n_trials from the config")
    run.add_argument("--seed", type=int, default=None,
                     help="override master_seed from the config")
    run.add_argument("--out", type=Path, default=None,
                     help="output directory (default from config)")
    run.add_argument("--verify", type=Path, default=None, metavar="MANIFEST",
                     help="re-run and compare output hashes against a manifest")
    return parser


def _entry_problem(recorded: dict) -> str | None:
    """What makes a manifest's run or output entries unusable, if anything."""
    scenario, n_trials, seed = (recorded.get(key)
                                for key in ("scenario", "n_trials", "seed"))
    if scenario not in SCENARIO_NAMES:
        return f'has a "scenario" entry {scenario!r} that names no scenario'
    if n_trials is not None and not (
            type(n_trials) is int and (n_trials == 0 or n_trials >= 2)):
        return (f'has an "n_trials" entry {n_trials!r} that is not 0, null '
                "or an integer >= 2")
    if seed is not None and not (type(seed) is int and seed >= 0):
        return (f'has a "seed" entry {seed!r} that is not null or an '
                "integer >= 0")
    outputs = recorded.get("outputs", {})
    for name, digest in outputs.items():
        if name in ("", "..") or Path(name).name != name:
            return (f'has an "outputs" entry {name!r} that is not a plain '
                    "file name")
        if not (isinstance(digest, str) and re.fullmatch("[0-9a-f]{64}", digest)):
            return (f'has an "outputs" digest {digest!r} for {name!r} that is '
                    "not a 64-character lowercase hex SHA-256")
    # resolved_config.json is not compared: the config hash stands for it
    if not set(outputs) - {"resolved_config.json"}:
        return "has no outputs to compare"
    return None


def _verify(manifest_path: Path, cfg: RunConfig, scenario: str) -> int:
    try:
        recorded = json.loads(manifest_path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        print(f"error: cannot read manifest: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(recorded, dict):
        problem = "is not a JSON object"
    elif "scenario" not in recorded:
        problem = 'has no "scenario" entry'
    elif not isinstance(recorded.get("outputs", {}), dict):
        problem = 'has an "outputs" entry that is not a JSON object'
    else:
        problem = _entry_problem(recorded)
    if problem:
        print(f"error: cannot read manifest: {manifest_path} {problem}",
              file=sys.stderr)
        return EXIT_CONFIG
    if recorded["scenario"] != scenario:
        print(f"error: --scenario {scenario} differs from the manifest's "
              f"scenario {recorded['scenario']}", file=sys.stderr)
        return EXIT_CONFIG
    if recorded.get("config_hash") != cfg.config_hash():
        print("verify: configuration hash differs from the manifest",
              file=sys.stderr)
        return EXIT_VERIFY
    with tempfile.TemporaryDirectory() as tmp:
        try:
            _, manifest = run_scenario(
                recorded["scenario"], cfg, Path(tmp),
                n_trials=recorded.get("n_trials") or None,
                seed=recorded.get("seed"),
            )
        except Exception as err:  # noqa: BLE001 - reported as exit code
            print(f"runtime error during verify: {err}", file=sys.stderr)
            return EXIT_RUNTIME
        fresh = json.loads(manifest.read_text())["outputs"]
    for name, digest in recorded.get("outputs", {}).items():
        if name == "resolved_config.json":
            continue
        if name not in fresh:
            print(f"verify: missing output {name}", file=sys.stderr)
            return EXIT_VERIFY
        if fresh[name] != digest:
            print(f"verify: {name} differs from the manifest", file=sys.stderr)
            return EXIT_VERIFY
    print("verify: outputs reproduce byte-identically")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_and_validate(args.config)
    except ConfigError as err:
        for v in err.violations:
            print(f"config error: {v}", file=sys.stderr)
        return EXIT_CONFIG
    if args.verify is not None:
        fixed = [flag for flag, value in (("--trials", args.trials),
                                          ("--seed", args.seed))
                 if value is not None]
        if fixed:
            print(f"config error: {' and '.join(fixed)} cannot be used with "
                  "--verify: the manifest fixes n_trials and seed",
                  file=sys.stderr)
            return EXIT_CONFIG
        if args.out is not None:
            print("config error: --out cannot be used with --verify: the "
                  "re-run writes into a temporary directory", file=sys.stderr)
            return EXIT_CONFIG
        return _verify(args.verify, cfg, args.scenario)

    if args.trials is not None and args.trials < 2:
        print("config error: n_trials: must be >= 2", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None and args.seed < 0:
        print("config error: --seed: must be >= 0", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out or Path(cfg.output_dir)
    try:
        with warnings.catch_warnings():  # numpy's inf or nan ends the run
            warnings.simplefilter("error", RuntimeWarning)
            artifact, manifest = run_scenario(
                args.scenario, cfg, out_dir,
                n_trials=args.trials, seed=args.seed,
            )
    except (ValueError, RuntimeError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ArithmeticError, RuntimeWarning) as err:
        print(f"runtime error: values out of numerical range: {err}",
              file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as err:  # e.g. a --trials too large to allocate
        print(f"runtime error: out of memory. {err}".rstrip(), file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as err:  # an --out (or output_dir) that cannot be written
        print(f"config error: cannot write outputs to {out_dir}: {err}",
              file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {artifact}")
    print(f"manifest {manifest}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
