"""Named desk-scale experiment scenarios and their file artifacts.

Each scenario is registered in SCENARIOS as a function
fn(cfg, n_trials, seed) that returns its artifacts as
{filename: payload}: a (header, rows) pair for ``.csv`` files, a dict
for ``.json`` files; the first entry is the primary artifact.  The
deterministic scenarios, params-report and limits, live here and are
plain arithmetic; the Monte Carlo ones live in montecarlo, which loads
numpy and the trial engine, and are registered by name, so that only a
Monte Carlo run imports them.
run_scenario is the only writer: it writes the artifacts, a
resolved-config echo and a run manifest (seed, config hash, scenario,
code version, output hashes) so that reruns are byte-identical and
verifiable.  Each file is serialized once and written in one call, and
its manifest hash is taken from the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from . import __version__
from .config import NoiseBudget, RunConfig
from .limits import LimitInputs, limits_report
from .scattering import raman_noise_coefficient


def noise_budget_from_config(cfg: RunConfig, n0: float | None = None) -> NoiseBudget:
    """Analytic four-term budget implied by the configuration."""
    n0 = cfg.n0 if n0 is None else n0
    dn_du = 1.0 / (2.0 * cfg.couplings.domega_dn)
    b_minus1 = 2.0 * (cfg.probe.apd_excess_factor / cfg.probe.quantum_efficiency) * dn_du**2
    return NoiseBudget(
        b_minus2=cfg.probe.electronic_noise_b2,
        b_minus1=b_minus1,
        b0_tech=cfg.probe.technical_noise_fraction * n0,
        b0_mu=cfg.pulses.mu_total * n0,
        b1=raman_noise_coefficient(cfg.rates, n0),
        provenance={k: "fixed" for k in
                    ("b_minus2", "b_minus1", "b0_tech", "b0_mu", "b1")},
    )


def _csv_text(header: list[str], rows: list[list]) -> str:
    return "".join(",".join(
        repr(float(v)) if isinstance(v, (int, float)) else str(v)
        for v in row) + "\n" for row in (header, *rows))


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def scenario_params_report(cfg: RunConfig) -> dict:
    """Deterministic physics report: the full coupling/scattering chain."""
    c = cfg.couplings
    budget = noise_budget_from_config(cfg)
    kappa = cfg.resonator.linewidth
    return {
        "constants_version": cfg.constants.version,
        "antinode_cooperativity_probe": c.antinode_cooperativity,
        "effective_cooperativity": c.effective_cooperativity,
        "eta_ratio": c.effective_cooperativity / c.antinode_cooperativity,
        "effective_atom_number": c.effective_atom_number,
        "collective_cooperativity": c.effective_atom_number
        * c.effective_cooperativity,
        "shift_per_atom_f1_kappa": c.shift_per_atom_f1,
        "shift_per_atom_f2_kappa": c.shift_per_atom_f2,
        "shift_per_atom_f1_comp_kappa": c.shift_per_atom_f1_comp,
        "shift_per_atom_f2_comp_kappa": c.shift_per_atom_f2_comp,
        "domega_dn_kappa": c.domega_dn,
        "delta_prime_mhz": c.delta_prime / (2e6 * math.pi),
        "phase_per_photon_max_urad": c.phase_per_photon_max * 1e6,
        "phase_per_photon_eff_urad": c.phase_per_photon_eff * 1e6,
        "kappa_mhz": kappa / (2e6 * math.pi),
        "p_raman": cfg.rates.p_raman_total,
        "p_total": cfg.rates.p_total,
        "p_total_to_raman": cfg.rates.p_total / cfg.rates.p_raman_total,
        "p_delta_f": cfg.rates.p_delta_f,
        "p_delta_mf": cfg.rates.p_delta_mf,
        "p_delta_f_delta_mf": cfg.rates.p_delta_f_delta_mf,
        "p_rayleigh_f1": cfg.rates.p_rayleigh_f1,
        "p_rayleigh_f2": cfg.rates.p_rayleigh_f2,
        "b1_per_photon": budget.b1,
        "b_minus1": budget.b_minus1,
    }


def _params_report_artifacts(cfg: RunConfig, n_trials: int, seed: int) -> dict:
    return {"params_report.json": scenario_params_report(cfg)}


def scenario_limits(cfg: RunConfig, n_trials: int, seed: int) -> dict:
    """Fundamental-limit report for the configured system."""
    c = cfg.couplings
    inputs = LimitInputs(
        collective_cooperativity=c.effective_atom_number
        * c.effective_cooperativity,
        p_raman=cfg.rates.p_raman_total,
        p_total=cfg.rates.p_total,
        phi_eff=c.phase_per_photon_eff,
        p_rayleigh_f1=cfg.rates.p_rayleigh_f1,
        p_rayleigh_f2=cfg.rates.p_rayleigh_f2,
    )
    return {"limits.json": limits_report(inputs)}


# name -> fn(cfg, n_trials, seed) -> {filename: payload}; a Monte Carlo
# scenario is named by its function in montecarlo
SCENARIOS = {
    "params-report": _params_report_artifacts,
    "fig2": "scenario_fig2",
    "fig3": "scenario_fig3",
    "rotation": "scenario_rotation",
    "ramsey": "scenario_ramsey",
    "limits": scenario_limits,
}
SCENARIO_NAMES = tuple(SCENARIOS)


def run_scenario(name: str, cfg: RunConfig, out_dir: Path,
                 n_trials: int | None = None, seed: int | None = None):
    """Run a registered scenario and write its artifacts.

    Writes every artifact, resolved_config.json and
    <name>_manifest.json into out_dir; returns (primary artifact,
    manifest).  Deterministic scenarios record n_trials = 0.
    """
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    compute = SCENARIOS[name]
    monte_carlo = isinstance(compute, str)
    if monte_carlo:  # the first Monte Carlo run loads numpy
        from . import montecarlo
        compute = getattr(montecarlo, compute)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_trials = (n_trials or cfg.n_trials) if monte_carlo else 0
    seed = cfg.master_seed if seed is None else seed

    texts = {filename: _csv_text(*payload) if filename.endswith(".csv")
             else _json_text(payload)
             for filename, payload in compute(cfg, n_trials, seed).items()}
    texts["resolved_config.json"] = _json_text(cfg.raw)
    outputs = {}
    for filename, text in texts.items():
        data = text.encode()
        (out_dir / filename).write_bytes(data)
        outputs[filename] = hashlib.sha256(data).hexdigest()

    manifest = out_dir / f"{name}_manifest.json"
    manifest.write_bytes(_json_text({
        "scenario": name,
        "seed": int(seed),
        "n_trials": int(n_trials),
        "config_hash": cfg.config_hash(),
        "version": __version__,
        "outputs": outputs,
    }).encode())
    return out_dir / next(iter(texts)), manifest
