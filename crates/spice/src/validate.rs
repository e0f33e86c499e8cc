//! The §4.5 empirical validation: random valid GmC-TLN dynamical graphs
//! must (1) all map to SPICE-level netlists and (2) produce transient
//! dynamics matching the netlist simulation within 1% RMSE.

use crate::synth::{synthesize, SynthError};
use ark_core::{CompiledSystem, Graph, Language};
use ark_ode::{integrate, relative_rmse, Rk4, Trajectory};
use ark_paradigms::tln::{branched_tline, linear_tline, MismatchKind, TlineConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Result of validating one random design instance.
#[derive(Debug, Clone)]
pub struct InstanceReport {
    /// Seed / instance id.
    pub seed: u64,
    /// Number of DG nodes.
    pub nodes: usize,
    /// Worst per-state relative RMSE between DG and netlist transients.
    pub rmse: f64,
}

/// An error during the validation campaign.
#[derive(Debug)]
pub enum CampaignError {
    /// Graph construction failed.
    Build(String),
    /// Netlist synthesis failed.
    Synth(SynthError),
    /// A simulation failed.
    Sim(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Build(m) => write!(f, "graph construction failed: {m}"),
            CampaignError::Synth(e) => write!(f, "{e}"),
            CampaignError::Sim(m) => write!(f, "simulation failed: {m}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Generate a random valid GmC-TLN design: random length, optional branch,
/// random termination and mismatch kind — the §4.5 sampling distribution.
///
/// # Errors
///
/// Propagates graph-construction failures.
pub fn random_gmc_tline(lang: &Language, seed: u64) -> Result<Graph, CampaignError> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51ce_5eed);
    let mismatch = match rng.gen_range(0..4) {
        0 => MismatchKind::None,
        1 => MismatchKind::Cint,
        2 => MismatchKind::Gm,
        _ => MismatchKind::Both,
    };
    let cfg = TlineConfig {
        lc: rng.gen_range(5e-10..2e-9),
        load_g: rng.gen_range(0.3..3.0),
        source_g: rng.gen_range(0.3..3.0),
        pulse_width: 2e-8,
        mismatch,
    };
    let branched = rng.gen_bool(0.4);
    let g = if branched {
        let before = rng.gen_range(2..5);
        let branch = rng.gen_range(2..5);
        let after = rng.gen_range(2..5);
        branched_tline(lang, before, branch, after, &cfg, seed)
    } else {
        let segments = rng.gen_range(3..9);
        linear_tline(lang, segments, &cfg, seed)
    };
    g.map_err(|e| CampaignError::Build(e.to_string()))
}

/// Simulate a TLN-family graph both as a compiled dynamical system (RK4)
/// and as a synthesized GmC netlist (trapezoidal MNA), and return the worst
/// per-state relative RMSE over `[0, t_end]`.
///
/// # Errors
///
/// [`CampaignError`] when synthesis or either simulation fails.
pub fn dg_vs_netlist_rmse(
    lang: &Language,
    graph: &Graph,
    t_end: f64,
    dt: f64,
) -> Result<f64, CampaignError> {
    let sys =
        CompiledSystem::compile(lang, graph).map_err(|e| CampaignError::Sim(e.to_string()))?;
    let y0 = sys.initial_state();
    let dg_tr: Trajectory = integrate(&Rk4 { dt }, &sys.bind(), 0.0, &y0, t_end, 4)
        .map_err(|e| CampaignError::Sim(e.to_string()))?;
    let nl = synthesize(lang, graph).map_err(CampaignError::Synth)?;
    let nl_tr = nl
        .transient(t_end, dt, 4)
        .map_err(|e| CampaignError::Sim(e.to_string()))?;

    let mut worst: f64 = 0.0;
    for (_, node) in graph.nodes() {
        let Some(dg_idx) = sys.state_index(&node.name) else {
            continue;
        };
        let Some(nl_idx) = nl.node_index(&node.name) else {
            continue;
        };
        // Skip states that never carry signal (reference RMS ~ 0).
        let ref_rms: f64 = {
            let s = dg_tr.resample(dg_idx, 0.0, t_end, 200);
            (s.iter().map(|x| x * x).sum::<f64>() / s.len() as f64).sqrt()
        };
        if ref_rms < 1e-6 {
            continue;
        }
        let e = relative_rmse(&dg_tr, dg_idx, &nl_tr, nl_idx, 0.0, t_end, 200);
        worst = worst.max(e);
    }
    Ok(worst)
}

/// Run the full §4.5 campaign: `trials` random designs, each synthesized
/// and cross-simulated. Returns per-instance reports; the paper's claims
/// hold when every instance synthesizes and every RMSE is below 1%.
///
/// # Errors
///
/// The first failing instance aborts the campaign.
pub fn validation_campaign(
    lang: &Language,
    trials: usize,
    t_end: f64,
    dt: f64,
) -> Result<Vec<InstanceReport>, CampaignError> {
    let mut reports = Vec::with_capacity(trials);
    for seed in 0..trials as u64 {
        let graph = random_gmc_tline(lang, seed)?;
        let rmse = dg_vs_netlist_rmse(lang, &graph, t_end, dt)?;
        reports.push(InstanceReport {
            seed,
            nodes: graph.num_nodes(),
            rmse,
        });
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_paradigms::tln::{gmc_tln_language, tln_language};

    #[test]
    fn ideal_line_dg_matches_netlist_closely() {
        let lang = tln_language();
        let g = linear_tline(&lang, 6, &TlineConfig::default(), 0).unwrap();
        let rmse = dg_vs_netlist_rmse(&lang, &g, 3e-8, 2e-11).unwrap();
        assert!(rmse < 0.01, "rmse {rmse}");
    }

    #[test]
    fn mismatched_line_dg_matches_netlist() {
        // The netlist carries the *same sampled* device values, so the match
        // must hold under mismatch too.
        let base = tln_language();
        let gmc = gmc_tln_language(&base);
        let cfg = TlineConfig {
            mismatch: MismatchKind::Both,
            ..TlineConfig::default()
        };
        let g = linear_tline(&gmc, 5, &cfg, 7).unwrap();
        let rmse = dg_vs_netlist_rmse(&gmc, &g, 3e-8, 2e-11).unwrap();
        assert!(rmse < 0.01, "rmse {rmse}");
    }

    #[test]
    fn branched_line_matches_netlist() {
        let base = tln_language();
        let gmc = gmc_tln_language(&base);
        let cfg = TlineConfig {
            mismatch: MismatchKind::Gm,
            ..TlineConfig::default()
        };
        let g = branched_tline(&gmc, 3, 3, 3, &cfg, 11).unwrap();
        let rmse = dg_vs_netlist_rmse(&gmc, &g, 3e-8, 2e-11).unwrap();
        assert!(rmse < 0.01, "rmse {rmse}");
    }

    #[test]
    fn mini_campaign_all_under_one_percent() {
        // Reduced-scale §4.5 campaign (the 1000-instance version runs in the
        // bench harness binary `spice_validation`).
        let base = tln_language();
        let gmc = gmc_tln_language(&base);
        let reports = validation_campaign(&gmc, 20, 2e-8, 4e-11).unwrap();
        assert_eq!(reports.len(), 20);
        for r in &reports {
            assert!(r.rmse < 0.01, "instance {} rmse {}", r.seed, r.rmse);
        }
    }

    #[test]
    fn random_designs_are_valid_ark_graphs() {
        use ark_core::validate::{validate, ExternRegistry};
        let base = tln_language();
        let gmc = gmc_tln_language(&base);
        for seed in 0..10 {
            let g = random_gmc_tline(&gmc, seed).unwrap();
            let report = validate(&gmc, &g, &ExternRegistry::new()).unwrap();
            assert!(report.is_valid(), "seed {seed}: {report}");
        }
    }
}
