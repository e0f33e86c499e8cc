//! The §4.5 empirical validation: random valid GmC-TLN dynamical graphs
//! must (1) all map to SPICE-level netlists and (2) produce transient
//! dynamics matching the netlist simulation within 1% RMSE.

use crate::synth::{synthesize, SynthError};
use ark_core::{CompiledSystem, Graph, Language};
use ark_ode::{integrate, relative_rmse_and_rms, Rk4, Trajectory};
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
        let (e, ref_rms) = relative_rmse_and_rms(&dg_tr, dg_idx, &nl_tr, nl_idx, 0.0, t_end, 200);
        // Skip states that never carry signal (reference RMS ~ 0).
        if ref_rms < 1e-6 {
            continue;
        }
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

    /// `dg_vs_netlist_rmse` of `random_gmc_tline` seeds 0..64 at the
    /// campaign's `(t_end, dt) = (2e-8, 4e-11)`, as `f64::to_bits`, from
    /// the row-interpolating readout that resampled every component per
    /// point. The one-walk readout must reproduce every bit.
    #[rustfmt::skip]
    const CAMPAIGN_RMSE_BITS: [u64; 64] = [
    0x3f30120b88c59e00, 0x3f32e58d1bf9e289, 0x3f2b755e308eb02e, 0x3f203bf77964de68,
    0x3f6adfba15bfd715, 0x3f30b8d85b8d28f7, 0x3f37b656303a8fe1, 0x3f26510e070e75be,
    0x3f4353600fc4668c, 0x3f271df0f7624357, 0x3f2049d0bfbe31c2, 0x3f22dc85fc5ecbed,
    0x3f36dfcb1a66f975, 0x3f391e141fcec8bf, 0x3f57145d8b2de4f1, 0x3f2eaa6fc681c541,
    0x3f20d89d329bf827, 0x3f1d143c64a9e1fb, 0x3f31bae1e25cd928, 0x3f151134962399a3,
    0x3f544a2064539d2b, 0x3f68b023b62b3a4f, 0x3f228f37a41c2bac, 0x3f36fdcf68ad5a2f,
    0x3f1a718f36c6904c, 0x3f243a00b20a7c07, 0x3f1f881556fd4c53, 0x3f3731d86198e7e3,
    0x3f2f768f68affc44, 0x3f42b6bef57308bc, 0x3f3e8fc7380a9f8f, 0x3f37d83ceea9203a,
    0x3f135bfe3114559b, 0x3f61d0bb5a627b60, 0x3f66084bbc957fd9, 0x3f1f065cd17a83b3,
    0x3f16f8f1a5e5c41f, 0x3f33d1d579cdf1ce, 0x3f34f56fcd33665f, 0x3f1cf08e21102572,
    0x3f2437974144d6a5, 0x3f161ba823377aaf, 0x3f26038e63bce6aa, 0x3f608a1f2dc30272,
    0x3f3cf9b7af9c914b, 0x3f630b530e6a5d66, 0x3f4c399178b706b6, 0x3f391775affadc41,
    0x3f414639babcca1e, 0x3f3aaf6429f87df9, 0x3f16ad65e4328362, 0x3f30e5c4cce1192a,
    0x3f27624225760a50, 0x3f3f0b6ace6c8790, 0x3f4df7d457eb831c, 0x3f277032116a9011,
    0x3f410a04b21cb838, 0x3f24a29b69f73338, 0x3f203fa32ad148de, 0x3f23a3374e75e33f,
    0x3f2a2262e3df2699, 0x3f27af616f67fa0a, 0x3f2bab4501beafac, 0x3f3b474d80b5978b,
    ];

    #[test]
    fn campaign_rmse_is_pinned_bit_for_bit() {
        let gmc = gmc_tln_language(&tln_language());
        for (seed, want) in (0..).zip(CAMPAIGN_RMSE_BITS) {
            let g = random_gmc_tline(&gmc, seed).unwrap();
            let rmse = dg_vs_netlist_rmse(&gmc, &g, 2e-8, 4e-11).unwrap();
            assert_eq!(
                rmse.to_bits(),
                want,
                "seed {seed}: rmse {rmse:e}, pinned {:e}",
                f64::from_bits(want)
            );
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
