//! Standard PUF quality metrics (Herder et al., "Physical Unclonable
//! Functions and Applications: A Tutorial" — reference 22 of the paper).
//!
//! * **uniqueness** — mean normalized inter-chip Hamming distance for the
//!   same challenge (ideal 0.5);
//! * **reliability** — mean normalized intra-chip Hamming distance across
//!   noisy re-measurements (ideal 0.0; often reported as 1 − this);
//! * **uniformity** — fraction of 1-bits in responses (ideal 0.5).

use crate::design::{
    challenge_bits, hamming, Challenge, PufDesign, PufError, Response, DT, STRIDE,
};
use ark_core::{CompiledSystem, Language};
use ark_ode::{Rk4, Trajectory};
use ark_sim::{seed_range, Ensemble};

/// Aggregate quality metrics of a PUF design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PufMetrics {
    /// Mean normalized inter-chip Hamming distance (ideal 0.5).
    pub uniqueness: f64,
    /// Mean normalized intra-chip Hamming distance under noise (ideal 0.0).
    pub intra_distance: f64,
    /// Mean fraction of 1-bits (ideal 0.5).
    pub uniformity: f64,
}

/// Evaluation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalConfig {
    /// Number of fabricated instances (mismatch seeds).
    pub instances: usize,
    /// Number of challenges evaluated.
    pub challenges: usize,
    /// Noisy re-measurements per (instance, challenge) for reliability.
    pub remeasures: usize,
    /// Measurement-noise standard deviation (volts).
    pub noise_sigma: f64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            instances: 6,
            challenges: 4,
            remeasures: 3,
            noise_sigma: 1e-3,
        }
    }
}

/// Evaluate a PUF design: simulate `instances × challenges` chips, read
/// each one's clean response and noisy re-measurements, and compute the
/// aggregate metrics. Runs on the default (all-cores) ensemble engine; see
/// [`evaluate_with`].
///
/// # Errors
///
/// Propagates any simulation failure.
pub fn evaluate(
    lang: &Language,
    design: &PufDesign,
    cfg: &EvalConfig,
) -> Result<PufMetrics, PufError> {
    evaluate_with(lang, design, cfg, &Ensemble::default())
}

/// [`evaluate`] on an explicit `ark-sim` [`Ensemble`]: each challenge's
/// fabricated chips (mismatch seeds `1..=instances`) run through one
/// [`Ensemble::run`], and every chip's clean response and all of its noisy
/// re-measurements are read off its one trajectory. The metrics are
/// aggregated in a fixed order afterwards, so the result is bit-identical
/// for any worker count and lane width, including the serial engine.
///
/// Compilation is **per challenge, not per chip**: each challenge's
/// fabricated design is compiled once parametrically
/// ([`PufDesign::build_parametric`]) and its nominal reference once plainly
/// (2 × `challenges` compiles total); every chip is then just a sampled
/// parameter vector on a shared compiled system.
///
/// # Errors
///
/// The first simulation failure: the nominal references first, then the
/// chips by challenge and seed.
pub fn evaluate_with(
    lang: &Language,
    design: &PufDesign,
    cfg: &EvalConfig,
    ens: &Ensemble,
) -> Result<PufMetrics, PufError> {
    let nominal = design.nominal();
    let mut fab_sys: Vec<CompiledSystem> = Vec::with_capacity(cfg.challenges);
    let mut ref_sys: Vec<CompiledSystem> = Vec::with_capacity(cfg.challenges);
    for ch in 0..cfg.challenges as u64 {
        let challenge = challenge_bits(ch, design.sites);
        let pg = design.build_parametric(lang, &challenge)?;
        fab_sys.push(CompiledSystem::compile_parametric(lang, &pg)?);
        let rg = nominal.build(lang, &challenge, 0)?;
        ref_sys.push(CompiledSystem::compile(lang, &rg)?);
    }
    // Nominal reference trajectories, one per challenge.
    let refs: Vec<(Trajectory, usize)> = ens.try_map(&seed_range(0, cfg.challenges), |ch| {
        let sys = &ref_sys[ch as usize];
        Ok::<_, PufError>((nominal.simulate(sys)?, nominal.out_index(sys)))
    })?;
    // Aggregate in a fixed nested order (challenge, chip, re-measurement),
    // the order of a serial loop over the rebuild path, so floating-point
    // sums match it exactly.
    let mut inter_sum = 0.0;
    let mut inter_n = 0usize;
    let mut intra_sum = 0.0;
    let mut intra_n = 0usize;
    let mut ones = 0usize;
    let mut bits_total = 0usize;
    for (sys, (reference, ref_idx)) in fab_sys.iter().zip(&refs) {
        let out = design.out_index(sys);
        // Per chip: the clean response, then its noisy re-measurements.
        let chips: Vec<(Response, Vec<Response>)> = ens
            .run(
                sys,
                &Rk4 { dt: DT },
                &seed_range(1, cfg.instances),
                0.0,
                design.t_end(),
            )
            .stride(STRIDE)
            .map(|_seed, _params, tr, _scratch| {
                let read = |sigma, noise_seed| {
                    design.read_response(&tr, out, reference, *ref_idx, sigma, noise_seed)
                };
                let noisy = (0..cfg.remeasures as u64)
                    .map(|m| read(cfg.noise_sigma, 1 + m))
                    .collect();
                Ok::<_, PufError>((read(0.0, 0), noisy))
            })?;
        for (clean, _) in &chips {
            ones += clean.iter().filter(|&&b| b).count();
            bits_total += clean.len();
        }
        for (i, (a, _)) in chips.iter().enumerate() {
            for (b, _) in &chips[i + 1..] {
                inter_sum += hamming(a, b) as f64 / a.len() as f64;
                inter_n += 1;
            }
        }
        for (clean, noisy) in &chips {
            for r in noisy {
                intra_sum += hamming(clean, r) as f64 / clean.len() as f64;
                intra_n += 1;
            }
        }
    }
    Ok(PufMetrics {
        uniqueness: inter_sum / inter_n.max(1) as f64,
        intra_distance: intra_sum / intra_n.max(1) as f64,
        uniformity: ones as f64 / bits_total.max(1) as f64,
    })
}

/// Challenge-sensitivity ("avalanche") of a design: the mean normalized
/// Hamming distance between responses to challenges differing in exactly
/// one bit, for a fixed instance. A strong PUF wants this near 0.5 so
/// single-bit challenge changes decorrelate the response.
///
/// # Errors
///
/// Propagates any simulation failure.
pub fn challenge_sensitivity(
    lang: &Language,
    design: &PufDesign,
    instance: u64,
) -> Result<f64, PufError> {
    let base_ch: Challenge = challenge_bits(0, design.sites);
    let (base_ref, base_idx) = design.reference(lang, &base_ch)?;
    let base = design.respond(lang, &base_ref, base_idx, &base_ch, instance, 0.0, 0)?;
    let mut sum = 0.0;
    for bit in 0..design.sites {
        let mut flipped = base_ch.clone();
        flipped[bit] = !flipped[bit];
        let (fref, fidx) = design.reference(lang, &flipped)?;
        let resp = design.respond(lang, &fref, fidx, &flipped, instance, 0.0, 0)?;
        sum += hamming(&base, &resp) as f64 / base.len() as f64;
    }
    Ok(sum / design.sites as f64)
}

/// Per-bit aliasing: the fraction of instances producing a 1 at each
/// response-bit position (ideal: 0.5 everywhere). Strongly biased
/// positions leak design information rather than device entropy.
///
/// # Errors
///
/// Propagates any simulation failure.
pub fn bit_aliasing(
    lang: &Language,
    design: &PufDesign,
    instances: usize,
    challenge_value: u64,
) -> Result<Vec<f64>, PufError> {
    let challenge: Challenge = challenge_bits(challenge_value, design.sites);
    let (reference, ref_idx) = design.reference(lang, &challenge)?;
    let mut ones = vec![0usize; design.response_bits];
    for inst in 0..instances as u64 {
        let r = design.respond(lang, &reference, ref_idx, &challenge, inst + 1, 0.0, 0)?;
        for (i, &b) in r.iter().enumerate() {
            if b {
                ones[i] += 1;
            }
        }
    }
    Ok(ones
        .into_iter()
        .map(|o| o as f64 / instances as f64)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_paradigms::tln::{gmc_tln_language, tln_language, MismatchKind, TlineConfig};

    fn design() -> PufDesign {
        PufDesign {
            spacing: 1,
            sites: 2,
            stub_len: 2,
            window_start: 0.5e-8,
            window_end: 3e-8,
            response_bits: 16,
            ..PufDesign::default()
        }
    }

    #[test]
    fn metrics_in_sane_ranges() {
        let base = tln_language();
        let gmc = gmc_tln_language(&base);
        let cfg = EvalConfig {
            instances: 4,
            challenges: 2,
            remeasures: 2,
            noise_sigma: 1e-4,
        };
        let m = evaluate(&gmc, &design(), &cfg).unwrap();
        // Uniqueness: chips should differ substantially but metrics are
        // bounded in [0, 1].
        assert!(
            m.uniqueness > 0.05 && m.uniqueness <= 1.0,
            "uniqueness {}",
            m.uniqueness
        );
        // Reliability: small noise flips few bits.
        assert!(m.intra_distance < 0.3, "intra {}", m.intra_distance);
        assert!(m.uniformity > 0.0 && m.uniformity < 1.0);
        // A useful PUF separates inter from intra distance.
        assert!(m.uniqueness > m.intra_distance, "{m:?}");
    }

    #[test]
    fn parallel_evaluation_is_worker_count_independent() {
        let base = tln_language();
        let gmc = gmc_tln_language(&base);
        let cfg = EvalConfig {
            instances: 3,
            challenges: 2,
            remeasures: 1,
            noise_sigma: 1e-4,
        };
        let serial = evaluate_with(&gmc, &design(), &cfg, &Ensemble::serial()).unwrap();
        for workers in [2, 4] {
            let par = evaluate_with(&gmc, &design(), &cfg, &Ensemble::new(workers)).unwrap();
            assert_eq!(serial, par, "workers {workers}");
        }
    }

    #[test]
    fn gm_mismatch_beats_cint_mismatch_for_uniqueness() {
        // The §2.4 design conclusion: future TLN PUFs should use Gm
        // mismatch, because it produces far more response variation.
        let base = tln_language();
        let gmc = gmc_tln_language(&base);
        let cfg = EvalConfig {
            instances: 4,
            challenges: 2,
            remeasures: 0,
            noise_sigma: 0.0,
        };
        let gm_design = design();
        let cint_design = PufDesign {
            cfg: TlineConfig {
                mismatch: MismatchKind::Cint,
                ..gm_design.cfg
            },
            ..gm_design.clone()
        };
        let m_gm = evaluate(&gmc, &gm_design, &cfg).unwrap();
        let m_cint = evaluate(&gmc, &cint_design, &cfg).unwrap();
        assert!(
            m_gm.uniqueness > m_cint.uniqueness,
            "gm {} vs cint {}",
            m_gm.uniqueness,
            m_cint.uniqueness
        );
    }

    /// PUF row of the step-convergence tier (`tests/step_convergence.rs`
    /// holds the CNN and Figure 4 rows): every clean response bit of a
    /// small evaluation must be the same at `DT / 2` and `DT`. Each rung
    /// keeps the shipped sample spacing (`STRIDE · DT`), so only the step
    /// moves. Also prints the bit flips at 2× and 4× the step and the
    /// observed order of `OUT_V` at the response times (self-convergence
    /// between successive rungs). Measured: no bit flips up to 4 · `DT`;
    /// `OUT_V` moves 1.0e-6 V from `DT` to 2 · `DT` (order ≈ 4) but 3.2e-4 V
    /// from 2 · `DT` to 4 · `DT` (order ≈ 8, the edge of RK4's stability),
    /// so the bit cliff is at or beyond 4 · `DT` = 2e-10. `DT` stays.
    #[test]
    fn responses_are_converged_at_the_puf_step() {
        let base = tln_language();
        let gmc = gmc_tln_language(&base);
        let d = design();
        let cfg = EvalConfig {
            instances: 4,
            challenges: 2,
            remeasures: 0,
            noise_sigma: 0.0,
        };
        let steps = [DT / 2.0, DT, 2.0 * DT, 4.0 * DT];
        let run = |sys: &CompiledSystem, k: usize| {
            // Rung k records every (2 · STRIDE) >> k steps: STRIDE · DT apart.
            let stride = (2 * STRIDE) >> k;
            let y0 = sys.initial_state();
            ark_ode::integrate(
                &Rk4 { dt: steps[k] },
                &sys.bind(),
                0.0,
                &y0,
                d.t_end(),
                stride,
            )
            .unwrap()
        };
        let times: Vec<f64> = (0..d.response_bits)
            .map(|i| {
                d.window_start
                    + (d.window_end - d.window_start) * i as f64 / (d.response_bits - 1) as f64
            })
            .collect();
        let nominal = d.nominal();
        let mut flips = [0usize; 4];
        let mut v_diff = [0.0f64; 4];
        for ch in 0..cfg.challenges as u64 {
            let challenge = challenge_bits(ch, d.sites);
            let ref_sys =
                CompiledSystem::compile(&gmc, &nominal.build(&gmc, &challenge, 0).unwrap())
                    .unwrap();
            let ref_idx = nominal.out_index(&ref_sys);
            let refs: Vec<Trajectory> = (0..steps.len()).map(|k| run(&ref_sys, k)).collect();
            for instance in 1..=cfg.instances as u64 {
                let sys =
                    CompiledSystem::compile(&gmc, &d.build(&gmc, &challenge, instance).unwrap())
                        .unwrap();
                let out = d.out_index(&sys);
                let trs: Vec<Trajectory> = (0..steps.len()).map(|k| run(&sys, k)).collect();
                let bits: Vec<Response> = trs
                    .iter()
                    .zip(&refs)
                    .map(|(tr, reference)| d.read_response(tr, out, reference, ref_idx, 0.0, 0))
                    .collect();
                assert_eq!(
                    bits[0], bits[1],
                    "challenge {ch}, instance {instance}: response moves between DT/2 and DT"
                );
                for k in 1..steps.len() {
                    flips[k] += hamming(&bits[0], &bits[k]);
                    for &t in &times {
                        let change = (trs[k].value_at(t, out) - trs[k - 1].value_at(t, out)).abs();
                        v_diff[k] = v_diff[k].max(change);
                    }
                }
            }
        }
        println!(
            "PUF ({} chips x {} challenges x {} bits, against DT/2):",
            cfg.instances, cfg.challenges, d.response_bits
        );
        for k in 1..steps.len() {
            let order = if k > 1 {
                format!("{:.2}", (v_diff[k] / v_diff[k - 1]).log2())
            } else {
                "-".to_string()
            };
            println!(
                "  dt {:.1e}  bit flips {}  OUT_V change {:.2e} V  order {order}",
                steps[k], flips[k], v_diff[k]
            );
        }
        let cliff = (1..steps.len()).take_while(|&k| flips[k] == 0).last();
        println!("  cliff: dt {:.1e}", cliff.map_or(steps[0], |k| steps[k]));
    }

    #[test]
    fn challenge_sensitivity_is_nonzero() {
        let base = tln_language();
        let gmc = gmc_tln_language(&base);
        let s = challenge_sensitivity(&gmc, &design(), 3).unwrap();
        assert!(s > 0.0 && s <= 1.0, "sensitivity {s}");
    }

    #[test]
    fn bit_aliasing_bounded_and_informative() {
        let base = tln_language();
        let gmc = gmc_tln_language(&base);
        let alias = bit_aliasing(&gmc, &design(), 6, 1).unwrap();
        assert_eq!(alias.len(), design().response_bits);
        assert!(alias.iter().all(|&a| (0.0..=1.0).contains(&a)));
        // With Gm mismatch, at least some positions carry entropy.
        assert!(alias.iter().any(|&a| a > 0.0 && a < 1.0), "{alias:?}");
    }
}
