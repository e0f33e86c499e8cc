//! Recorded solution trajectories.

/// Counters describing how an integrator produced a [`Trajectory`].
///
/// Fixed-step methods only ever accept steps; the adaptive
/// [`DormandPrince`](crate::DormandPrince) controller additionally reports
/// how many trial steps its PI controller rejected, which is the direct
/// measure of how hard the tolerance was to meet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Number of accepted integration steps.
    pub accepted: usize,
    /// Number of rejected (retried) steps — always 0 for fixed-step methods.
    pub rejected: usize,
    /// Number of right-hand-side evaluations performed.
    pub rhs_evals: usize,
    /// Number of Newton iterations performed across all step attempts —
    /// always 0 for the explicit methods, the dominant cost knob for
    /// implicit ones ([`TrBdf2`](crate::TrBdf2)).
    pub newton_iters: usize,
}

/// A time-indexed record of the state vector produced by an integrator.
///
/// Rows are strictly increasing in time. Values between samples are
/// recovered by linear interpolation, which is adequate for the dense
/// outputs produced by the fixed-step and adaptive integrators here.
///
/// Samples are stored in one flat `times.len() × dim` buffer so recording a
/// sample never allocates a fresh per-row `Vec` (amortized growth only) —
/// part of the allocation-free integrator hot path. Reading one component
/// back allocates nothing either: [`Trajectory::value_at`] interpolates
/// only that component, so [`Trajectory::resample`] allocates just its
/// result and [`relative_rmse`] nothing at all.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trajectory {
    times: Vec<f64>,
    /// Row-major `len × dim` sample matrix.
    data: Vec<f64>,
    dim: usize,
    stats: SolveStats,
}

impl Trajectory {
    /// An empty trajectory.
    pub fn new() -> Self {
        Trajectory::default()
    }

    /// An empty trajectory with room for `samples` rows of width `dim`.
    pub fn with_capacity(dim: usize, samples: usize) -> Self {
        Trajectory {
            times: Vec::with_capacity(samples),
            data: Vec::with_capacity(samples * dim),
            dim: 0,
            stats: SolveStats::default(),
        }
    }

    /// Append a sample. Times must arrive in strictly increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not greater than the last recorded time, or if the
    /// state dimension changes between samples.
    pub fn push(&mut self, t: f64, state: Vec<f64>) {
        self.push_slice(t, &state);
    }

    /// Append a sample from a borrowed state — the allocation-free variant
    /// of [`Trajectory::push`] used by the integrators.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not greater than the last recorded time, or if the
    /// state dimension changes between samples.
    pub fn push_slice(&mut self, t: f64, state: &[f64]) {
        if let Some(last) = self.times.last() {
            assert!(t > *last, "trajectory times must be strictly increasing");
            assert_eq!(
                state.len(),
                self.dim,
                "state dimension changed mid-trajectory"
            );
        } else {
            self.dim = state.len();
        }
        self.times.push(t);
        self.data.extend_from_slice(state);
    }

    /// Integration statistics recorded by the producing solver (all zero for
    /// hand-built trajectories).
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Attach integration statistics (used by the solvers).
    pub fn set_stats(&mut self, stats: SolveStats) {
        self.stats = stats;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Dimension of the recorded state vectors (0 when empty).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The recorded time stamps.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The state at sample index `i`.
    pub fn state(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The final `(time, state)` sample, if any.
    pub fn last(&self) -> Option<(f64, &[f64])> {
        self.times.last().map(|t| (*t, self.state(self.len() - 1)))
    }

    /// Time series of component `var` as `(t, value)` pairs.
    pub fn series(&self, var: usize) -> Vec<(f64, f64)> {
        self.times
            .iter()
            .enumerate()
            .map(|(i, t)| (*t, self.state(i)[var]))
            .collect()
    }

    /// Linearly interpolated state at time `t`.
    ///
    /// Clamps to the first/last sample outside the recorded range.
    ///
    /// # Panics
    ///
    /// Panics on an empty trajectory.
    pub fn at(&self, t: f64) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        self.at_into(t, &mut out);
        out
    }

    /// [`Trajectory::at`] into a caller-provided buffer — the
    /// allocation-free form used by hot readout loops (e.g. the laned CNN
    /// convergence scan, which probes hundreds of points per lane group).
    /// Produces bit-identical values to [`Trajectory::at`].
    ///
    /// # Panics
    ///
    /// Panics on an empty trajectory or an undersized buffer.
    pub fn at_into(&self, t: f64, out: &mut [f64]) {
        let out = &mut out[..self.dim];
        match self.locate(t) {
            Position::Sample(i) => out.copy_from_slice(self.state(i)),
            Position::Between(i, w) => {
                for ((o, a), b) in out.iter_mut().zip(self.state(i - 1)).zip(self.state(i)) {
                    *o = a + w * (b - a);
                }
            }
        }
    }

    /// Linearly interpolated value of component `var` at time `t`: the
    /// `var` entry of [`Trajectory::at`], bit for bit, computed without
    /// allocating or interpolating the other components.
    ///
    /// # Panics
    ///
    /// Panics on an empty trajectory or out-of-range `var`.
    pub fn value_at(&self, t: f64, var: usize) -> f64 {
        self.component(self.locate(t), var)
    }

    /// Where `t` falls on the sample grid. Outside the recorded range it
    /// clamps to the first/last sample; inside, an exact hit is that
    /// sample and anything else is the interval ending at the first later
    /// sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty trajectory.
    fn locate(&self, t: f64) -> Position {
        assert!(!self.is_empty(), "cannot sample an empty trajectory");
        let last = self.len() - 1;
        if t <= self.times[0] {
            return Position::Sample(0);
        }
        if t >= self.times[last] {
            return Position::Sample(last);
        }
        let idx = match self
            .times
            .binary_search_by(|x| x.partial_cmp(&t).expect("finite"))
        {
            Ok(i) => return Position::Sample(i),
            Err(i) => i,
        };
        let (t0, t1) = (self.times[idx - 1], self.times[idx]);
        Position::Between(idx, (t - t0) / (t1 - t0))
    }

    /// Component `var` at grid position `pos`.
    fn component(&self, pos: Position, var: usize) -> f64 {
        let at = |i: usize| self.state(i)[var];
        match pos {
            Position::Sample(i) => at(i),
            Position::Between(i, w) => {
                let (a, b) = (at(i - 1), at(i));
                a + w * (b - a)
            }
        }
    }

    /// Maximum of component `var` over `[t0, t1]`, returned as `(t, value)`.
    ///
    /// Considers recorded samples inside the window plus the interpolated
    /// endpoints.
    ///
    /// # Panics
    ///
    /// Panics on an empty trajectory.
    pub fn peak_in_window(&self, var: usize, t0: f64, t1: f64) -> (f64, f64) {
        let mut best = (t0, self.value_at(t0, var));
        for (i, t) in self.times.iter().enumerate() {
            let v = self.state(i)[var];
            if *t >= t0 && *t <= t1 && v > best.1 {
                best = (*t, v);
            }
        }
        let end = (t1, self.value_at(t1, var));
        if end.1 > best.1 {
            best = end;
        }
        best
    }

    /// Resample component `var` at `n` evenly spaced points across `[t0, t1]`.
    ///
    /// Equal to [`Trajectory::value_at`] at each point, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the trajectory is empty.
    pub fn resample(&self, var: usize, t0: f64, t1: f64, n: usize) -> Vec<f64> {
        self.walk(var, t0, t1, n).collect()
    }

    /// The values of [`Trajectory::resample`], lazily.
    fn walk(&self, var: usize, t0: f64, t1: f64, n: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(n >= 2, "need at least two sample points");
        (0..n).map(move |i| {
            let t = t0 + (t1 - t0) * (i as f64) / ((n - 1) as f64);
            self.value_at(t, var)
        })
    }

    /// Iterate over `(time, state)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &[f64])> {
        self.times
            .iter()
            .copied()
            .zip(self.data.chunks_exact(self.dim.max(1)))
    }
}

/// Root-mean-squared error between component `var_a` of `a` and `var_b` of
/// `b`, resampled at `n` points over `[t0, t1]`, normalized by the RMS of
/// the reference `a` (so 0.01 means 1% error, as in the paper's §4.5
/// empirical validation). Allocates nothing: both trajectories are read
/// one component value per point.
///
/// # Panics
///
/// Panics if either trajectory is empty or `n < 2`.
pub fn relative_rmse(
    a: &Trajectory,
    var_a: usize,
    b: &Trajectory,
    var_b: usize,
    t0: f64,
    t1: f64,
    n: usize,
) -> f64 {
    relative_rmse_and_rms(a, var_a, b, var_b, t0, t1, n).0
}

/// [`relative_rmse`] together with the RMS of the reference `a` over the
/// same `n` points, both from one pass: `(relative RMSE, reference RMS)`.
/// A caller that skips near-silent references reads the second value
/// instead of resampling `a` again.
///
/// # Panics
///
/// Panics if either trajectory is empty or `n < 2`.
pub fn relative_rmse_and_rms(
    a: &Trajectory,
    var_a: usize,
    b: &Trajectory,
    var_b: usize,
    t0: f64,
    t1: f64,
    n: usize,
) -> (f64, f64) {
    let mut err = 0.0;
    let mut norm = 0.0;
    for (x, y) in a.walk(var_a, t0, t1, n).zip(b.walk(var_b, t0, t1, n)) {
        err += (x - y) * (x - y);
        norm += x * x;
    }
    let rms = (norm / n as f64).sqrt();
    if norm == 0.0 {
        return (if err == 0.0 { 0.0 } else { f64::INFINITY }, rms);
    }
    ((err / norm).sqrt(), rms)
}

/// A time's place on a trajectory's sample grid ([`Trajectory::locate`]).
#[derive(Debug, Clone, Copy)]
enum Position {
    /// Exactly sample `i` (a clamp or an exact hit).
    Sample(usize),
    /// Between samples `i - 1` and `i`, at interpolation weight `w`.
    Between(usize, f64),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Trajectory {
        let mut tr = Trajectory::new();
        for i in 0..=10 {
            let t = i as f64;
            tr.push(t, vec![t * 2.0, -t]);
        }
        tr
    }

    #[test]
    fn push_and_basic_accessors() {
        let tr = ramp();
        assert_eq!(tr.len(), 11);
        assert_eq!(tr.dim(), 2);
        assert!(!tr.is_empty());
        assert_eq!(tr.state(1), &[2.0, -1.0]);
        assert_eq!(tr.last().unwrap().0, 10.0);
        assert_eq!(tr.times()[0], 0.0);
    }

    #[test]
    fn push_slice_matches_push() {
        let mut a = Trajectory::new();
        let mut b = Trajectory::new();
        for i in 0..5 {
            let t = i as f64;
            a.push(t, vec![t, 2.0 * t]);
            b.push_slice(t, &[t, 2.0 * t]);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn stats_default_zero_and_settable() {
        let mut tr = ramp();
        assert_eq!(tr.stats(), SolveStats::default());
        tr.set_stats(SolveStats {
            accepted: 3,
            rejected: 1,
            rhs_evals: 12,
            newton_iters: 0,
        });
        assert_eq!(tr.stats().rejected, 1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn push_rejects_nonmonotonic_time() {
        let mut tr = ramp();
        tr.push(5.0, vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "dimension changed")]
    fn push_rejects_dim_change() {
        let mut tr = ramp();
        tr.push(11.0, vec![0.0]);
    }

    #[test]
    fn interpolation_is_linear() {
        let tr = ramp();
        assert_eq!(tr.value_at(2.5, 0), 5.0);
        assert_eq!(tr.value_at(2.5, 1), -2.5);
        // Exact sample hit.
        assert_eq!(tr.value_at(3.0, 0), 6.0);
        // Clamping.
        assert_eq!(tr.value_at(-1.0, 0), 0.0);
        assert_eq!(tr.value_at(99.0, 0), 20.0);
    }

    #[test]
    fn series_extracts_component() {
        let tr = ramp();
        let s = tr.series(1);
        assert_eq!(s[3], (3.0, -3.0));
    }

    #[test]
    fn peak_in_window_finds_max() {
        let mut tr = Trajectory::new();
        for i in 0..=100 {
            let t = i as f64 / 100.0;
            // Bump centered at 0.3.
            let v = (-(t - 0.3) * (t - 0.3) * 100.0).exp();
            tr.push(t + 1e-12, vec![v]);
        }
        let (t_peak, v_peak) = tr.peak_in_window(0, 0.0, 1.0);
        assert!((t_peak - 0.3).abs() < 0.02);
        assert!(v_peak > 0.99);
        // Window excluding the bump.
        let (_, v2) = tr.peak_in_window(0, 0.6, 1.0);
        assert!(v2 < 0.5);
    }

    #[test]
    fn resample_endpoints() {
        let tr = ramp();
        let r = tr.resample(0, 0.0, 10.0, 5);
        assert_eq!(r, vec![0.0, 5.0, 10.0, 15.0, 20.0]);
    }

    #[test]
    fn relative_rmse_zero_for_identical() {
        let tr = ramp();
        assert_eq!(relative_rmse(&tr, 0, &tr, 0, 0.0, 10.0, 50), 0.0);
    }

    #[test]
    fn relative_rmse_scales() {
        let a = ramp();
        let mut b = Trajectory::new();
        for i in 0..=10 {
            let t = i as f64;
            b.push(t, vec![t * 2.0 * 1.01]); // 1% off everywhere
        }
        let e = relative_rmse(&a, 0, &b, 0, 1.0, 10.0, 100);
        assert!((e - 0.01).abs() < 1e-3, "rmse {e}");
    }

    #[test]
    fn resample_on_the_sample_grid_hits_every_sample() {
        let tr = ramp();
        let r = tr.resample(1, 0.0, 10.0, 11);
        let samples: Vec<f64> = (0..11).map(|i| tr.state(i)[1]).collect();
        assert_eq!(r, samples);
        // Reversed span: the same points in reverse order.
        let mut back = tr.resample(1, 10.0, 0.0, 11);
        back.reverse();
        assert_eq!(back, samples);
    }

    #[test]
    fn relative_rmse_and_rms_reports_the_reference_rms() {
        let tr = ramp();
        let (e, rms) = relative_rmse_and_rms(&tr, 0, &tr, 0, 0.0, 10.0, 2);
        assert_eq!(e, 0.0);
        assert_eq!(rms, (400.0f64 / 2.0).sqrt());
    }

    #[test]
    fn iter_yields_pairs() {
        let tr = ramp();
        let v: Vec<_> = tr.iter().collect();
        assert_eq!(v.len(), 11);
        assert_eq!(v[0].0, 0.0);
        assert_eq!(v[10].1, &[20.0, -10.0]);
    }
}

/// Bit-identity of the component readout against the row readout it
/// replaced: binary-search the grid, interpolate the whole row, index it.
#[cfg(test)]
mod row_oracle {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The row readout, verbatim.
    fn oracle_at(tr: &Trajectory, t: f64) -> Vec<f64> {
        let times = tr.times();
        if t <= times[0] {
            return tr.state(0).to_vec();
        }
        if t >= *times.last().expect("nonempty") {
            return tr.state(tr.len() - 1).to_vec();
        }
        let idx = match times.binary_search_by(|x| x.partial_cmp(&t).expect("finite")) {
            Ok(i) => return tr.state(i).to_vec(),
            Err(i) => i,
        };
        let (t0, t1) = (times[idx - 1], times[idx]);
        let w = (t - t0) / (t1 - t0);
        tr.state(idx - 1)
            .iter()
            .zip(tr.state(idx))
            .map(|(a, b)| a + w * (b - a))
            .collect()
    }

    /// The per-point resample over the row readout, verbatim.
    fn oracle_resample(tr: &Trajectory, var: usize, t0: f64, t1: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = t0 + (t1 - t0) * (i as f64) / ((n - 1) as f64);
                oracle_at(tr, t)[var]
            })
            .collect()
    }

    /// The resampling relative RMSE and the §4.5 reference-RMS formula,
    /// verbatim.
    fn oracle_rmse(
        a: &Trajectory,
        var_a: usize,
        b: &Trajectory,
        var_b: usize,
        (t0, t1, n): (f64, f64, usize),
    ) -> (f64, f64) {
        let xs = oracle_resample(a, var_a, t0, t1, n);
        let ys = oracle_resample(b, var_b, t0, t1, n);
        let rms = (xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64).sqrt();
        let mut err = 0.0;
        let mut norm = 0.0;
        for (x, y) in xs.iter().zip(&ys) {
            err += (x - y) * (x - y);
            norm += x * x;
        }
        if norm == 0.0 {
            return (if err == 0.0 { 0.0 } else { f64::INFINITY }, rms);
        }
        ((err / norm).sqrt(), rms)
    }

    /// A trajectory of dimension 1–3 or 20–24 over 2–40 samples. Irregular
    /// grids take random steps; regular ones a step of 0.25 from an integer
    /// start, so evenly spaced points land exactly on samples.
    fn trajectory() -> impl Strategy<Value = Trajectory> {
        (
            prop_oneof![1usize..=3, 20usize..=24],
            2usize..=40,
            -10i32..10,
            0u8..2,
        )
            .prop_flat_map(|(dim, len, start, regular)| {
                (vec(1e-3..1.0f64, len), vec(-5.0..5.0f64, len * dim)).prop_map(
                    move |(steps, values)| {
                        let mut tr = Trajectory::new();
                        let mut t = f64::from(start);
                        for (row, step) in values.chunks(dim).zip(&steps) {
                            tr.push_slice(t, row);
                            t += if regular == 1 { 0.25 } else { *step };
                        }
                        tr
                    },
                )
            })
    }

    /// A query time, by kind: an exact sample time, before the range,
    /// after it, or inside an interval (picked by `index`, placed by
    /// `frac`).
    type Query = (u8, usize, f64);

    fn query() -> impl Strategy<Value = Query> {
        (0u8..4, 0usize..64, 0.0..1.0f64)
    }

    fn time_of(tr: &Trajectory, (kind, index, frac): Query) -> f64 {
        let times = tr.times();
        let (first, last) = (times[0], times[times.len() - 1]);
        match kind {
            0 => times[index % times.len()],
            1 => first - 5.0 * frac,
            2 => last + 5.0 * frac,
            _ => {
                let i = index % (times.len() - 1);
                times[i] + frac * (times[i + 1] - times[i])
            }
        }
    }

    /// A point count: two, the sample count (every sample of a regular
    /// grid spanned end to end), twice that less one, or anything up to 300.
    fn count(tr: &Trajectory, pick: usize) -> usize {
        match pick % 4 {
            0 => 2,
            1 => tr.len(),
            2 => 2 * tr.len() - 1,
            _ => 2 + pick % 299,
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn value_at_matches_the_row_readout(
            tr in trajectory(),
            queries in vec(query(), 1..=8),
        ) {
            for q in queries {
                let t = time_of(&tr, q);
                let row = oracle_at(&tr, t);
                prop_assert_eq!(bits(&tr.at(t)), bits(&row), "at({})", t);
                for (var, want) in row.iter().enumerate() {
                    prop_assert_eq!(tr.value_at(t, var).to_bits(), want.to_bits(), "value_at({}, {})", t, var);
                }
            }
        }

        #[test]
        fn resample_matches_the_row_readout(
            tr in trajectory(),
            q0 in query(),
            q1 in query(),
            var_pick in 0usize..64,
            n_pick in 0usize..4096,
        ) {
            let (t0, t1) = (time_of(&tr, q0), time_of(&tr, q1));
            let (var, n) = (var_pick % tr.dim(), count(&tr, n_pick));
            // Both directions: `t0 > t1` resamples from the end.
            for (a, b) in [(t0, t1), (t1, t0)] {
                prop_assert_eq!(
                    bits(&tr.resample(var, a, b, n)),
                    bits(&oracle_resample(&tr, var, a, b, n)),
                    "resample({}, {}, {}, {})", var, a, b, n
                );
            }
        }

        #[test]
        fn relative_rmse_matches_the_row_readout(
            a in trajectory(),
            b in trajectory(),
            q0 in query(),
            q1 in query(),
            var_a in 0usize..64,
            var_b in 0usize..64,
            n_pick in 0usize..4096,
            same in 0u8..4,
        ) {
            // One case in four compares a trajectory with itself.
            let b = if same == 0 { a.clone() } else { b };
            let (t0, t1) = (time_of(&a, q0), time_of(&a, q1));
            let (var_a, var_b, n) = (var_a % a.dim(), var_b % b.dim(), count(&a, n_pick));
            for span in [(t0, t1, n), (t1, t0, n)] {
                let (e, rms) = oracle_rmse(&a, var_a, &b, var_b, span);
                let (t0, t1, n) = span;
                prop_assert_eq!(relative_rmse(&a, var_a, &b, var_b, t0, t1, n).to_bits(), e.to_bits());
                let pair = relative_rmse_and_rms(&a, var_a, &b, var_b, t0, t1, n);
                prop_assert_eq!((pair.0.to_bits(), pair.1.to_bits()), (e.to_bits(), rms.to_bits()));
            }
        }
    }
}
