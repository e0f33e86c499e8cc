//! Streaming (online) reduction: the accumulator layer of the
//! population-scale ensemble engine.
//!
//! [`EnsembleRun::reduce`](crate::EnsembleRun::reduce) folds one item per
//! instance into a [`Reducer`] as instances finish, so a 10⁵–10⁶-instance
//! Monte Carlo costs O(accumulator) memory instead of O(N · trajectory).
//! The shipped accumulators are [`Moments`] (count/mean/M2), [`MinMax`],
//! the deterministic [`Quantiles`] histogram sketch, and the pass/fail
//! [`YieldCounter`]; [`premap`] adapts item types, and tuples compose
//! reducers side by side.
//!
//! # Determinism contract
//!
//! Streamed results are **bit-identical for any worker count and lane
//! width** (every solver's per-instance output is width-independent — see
//! [`Ensemble`](crate::Ensemble)):
//!
//! * seeds are partitioned into fixed blocks of [`STREAM_BLOCK`] *before*
//!   work distribution — one accumulator per block, block partials merged
//!   serially in block order. The worker pool only decides *when* a block
//!   runs, never what it contains or the order partials merge in;
//! * within a block, items are pushed in seed order (lane groups extract
//!   in lane order, which is seed order);
//! * every shipped accumulator either merges exactly (integer counts:
//!   [`Quantiles`], [`YieldCounter`]; selection: [`MinMax`]) or defines
//!   its semantics *as* this blocked reduction ([`Moments`], whose
//!   pairwise mean/M2 combination is not float-associative).
//!
//! [`reduce_materialized`] is the reference implementation of that blocked
//! shape over an in-memory slice; the streaming engine matches it bit for
//! bit (pinned by the `tests/streaming_reduce.rs` proptests).

/// Number of consecutive instances per streaming block — the unit of work
/// distribution *and* of accumulator merging. Fixed (independent of worker
/// count and lane width, and divisible by every supported lane width) so
/// the merge tree never changes shape.
pub const STREAM_BLOCK: usize = 1024;

/// An online accumulator: folds a stream of per-instance items into a
/// summary with O(1) state.
///
/// The engine creates one [`Reducer::new_acc`] per [`STREAM_BLOCK`] of
/// instances, [`Reducer::push`]es that block's items in seed order, merges
/// the block partials in block order, and [`Reducer::finish`]es the total.
/// Implementations must keep `merge(a, b)` equivalent to having pushed
/// b's items after a's *under that fixed block structure* — exact
/// (integer/selection) merges trivially qualify; floating merges (like
/// [`Moments`]) define their semantics as the blocked reduction itself,
/// which is still deterministic because the block structure is fixed.
pub trait Reducer<I>: Sync {
    /// Partial accumulation state (one per streaming block).
    type Acc: Send;
    /// The finished summary.
    type Output;

    /// A fresh, empty accumulator.
    fn new_acc(&self) -> Self::Acc;

    /// Fold one item into a partial.
    fn push(&self, acc: &mut Self::Acc, item: I);

    /// Combine a later partial into an earlier one (block order).
    fn merge(&self, into: &mut Self::Acc, from: Self::Acc);

    /// Finish the total accumulator into the output summary.
    fn finish(&self, acc: Self::Acc) -> Self::Output;
}

/// The materialize-then-reduce reference: reduce an in-memory slice with
/// the exact canonical block structure the streaming engine uses
/// ([`STREAM_BLOCK`] items per partial, partials merged in block order).
///
/// Streaming over the same items yields bit-identical output for any
/// worker count and lane width — this function is the oracle the
/// `tests/streaming_reduce.rs` proptests compare against, and a convenient
/// small-N shortcut when the items are already in memory.
pub fn reduce_materialized<I: Clone, R: Reducer<I>>(reducer: &R, items: &[I]) -> R::Output {
    let mut total = reducer.new_acc();
    for block in items.chunks(STREAM_BLOCK) {
        let mut acc = reducer.new_acc();
        for item in block {
            reducer.push(&mut acc, item.clone());
        }
        reducer.merge(&mut total, acc);
    }
    reducer.finish(total)
}

/// Count / mean / M2 moments via Welford's online update and Chan's
/// pairwise combination — the mean and variance of a population without
/// storing it.
///
/// The pairwise combination is not float-associative, so `Moments` defines
/// its result as the canonical blocked reduction (see the module docs);
/// with the block structure fixed, the result is still bit-deterministic
/// for any worker count and lane width.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Moments;

/// Streaming count/mean/M2 summary produced by [`Moments`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MomentStats {
    /// Number of items.
    pub count: u64,
    /// Running mean (0 when empty).
    pub mean: f64,
    /// Sum of squared deviations from the mean, `Σ(xᵢ − mean)²`.
    pub m2: f64,
}

impl MomentStats {
    /// Population variance `M2 / n` (`NaN` when empty).
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation (`NaN` when empty).
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

impl Reducer<f64> for Moments {
    type Acc = MomentStats;
    type Output = MomentStats;

    fn new_acc(&self) -> MomentStats {
        MomentStats::default()
    }

    fn push(&self, acc: &mut MomentStats, x: f64) {
        acc.count += 1;
        let delta = x - acc.mean;
        acc.mean += delta / acc.count as f64;
        acc.m2 += delta * (x - acc.mean);
    }

    fn merge(&self, into: &mut MomentStats, from: MomentStats) {
        if from.count == 0 {
            return;
        }
        if into.count == 0 {
            *into = from;
            return;
        }
        let total = into.count + from.count;
        let delta = from.mean - into.mean;
        let ratio = from.count as f64 / total as f64;
        into.m2 += from.m2 + delta * delta * into.count as f64 * ratio;
        into.mean += delta * ratio;
        into.count = total;
    }

    fn finish(&self, acc: MomentStats) -> MomentStats {
        acc
    }
}

/// Running minimum and maximum. Selection merges are exact, so the result
/// is independent of the block structure entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinMax;

/// Extremes summary produced by [`MinMax`]. When empty, `min` is `+∞` and
/// `max` is `−∞`. `NaN` items are counted but never become an extreme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extrema {
    /// Number of items.
    pub count: u64,
    /// Smallest item seen (`+∞` when empty).
    pub min: f64,
    /// Largest item seen (`−∞` when empty).
    pub max: f64,
}

impl Default for Extrema {
    fn default() -> Self {
        Extrema {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Reducer<f64> for MinMax {
    type Acc = Extrema;
    type Output = Extrema;

    fn new_acc(&self) -> Extrema {
        Extrema::default()
    }

    fn push(&self, acc: &mut Extrema, x: f64) {
        acc.count += 1;
        if x < acc.min {
            acc.min = x;
        }
        if x > acc.max {
            acc.max = x;
        }
    }

    fn merge(&self, into: &mut Extrema, from: Extrema) {
        into.count += from.count;
        if from.min < into.min {
            into.min = from.min;
        }
        if from.max > into.max {
            into.max = from.max;
        }
    }

    fn finish(&self, acc: Extrema) -> Extrema {
        acc
    }
}

/// A deterministic quantile sketch: a fixed-bin histogram over a
/// caller-chosen range, with integer counts.
///
/// Unlike mergeable sketches with data-dependent structure (GK, t-digest),
/// a fixed-bin histogram merges *exactly* (counts add), so quantile
/// queries are bit-deterministic for any worker count, lane width, and
/// block structure — the property the ensemble engine guarantees. The
/// price is resolution: quantiles are reported at bin-center granularity,
/// `(hi − lo) / bins` wide. Items below `lo` / above `hi` land in
/// dedicated underflow/overflow bins reported as `lo` / `hi`; `NaN` items
/// are counted separately and excluded from quantiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    lo: f64,
    hi: f64,
    bins: usize,
}

impl Quantiles {
    /// A sketch over `[lo, hi]` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi`, both finite, and `bins > 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "Quantiles range [{lo}, {hi}] must be finite and non-empty"
        );
        assert!(bins > 0, "Quantiles needs at least one bin");
        Quantiles { lo, hi, bins }
    }
}

/// The histogram summary produced by [`Quantiles`].
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    below: u64,
    above: u64,
    nan: u64,
}

impl Histogram {
    fn empty(q: &Quantiles) -> Self {
        Histogram {
            lo: q.lo,
            hi: q.hi,
            counts: vec![0; q.bins],
            below: 0,
            above: 0,
            nan: 0,
        }
    }

    /// Number of non-`NaN` items (underflow and overflow included).
    pub fn total(&self) -> u64 {
        self.below + self.above + self.counts.iter().sum::<u64>()
    }

    /// Number of `NaN` items (excluded from quantiles).
    pub fn nan_count(&self) -> u64 {
        self.nan
    }

    /// Per-bin counts over `[lo, hi]`, low to high.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Items below the sketch range (reported as `lo` by quantiles).
    pub fn count_below(&self) -> u64 {
        self.below
    }

    /// Items above the sketch range (reported as `hi` by quantiles).
    pub fn count_above(&self) -> u64 {
        self.above
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * width
    }

    /// The `q`-quantile (clamped into `[0, 1]`) at bin-center resolution:
    /// the bin containing the `⌈q·n⌉`-th smallest item. Returns `NaN` when
    /// the sketch holds no (non-`NaN`) items.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = self.below;
        if rank <= seen {
            return self.lo;
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if rank <= seen {
                return self.bin_center(i);
            }
        }
        self.hi
    }

    /// The median: [`Histogram::quantile`] at 0.5.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

impl Reducer<f64> for Quantiles {
    type Acc = Histogram;
    type Output = Histogram;

    fn new_acc(&self) -> Histogram {
        Histogram::empty(self)
    }

    fn push(&self, acc: &mut Histogram, x: f64) {
        if x.is_nan() {
            acc.nan += 1;
        } else if x < self.lo {
            acc.below += 1;
        } else if x > self.hi {
            acc.above += 1;
        } else {
            let rel = (x - self.lo) / (self.hi - self.lo);
            let i = ((rel * self.bins as f64) as usize).min(self.bins - 1);
            acc.counts[i] += 1;
        }
    }

    fn merge(&self, into: &mut Histogram, from: Histogram) {
        into.below += from.below;
        into.above += from.above;
        into.nan += from.nan;
        for (a, b) in into.counts.iter_mut().zip(&from.counts) {
            *a += b;
        }
    }

    fn finish(&self, acc: Histogram) -> Histogram {
        acc
    }
}

/// Pass/fail yield counting over `bool` items (`true` = pass). Integer
/// merges are exact. Pair with [`premap`] to turn a measured value into a
/// pass/fail criterion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct YieldCounter;

/// The yield summary produced by [`YieldCounter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Yield {
    /// Number of passing instances.
    pub pass: u64,
    /// Total instances counted.
    pub total: u64,
}

impl Yield {
    /// Number of failing instances.
    pub fn fail(&self) -> u64 {
        self.total - self.pass
    }

    /// Yield fraction `pass / total` (`NaN` when empty).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.pass as f64 / self.total as f64
        }
    }
}

impl Reducer<bool> for YieldCounter {
    type Acc = Yield;
    type Output = Yield;

    fn new_acc(&self) -> Yield {
        Yield::default()
    }

    fn push(&self, acc: &mut Yield, pass: bool) {
        acc.total += 1;
        acc.pass += u64::from(pass);
    }

    fn merge(&self, into: &mut Yield, from: Yield) {
        into.pass += from.pass;
        into.total += from.total;
    }

    fn finish(&self, acc: Yield) -> Yield {
        acc
    }
}

/// Adapt a reducer over `J` into a reducer over `I` by mapping each item
/// through `f` first — e.g. wrap a [`YieldCounter`] as
/// `premap(|wrong: f64| wrong == 0.0, YieldCounter)` to count instances
/// with zero wrong pixels.
pub fn premap<I, J, F, R>(f: F, inner: R) -> Premap<F, R>
where
    F: Fn(I) -> J + Sync,
    R: Reducer<J>,
{
    Premap { f, inner }
}

/// The adapter returned by [`premap`].
#[derive(Debug, Clone, Copy)]
pub struct Premap<F, R> {
    f: F,
    inner: R,
}

impl<I, J, F, R> Reducer<I> for Premap<F, R>
where
    F: Fn(I) -> J + Sync,
    R: Reducer<J>,
{
    type Acc = R::Acc;
    type Output = R::Output;

    fn new_acc(&self) -> R::Acc {
        self.inner.new_acc()
    }

    fn push(&self, acc: &mut R::Acc, item: I) {
        self.inner.push(acc, (self.f)(item));
    }

    fn merge(&self, into: &mut R::Acc, from: R::Acc) {
        self.inner.merge(into, from);
    }

    fn finish(&self, acc: R::Acc) -> R::Output {
        self.inner.finish(acc)
    }
}

/// Two reducers side by side over cloned items.
impl<I: Clone, A: Reducer<I>, B: Reducer<I>> Reducer<I> for (A, B) {
    type Acc = (A::Acc, B::Acc);
    type Output = (A::Output, B::Output);

    fn new_acc(&self) -> Self::Acc {
        (self.0.new_acc(), self.1.new_acc())
    }

    fn push(&self, acc: &mut Self::Acc, item: I) {
        self.0.push(&mut acc.0, item.clone());
        self.1.push(&mut acc.1, item);
    }

    fn merge(&self, into: &mut Self::Acc, from: Self::Acc) {
        self.0.merge(&mut into.0, from.0);
        self.1.merge(&mut into.1, from.1);
    }

    fn finish(&self, acc: Self::Acc) -> Self::Output {
        (self.0.finish(acc.0), self.1.finish(acc.1))
    }
}

/// Three reducers side by side over cloned items.
impl<I: Clone, A: Reducer<I>, B: Reducer<I>, C: Reducer<I>> Reducer<I> for (A, B, C) {
    type Acc = (A::Acc, B::Acc, C::Acc);
    type Output = (A::Output, B::Output, C::Output);

    fn new_acc(&self) -> Self::Acc {
        (self.0.new_acc(), self.1.new_acc(), self.2.new_acc())
    }

    fn push(&self, acc: &mut Self::Acc, item: I) {
        self.0.push(&mut acc.0, item.clone());
        self.1.push(&mut acc.1, item.clone());
        self.2.push(&mut acc.2, item);
    }

    fn merge(&self, into: &mut Self::Acc, from: Self::Acc) {
        self.0.merge(&mut into.0, from.0);
        self.1.merge(&mut into.1, from.1);
        self.2.merge(&mut into.2, from.2);
    }

    fn finish(&self, acc: Self::Acc) -> Self::Output {
        (
            self.0.finish(acc.0),
            self.1.finish(acc.1),
            self.2.finish(acc.2),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_match_two_pass_reference() {
        let xs: Vec<f64> = (0..500)
            .map(|i| (i as f64 * 0.37).sin() * 3.0 + 1.5)
            .collect();
        let got = reduce_materialized(&Moments, &xs);
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert_eq!(got.count, 500);
        assert!((got.mean - mean).abs() < 1e-12, "{} vs {mean}", got.mean);
        assert!(
            (got.variance() - var).abs() < 1e-12,
            "{} vs {var}",
            got.variance()
        );
    }

    #[test]
    fn moments_merge_into_empty_is_exact() {
        let xs = [1.0, 2.0, 4.0, 8.0];
        let mut block = Moments.new_acc();
        for &x in &xs {
            Moments.push(&mut block, x);
        }
        let mut total = Moments.new_acc();
        Moments.merge(&mut total, block);
        let direct = {
            let mut acc = Moments.new_acc();
            for &x in &xs {
                Moments.push(&mut acc, x);
            }
            acc
        };
        assert_eq!(total.mean.to_bits(), direct.mean.to_bits());
        assert_eq!(total.m2.to_bits(), direct.m2.to_bits());
    }

    #[test]
    fn minmax_ignores_nan_but_counts_it() {
        let got = reduce_materialized(&MinMax, &[3.0, f64::NAN, -1.0, 2.0]);
        assert_eq!(got.count, 4);
        assert_eq!(got.min, -1.0);
        assert_eq!(got.max, 3.0);
        let empty = reduce_materialized(&MinMax, &[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.min, f64::INFINITY);
        assert_eq!(empty.max, f64::NEG_INFINITY);
    }

    #[test]
    fn quantile_sketch_ranks_exactly_at_bin_resolution() {
        let q = Quantiles::new(0.0, 10.0, 100);
        let xs: Vec<f64> = (0..1000).map(|i| i as f64 / 100.0).collect();
        let h = reduce_materialized(&q, &xs);
        assert_eq!(h.total(), 1000);
        // Median of 0.00..9.99 lies near 5.0; bin width is 0.1.
        assert!((h.median() - 5.0).abs() <= 0.1, "median {}", h.median());
        assert!((h.quantile(0.0) - 0.05).abs() < 1e-12);
        assert!((h.quantile(1.0) - 9.95).abs() < 1e-12);
    }

    #[test]
    fn quantile_sketch_overflow_underflow_and_nan() {
        let q = Quantiles::new(0.0, 1.0, 4);
        let h = reduce_materialized(&q, &[-5.0, 0.5, 2.0, f64::NAN]);
        assert_eq!(h.count_below(), 1);
        assert_eq!(h.count_above(), 1);
        assert_eq!(h.nan_count(), 1);
        assert_eq!(h.total(), 3);
        assert_eq!(h.quantile(0.0), 0.0); // underflow reports lo
        assert_eq!(h.quantile(1.0), 1.0); // overflow reports hi
        let empty = reduce_materialized(&q, &[]);
        assert!(empty.median().is_nan());
    }

    #[test]
    fn yield_counter_fraction() {
        let y = reduce_materialized(&YieldCounter, &[true, false, true, true]);
        assert_eq!(y.pass, 3);
        assert_eq!(y.fail(), 1);
        assert_eq!(y.total, 4);
        assert!((y.fraction() - 0.75).abs() < 1e-15);
    }

    #[test]
    fn premap_and_tuple_compose() {
        let reducer = (
            Moments,
            premap(|x: f64| x > 0.0, YieldCounter),
            Quantiles::new(-2.0, 2.0, 8),
        );
        let xs = [-1.0, 1.0, 0.5, -0.25];
        let (stats, yld, hist) = reduce_materialized(&reducer, &xs);
        assert_eq!(stats.count, 4);
        assert_eq!(yld.pass, 2);
        assert_eq!(hist.total(), 4);
    }

    /// Exact-merge accumulators are independent of the block structure
    /// entirely; Moments is pinned to the canonical blocked shape by the
    /// cross-crate proptests in tests/streaming_reduce.rs.
    #[test]
    fn exact_accumulators_ignore_block_structure() {
        let xs: Vec<f64> = (0..3000).map(|i| ((i * 37) % 101) as f64 / 7.0).collect();
        // Single accumulator, no blocks at all.
        let q = Quantiles::new(0.0, 15.0, 64);
        let mut one_y = YieldCounter.new_acc();
        let mut one_q = q.new_acc();
        let mut one_mm = MinMax.new_acc();
        for &x in &xs {
            YieldCounter.push(&mut one_y, x > 7.0);
            q.push(&mut one_q, x);
            MinMax.push(&mut one_mm, x);
        }
        let blocked_y = reduce_materialized(&premap(|x: f64| x > 7.0, YieldCounter), &xs);
        let blocked_q = reduce_materialized(&q, &xs);
        let blocked_mm = reduce_materialized(&MinMax, &xs);
        assert_eq!(YieldCounter.finish(one_y), blocked_y);
        assert_eq!(q.finish(one_q), blocked_q);
        assert_eq!(
            MinMax.finish(one_mm).min.to_bits(),
            blocked_mm.min.to_bits()
        );
        assert_eq!(
            MinMax.finish(one_mm).max.to_bits(),
            blocked_mm.max.to_bits()
        );
    }
}
