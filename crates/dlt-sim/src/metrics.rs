//! Counters and sample series for experiment output.
//!
//! Every experiment boils down to counting events (blocks mined, forks
//! observed, transactions confirmed) and summarising sample series
//! (confirmation latency, block interval). [`Metrics`] collects both.
//!
//! Hot paths register a metric once (interning its name into a
//! [`CounterId`] or [`SeriesId`]) and then update it through the
//! handle, which is a plain array index — no string hashing or
//! allocation per update. A name→id map is kept only for registration
//! and rendering; string-keyed reads (and the `*_named` write
//! wrappers) remain for cold paths such as report tables.
//!
//! Each series also maintains a streaming log-linear histogram, so
//! [`Metrics::percentile`] locates the bucket containing the requested
//! rank from cumulative bucket counts and only sorts the samples of
//! that one bucket — exact nearest-rank quantiles without re-sorting
//! the full series per query.
//!
//! NaN samples are never stored: [`Metrics::record`] segregates them
//! into a per-series drop counter (see [`Metrics::nan_dropped`]), so
//! one bad sample can no longer panic a whole experiment inside
//! `percentile()`.

use std::collections::BTreeMap;
use std::fmt;

/// Handle to a registered counter. Obtained once from
/// [`Metrics::counter`]; updates through it are array indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(u32);

/// Handle to a registered sample series. Obtained once from
/// [`Metrics::series`]; updates through it are array indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeriesId(u32);

/// One sample series: raw samples plus a streaming histogram and the
/// count of NaN samples that were rejected.
#[derive(Debug, Clone, Default)]
struct Series {
    samples: Vec<f64>,
    hist: Histogram,
    nan_dropped: u64,
}

/// A streaming log-linear histogram over f64 samples.
///
/// The bucket key is the top 16 bits (sign + exponent + 4 mantissa
/// bits) of the order-preserving bit transform of the sample, so
/// bucket keys sort in the same order as the values they hold. The
/// map stays tiny (a few dozen occupied buckets for typical series)
/// while letting quantile queries skip straight to the bucket that
/// contains a given rank.
#[derive(Debug, Clone, Default)]
struct Histogram {
    buckets: BTreeMap<u16, u64>,
}

impl Histogram {
    /// The order-preserving bucket key for a (non-NaN) sample.
    fn bucket_of(value: f64) -> u16 {
        let bits = value.to_bits();
        // Flip negative values entirely, set the sign bit on positive
        // ones: the resulting u64 orders exactly like the f64.
        let key = if bits >> 63 == 1 {
            !bits
        } else {
            bits | (1 << 63)
        };
        (key >> 48) as u16
    }

    fn record(&mut self, value: f64) {
        *self.buckets.entry(Self::bucket_of(value)).or_insert(0) += 1;
    }

    /// The bucket holding the zero-based `rank`-th smallest sample,
    /// plus how many samples fall in strictly smaller buckets.
    fn locate(&self, rank: u64) -> Option<(u16, u64)> {
        let mut below = 0u64;
        for (&bucket, &count) in &self.buckets {
            if below + count > rank {
                return Some((bucket, below));
            }
            below += count;
        }
        None
    }

    fn merge(&mut self, other: &Histogram) {
        for (&bucket, &count) in &other.buckets {
            *self.buckets.entry(bucket).or_insert(0) += count;
        }
    }
}

/// A named collection of counters and sample series.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counter_ids: BTreeMap<String, CounterId>,
    counters: Vec<u64>,
    series_ids: BTreeMap<String, SeriesId>,
    series: Vec<Series>,
}

impl Metrics {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Registers (or looks up) a counter by name, returning its
    /// handle. Idempotent: the same name always yields the same id.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(&id) = self.counter_ids.get(name) {
            return id;
        }
        let id = CounterId(self.counters.len() as u32);
        self.counters.push(0);
        self.counter_ids.insert(name.to_string(), id);
        id
    }

    /// Registers (or looks up) a sample series by name, returning its
    /// handle. Idempotent: the same name always yields the same id.
    pub fn series(&mut self, name: &str) -> SeriesId {
        if let Some(&id) = self.series_ids.get(name) {
            return id;
        }
        let id = SeriesId(self.series.len() as u32);
        self.series.push(Series::default());
        self.series_ids.insert(name.to_string(), id);
        id
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0 as usize] += 1;
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0 as usize] += n;
    }

    /// Reads a counter through its handle.
    #[inline]
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize]
    }

    /// Appends a sample to a series. NaN samples are not stored; they
    /// bump the series' NaN-drop counter instead (see
    /// [`Metrics::nan_dropped`]).
    #[inline]
    pub fn record(&mut self, id: SeriesId, value: f64) {
        let series = &mut self.series[id.0 as usize];
        if value.is_nan() {
            series.nan_dropped += 1;
            return;
        }
        series.samples.push(value);
        series.hist.record(value);
    }

    /// Increments the named counter by one (cold-path convenience;
    /// interns the name on first use).
    pub fn inc_named(&mut self, name: &str) {
        let id = self.counter(name);
        self.inc(id);
    }

    /// Adds `n` to the named counter (cold-path convenience).
    pub fn add_named(&mut self, name: &str, n: u64) {
        let id = self.counter(name);
        self.add(id, n);
    }

    /// Appends a sample to the named series (cold-path convenience).
    pub fn record_named(&mut self, name: &str, value: f64) {
        let id = self.series(name);
        self.record(id, value);
    }

    /// Reads a counter by name (zero when never registered).
    pub fn count(&self, name: &str) -> u64 {
        self.counter_ids
            .get(name)
            .map(|id| self.counters[id.0 as usize])
            .unwrap_or(0)
    }

    fn series_by_name(&self, name: &str) -> Option<&Series> {
        self.series_ids
            .get(name)
            .map(|id| &self.series[id.0 as usize])
    }

    /// The raw samples of a series (empty when never recorded).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.series_by_name(name)
            .map(|s| s.samples.as_slice())
            .unwrap_or(&[])
    }

    /// Number of samples in a series.
    pub fn len(&self, name: &str) -> usize {
        self.samples(name).len()
    }

    /// How many NaN samples were rejected from the named series.
    pub fn nan_dropped(&self, name: &str) -> u64 {
        self.series_by_name(name)
            .map(|s| s.nan_dropped)
            .unwrap_or(0)
    }

    /// Whether nothing at all has been recorded. Registration alone
    /// does not count: a collection with interned-but-untouched ids is
    /// still empty.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&v| v == 0)
            && self
                .series
                .iter()
                .all(|s| s.samples.is_empty() && s.nan_dropped == 0)
    }

    /// Mean of a series, or `None` if empty.
    pub fn mean(&self, name: &str) -> Option<f64> {
        let samples = self.samples(name);
        if samples.is_empty() {
            return None;
        }
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }

    /// Population standard deviation of a series, or `None` if empty.
    pub fn std_dev(&self, name: &str) -> Option<f64> {
        let samples = self.samples(name);
        let mean = self.mean(name)?;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        Some(var.sqrt())
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of a series by nearest-rank, or
    /// `None` if the series is empty.
    ///
    /// Exact, but does not re-sort the full series: the streaming
    /// histogram locates the bucket containing the requested rank and
    /// only that bucket's samples are sorted. NaN samples were already
    /// segregated at record time and cannot appear here.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, name: &str, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let series = self.series_by_name(name)?;
        let n = series.samples.len();
        if n == 0 {
            return None;
        }
        let rank = ((n as f64 - 1.0) * q).round() as u64;
        let (bucket, below) = series
            .hist
            .locate(rank)
            .expect("rank is within the histogram's total count");
        let mut in_bucket: Vec<f64> = series
            .samples
            .iter()
            .copied()
            .filter(|&v| Histogram::bucket_of(v) == bucket)
            .collect();
        in_bucket.sort_by(f64::total_cmp);
        Some(in_bucket[(rank - below) as usize])
    }

    /// Minimum of a series.
    pub fn min(&self, name: &str) -> Option<f64> {
        self.samples(name).iter().copied().reduce(f64::min)
    }

    /// Maximum of a series.
    pub fn max(&self, name: &str) -> Option<f64> {
        self.samples(name).iter().copied().reduce(f64::max)
    }

    /// Sum of a series.
    pub fn sum(&self, name: &str) -> f64 {
        self.samples(name).iter().sum()
    }

    /// Merges another collection into this one (series are
    /// concatenated, counters added). Useful when aggregating per-node
    /// metrics. Ids interned here stay valid; names only present in
    /// `other` are interned on the fly.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, &id) in &other.counter_ids {
            let value = other.counters[id.0 as usize];
            let mine = self.counter(name);
            self.add(mine, value);
        }
        for (name, &id) in &other.series_ids {
            let theirs = &other.series[id.0 as usize];
            let mine = self.series(name);
            let s = &mut self.series[mine.0 as usize];
            s.samples.extend_from_slice(&theirs.samples);
            s.hist.merge(&theirs.hist);
            s.nan_dropped += theirs.nan_dropped;
        }
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, id) in &self.counter_ids {
            let value = self.counters[id.0 as usize];
            if value > 0 {
                writeln!(f, "{name}: {value}")?;
            }
        }
        for (name, id) in &self.series_ids {
            let series = &self.series[id.0 as usize];
            if series.samples.is_empty() && series.nan_dropped == 0 {
                continue;
            }
            let mean = self.mean(name).unwrap_or(0.0);
            let p50 = self.percentile(name, 0.5).unwrap_or(0.0);
            let p99 = self.percentile(name, 0.99).unwrap_or(0.0);
            write!(
                f,
                "{name}: n={} mean={mean:.3} p50={p50:.3} p99={p99:.3}",
                self.len(name)
            )?;
            if series.nan_dropped > 0 {
                write!(f, " nan_dropped={}", series.nan_dropped)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        assert_eq!(m.count("blocks"), 0);
        m.inc_named("blocks");
        m.inc_named("blocks");
        m.add_named("blocks", 3);
        assert_eq!(m.count("blocks"), 5);
    }

    #[test]
    fn typed_handles_index_the_same_storage_as_names() {
        let mut m = Metrics::new();
        let blocks = m.counter("blocks");
        let lat = m.series("lat");
        m.inc(blocks);
        m.add(blocks, 2);
        m.inc_named("blocks");
        m.record(lat, 1.5);
        m.record_named("lat", 2.5);
        assert_eq!(m.count("blocks"), 4);
        assert_eq!(m.counter_value(blocks), 4);
        assert_eq!(m.samples("lat"), &[1.5, 2.5]);
        // Registration is idempotent: same name, same id.
        assert_eq!(m.counter("blocks"), blocks);
        assert_eq!(m.series("lat"), lat);
    }

    #[test]
    fn series_statistics() {
        let mut m = Metrics::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            m.record_named("latency", v);
        }
        assert_eq!(m.len("latency"), 5);
        assert_eq!(m.mean("latency"), Some(3.0));
        assert_eq!(m.min("latency"), Some(1.0));
        assert_eq!(m.max("latency"), Some(5.0));
        assert_eq!(m.sum("latency"), 15.0);
        assert_eq!(m.percentile("latency", 0.5), Some(3.0));
        assert_eq!(m.percentile("latency", 0.0), Some(1.0));
        assert_eq!(m.percentile("latency", 1.0), Some(5.0));
        let sd = m.std_dev("latency").unwrap();
        assert!((sd - std::f64::consts::SQRT_2).abs() < 1e-3);
    }

    #[test]
    fn empty_series_yield_none() {
        let m = Metrics::new();
        assert_eq!(m.mean("nothing"), None);
        assert_eq!(m.percentile("nothing", 0.5), None);
        assert_eq!(m.min("nothing"), None);
        assert!(m.is_empty());
    }

    #[test]
    fn registration_alone_keeps_collection_empty() {
        let mut m = Metrics::new();
        m.counter("pre.registered");
        m.series("pre.registered.series");
        assert!(m.is_empty());
        m.inc_named("pre.registered");
        assert!(!m.is_empty());
    }

    #[test]
    fn percentile_unsorted_input() {
        let mut m = Metrics::new();
        for v in [9.0, 1.0, 5.0, 3.0, 7.0] {
            m.record_named("x", v);
        }
        assert_eq!(m.percentile("x", 0.5), Some(5.0));
    }

    #[test]
    fn percentile_matches_full_sort_on_mixed_magnitudes() {
        // Values spread across buckets, signs, and magnitudes; the
        // histogram-guided quantile must agree with a full sort at
        // every nearest-rank position.
        let values = [
            -1e9, -3.25, -3.24, -0.5, 0.0, 1e-12, 0.5, 1.0, 1.0, 2.0, 7.75, 7.76, 1e6, 1e6, 3e18,
        ];
        let mut m = Metrics::new();
        for v in values {
            m.record_named("x", v);
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        for (rank, expected) in sorted.iter().enumerate() {
            let q = rank as f64 / (sorted.len() - 1) as f64;
            // Only check ranks that round back to themselves, i.e.
            // exact nearest-rank positions.
            if ((sorted.len() as f64 - 1.0) * q).round() as usize == rank {
                assert_eq!(m.percentile("x", q), Some(*expected), "rank {rank}");
            }
        }
    }

    #[test]
    fn nan_samples_are_segregated_not_stored() {
        let mut m = Metrics::new();
        m.record_named("x", 1.0);
        m.record_named("x", f64::NAN);
        m.record_named("x", 3.0);
        m.record_named("x", f64::NAN);
        assert_eq!(m.len("x"), 2);
        assert_eq!(m.nan_dropped("x"), 2);
        // percentile no longer panics in the presence of bad samples.
        assert_eq!(m.percentile("x", 0.5), Some(3.0));
        assert_eq!(m.mean("x"), Some(2.0));
        assert!(m.to_string().contains("nan_dropped=2"));
    }

    #[test]
    fn merge_combines() {
        let mut a = Metrics::new();
        a.inc_named("n");
        a.record_named("s", 1.0);
        let mut b = Metrics::new();
        b.add_named("n", 4);
        b.record_named("s", 3.0);
        b.record_named("s", f64::NAN);
        a.merge(&b);
        assert_eq!(a.count("n"), 5);
        assert_eq!(a.len("s"), 2);
        assert_eq!(a.mean("s"), Some(2.0));
        assert_eq!(a.percentile("s", 1.0), Some(3.0));
        assert_eq!(a.nan_dropped("s"), 1);
    }

    #[test]
    fn display_is_nonempty() {
        let mut m = Metrics::new();
        m.inc_named("events");
        m.record_named("lat", 2.5);
        let text = m.to_string();
        assert!(text.contains("events: 1"));
        assert!(text.contains("lat:"));
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn percentile_validates_q() {
        let mut m = Metrics::new();
        m.record_named("x", 1.0);
        let _ = m.percentile("x", 1.5);
    }
}
