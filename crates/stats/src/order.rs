//! Order statistics: percentiles, medians, and the paper's "90% interval".
//!
//! The paper argues (section 3) that means and coefficients of variation of
//! workload attributes are unstable because of extremely long tails — removing
//! the 0.1% most extreme jobs can shift the CV by 40% — and therefore uses
//! order statistics throughout: medians, and the difference between the 95th
//! and 5th percentile ("90% interval").

/// Linear-interpolation percentile (the "type 7" estimator used by most
/// statistics packages). `p` is in `[0, 100]`.
///
/// Returns `f64::NAN` for empty input.
///
/// # Panics
/// Panics when `p` is outside `[0, 100]`.
pub fn percentile(data: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of [0,100]");
    if data.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    percentile_sorted(&sorted, p)
}

/// Percentile of data already sorted ascending (no copy).
///
/// # Panics
/// Panics when `p` is outside `[0, 100]` (in debug builds also when the data
/// is not sorted).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of [0,100]");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n == 1 {
        return sorted[0];
    }
    let point = Point::of(p, n);
    if point.lo == point.hi {
        sorted[point.lo]
    } else {
        lerp(sorted[point.lo], sorted[point.hi], point.frac)
    }
}

/// Where percentile `p` falls among `n >= 2` sorted values: the two ranks
/// it interpolates between and the weight of the upper one.
#[derive(Debug, Clone, Copy)]
struct Point {
    lo: usize,
    hi: usize,
    frac: f64,
}

impl Point {
    fn of(p: f64, n: usize) -> Point {
        let idx = p / 100.0 * (n - 1) as f64;
        let lo = idx.floor() as usize;
        Point {
            lo,
            hi: idx.ceil() as usize,
            frac: idx - lo as f64,
        }
    }
}

/// The percentile between the values at two adjacent ranks.
fn lerp(lo: f64, hi: f64, frac: f64) -> f64 {
    lo * (1.0 - frac) + hi * frac
}

/// The lower percentile of the central interval of the given width; the
/// upper one is `100 - tail`.
fn interval_tail(width: f64) -> f64 {
    (1.0 - width) / 2.0 * 100.0
}

/// The median (50th percentile).
pub fn median(data: &[f64]) -> f64 {
    percentile(data, 50.0)
}

/// The paper's central interval: for `width` in `(0, 1]`, the difference
/// between the `(1+width)/2` and `(1-width)/2` quantiles. `interval(d, 0.90)`
/// is the 95th minus the 5th percentile.
///
/// # Panics
/// Panics when `width` is outside `(0, 1]`.
pub fn interval(data: &[f64], width: f64) -> f64 {
    assert!(width > 0.0 && width <= 1.0, "interval width {width} out of (0,1]");
    if data.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let tail = interval_tail(width);
    percentile_sorted(&sorted, 100.0 - tail) - percentile_sorted(&sorted, tail)
}

/// The median and the central interval of the given `width` (see
/// [`interval`]) in one call: bit for bit what [`Percentiles::new`]
/// followed by [`median`](Percentiles::median) and
/// [`interval`](Percentiles::interval) returns, in O(n) instead of a sort.
/// This is the one path behind every Table-1 median and 90% interval.
///
/// # Panics
/// Like [`Percentiles::new`], when the data holds a NaN and at least two
/// values; and when `width` is outside `(0, 1]`.
pub fn median_interval(data: &[f64], width: f64) -> (f64, f64) {
    CentralOrder::select(data, width).median_interval()
}

/// The order statistics a median and a central interval read — the low and
/// high rank of the median and of the interval's two ends, at most six
/// values — picked out of a sample by selection rather than a sort.
///
/// Selection runs on order-preserving integer keys with −0.0 keyed as
/// +0.0, the order the float comparison gives. Among equal keys only a
/// zero can differ in bits, so a selected zero takes the sign the stable
/// sort would give it: the `(k − #negatives)`-th zero in input order.
#[derive(Debug, Clone, Copy)]
pub struct CentralOrder {
    /// (value at the low rank, value at the high rank, interpolation
    /// weight) for the median, the upper end and the lower end.
    points: [(f64, f64, f64); 3],
}

impl CentralOrder {
    /// Select the ranks [`median_interval`] reads from `data`.
    ///
    /// # Panics
    /// See [`median_interval`].
    pub fn select(data: &[f64], width: f64) -> CentralOrder {
        assert!(width > 0.0 && width <= 1.0, "interval width {width} out of (0,1]");
        let tail = interval_tail(width);
        let n = data.len();
        if n < 2 {
            // No order to select: `percentile_sorted` answers NaN for no
            // value and the value itself for one.
            let v = data.first().copied().unwrap_or(f64::NAN);
            return CentralOrder {
                points: [(v, v, 0.0); 3],
            };
        }
        let points = [50.0, 100.0 - tail, tail].map(|p| Point::of(p, n));

        let mut negative_zero = false;
        let mut keys: Vec<u64> = data
            .iter()
            .map(|&x| {
                assert!(!x.is_nan(), "order statistics of a sample holding NaN");
                negative_zero |= x == 0.0 && x.is_sign_negative();
                order_key(x)
            })
            .collect();
        let mut ranks: Vec<usize> = points.iter().flat_map(|p| [p.lo, p.hi]).collect();
        ranks.sort_unstable();
        ranks.dedup();
        select_ranks(&mut keys, 0, &ranks);

        let zero_key = order_key(0.0);
        let value = |rank: usize| -> f64 {
            let key = keys[rank];
            if key != zero_key || !negative_zero {
                return from_order_key(key);
            }
            let negatives = data.iter().filter(|&&x| x < 0.0).count();
            data.iter()
                .copied()
                .filter(|&x| x == 0.0)
                .nth(rank - negatives)
                .expect("a rank keyed zero holds a zero")
        };
        CentralOrder {
            points: points.map(|p| {
                let lo = value(p.lo);
                let hi = if p.hi == p.lo { lo } else { value(p.hi) };
                (lo, hi, p.frac)
            }),
        }
    }

    /// The same order statistics of the sample mapped through `f`. `f`
    /// must be non-decreasing and never return −0.0: then the mapped
    /// sample sorts into the same ranks, bit for bit.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> CentralOrder {
        CentralOrder {
            points: self.points.map(|(lo, hi, frac)| (f(lo), f(hi), frac)),
        }
    }

    /// `(median, interval)`, interpolated as [`percentile_sorted`] does.
    pub fn median_interval(&self) -> (f64, f64) {
        let at = |(lo, hi, frac): (f64, f64, f64)| -> f64 {
            // frac is 0 exactly when the two ranks coincide.
            if frac == 0.0 {
                lo
            } else {
                lerp(lo, hi, frac)
            }
        };
        let [median, upper, lower] = self.points.map(at);
        (median, upper - lower)
    }
}

/// An integer key whose unsigned order is the float order, with −0.0 and
/// +0.0 sharing one key (as they compare equal).
fn order_key(x: f64) -> u64 {
    let bits = if x == 0.0 { 0 } else { x.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`order_key`] (a zero key decodes as +0.0).
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key & !(1 << 63) } else { !key })
}

/// Rearrange `keys` so that each of the ascending, distinct `ranks`
/// (counted from `offset`, the rank of `keys[0]`) holds the key of that
/// rank, with no larger key before it and no smaller one after.
fn select_ranks(keys: &mut [u64], offset: usize, ranks: &[usize]) {
    let mid = ranks.len() / 2;
    if let Some(&rank) = ranks.get(mid) {
        let (below, _, above) = keys.select_nth_unstable(rank - offset);
        select_ranks(below, offset, &ranks[..mid]);
        select_ranks(above, rank + 1, &ranks[mid + 1..]);
    }
}

/// A reusable set of percentiles computed in one sorting pass.
#[derive(Debug, Clone)]
pub struct Percentiles {
    sorted: Vec<f64>,
}

impl Percentiles {
    /// Sort once; query many times.
    pub fn new(data: &[f64]) -> Self {
        let mut sorted: Vec<f64> = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Percentiles { sorted }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there is no data.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Percentile `p` in `[0, 100]`.
    pub fn at(&self, p: f64) -> f64 {
        percentile_sorted(&self.sorted, p)
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.at(50.0)
    }

    /// Central interval of the given width (see [`interval`]).
    pub fn interval(&self, width: f64) -> f64 {
        assert!(width > 0.0 && width <= 1.0);
        let tail = interval_tail(width);
        self.at(100.0 - tail) - self.at(tail)
    }

    /// Minimum (NaN when empty).
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(f64::NAN)
    }

    /// Maximum (NaN when empty).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_endpoints() {
        let d = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&d, 0.0), 10.0);
        assert_eq!(percentile(&d, 100.0), 40.0);
    }

    #[test]
    fn percentile_interpolates() {
        let d = [0.0, 10.0];
        assert!((percentile(&d, 25.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&d, 75.0) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn single_element() {
        assert_eq!(percentile(&[42.0], 17.0), 42.0);
        assert_eq!(median(&[42.0]), 42.0);
    }

    #[test]
    fn empty_is_nan() {
        assert!(percentile(&[], 50.0).is_nan());
        assert!(interval(&[], 0.9).is_nan());
    }

    #[test]
    fn ninety_percent_interval() {
        // 0..=100 evenly: p95 - p5 = 95 - 5 = 90.
        let d: Vec<f64> = (0..=100).map(|v| v as f64).collect();
        assert!((interval(&d, 0.90) - 90.0).abs() < 1e-9);
        assert!((interval(&d, 0.50) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn interval_is_tail_insensitive() {
        // Blowing up the top value must not change the 90% interval much
        // for a large sample - this is the paper's motivation for using it.
        let mut d: Vec<f64> = (0..1000).map(|v| v as f64).collect();
        let before = interval(&d, 0.90);
        d[999] = 1e12;
        let after = interval(&d, 0.90);
        assert!((before - after).abs() < 2.0);
    }

    #[test]
    fn percentiles_struct_matches_free_functions() {
        let d = [5.0, 1.0, 9.0, 3.0, 7.0];
        let p = Percentiles::new(&d);
        assert_eq!(p.len(), 5);
        assert_eq!(p.median(), median(&d));
        assert!((p.at(30.0) - percentile(&d, 30.0)).abs() < 1e-12);
        assert!((p.interval(0.9) - interval(&d, 0.9)).abs() < 1e-12);
        assert_eq!(p.min(), 1.0);
        assert_eq!(p.max(), 9.0);
    }

    #[test]
    fn unsorted_input_handled() {
        let d = [9.0, 1.0, 5.0];
        assert_eq!(median(&d), 5.0);
    }

    #[test]
    #[should_panic(expected = "out of [0,100]")]
    fn out_of_range_percentile_panics() {
        percentile(&[1.0], 101.0);
    }

    /// What `median_interval` must equal: the sort-based path.
    fn sorted_median_interval(xs: &[f64], width: f64) -> (f64, f64) {
        let p = Percentiles::new(xs);
        (p.median(), p.interval(width))
    }

    fn assert_bits_eq(xs: &[f64], width: f64) {
        let (m, i) = median_interval(xs, width);
        let (want_m, want_i) = sorted_median_interval(xs, width);
        assert_eq!(
            (m.to_bits(), i.to_bits()),
            (want_m.to_bits(), want_i.to_bits()),
            "n = {}, width = {width}: got ({m}, {i}), want ({want_m}, {want_i}) for {xs:?}",
            xs.len()
        );
    }

    #[test]
    fn median_interval_small_cases() {
        for width in [0.9, 1.0, 0.5] {
            assert_bits_eq(&[], width);
            assert_bits_eq(&[7.5], width);
            assert_bits_eq(&[-0.0], width);
            assert_bits_eq(&[2.0, 1.0], width);
            assert_bits_eq(&[0.0, -0.0], width);
            assert_bits_eq(&[-0.0, 0.0, -0.0], width);
            assert_bits_eq(&[f64::INFINITY, f64::NEG_INFINITY, 0.0], width);
        }
    }

    #[test]
    fn zero_ranks_keep_input_order() {
        // The stable sort leaves the zeros in input order after the two
        // negatives, so the median (rank 4 of 9) is the third zero: -0.0.
        let xs = [0.0, -1.0, 0.0, -0.0, 3.0, -2.0, 0.0, 5.0, 6.0];
        assert_eq!(median_interval(&xs, 0.9).0.to_bits(), (-0.0f64).to_bits());
        assert_bits_eq(&xs, 0.9);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_panics_like_the_sort() {
        median_interval(&[1.0, f64::NAN, 2.0], 0.9);
    }

    #[test]
    fn single_nan_passes_through_like_the_sort() {
        let (m, i) = median_interval(&[f64::NAN], 0.9);
        assert!(m.is_nan() && i.is_nan());
    }

    #[test]
    fn central_order_map_matches_mapping_the_sample() {
        let xs: Vec<f64> = (0..1001).map(|i| ((i * 7919) % 613) as f64).collect();
        let f = |x: f64| x / 416.0 * 128.0;
        let mapped: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
        let (m, i) = CentralOrder::select(&xs, 0.9).map(f).median_interval();
        let (want_m, want_i) = sorted_median_interval(&mapped, 0.9);
        assert_eq!((m.to_bits(), i.to_bits()), (want_m.to_bits(), want_i.to_bits()));
    }

    mod oracle {
        use super::*;
        use proptest::prelude::*;

        /// Values from 1e-300 to 1e300 of either sign, infinities, and
        /// zeros of both signs, drawn from a small pool so ties are heavy.
        fn value() -> impl Strategy<Value = f64> {
            prop_oneof![
                Just(0.0),
                Just(-0.0),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                (-300i32..=300, 1u32..10, proptest::bool::ANY).prop_map(|(e, m, neg)| {
                    let x = m as f64 * 10f64.powi(e);
                    if neg {
                        -x
                    } else {
                        x
                    }
                }),
                (0u32..5).prop_map(|k| k as f64),
            ]
        }

        /// Samples of 0..=2000 values: heavy ties, long mixed runs of +0.0
        /// and -0.0, or all distinct; sizes 1 and 2 come up often.
        fn sample() -> impl Strategy<Value = Vec<f64>> {
            prop_oneof![
                proptest::collection::vec(value(), 0..=2000),
                proptest::collection::vec(value(), 1..=2),
                proptest::collection::vec(
                    prop_oneof![Just(0.0), Just(-0.0), Just(1.0), Just(-1.0)],
                    0..=300
                ),
                proptest::collection::vec(-1e6f64..1e6, 0..=2000),
            ]
        }

        fn width() -> impl Strategy<Value = f64> {
            prop_oneof![Just(0.9), Just(1.0), Just(0.5), 1e-6f64..1.0]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(600))]

            #[test]
            fn median_interval_matches_percentiles_bit_for_bit(
                xs in sample(),
                width in width(),
            ) {
                assert_bits_eq(&xs, width);
            }
        }
    }
}
