//! Guttman's coefficient of alienation (Eqs. 3-4 of the paper).
//!
//! The MDS stage demands that map distances preserve the *order* of the
//! dissimilarities: `S_ik < S_lm` iff `d_ik < d_lm`. Guttman's statistics
//! quantify how well a configuration achieves this. Over all pairs of pairs:
//!
//! ```text
//! mu = sum (S_ik - S_lm)(d_ik - d_lm)  /  sum |S_ik - S_lm| |d_ik - d_lm|
//! theta = sqrt(1 - mu^2)
//! ```
//!
//! `mu = 1` (theta = 0) means perfect weak monotonicity; the paper treats
//! `theta < 0.15` as a good fit.
//!
//! # Fast kernel
//!
//! The textbook form is a double sum over all pairs of pairs — `P^2` terms
//! for `P = n(n-1)/2` pairs, i.e. `O(n^4)` in observations. That sat on the
//! hot path of every MDS restart, every elimination round, every candidate
//! in a `C(p,k)` subset search, and every sealed streaming window. The
//! public [`mu_statistic`] now dispatches on `P`:
//!
//! * Below [`SWEEP_MIN_PAIRS`] the textbook double sum is kept but run
//!   through [`QUAD_LANES`] independent accumulator lanes over contiguous
//!   tails (`mu_quadratic`), in portable code the compiler vectorizes; no
//!   CPU dispatch, so every machine runs the same kernel. Each lane owns a
//!   fixed subset of terms, so the result is deterministic, and since `|t|`
//!   is accumulated through the same lanes as `t`, perfectly concordant
//!   (discordant) inputs give `mu` exactly `1.0` (`-1.0`) bit for bit,
//!   like the scalar loop.
//! * From [`SWEEP_MIN_PAIRS`] up, a Kendall-style `O(P log P)` sweep
//!   (`mu_sweep`): sort the pairs by `(s, d)` — as order-preserving
//!   `u128` bit keys, so the sort is a branch-cheap integer sort — then
//!   for each pair `b` in ascending-`s` order split the already-seen
//!   pairs `a` (those with `s_a < s_b` strictly; equal-`s` groups are
//!   batched so ties contribute exactly zero) by `d`-rank using two
//!   Fenwick trees holding `(count, sum s, sum d, sum s*d)`:
//!
//!   ```text
//!   C  = sum over seen a with d_a < d_b of (s_b - s_a)(d_b - d_a)   # concordant
//!   D' = sum over seen a with d_a > d_b of (s_b - s_a)(d_a - d_b)   # discordant
//!   ```
//!
//!   Both expand into the four Fenwick partial sums. Every concordant and
//!   discordant product enters with its *true* sign, so
//!
//!   ```text
//!   num += C - D'      den += C + D'
//!   ```
//!
//!   reproduces Eq. 3 — and for perfectly concordant (or discordant)
//!   inputs `num` and `den` accumulate the *identical* float sequence, so
//!   `mu` is exactly `1.0` (or `-1.0`) bit for bit as well.
//!
//! The naive version is retained as the `#[cfg(test)]` oracle
//! (`mu_statistic_naive`) with a proptest equivalence bound of 1e-9
//! against both paths.

/// Fenwick (binary indexed) tree over compressed `d`-ranks. Each inserted
/// pair contributes `(1, s, d, s*d)`; prefix queries return the four sums
/// over all inserted pairs with rank below a bound. Accumulation order is a
/// pure function of insertion order, so results are deterministic.
struct Fenwick {
    tree: Vec<[f64; 4]>,
}

impl Fenwick {
    fn new(ranks: usize) -> Fenwick {
        Fenwick {
            tree: vec![[0.0; 4]; ranks + 1],
        }
    }

    fn add(&mut self, rank: usize, s: f64, d: f64) {
        let mut i = rank + 1;
        while i < self.tree.len() {
            let cell = &mut self.tree[i];
            cell[0] += 1.0;
            cell[1] += s;
            cell[2] += d;
            cell[3] += s * d;
            i += i & i.wrapping_neg();
        }
    }

    /// Sums over inserted pairs with rank in `0..below`. An empty range is
    /// exactly `[0.0; 4]` — no subtraction residue.
    fn prefix(&self, below: usize) -> [f64; 4] {
        let mut acc = [0.0; 4];
        let mut i = below;
        while i > 0 {
            let cell = &self.tree[i];
            acc[0] += cell[0];
            acc[1] += cell[1];
            acc[2] += cell[2];
            acc[3] += cell[3];
            i -= i & i.wrapping_neg();
        }
        acc
    }
}

/// Pair counts below this run the lane-blocked quadratic kernel; the sweep's
/// sort + Fenwick constant amortizes past roughly this many pairs. 160 was
/// tuned against an AVX-512/AVX2 copy of the quadratic kernel, which broke
/// even with the sweep at P around 150-200 (`n` around 18-20 observations).
/// The portable kernel breaks even lower: `theta_profile` medians on a
/// 2-vCPU Xeon give quadratic 6.1 / 14.4 / 22.0 µs against sweep 5.6 / 9.5 /
/// 13.9 µs at P = 100 / 153 / 190. The goldens now pin 160: moving it would
/// switch fig4 (P = 105) or crossdomain (P = 276) to the other kernel and
/// change last digits.
const SWEEP_MIN_PAIRS: usize = 160;

/// Map `f64` bits to `u64` such that unsigned integer order equals
/// `f64::total_cmp` order (flip the sign bit for positives, all bits for
/// negatives). Bijective, so the value is recoverable via [`dec_key`].
#[inline]
fn enc_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b ^ (1 << 63)
    }
}

#[inline]
fn dec_key(k: u64) -> f64 {
    if k >> 63 == 1 {
        f64::from_bits(k ^ (1 << 63))
    } else {
        f64::from_bits(!k)
    }
}

/// The mu statistic of Eq. 3 for matched slices of dissimilarities `s` and
/// map distances `d` (same pair order). Returns 1.0 for degenerate inputs
/// (fewer than two pairs or all-equal values), matching the convention that
/// nothing contradicts monotonicity there.
///
/// Dispatches between a lane-blocked quadratic kernel (small `P`) and an
/// `O(P log P)` sweep; see the module docs for both constructions and their
/// exactness guarantees at `mu = ±1`.
///
/// # Panics
/// Panics on a length mismatch.
pub fn mu_statistic(s: &[f64], d: &[f64]) -> f64 {
    assert_eq!(s.len(), d.len(), "pair count mismatch");
    let p = s.len();
    if p < 2 {
        return 1.0;
    }
    wl_obs::counter!("alienation.fast_mu", 1u64);
    if p < SWEEP_MIN_PAIRS {
        mu_quadratic(s, d)
    } else {
        mu_sweep(s, d)
    }
}

/// Accumulator lanes for the quadratic kernel. 16 gives the vectorizer
/// independent accumulation chains (eight 128-bit registers on baseline
/// x86-64), enough to hide floating-point add latency. The lane count is
/// FIXED — never CPU-dependent — so results are bit-identical on every
/// machine.
const QUAD_LANES: usize = 16;

/// The textbook double sum, restructured into [`QUAD_LANES`] independent
/// accumulator lanes over the contiguous tail `a+1..` so the compiler can
/// vectorize it. Lane `j` always owns tail offsets `j mod QUAD_LANES` (the
/// remainder loop keeps the same assignment), so the accumulation order is
/// a pure function of the input length — deterministic, and bit-identical
/// on every machine. Exposed (doc-hidden) for the `theta_profile` example;
/// use [`mu_statistic`] everywhere else.
#[doc(hidden)]
pub fn mu_quadratic(s: &[f64], d: &[f64]) -> f64 {
    let p = s.len();
    let mut num = [0.0f64; QUAD_LANES];
    let mut den = [0.0f64; QUAD_LANES];
    for a in 0..p {
        let sa = s[a];
        let da = d[a];
        let ts = &s[a + 1..];
        let td = &d[a + 1..];
        let mut k = 0;
        while k + QUAD_LANES <= ts.len() {
            for j in 0..QUAD_LANES {
                let t = (sa - ts[k + j]) * (da - td[k + j]);
                num[j] += t;
                den[j] += t.abs();
            }
            k += QUAD_LANES;
        }
        for j in 0..ts.len() - k {
            let t = (sa - ts[k + j]) * (da - td[k + j]);
            num[j] += t;
            den[j] += t.abs();
        }
    }
    // Fixed pairwise reduction tree; for all-concordant input every lane
    // has num[j] == den[j] bitwise (t == |t|), so mu is exactly 1.0 (and
    // by the symmetry of IEEE negation, exactly -1.0 for all-discordant).
    let mut rn = num;
    let mut rd = den;
    let mut width = QUAD_LANES / 2;
    while width >= 1 {
        for j in 0..width {
            rn[j] += rn[j + width];
            rd[j] += rd[j + width];
        }
        width /= 2;
    }
    if rd[0] == 0.0 {
        1.0
    } else {
        rn[0] / rd[0]
    }
}

/// The `O(P log P)` Kendall-style sweep over `(s, d)` sorted as `u128` bit
/// keys. See the module docs for the per-item concordant/discordant split.
/// Doc-hidden for the `theta_kernel` bench; use [`mu_statistic`].
#[doc(hidden)]
pub fn mu_sweep(s: &[f64], d: &[f64]) -> f64 {
    let p = s.len();

    // One integer sort gives the sweep order: ascending s, ties broken by
    // ascending d. Identical (s, d) pairs are interchangeable, so no index
    // tiebreak is needed for determinism.
    let mut keys: Vec<u128> = s
        .iter()
        .zip(d)
        .map(|(&sv, &dv)| ((enc_key(sv) as u128) << 64) | enc_key(dv) as u128)
        .collect();
    keys.sort_unstable();

    // Compress d to ranks with a second integer sort of (d key, sweep
    // position); walking the sorted array assigns dense ranks and records
    // each sweep position's rank in one O(P) pass.
    let mut dpos: Vec<u128> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| ((k as u64 as u128) << 32) | i as u128)
        .collect();
    dpos.sort_unstable();
    let mut rank = vec![0u32; p];
    let mut r = 0u32;
    let mut prev = dpos[0] >> 32;
    for &kp in &dpos {
        let dk = kp >> 32;
        if dk != prev {
            r += 1;
            prev = dk;
        }
        rank[kp as u32 as usize] = r;
    }
    let ranks = (r + 1) as usize;

    // `lo` answers "seen pairs with d strictly below d_b"; `hi` is the same
    // tree over *reversed* ranks so "strictly above" is also a genuine
    // prefix query (an empty set yields exact zeros, never a
    // total-minus-prefix rounding residue).
    let mut lo = Fenwick::new(ranks);
    let mut hi = Fenwick::new(ranks);
    let mut num = 0.0;
    let mut den = 0.0;

    let mut g0 = 0;
    while g0 < p {
        // Equal-s tie group [g0, g1): query every member against the pairs
        // inserted so far (all strictly smaller s), then insert the whole
        // group. Within-group pairs (delta s = 0) thus contribute exactly
        // nothing, as in the naive sum.
        let s0 = keys[g0] >> 64;
        let mut g1 = g0 + 1;
        while g1 < p && keys[g1] >> 64 == s0 {
            g1 += 1;
        }
        for i in g0..g1 {
            let sb = dec_key((keys[i] >> 64) as u64);
            let db = dec_key(keys[i] as u64);
            let r = rank[i] as usize;
            let below = lo.prefix(r);
            let above = hi.prefix(ranks - 1 - r);
            // C = sum (s_b - s_a)(d_b - d_a) over seen a with d_a < d_b.
            let c = sb * db * below[0] - sb * below[2] - db * below[1] + below[3];
            // D' = sum (s_b - s_a)(d_a - d_b) over seen a with d_a > d_b.
            let dp = sb * above[2] - sb * db * above[0] - above[3] + db * above[1];
            num += c - dp;
            den += c + dp;
        }
        for i in g0..g1 {
            let sb = dec_key((keys[i] >> 64) as u64);
            let db = dec_key(keys[i] as u64);
            let r = rank[i] as usize;
            lo.add(r, sb, db);
            hi.add(ranks - 1 - r, sb, db);
        }
        g0 = g1;
    }

    if den == 0.0 {
        1.0
    } else {
        num / den
    }
}

/// The naive O(P^2) pairs-of-pairs sum of Eq. 3, retained as the oracle the
/// fast sweep is tested against (and copied by the `theta_kernel` bench).
#[cfg(test)]
pub(crate) fn mu_statistic_naive(s: &[f64], d: &[f64]) -> f64 {
    assert_eq!(s.len(), d.len(), "pair count mismatch");
    let p = s.len();
    if p < 2 {
        return 1.0;
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for a in 0..p {
        for b in (a + 1)..p {
            let ds = s[a] - s[b];
            let dd = d[a] - d[b];
            num += ds * dd;
            den += ds.abs() * dd.abs();
        }
    }
    if den == 0.0 {
        1.0
    } else {
        num / den
    }
}

/// The coefficient of alienation `theta = sqrt(1 - mu^2)` of Eq. 4.
///
/// Degenerate-input convention, fixed at this public boundary: empty,
/// single-pair, and all-tied inputs have `mu = 1` (nothing contradicts
/// monotonicity), and any `|mu| = 1` — including the bitwise-exact ±1 the
/// fast kernel produces for perfect weak monotonicity — returns exactly
/// `0.0` without ever entering a sqrt that could round or (for `|mu| > 1`
/// after accumulation noise, pre-empted by the clamp) go NaN.
///
/// # Panics
/// Panics on a length mismatch.
pub fn coefficient_of_alienation(s: &[f64], d: &[f64]) -> f64 {
    let mu = mu_statistic(s, d).clamp(-1.0, 1.0);
    if mu == 1.0 || mu == -1.0 {
        return 0.0;
    }
    (1.0 - mu * mu).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_monotone_gives_zero_theta() {
        let s = [1.0, 2.0, 3.0, 4.0];
        let d = [10.0, 20.0, 30.0, 40.0];
        assert!((mu_statistic(&s, &d) - 1.0).abs() < 1e-12);
        assert!(coefficient_of_alienation(&s, &d) < 1e-7);
    }

    #[test]
    fn monotone_nonlinear_still_perfect() {
        // Weak monotonicity only needs order agreement, not linearity.
        let s = [1.0, 2.0, 3.0, 4.0];
        let d = [1.0, 8.0, 27.0, 64.0];
        assert!((mu_statistic(&s, &d) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reversed_order_gives_minus_one() {
        let s = [1.0, 2.0, 3.0];
        let d = [3.0, 2.0, 1.0];
        assert!((mu_statistic(&s, &d) + 1.0).abs() < 1e-12);
        // theta = sqrt(1-1) = 0 for perfectly reversed too (|mu| = 1),
        // which is why MDS maximizes mu, not theta alone.
        assert!(coefficient_of_alienation(&s, &d) < 1e-7);
    }

    #[test]
    fn one_inversion_penalized() {
        let s = [1.0, 2.0, 3.0, 4.0];
        let d = [10.0, 30.0, 20.0, 40.0]; // one swap
        let mu = mu_statistic(&s, &d);
        assert!(mu < 1.0 && mu > 0.0);
        let theta = coefficient_of_alienation(&s, &d);
        assert!(theta > 0.0 && theta < 1.0);
    }

    #[test]
    fn ties_do_not_contradict() {
        // Equal dissimilarities mapped to different distances contribute
        // zero to both sums (weak monotonicity).
        let s = [1.0, 1.0, 2.0];
        let d = [5.0, 9.0, 12.0];
        assert!((mu_statistic(&s, &d) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(mu_statistic(&[], &[]), 1.0);
        assert_eq!(mu_statistic(&[1.0], &[2.0]), 1.0);
        assert_eq!(mu_statistic(&[1.0, 1.0], &[2.0, 2.0]), 1.0);
    }

    #[test]
    fn degenerate_inputs_give_exact_zero_theta() {
        // The documented public convention: all-tied / empty inputs are
        // theta = 0.0 exactly, not a sqrt round-trip.
        for (s, d) in [
            (vec![], vec![]),
            (vec![3.0], vec![7.0]),
            (vec![2.0, 2.0, 2.0], vec![1.0, 5.0, 9.0]),
            (vec![1.0, 5.0, 9.0], vec![2.0, 2.0, 2.0]),
            (vec![4.0; 6], vec![4.0; 6]),
        ] {
            let theta = coefficient_of_alienation(&s, &d);
            assert_eq!(theta.to_bits(), 0.0f64.to_bits(), "s={s:?} d={d:?}");
        }
    }

    #[test]
    fn perfect_concordance_is_bitwise_one() {
        // Both kernels accumulate num and den through the identical float
        // sequence when every pair-of-pairs is concordant, so mu is 1.0
        // exactly — the property the pinned `"theta":0` stream golden
        // relies on.
        let s: Vec<f64> = (0..40).map(|i| 0.1 + 0.37 * i as f64).collect();
        let d: Vec<f64> = s.iter().map(|x| x * x + 1.0).collect();
        let rev: Vec<f64> = d.iter().map(|x| -x).collect();
        for mu in [mu_quadratic, mu_sweep] {
            assert_eq!(mu(&s, &d).to_bits(), 1.0f64.to_bits());
            assert_eq!(mu(&s, &rev).to_bits(), (-1.0f64).to_bits());
        }
    }

    #[test]
    fn quadratic_mu_bits_are_pinned() {
        // Printed by the AVX-512 path of the removed CPU dispatch, which
        // matched this kernel bit for bit: sizes cover full 16-lane blocks
        // and every tail length.
        let pinned: [(usize, u64); 9] = [
            (2, 0xbff0000000000000),
            (5, 0x3fe2cb430081ef2f),
            (15, 0x3feb7030dfb374e6),
            (16, 0x3fec647f0b913439),
            (17, 0x3febb7fe5e10949c),
            (31, 0x3fec5b5a3854103f),
            (33, 0x3fec19910ff62519),
            (190, 0x3fec5cf8ebaa2a72),
            (200, 0x3fec59c905faee8a),
        ];
        for (p, bits) in pinned {
            let s: Vec<f64> = (0..p).map(|i| (i as f64 * 0.917).sin() * 30.0).collect();
            let d: Vec<f64> = (0..p)
                .map(|i| (i as f64 * 2.13).cos() * 12.0 + s[i] * 0.4)
                .collect();
            assert_eq!(mu_quadratic(&s, &d).to_bits(), bits, "p={p}");
        }
    }

    #[test]
    fn key_encoding_round_trips_and_orders() {
        let values = [
            -1e300, -3.5, -0.0, 0.0, 1e-12, 2.0, 7.25, 1e300,
        ];
        for w in values.windows(2) {
            assert!(enc_key(w[0]) <= enc_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        for v in values {
            assert_eq!(dec_key(enc_key(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn dispatcher_uses_sweep_past_the_crossover() {
        // One case big enough to cross SWEEP_MIN_PAIRS through the public
        // entry point, checked against the naive oracle.
        let p = SWEEP_MIN_PAIRS + 37;
        let s: Vec<f64> = (0..p).map(|i| (i as f64 * 0.613).sin() * 40.0).collect();
        let d: Vec<f64> = (0..p)
            .map(|i| (i as f64 * 1.77).cos() * 25.0 + s[i] * 0.3)
            .collect();
        let fast = mu_statistic(&s, &d);
        assert_eq!(fast.to_bits(), mu_sweep(&s, &d).to_bits());
        let naive = mu_statistic_naive(&s, &d);
        assert!((fast - naive).abs() <= 1e-9, "fast={fast} naive={naive}");
    }

    #[test]
    fn random_orders_give_middling_theta() {
        // A scrambled assignment should score clearly worse than monotone.
        let s: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let d: Vec<f64> = (0..20).map(|i| ((i * 7) % 20) as f64).collect();
        let theta = coefficient_of_alienation(&s, &d);
        assert!(theta > 0.5, "theta = {theta}");
    }

    #[test]
    fn theta_bounded() {
        let s = [1.0, 5.0, 2.0, 8.0, 3.0];
        let d = [2.0, 1.0, 9.0, 4.0, 4.5];
        let theta = coefficient_of_alienation(&s, &d);
        assert!((0.0..=1.0).contains(&theta));
    }

    #[test]
    fn fast_matches_naive_on_fixed_cases() {
        let cases: [(&[f64], &[f64]); 5] = [
            (&[1.0, 5.0, 2.0, 8.0, 3.0], &[2.0, 1.0, 9.0, 4.0, 4.5]),
            (&[1.0, 1.0, 2.0, 2.0], &[4.0, 3.0, 2.0, 1.0]),
            (&[0.0, 0.0, 0.0, 1.0], &[5.0, 5.0, 5.0, 5.0]),
            (&[1.0, 2.0], &[2.0, 1.0]),
            (&[-3.0, 0.5, -3.0, 7.0], &[1.0, 1.0, 2.0, 0.0]),
        ];
        for (s, d) in cases {
            let naive = mu_statistic_naive(s, d);
            for (name, mu) in [("quadratic", mu_quadratic as fn(&[f64], &[f64]) -> f64), ("sweep", mu_sweep)] {
                let fast = mu(s, d);
                assert!(
                    (fast - naive).abs() <= 1e-9,
                    "{name}={fast} naive={naive} s={s:?} d={d:?}"
                );
            }
        }
    }

    /// Pair vectors with heavy ties: values drawn from a small integer pool.
    fn tied_pairs() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
        (2usize..60).prop_flat_map(|p| {
            (
                proptest::collection::vec((0u8..5).prop_map(f64::from), p),
                proptest::collection::vec((0u8..5).prop_map(f64::from), p),
            )
        })
    }

    fn random_pairs() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
        (1usize..120).prop_flat_map(|p| {
            (
                proptest::collection::vec(-1e3..1e3f64, p),
                proptest::collection::vec(-1e3..1e3f64, p),
            )
        })
    }

    proptest! {
        #[test]
        fn fast_mu_matches_naive_oracle_random(sd in random_pairs()) {
            let (s, d) = sd;
            let naive = mu_statistic_naive(&s, &d);
            for mu in [mu_quadratic, mu_sweep] {
                let fast = mu(&s, &d);
                prop_assert!((fast - naive).abs() <= 1e-9,
                    "fast={fast} naive={naive}");
            }
        }

        #[test]
        fn fast_mu_matches_naive_oracle_tied(sd in tied_pairs()) {
            let (s, d) = sd;
            let naive = mu_statistic_naive(&s, &d);
            for mu in [mu_quadratic, mu_sweep] {
                let fast = mu(&s, &d);
                prop_assert!((fast - naive).abs() <= 1e-9,
                    "fast={fast} naive={naive}");
            }
        }

        #[test]
        fn fast_mu_matches_naive_with_duplicated_pair_values(
            base in proptest::collection::vec(-50.0..50.0f64, 2..20),
            dups in 1usize..4,
        ) {
            // Duplicate the whole pair vector: every value appears `dups+1`
            // times in both s and d, stressing rank compression.
            let s: Vec<f64> = base.iter().copied().cycle()
                .take(base.len() * (dups + 1)).collect();
            let d: Vec<f64> = base.iter().map(|x| x * 2.0 + 1.0).cycle()
                .take(base.len() * (dups + 1)).collect();
            let naive = mu_statistic_naive(&s, &d);
            for mu in [mu_quadratic, mu_sweep] {
                let fast = mu(&s, &d);
                prop_assert!((fast - naive).abs() <= 1e-9,
                    "fast={fast} naive={naive}");
            }
        }

        #[test]
        fn fast_mu_matches_naive_constant_column(
            c in -10.0..10.0f64,
            d in proptest::collection::vec(-10.0..10.0f64, 1..30),
        ) {
            // Constant s (an all-tied column surviving into the pair
            // vector): both must take the den == 0 branch and agree.
            let s = vec![c; d.len()];
            prop_assert_eq!(mu_quadratic(&s, &d), mu_statistic_naive(&s, &d));
            prop_assert_eq!(mu_sweep(&s, &d), mu_statistic_naive(&s, &d));
        }

        #[test]
        fn fast_mu_matches_naive_tiny_shapes(
            s in proptest::collection::vec(-5.0..5.0f64, 1..4),
            d in proptest::collection::vec(-5.0..5.0f64, 1..4),
        ) {
            // n in {2, 3} observations gives P in {1, 3} pairs.
            let p = s.len().min(d.len());
            let naive = mu_statistic_naive(&s[..p], &d[..p]);
            for mu in [mu_quadratic, mu_sweep] {
                let fast = mu(&s[..p], &d[..p]);
                prop_assert!((fast - naive).abs() <= 1e-9,
                    "fast={fast} naive={naive}");
            }
        }
    }
}
