//! Online Hurst re-estimation for streaming windows.
//!
//! The streaming co-plot driver re-estimates the Hurst parameter of a
//! growing series (the cumulative inter-arrival series) after every sealed
//! window. The batch pox plot of [`crate::rs::rs_hurst`] cannot be extended
//! as data arrives: its block sizes are spread between 8 and n/2, so almost
//! every size moves with n and every block is scored again. [`OnlineHurst`]
//! plots a fixed grid instead, sizes `round(8·√2^i)` for i = 0, 1, 2, …, and
//! a size joins the plot once the series holds two full blocks of it. Blocks
//! start at multiples of their size and the prefix sums are append-only, so
//! each size keeps a running (Σ R/S, count) and every (size, block) pair is
//! scored exactly once over the stream's life: O(values × grid sizes) in
//! total.
//!
//! The estimate is therefore *not* the batch estimate of the same series:
//! it is batch R/S over the fixed grid, and equals
//! `rs::rs_hurst_on_grid` bit for bit at every prefix (the running sums
//! add the same block values in the same order). Both estimators share
//! the block scorer (`rs::block_rs`) and the slope fit.

use crate::rs::{block_rs, extend_prefix_sums, pox_slope, PoxPoint, DEFAULT_MIN_BLOCK};

/// Block size `i` of the fixed grid: `round(8·√2^i)`, i.e. 8, 11, 16, 23,
/// 32, 45, 64, …, starting at the batch grid's smallest size.
fn grid_size(i: usize) -> usize {
    let i = i32::try_from(i).expect("grid index fits in i32");
    (DEFAULT_MIN_BLOCK as f64 * std::f64::consts::SQRT_2.powi(i)).round() as usize
}

/// Running pox-plot state of one grid size.
#[derive(Debug, Clone, Copy)]
struct GridPoint {
    size: usize,
    /// Complete blocks scored so far, degenerate ones included.
    scored: usize,
    /// Σ R/S over the non-degenerate blocks, left to right.
    sum: f64,
    /// Non-degenerate blocks in `sum`.
    count: usize,
}

/// Incrementally maintained R/S state for repeated Hurst estimation.
#[derive(Debug, Clone)]
pub struct OnlineHurst {
    /// `p[i]` = sum of the first `i` values; always one longer than the
    /// series.
    p: Vec<f64>,
    /// `q[i]` = sum of squares of the first `i` values.
    q: Vec<f64>,
    /// The grid sizes plotted so far, smallest first.
    grid: Vec<GridPoint>,
}

impl Default for OnlineHurst {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineHurst {
    /// An empty series.
    pub fn new() -> Self {
        OnlineHurst {
            p: vec![0.0],
            q: vec![0.0],
            grid: Vec::new(),
        }
    }

    /// Append one window's values, extending the prefix sums in place.
    pub fn extend(&mut self, values: &[f64]) {
        extend_prefix_sums(&mut self.p, &mut self.q, values);
        wl_obs::counter!("selfsim.online.appended", values.len() as u64);
    }

    /// Values accumulated so far.
    pub fn len(&self) -> usize {
        self.p.len() - 1
    }

    /// True when nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// R/S Hurst estimate over the fixed grid: extends the grid up to
    /// `len / 2`, scores only each size's newly completed blocks, and fits
    /// the log-log slope over the sizes with at least one non-degenerate
    /// block. `None` below 3 such sizes or for a non-finite slope.
    pub fn rs_hurst(&mut self) -> Option<f64> {
        let n = self.len();
        loop {
            let size = grid_size(self.grid.len());
            if size > n / 2 {
                break;
            }
            self.grid.push(GridPoint {
                size,
                scored: 0,
                sum: 0.0,
                count: 0,
            });
        }
        let mut scored = 0;
        for g in &mut self.grid {
            let complete = n / g.size;
            for b in g.scored..complete {
                if let Some(rs) = block_rs(&self.p, &self.q, b * g.size, g.size) {
                    g.sum += rs;
                    g.count += 1;
                }
            }
            scored += complete - g.scored;
            g.scored = complete;
        }
        wl_obs::counter!("selfsim.online.blocks", scored as u64);
        let points: Vec<PoxPoint> = self
            .grid
            .iter()
            .filter(|g| g.count > 0)
            .map(|g| PoxPoint {
                block_size: g.size,
                mean_rs: g.sum / g.count as f64,
                blocks: g.count,
            })
            .collect();
        pox_slope(&points).filter(|h| h.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgn::FgnDaviesHarte;
    use crate::rs::rs_hurst_on_grid;
    use proptest::prelude::*;
    use rand::Rng;
    use wl_stats::rng::seeded_rng;

    fn noise(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|_| (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0)
            .collect()
    }

    /// The fixed grid's sizes up to `max`.
    fn grid_for(max: usize) -> Vec<usize> {
        (0..).map(grid_size).take_while(|&s| s <= max).collect()
    }

    #[test]
    fn grid_is_round_eight_root_two_powers() {
        let first: Vec<usize> = (0..11).map(grid_size).collect();
        assert_eq!(first, [8, 11, 16, 23, 32, 45, 64, 91, 128, 181, 256]);
        // At n = 16,384 the grid plots 21 sizes, at 40,000 it plots 23.
        assert_eq!(grid_for(16_384 / 2).len(), 21);
        assert_eq!(grid_for(40_000 / 2).len(), 23);
    }

    #[test]
    fn short_series_yields_none() {
        let mut online = OnlineHurst::new();
        assert!(online.is_empty());
        assert_eq!(online.rs_hurst(), None);
        online.extend(&[1.0, 2.0, 3.0]);
        assert_eq!(online.rs_hurst(), None);
        // Three grid sizes (8, 11, 16) need 32 values.
        let x = noise(32, 5);
        let mut online = OnlineHurst::new();
        online.extend(&x[..31]);
        assert_eq!(online.rs_hurst(), None);
        online.extend(&x[31..]);
        assert!(online.rs_hurst().is_some());
        assert_eq!(online.len(), 32);
    }

    #[test]
    fn extend_in_pieces_equals_extend_at_once() {
        let x = noise(1024, 3);
        let mut a = OnlineHurst::new();
        a.extend(&x);
        let mut b = OnlineHurst::new();
        for chunk in x.chunks(100) {
            b.extend(chunk);
        }
        assert_eq!(a.len(), b.len());
        assert_eq!(
            a.rs_hurst().map(f64::to_bits),
            b.rs_hurst().map(f64::to_bits)
        );
    }

    #[test]
    fn streamed_estimate_recovers_planted_hurst() {
        // The series of `hurst::estimators_recover_planted_hurst`, streamed
        // in 256-value windows with an estimate after each: the final
        // estimate holds the batch R/S tolerance.
        let n = 16384;
        for &h in &[0.5, 0.6, 0.7, 0.8, 0.9] {
            let gen = FgnDaviesHarte::new(h, n).unwrap();
            let mut rng = seeded_rng(1000 + (h * 100.0) as u64);
            let x = gen.generate(&mut rng);
            let mut online = OnlineHurst::new();
            let mut got = None;
            for window in x.chunks(256) {
                online.extend(window);
                got = online.rs_hurst();
            }
            let got = got.unwrap();
            assert!((got - h).abs() < 0.15, "H={h}: estimated {got}");
        }
    }

    /// A series of runs: each run repeats one value `mantissa · 10^exp`
    /// with `|exp| <= max_exp`, so values lie many orders of magnitude
    /// apart (at `max_exp` 200 squares overflow) and a run longer than a
    /// block makes a constant block.
    fn runs(max_exp: i32) -> impl Strategy<Value = Vec<f64>> {
        let run = (-1.0f64..1.0, -max_exp..=max_exp, 1usize..=40);
        proptest::collection::vec(run, 1..120).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(m, e, len)| std::iter::repeat_n(m * 10f64.powi(e), len))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn online_matches_grid_oracle_bit_exact(
            x in prop_oneof![
                proptest::collection::vec(-1e3f64..1e3, 1..3000),
                runs(6),
                runs(200),
            ],
            windows in proptest::collection::vec(1usize..=600, 1..40),
        ) {
            // Feed the series in random windows; after every append the
            // online estimate equals batch R/S over the fixed grid on the
            // accumulated prefix, bit for bit.
            let grid = grid_for(x.len());
            let mut online = OnlineHurst::new();
            let mut fed = 0;
            for w in windows.iter().cycle() {
                if fed == x.len() {
                    break;
                }
                let hi = (fed + w).min(x.len());
                online.extend(&x[fed..hi]);
                fed = hi;
                prop_assert_eq!(
                    online.rs_hurst().map(f64::to_bits),
                    rs_hurst_on_grid(&x[..fed], &grid).map(f64::to_bits),
                    "prefix {}", fed
                );
            }
            prop_assert_eq!(online.len(), x.len());
        }
    }
}
