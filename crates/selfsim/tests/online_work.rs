//! `OnlineHurst` does linear work: over a stream's life each (grid size,
//! block) pair is scored exactly once, however often the estimate is
//! re-run. This is the only test in its binary, so the process-wide
//! `selfsim.online.blocks` counter sees no other estimator.

use rand::Rng;
use wl_selfsim::OnlineHurst;
use wl_stats::rng::seeded_rng;

#[test]
fn every_block_is_scored_once() {
    const N: usize = 39_999;
    let mut rng = seeded_rng(18);
    let x: Vec<f64> = (0..N).map(|_| rng.gen::<f64>()).collect();

    wl_obs::set_enabled(true);
    let before = wl_obs::registry()
        .snapshot()
        .counter("selfsim.online.blocks");
    let mut online = OnlineHurst::new();
    for window in x.chunks(256) {
        online.extend(window);
        assert!(online.rs_hurst().is_some());
    }
    let scored = wl_obs::registry()
        .snapshot()
        .counter("selfsim.online.blocks")
        - before;

    // Σ ⌊N/s⌋ over the grid sizes s = round(8·√2^i) up to N/2.
    let expected: usize = (0..)
        .map(|i| (8.0 * std::f64::consts::SQRT_2.powi(i)).round() as usize)
        .take_while(|&s| s <= N / 2)
        .map(|s| N / s)
        .sum();
    assert_eq!(expected, 17_126);
    assert_eq!(scored, expected as u64);
}
