//! Host-speed calibration.
//!
//! On a shared host the same code runs at very different speeds from one
//! minute to the next, because neighbours contend for the cores. The
//! benchmark runs a fixed reference loop after every timed slice; the
//! loop's host time says how fast the host ran at that moment, and
//! dividing a slice's time by it removes most of that drift (see
//! `README.md`, "Host noise").

use std::fmt::Write as _;
use std::time::Instant;

/// Host ns the reference loop takes on the reference host, a 2.1 GHz
/// Xeon VM. Normalised rates are "per second at the reference speed".
pub const REF_NS: f64 = 50_000.0;

/// Runs the reference loop: formatting short counter lines into fresh
/// strings and vectors, i.e. branchy integer work, calls and small
/// allocations like the simulator's, using only the standard library so
/// no change to the program under test can change it. Returns its host
/// time in ns.
///
/// A loop of pseudo-random loads from a table was tried first; its time
/// tracked the host's slow phases far less closely than this one's.
pub fn reference_loop_ns() -> u64 {
    let start = Instant::now();
    let mut total = 0usize;
    for round in 0..8u64 {
        let mut text = String::new();
        let mut values = Vec::new();
        for i in 0..64u64 {
            let value = i.wrapping_mul(round + 0x9E37);
            let _ = writeln!(text, "hipec_counter{{name=\"c{i}\"}} {value}");
            values.push(i ^ round);
        }
        total += text.len() + values.len();
        std::hint::black_box(&text);
    }
    std::hint::black_box(total);
    start.elapsed().as_nanos() as u64
}

/// Host seconds of a measured phase at the reference speed: each slice's
/// time scaled by `REF_NS` over the median of the reference-loop times
/// around it (the two on either side, so one preempted loop cannot skew
/// a slice).
pub fn normalized_s(slices: &[u64], loops: &[u64]) -> f64 {
    let ns: f64 = slices
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let mut window = loops[i.saturating_sub(2)..(i + 3).min(loops.len())].to_vec();
            window.sort_unstable();
            t as f64 * REF_NS / window[window.len() / 2] as f64
        })
        .sum();
    ns / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slowdown_seen_by_the_reference_loop_cancels() {
        let slices = [1_000_000u64; 8];
        let steady = normalized_s(&slices, &[50_000; 8]);
        assert!((steady - 0.008).abs() < 1e-12, "{steady}");
        // The host ran at half speed: slices and loops both took twice as
        // long, and one loop was preempted.
        let mut slow_loops = [100_000u64; 8];
        slow_loops[3] = 5_000_000;
        let slow = normalized_s(&[2_000_000; 8], &slow_loops);
        assert!((slow - steady).abs() < 1e-12, "{slow} vs {steady}");
    }
}
