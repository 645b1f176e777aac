//! Golden-matrix regression tests for the policy tournament.
//!
//! The short tournament (`TournamentConfig::short`) is fully seeded, so its
//! matrix is a pure function of the config. These tests pin the clean-plan
//! hit/fault counts for every (policy, workload) cell as goldens, and
//! assert that the matrix is bit-identical across reruns — same config,
//! same matrix, down to every latency quantile and counter.
//!
//! If a deliberate policy/workload change shifts the numbers, regenerate
//! the golden with:
//!
//! ```text
//! cargo run --release -p hipec-bench --bin tournament -- --short --json \
//!   | jq -r '.data.cells[] | select(.plan=="clean")
//!            | "\(.workload) \(.policy) \(.faults) \(.hits)"'
//! ```

use std::sync::OnceLock;

use hipec_policies::PolicyKind;
use hipec_workloads::tournament::{run, Tournament, TournamentConfig};

/// Clean-plan cells of the short tournament, one line per
/// `(workload, policy)`: `workload policy faults hits`.
const GOLDEN_CLEAN_MATRIX: &str = "\
db FIFO 302 398
db FIFO-2ndChance 281 419
db LRU 265 435
db MRU 484 216
db Clock 268 432
db 2Q 223 477
db Learned 228 472
db AWRP 266 434
scientific FIFO 558 143
scientific FIFO-2ndChance 545 156
scientific LRU 544 157
scientific MRU 206 495
scientific Clock 547 154
scientific 2Q 542 159
scientific Learned 476 225
scientific AWRP 545 156
scan FIFO 712 24
scan FIFO-2ndChance 712 24
scan LRU 704 32
scan MRU 650 86
scan Clock 712 24
scan 2Q 608 128
scan Learned 608 128
scan AWRP 699 37
join FIFO 208 496
join FIFO-2ndChance 176 528
join LRU 172 532
join MRU 531 173
join Clock 176 528
join 2Q 176 528
join Learned 176 528
join AWRP 176 528
zipf-kv FIFO 295 405
zipf-kv FIFO-2ndChance 280 420
zipf-kv LRU 254 446
zipf-kv MRU 420 280
zipf-kv Clock 264 436
zipf-kv 2Q 234 466
zipf-kv Learned 234 466
zipf-kv AWRP 254 446
web-cache FIFO 390 290
web-cache FIFO-2ndChance 385 295
web-cache LRU 373 307
web-cache MRU 475 205
web-cache Clock 375 305
web-cache 2Q 333 347
web-cache Learned 329 351
web-cache AWRP 378 302";

/// One shared short-tournament run (the matrix is pure data; every test
/// reads it, only the rerun test pays for a second run).
fn matrix() -> &'static Tournament {
    static MATRIX: OnceLock<Tournament> = OnceLock::new();
    MATRIX.get_or_init(|| run(&TournamentConfig::short()).expect("short tournament runs clean"))
}

fn render_clean_cells(t: &Tournament) -> String {
    t.cells
        .iter()
        .filter(|c| c.plan == "clean")
        .map(|c| format!("{} {} {} {}", c.workload, c.policy, c.faults, c.hits))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn clean_matrix_matches_the_pinned_golden() {
    let got = render_clean_cells(matrix());
    assert_eq!(
        got, GOLDEN_CLEAN_MATRIX,
        "tournament clean matrix drifted from the golden; if the change is \
         deliberate, regenerate it (see the module docs)"
    );
}

#[test]
fn matrix_is_bit_identical_across_reruns() {
    let again = run(&TournamentConfig::short()).expect("rerun");
    assert_eq!(
        matrix(),
        &again,
        "same config must reproduce the same matrix bit for bit"
    );
}

#[test]
fn matrix_covers_the_full_cross_product() {
    let t = matrix();
    assert_eq!(t.workloads.len(), 6);
    // 8 policies × 6 workloads × 2 plans.
    assert_eq!(t.cells.len(), PolicyKind::ALL.len() * 6 * 2);
    assert_eq!(t.ranking.len(), PolicyKind::ALL.len());
    // The ranking is sorted best-first and covers each policy exactly once.
    let mut names: Vec<_> = t.ranking.iter().map(|r| r.policy).collect();
    assert!(t.ranking.windows(2).all(|w| w[0].points <= w[1].points));
    names.sort_unstable();
    let mut all: Vec<_> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
    all.sort_unstable();
    assert_eq!(names, all);
}

#[test]
fn chaos_cells_show_injected_trouble_and_clean_cells_none() {
    let t = matrix();
    let mut chaos_failures = 0u64;
    let mut chaos_quarantines = 0u64;
    for c in &t.cells {
        match c.plan {
            "clean" => assert_eq!(
                c.ok, c.accesses,
                "clean cell lost accesses: {}/{}",
                c.policy, c.workload
            ),
            _ => {
                chaos_failures += c.accesses - c.ok;
                chaos_quarantines += c.quarantines;
            }
        }
    }
    assert!(
        chaos_failures > 0,
        "the chaos plan must surface at least some device errors"
    );
    assert!(
        chaos_quarantines > 0,
        "sustained chaos must trip at least one quarantine somewhere"
    );
}
