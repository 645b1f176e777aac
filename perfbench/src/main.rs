//! HiPEC benchmark: host throughput and virtual fault latency of the
//! kernel on three workloads, plus a traced run that times each call into
//! a layer from outside. See `README.md` in this directory.
//!
//! ```text
//! hipec-perfbench --workload <join|kv_zipf|tenants_storm> --seed <n>
//!                 --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The process exits
//! non-zero when any output check fails.

mod calib;
mod gen;
mod probe;
mod report;
mod workloads;

use std::time::{Duration, Instant};

use hipec_core::KernelStats;

use probe::Off;
use report::{metric, LayerTimes, Summary};
use workloads::{run_episode, run_traced, Inputs, Observed, Workload};

/// Fingerprints of [`workloads::DEFAULT_SEED`]'s runs. A pure speed-up
/// leaves them unchanged; a change that moves one has changed what the
/// program computes.
const EXPECTED: [(Workload, u64); 3] = [
    (Workload::Join, 0x9084_0b24_5f0c_6190),
    (Workload::KvZipf, 0x29a2_52bc_9500_bd8c),
    (Workload::TenantsStorm, 0xd7da_be58_3068_aa83),
];

/// Episodes each run makes at least, so `setup_s` is a median and every
/// slice of `accesses_per_s` has several timings to pick from.
const MIN_EPISODES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// `VmRSS` or `VmHWM` of this process, in bytes.
fn proc_status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Every check a run makes on what the kernel computed, plus the
/// workload shape guards. Returns the failed checks.
fn check(w: Workload, seed: u64, episodes: &[&Summary], stats: &KernelStats) -> Vec<String> {
    let mut failures = Vec::new();
    let first = episodes[0];
    if episodes.iter().any(|s| s.fingerprint != first.fingerprint) {
        failures.push("episodes of one seed computed different results".to_string());
    }
    if seed == workloads::DEFAULT_SEED {
        let expected = EXPECTED.iter().find(|(x, _)| *x == w).map(|e| e.1);
        if expected != Some(first.fingerprint.0) {
            failures.push(format!(
                "fingerprint {:#018x} differs from the stored {:#018x}",
                first.fingerprint.0,
                expected.unwrap_or(0)
            ));
        }
    }
    failures.extend(report::shape_violations(w, first, stats));
    failures
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(ok) => std::process::exit(if ok { 0 } else { 1 }),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs the benchmark; returns whether every check passed.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let inputs = Inputs::generate(w, args.seed);
    let mut obs = Observed::with_capacity(inputs.ops());
    calib::reference_loop_ns();
    let rss_base = proc_status_bytes("VmRSS");
    let budget = Duration::from_secs(args.seconds);
    let run_start = Instant::now();

    // Untraced episodes. In a traced run they alternate with traced ones
    // and are the baseline of the tracing overhead.
    let mut plain: Vec<Summary> = Vec::new();
    let mut traced: Vec<Summary> = Vec::new();
    let mut times = LayerTimes::default();
    // Counter diffs of the first untraced and first traced episode; they
    // repeat exactly in every other episode of the seed.
    let mut stats = None;
    let mut traced_stats = None;
    // Resident-memory growth of the first episode: later episodes reuse
    // the memory it freed, so their peak says more about the allocator.
    let mut peak_rss = None;
    loop {
        let mut ep = run_episode(w, &inputs, &mut Off, None, obs)?;
        peak_rss.get_or_insert_with(|| proc_status_bytes("VmHWM").saturating_sub(rss_base));
        plain.push(Summary::of(&mut ep));
        stats.get_or_insert(ep.stats);
        obs = ep.obs.reset();
        if args.trace {
            let (mut ep, spans) = run_traced(w, &inputs, obs)?;
            times.add(spans, &ep);
            traced.push(Summary::of(&mut ep));
            traced_stats.get_or_insert(ep.stats);
            obs = ep.obs.reset();
        }
        if plain.len() >= MIN_EPISODES && run_start.elapsed() >= budget {
            break;
        }
    }
    let peak_rss = peak_rss.expect("at least one episode ran");

    let stats = stats.expect("at least one episode ran");
    let all: Vec<&Summary> = plain.iter().chain(&traced).collect();
    let failures = check(w, args.seed, &all, &stats);
    let first = &plain[0];
    let completed = (first.accesses - first.errors) as f64;
    let rate = |eps: &[Summary]| median(eps.iter().map(|s| s.normalized_rate).collect());
    let metrics = if args.trace {
        let slowdown = rate(&plain) / rate(&traced);
        let traced_stats = traced_stats.expect("traced runs make a traced episode");
        report::layer_metrics(
            &traced[0],
            &traced_stats,
            &mut times,
            (slowdown - 1.0) * 100.0,
        )
    } else {
        vec![
            metric("accesses_per_s", rate(&plain), "accesses/ref_s"),
            metric(
                "setup_s",
                median(plain.iter().map(|s| s.setup_s).collect()),
                "s",
            ),
            metric("peak_rss_mb", peak_rss as f64 / (1024.0 * 1024.0), "MiB"),
            metric("sim_elapsed_s", first.sim_elapsed.as_secs_f64(), "sim_s"),
            metric(
                "sim_fault_p50_us",
                first.fault_p50_ns as f64 / 1e3,
                "sim_us",
            ),
            metric(
                "sim_fault_p99_us",
                first.fault_p99_ns as f64 / 1e3,
                "sim_us",
            ),
            metric(
                "sim_miss_ratio",
                (first.accesses - first.hits) as f64 / first.accesses as f64,
                "ratio",
            ),
            metric(
                "ok_access_ratio",
                completed / first.accesses as f64,
                "ratio",
            ),
        ]
    };

    let backend = first.backend;
    println!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"inputs\": {}, \"nproc\": {}, \"profile\": \"{}\", \"backend\": \"{backend}\", \"features\": {{\"trace\": {}, \"metrics\": {}, \"jit\": {}}}, \"traced\": {}, \"episodes\": {}, \"traced_episodes\": {}, \"fingerprint\": \"{:#018x}\", \"fault_samples\": {}, \"beyond_p99\": {}, \"accesses\": {}, \"failed_accesses\": {}, \"failed_ops_ratio\": {}, \"raw_accesses_per_s\": {:.0}, \"run_s\": {:.3}}}}}",
        w.name(),
        args.seed,
        inputs.describe(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        first.trace_on,
        first.metrics_on,
        backend == "native",
        args.trace,
        plain.len(),
        traced.len(),
        first.fingerprint.0,
        first.fault_samples,
        first.beyond_p99,
        first.accesses,
        first.errors,
        first.errors as f64 / first.accesses as f64,
        median(plain.iter().map(|s| s.raw_rate).collect()),
        run_start.elapsed().as_secs_f64(),
    );
    for f in &failures {
        println!("check failed: {f}");
    }
    let attempted: u64 = all.iter().map(|s| s.ops).sum();
    let failed: u64 = all.iter().map(|s| s.failed_ops).sum();
    println!(
        "{}",
        report::result_line(failures.is_empty(), attempted, failed, &metrics)
    );
    Ok(failures.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn episode(w: Workload, traced: bool) -> (Summary, KernelStats) {
        let inputs = Inputs::generate(w, workloads::DEFAULT_SEED);
        let obs = Observed::with_capacity(inputs.ops());
        let mut ep = if traced {
            run_traced(w, &inputs, obs).expect("traced episode").0
        } else {
            run_episode(w, &inputs, &mut Off, None, obs).expect("episode")
        };
        (Summary::of(&mut ep), ep.stats)
    }

    fn assert_on_purpose(w: Workload) {
        let (plain, stats) = episode(w, false);
        let violations = report::shape_violations(w, &plain, &stats);
        assert!(violations.is_empty(), "{}: {violations:?}", w.name());
        let (traced, _) = episode(w, true);
        assert!(
            check(w, workloads::DEFAULT_SEED, &[&plain, &traced], &stats).is_empty(),
            "{}: tracing perturbed the run, or the stored fingerprint is stale",
            w.name()
        );
    }

    #[test]
    fn join_faults_on_every_access_and_never_writes() {
        assert_on_purpose(Workload::Join);
    }

    #[test]
    fn kv_zipf_hits_about_nine_in_ten_and_writes_back() {
        assert_on_purpose(Workload::KvZipf);
    }

    #[test]
    fn tenants_storm_throttles_trips_the_breaker_and_fails_a_few() {
        assert_on_purpose(Workload::TenantsStorm);
    }
}
