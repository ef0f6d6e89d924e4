//! Wall-clock benchmark of the AMAC workspace.
//!
//! ```text
//! perfbench --workload <join-large|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny] [--spans <path>]
//! ```
//!
//! `--trace 0` sets up the named workload several times (reporting the
//! median set-up time), runs it for `--seconds` with spans off, checks
//! every output and prints the end-to-end metrics; tail latencies are
//! printed as `# reported` lines, outside the result object. `--trace 1` is the
//! layer profile: the per-layer ladder plus traced segments of both
//! workloads and of sim-far (join-large's probe through the simulation
//! plumbing, which is profiled but not gated), spans recorded around each public call and written to
//! `--spans` (default `.bench_out/spans-<workload>-<seed>.tsv`). It prints
//! the per-layer metrics. Either way the last line of standard output is
//! the result object, and the exit code is non-zero on any mismatch.
//! `--tiny` shrinks every input for tests.

mod hand;
mod join_large;
mod ladder;
mod report;
mod serve_mixed;
mod sim_far;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

use report::Report;
use spans::{Spans, NO_PARENT};
use stats::{fastest_mean, median, peak_rss_mib};

/// The workloads, as named on the command line.
const WORKLOADS: [&str; 2] = ["join-large", "serve-mixed"];
/// Set-ups per untraced run: at least 3, and more while they take less
/// than a second in all; `setup_s` is their median.
const SETUPS: usize = 3;
const SETUP_MAX: usize = 50;
/// `tuples_per_s` is taken over the fastest 1% of calls (serving steps),
/// and at least 10 of them.
const PEAK_SHARE: f64 = 0.01;
const PEAK_AT_LEAST: usize = 10;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut tiny, mut spans) = (false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload = Some(
                    *WORKLOADS.iter().find(|n| **n == w).ok_or(format!("unknown workload {w}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace {t}: expected 0 or 1")),
                })
            }
            "--tiny" => tiny = true,
            "--spans" => spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        spans,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny] [--spans <path>]",
            WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    println!(
        "# workload={} seed={} seconds={} trace={} tiny={} threads_available={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.tiny,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut rep = Report::default();
    if args.trace {
        traced(&args, &mut rep);
    } else {
        untraced(&args, &mut rep);
    }
    assert!(rep.attempted > 0, "the run attempted no operation");
    println!("{}", rep.json());
    if !rep.correct() {
        std::process::exit(1);
    }
}

/// Set up repeatedly (dropping each before the next), returning the last
/// and the time each took.
fn set_up<T>(mut make: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUPS || (times.iter().sum::<f64>() < 1.0 && times.len() < SETUP_MAX) {
        drop(last.take());
        let t = Instant::now();
        last = Some(make());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// End-to-end run of one workload, spans off.
fn untraced(args: &Args, rep: &mut Report) {
    let mut sp = Spans::new(false);
    let setup_s = match args.workload {
        "join-large" => {
            let (jl, times) = set_up(|| join_large::setup(args.seed, args.tiny, &mut sp));
            let calls = join_large::run(&jl, args.seconds, &mut sp, false, rep);
            (rep.attempted, rep.failed) = (calls.lookups, calls.failed);
            closed_loop(&calls.secs, jl.calls[0].len(), rep);
            times
        }
        "serve-mixed" => {
            let (mut sm, times) = set_up(|| serve_mixed::setup(args.seed, args.tiny, &mut sp));
            let mut w = sm.window(serve_mixed::OFFERED_QPS, args.seconds, &mut sp, rep);
            (rep.attempted, rep.failed) = (w.attempted, w.failed);
            serve_mixed::end_to_end(&mut w, PEAK_SHARE, PEAK_AT_LEAST, rep);
            times
        }
        other => unreachable!("unknown workload {other}"),
    };
    println!("# reported failed_share = {} ratio", rep.failed as f64 / rep.attempted as f64);
    println!("# setup_s: {} set-ups", setup_s.len());
    rep.metric("setup_s", median(&setup_s), "s");
    rep.metric("peak_rss_mb", peak_rss_mib(), "MiB");
}

/// End-to-end metrics of join-large's closed loop of equal-sized calls.
/// Each call is one read request, due when it is issued.
/// Latencies are reported, not gated.
fn closed_loop(secs: &[f64], call_tuples: usize, rep: &mut Report) {
    let (best, k) = fastest_mean(secs, PEAK_SHARE, PEAK_AT_LEAST);
    println!("# tuples_per_s: over the fastest {k} of {} calls", secs.len());
    rep.metric("tuples_per_s", call_tuples as f64 / best, "tuples/s");
    println!("# reported median_tuples_per_s = {} tuples/s", call_tuples as f64 / median(secs));
    rep.reported("read_p50_us", &mut secs.to_vec(), 0.50, 1e6, "us");
    rep.reported("call_p99_ms", &mut secs.to_vec(), 0.99, 1e3, "ms");
    rep.reported("read_p99_us", &mut secs.to_vec(), 0.99, 1e6, "us");
}

/// The layer profile: ladder plus traced segments of join-large, sim-far
/// and serve-mixed, each a share of `--seconds`.
fn traced(args: &Args, rep: &mut Report) {
    let (seed, tiny, budget) = (args.seed, args.tiny, args.seconds);
    let mut sp = Spans::new(true);
    let root = sp.begin("run");

    let open = sp.begin("join-large");
    let setup = sp.begin("setup");
    let jl = join_large::setup(seed, tiny, &mut sp);
    sp.end(setup);
    let (r_len, _, _) = join_large::sizes(tiny);
    rep.metric("amac_workload.gen_s", jl.gen_s, "s");
    rep.metric("amac_hashtable.build_ns_per_tuple", jl.build_s * 1e9 / r_len as f64, "ns/tuple");
    ladder::run(&jl, tiny, budget * 0.4, &mut sp, rep);
    let calls = join_large::run(&jl, budget * 0.15, &mut sp, true, rep);
    join_large::per_layer(&calls, rep);
    (rep.attempted, rep.failed) = (calls.lookups, calls.failed);
    drop(jl);
    sp.end(open);

    let open = sp.begin("sim-far");
    let setup = sp.begin("setup");
    let sf = sim_far::setup(seed, tiny, &mut sp);
    sp.end(setup);
    let calls = sim_far::run(&sf, budget * 0.15, &mut sp, rep);
    sim_far::per_layer(&calls, rep);
    rep.attempted += calls.lookups;
    rep.failed += calls.failed;
    drop(sf);
    sp.end(open);

    let open = sp.begin("serve-mixed");
    let setup = sp.begin("setup");
    let mut sm = serve_mixed::setup(seed, tiny, &mut sp);
    sp.end(setup);
    let mut w = sm.window(serve_mixed::OFFERED_QPS, budget * 0.15, &mut sp, rep);
    rep.attempted += w.attempted;
    rep.failed += w.failed;
    // The capacity search runs with spans off so the serving spans
    // describe the fixed-rate window alone.
    sp.set_on(false);
    let max_qps = sm.max_qps(budget * 0.15 / 8.0, &mut sp, rep);
    sp.set_on(true);
    serve_mixed::per_layer(&mut w, &sp, max_qps, rep);
    sp.end(open);
    sp.end(root);

    let wall = sp.list()[0];
    assert_eq!(wall.parent, NO_PARENT);
    println!("# wall_ns = {}", wall.dur_ns());
    for (name, ns) in sp.self_by_name() {
        println!("# self {name} = {:.6} s", ns as f64 / 1e9);
    }
    let path = args.spans.clone().unwrap_or_else(|| {
        PathBuf::from(format!(".bench_out/spans-{}-{}.tsv", args.workload, args.seed))
    });
    sp.write(&path).unwrap_or_else(|e| panic!("write spans to {}: {e}", path.display()));
    println!("# spans: {} written to {}", sp.list().len(), path.display());
}
