//! `join-large`: the paper's workload. A closed loop of `probe_mt_rt`
//! calls (AMAC, work stealing, 2 threads) over a uniform-FK probe
//! relation S against a dense-unique R whose table is larger than the LLC.
//! Tier, AMU coalescing, tracing, serving, shards and the WAL are off.

use std::time::Instant;

use amac_hashtable::HashTable;
use amac_ops::join::ProbeConfig;
use amac_ops::parallel::{probe_mt_rt, Scheduling};
use amac_ops::Technique;
use amac_runtime::MorselConfig;
use amac_shard::{ShardRouter, ShardedTable};
use amac_workload::Relation;

use crate::report::Report;
use crate::spans::Spans;
use crate::stats::median;

/// Worker threads of the closed loop.
pub const THREADS: usize = 2;

/// `(|R| = |S|, tuples per call, tuples per morsel)`.
pub fn sizes(tiny: bool) -> (usize, usize, usize) {
    if tiny {
        (1 << 16, 1 << 12, 1 << 9)
    } else {
        (1 << 23, 1 << 16, 1 << 12)
    }
}

/// Generated inputs, the built table and the reference results.
pub struct JoinLarge {
    /// The table of R, as the single shard of a one-shard catalog (the
    /// ladder serves it through `ShardedServe`).
    pub st: ShardedTable,
    /// S, cut into one relation per call.
    pub calls: Vec<Relation>,
    /// Expected `(matches, checksum)` of each call.
    pub refs: Vec<(u64, u64)>,
    /// Tuples per morsel.
    pub morsel: usize,
    /// Seconds spent generating R and S.
    pub gen_s: f64,
    /// Seconds spent building the table.
    pub build_s: f64,
}

impl JoinLarge {
    /// The table every call probes.
    pub fn table(&self) -> &HashTable {
        self.st.shard(0)
    }
}

/// Expected `(matches, checksum)` per call, computed from R alone
/// (dense keys `1..=|R|`), independent of any table.
pub fn dense_refs(r: &Relation, calls: &[Relation]) -> Vec<(u64, u64)> {
    let mut payload = vec![0u64; r.len() + 1];
    let mut present = vec![false; r.len() + 1];
    for t in &r.tuples {
        payload[t.key as usize] = t.payload;
        present[t.key as usize] = true;
    }
    calls
        .iter()
        .map(|c| {
            c.tuples.iter().fold((0u64, 0u64), |(m, sum), t| match present.get(t.key as usize) {
                Some(true) => (m + 1, sum.wrapping_add(payload[t.key as usize])),
                _ => (m, sum),
            })
        })
        .collect()
}

/// Cut `s` into relations of `call` tuples.
pub fn cut(s: Relation, call: usize) -> Vec<Relation> {
    s.tuples.chunks(call).map(|c| Relation::from_tuples(c.to_vec())).collect()
}

/// Generate R and S from `seed`, build the table, compute references.
pub fn setup(seed: u64, tiny: bool, sp: &mut Spans) -> JoinLarge {
    let (n, call, morsel) = sizes(tiny);
    let t = Instant::now();
    let (r, calls) = sp.time("gen", || {
        let r = Relation::dense_unique(n, seed);
        let s = Relation::fk_uniform(&r, n, seed ^ 0x5EED_0001);
        (r, cut(s, call))
    });
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let ht = sp.time("build", || HashTable::build_serial(&r));
    let build_s = t.elapsed().as_secs_f64();
    let refs = sp.time("reference", || dense_refs(&r, &calls));
    let st = ShardedTable::from_parts(ShardRouter::new(4, 1), vec![ht]);
    JoinLarge { st, calls, refs, morsel, gen_s, build_s }
}

/// What the timed calls produced.
#[derive(Debug, Default)]
pub struct Calls {
    /// Wall time of each call.
    pub secs: Vec<f64>,
    /// Whether spans were recording during each call.
    pub traced: Vec<bool>,
    /// Call wall time minus the slowest worker's busy time (µs).
    pub overhead_us: Vec<f64>,
    /// Straggler factor of each call.
    pub imbalance: Vec<f64>,
    /// Stolen morsels per call.
    pub steals: Vec<f64>,
    /// Lookups over all calls.
    pub lookups: u64,
    /// Failed lookups over all calls.
    pub failed: u64,
}

/// Run calls for `seconds` (at least one pass over S). With `alternate`,
/// spans record every other call so traced and untraced calls interleave.
pub fn run(
    jl: &JoinLarge,
    seconds: f64,
    sp: &mut Spans,
    alternate: bool,
    rep: &mut Report,
) -> Calls {
    let cfg = ProbeConfig { materialize: false, ..Default::default() };
    let rt = MorselConfig {
        threads: THREADS,
        morsel_tuples: jl.morsel,
        scheduling: Scheduling::WorkSteal,
        auto_tune: false,
    };
    let spans_on = sp.on();
    let mut out = Calls::default();
    let start = Instant::now();
    let mut i = 0usize;
    while i < jl.calls.len() || start.elapsed().as_secs_f64() < seconds {
        let k = i % jl.calls.len();
        let traced = spans_on && (!alternate || i & 1 == 0);
        sp.set_on(traced);
        let open = sp.begin("probe_mt_rt");
        let t = Instant::now();
        let res = probe_mt_rt(jl.table(), &jl.calls[k], Technique::Amac, &cfg, &rt);
        let dt = t.elapsed().as_secs_f64();
        sp.end(open);
        sp.set_on(spans_on);
        let busy = res.report.per_thread.iter().map(|w| w.busy_seconds).fold(0.0, f64::max);
        out.secs.push(dt);
        out.traced.push(traced);
        out.overhead_us.push((dt - busy) * 1e6);
        out.imbalance.push(res.report.imbalance());
        out.steals.push(res.report.steals() as f64);
        out.lookups += res.stats.lookups;
        out.failed += res.stats.failed_lookups;
        let want = jl.refs[k];
        rep.check((res.matches, res.checksum) == want, || {
            format!(
                "join-large call {i} (slice {k}): got {:?}, want {want:?}",
                (res.matches, res.checksum)
            )
        });
        rep.check(res.stats.lookups == jl.calls[k].len() as u64, || {
            format!("join-large call {i}: {} lookups retired", res.stats.lookups)
        });
        i += 1;
    }
    out
}

/// Per-layer metrics of a traced run.
pub fn per_layer(calls: &Calls, rep: &mut Report) {
    rep.metric("amac_runtime.call_overhead_us", median(&calls.overhead_us), "us");
    rep.metric("amac_runtime.imbalance", median(&calls.imbalance), "ratio");
    let steals = calls.steals.iter().sum::<f64>() / calls.steals.len() as f64;
    rep.metric("amac_runtime.steals_per_call", steals, "morsels");
    let pick = |traced: bool| -> Vec<f64> {
        calls
            .secs
            .iter()
            .zip(&calls.traced)
            .filter(|(_, t)| **t == traced)
            .map(|(s, _)| *s)
            .collect()
    };
    rep.metric("bench.trace_overhead", median(&pick(true)) / median(&pick(false)), "ratio");
}
