//! `sim-far`: the same probe op as join-large, run through the simulation
//! plumbing. A closed loop of single-threaded `ops::join::probe` calls
//! with Zipf-1 probes, far chain slabs (`TierSpec::headers_near(8)`), AMU
//! coalescing over groups of 8, tracing on, and a seeded fault plan that
//! latency-spikes a few per mille of far loads. It runs as a segment of
//! the layer profile only: its wall time moved too much from run to run
//! on a shared host to be gated.

use std::time::Instant;

use amac::engine::EngineStats;
use amac_hashtable::HashTable;
use amac_ops::join::{probe, ProbeConfig};
use amac_ops::Technique;
use amac_tier::{FaultPlan, TierSpec};
use amac_trace::TierKind;
use amac_workload::Relation;

use crate::join_large::{cut, dense_refs};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::ratio;

/// `(|R| = |S|, tuples per call)`.
pub fn sizes(tiny: bool) -> (usize, usize) {
    if tiny {
        (1 << 14, 1 << 10)
    } else {
        (1 << 22, 1 << 16)
    }
}

/// Generated inputs, the built table and the reference results.
pub struct SimFar {
    /// The table of R.
    pub ht: HashTable,
    /// Zipf-1 S, cut into one relation per call.
    pub calls: Vec<Relation>,
    /// Expected `(matches, checksum)` of each call (untiered, fault-free).
    pub refs: Vec<(u64, u64)>,
    /// The probe configuration every call uses.
    pub cfg: ProbeConfig,
}

/// Generate R and S from `seed`, build the table, compute references.
pub fn setup(seed: u64, tiny: bool, sp: &mut Spans) -> SimFar {
    let (n, call) = sizes(tiny);
    let (r, calls) = sp.time("gen", || {
        let r = Relation::dense_unique(n, seed);
        let s = Relation::zipf(n, n as u64, 1.0, seed ^ 0x5EED_0002);
        (r, cut(s, call))
    });
    let ht = sp.time("build", || HashTable::build_serial(&r));
    let refs = sp.time("reference", || dense_refs(&r, &calls));
    let plan = FaultPlan {
        seed: seed ^ 0xFA17,
        fail_per_mille: 0,
        spike_per_mille: 5,
        spike_multiplier: 4,
        degraded_slab: None,
    };
    let cfg = ProbeConfig {
        materialize: false,
        tier: Some(TierSpec::headers_near(8)),
        coalesce: Some(8),
        trace: true,
        fault: Some(plan),
        ..Default::default()
    };
    SimFar { ht, calls, refs, cfg }
}

/// What the timed calls produced.
#[derive(Debug, Default)]
pub struct Calls {
    /// Wall time of each call.
    pub secs: Vec<f64>,
    /// Engine counters of the first pass over S, which do not depend on
    /// timing.
    pub first_pass: EngineStats,
    /// Trace events recorded over the first pass.
    pub events: u64,
    /// Attributed stall ticks on far-tier loads over the first pass.
    pub far_stalls: u64,
    /// Lookups over all calls.
    pub lookups: u64,
    /// Failed lookups over all calls.
    pub failed: u64,
}

/// Run calls for `seconds` (at least one pass over S), checking every
/// call's result and trace conservation outside the timed interval.
pub fn run(sf: &SimFar, seconds: f64, sp: &mut Spans, rep: &mut Report) -> Calls {
    let mut out = Calls::default();
    let start = Instant::now();
    let mut i = 0usize;
    while i < sf.calls.len() || start.elapsed().as_secs_f64() < seconds {
        let k = i % sf.calls.len();
        let open = sp.begin("probe");
        let t = Instant::now();
        let res = probe(&sf.ht, &sf.calls[k], Technique::Amac, &sf.cfg);
        let dt = t.elapsed().as_secs_f64();
        sp.end(open);
        out.secs.push(dt);
        out.lookups += res.stats.lookups;
        out.failed += res.stats.failed_lookups;
        if i < sf.calls.len() {
            out.first_pass.merge(&res.stats);
            out.events += res.trace.len() as u64;
            out.far_stalls += res
                .trace
                .stall_rows()
                .iter()
                .filter(|(key, _)| key.tier == TierKind::Far)
                .map(|(_, v)| *v)
                .sum::<u64>();
        }
        let want = sf.refs[k];
        rep.check((res.matches, res.checksum) == want, || {
            format!(
                "sim-far call {i} (slice {k}): got {:?}, want {want:?}",
                (res.matches, res.checksum)
            )
        });
        rep.check(res.trace.conserves(res.stats.sim_stalls, res.stats.lookups), || {
            format!("sim-far call {i}: trace does not conserve stalls and retirements")
        });
        i += 1;
    }
    out
}

/// Per-layer metrics of a traced run: the deterministic counters of the
/// first pass.
pub fn per_layer(calls: &Calls, rep: &mut Report) {
    let fp = &calls.first_pass;
    let lookups = fp.lookups as f64;
    rep.metric("sim_cycles_per_tuple", ratio(fp.sim_cycles as f64, lookups), "ticks/tuple");
    rep.metric(
        "amac.amu.issued_per_lookup",
        ratio(fp.issued_loads as f64, lookups),
        "loads/lookup",
    );
    rep.metric(
        "amac.amu.coalesced_share",
        ratio(fp.coalesced_loads as f64, (fp.issued_loads + fp.coalesced_loads) as f64),
        "ratio",
    );
    rep.metric(
        "amac_tier.sim_stalls_per_tuple",
        ratio(fp.sim_stalls as f64, lookups),
        "ticks/tuple",
    );
    rep.metric(
        "amac_tier.far_stall_share",
        ratio(calls.far_stalls as f64, fp.sim_stalls as f64),
        "ratio",
    );
    rep.metric(
        "amac_trace.events_per_lookup",
        ratio(calls.events as f64, lookups),
        "events/lookup",
    );
}
