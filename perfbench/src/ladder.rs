//! The per-layer ladder: one slice of join-large's S fed through
//! successively wrapped entry points at one thread, every rung once per
//! round, rounds repeated. Ratios are taken within a round (paired
//! trials), then the median over rounds is reported.
//!
//! | rung | entry point |
//! |---|---|
//! | L0 | hand-written baseline and Listing-1 AMAC loops |
//! | L1 | `ops::join::probe` with each `Technique` |
//! | L2 | + `coalesce: Some(8)` |
//! | L3 | + `tier: headers_near(8)` |
//! | L4 | + `trace` |
//! | L5 | `probe_mt_rt` at 1 thread |
//! | L6 | `ServeSession` with the slice as one query |
//! | L7 | `ShardedServe` over one shard, same query |
//! | L8 | `ops::mutate` upserts of the slice keys, WAL on and off |

use std::time::Instant;

use amac::engine::EngineStats;
use amac_ops::join::{probe, ProbeConfig};
use amac_ops::mutate::{mutate, MutateConfig};
use amac_ops::parallel::probe_mt_rt;
use amac_ops::{Technique, TuningParams};
use amac_runtime::MorselConfig;
use amac_server::{QueryOutcome, Request, ServeConfig, ServeSession, ShardedServe, SubmitOpts};
use amac_tier::TierSpec;
use amac_workload::{Relation, Tuple};

use crate::hand;
use crate::join_large::JoinLarge;
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, ratio};

/// Tuples fed through every rung.
pub fn slice_len(tiny: bool) -> usize {
    if tiny {
        1 << 12
    } else {
        1 << 20
    }
}

/// Rung names, in the order they run inside a round.
const RUNGS: [&str; 14] = [
    "L0.baseline",
    "L0.amac",
    "L1.baseline",
    "L1.gp",
    "L1.spp",
    "L1.amac",
    "L2.coalesce",
    "L3.tier",
    "L4.trace",
    "L5.runtime",
    "L6.serve",
    "L7.shard",
    "L8.wal_on",
    "L8.wal_off",
];

/// Run rounds for `seconds` (at least three) and report the ladder's
/// per-layer metrics. Every probe rung's result is checked against the
/// references of join-large.
pub fn run(jl: &JoinLarge, tiny: bool, seconds: f64, sp: &mut Spans, rep: &mut Report) {
    let n = slice_len(tiny);
    let tuples: Vec<Tuple> =
        jl.calls.iter().flat_map(|c| c.tuples.iter().copied()).take(n).collect();
    let slice = Relation::from_tuples(tuples);
    let calls_in_slice = n / jl.calls[0].len();
    let want = jl.refs[..calls_in_slice]
        .iter()
        .fold((0u64, 0u64), |(m, c), r| (m + r.0, c.wrapping_add(r.1)));
    // Upserts that add 1 to every slice key, then take it away again
    // (wrapping), so the table is unchanged after each round.
    let plus: Vec<Tuple> = slice.tuples.iter().map(|t| Tuple::new(t.key, 1)).collect();
    let minus: Vec<Tuple> = slice.tuples.iter().map(|t| Tuple::new(t.key, u64::MAX)).collect();
    let (plus, minus) = (Relation::from_tuples(plus), Relation::from_tuples(minus));

    let ht = jl.table();
    let base = ProbeConfig { materialize: false, ..Default::default() };
    let with =
        |tech: Technique| ProbeConfig { params: TuningParams::paper_best(tech), ..base.clone() };
    let l2 = ProbeConfig { coalesce: Some(8), ..base.clone() };
    let l3 = ProbeConfig { tier: Some(TierSpec::headers_near(8)), ..l2.clone() };
    let l4 = ProbeConfig { trace: true, ..l3.clone() };
    let rt = MorselConfig::with_threads(1);
    let wal_on = MutateConfig::default();
    let wal_off = MutateConfig { wal: false, ..Default::default() };

    let mut times: Vec<Vec<f64>> = vec![Vec::new(); RUNGS.len()];
    // Engine counters of the L1 AMAC probe: the same in every round.
    let mut counts = EngineStats::default();
    let ladder = sp.begin("ladder");
    let start = Instant::now();
    let mut round = 0usize;
    while round < 3 || start.elapsed().as_secs_f64() < seconds {
        let open = sp.begin("ladder.round");
        for (r, name) in RUNGS.iter().enumerate() {
            let t = Instant::now();
            let rung = sp.begin(name);
            let got = match *name {
                "L0.baseline" => hand::baseline(ht, &slice.tuples),
                "L0.amac" => hand::amac(ht, &slice.tuples, 10),
                "L1.baseline" => {
                    probe_pair(ht, &slice, Technique::Baseline, &with(Technique::Baseline))
                }
                "L1.gp" => probe_pair(ht, &slice, Technique::Gp, &with(Technique::Gp)),
                "L1.spp" => probe_pair(ht, &slice, Technique::Spp, &with(Technique::Spp)),
                "L1.amac" => {
                    let o = probe(ht, &slice, Technique::Amac, &with(Technique::Amac));
                    counts = o.stats;
                    (o.matches, o.checksum)
                }
                "L2.coalesce" => probe_pair(ht, &slice, Technique::Amac, &l2),
                "L3.tier" => probe_pair(ht, &slice, Technique::Amac, &l3),
                "L4.trace" => probe_pair(ht, &slice, Technique::Amac, &l4),
                "L5.runtime" => {
                    let o = probe_mt_rt(ht, &slice, Technique::Amac, &base, &rt);
                    (o.matches, o.checksum)
                }
                "L6.serve" => {
                    let mut srv = ServeSession::new(ht, ServeConfig::default());
                    let q = Request::Probe { probes: &slice, cfg: base.clone() };
                    srv.submit(q).expect("an empty session admits one query");
                    one_report(srv.finish().reports.first(), rep)
                }
                "L7.shard" => {
                    let mut srv = ShardedServe::new(&jl.st, ServeConfig::default());
                    let q = Request::Probe { probes: &slice, cfg: base.clone() };
                    srv.submit(q, SubmitOpts::default())
                        .expect("an empty session admits one query");
                    let out = srv.finish();
                    let got = one_report(out.reports().next(), rep);
                    got
                }
                "L8.wal_on" | "L8.wal_off" => {
                    let (input, cfg) =
                        if *name == "L8.wal_on" { (&plus, &wal_on) } else { (&minus, &wal_off) };
                    let o = mutate(ht, input, Technique::Amac, cfg);
                    let logged = if cfg.wal { n } else { 0 };
                    rep.check(o.applied == n as u64 && o.wal.len() == logged, || {
                        format!("ladder {name}: applied {}, logged {}", o.applied, o.wal.len())
                    });
                    want
                }
                _ => unreachable!("unknown rung {name}"),
            };
            sp.end(rung);
            times[r].push(t.elapsed().as_secs_f64() * 1e9 / n as f64);
            rep.check(got == want, || {
                format!("ladder {name} round {round}: got {got:?}, want {want:?}")
            });
        }
        sp.end(open);
        round += 1;
    }
    sp.end(ladder);

    let at = |name: &str| &times[RUNGS.iter().position(|r| *r == name).expect("rung")];
    let per_round = |a: &str, b: &str| -> f64 {
        median(&at(a).iter().zip(at(b)).map(|(x, y)| x / y).collect::<Vec<_>>())
    };
    println!("# ladder: {round} rounds of {n} tuples");
    rep.metric("ref.baseline_ns_per_tuple", median(at("L0.baseline")), "ns/tuple");
    rep.metric("ref.amac_ns_per_tuple", median(at("L0.amac")), "ns/tuple");
    rep.metric("ref.speedup_vs_baseline", per_round("L0.baseline", "L0.amac"), "ratio");
    rep.metric("amac.baseline_ns_per_tuple", median(at("L1.baseline")), "ns/tuple");
    rep.metric("amac.gp_ns_per_tuple", median(at("L1.gp")), "ns/tuple");
    rep.metric("amac.spp_ns_per_tuple", median(at("L1.spp")), "ns/tuple");
    rep.metric("amac.amac_ns_per_tuple", median(at("L1.amac")), "ns/tuple");
    rep.metric("amac.amac_vs_ref", per_round("L1.amac", "L0.amac"), "ratio");
    rep.metric("amac.baseline_vs_ref", per_round("L1.baseline", "L0.baseline"), "ratio");
    rep.metric("amac.speedup_vs_baseline", per_round("L1.baseline", "L1.amac"), "ratio");
    rep.metric("amac.amu.coalesce_ratio", per_round("L2.coalesce", "L1.amac"), "ratio");
    rep.metric("amac_tier.tier_ratio", per_round("L3.tier", "L2.coalesce"), "ratio");
    rep.metric("amac_trace.trace_ratio", per_round("L4.trace", "L3.tier"), "ratio");
    rep.metric("amac_runtime.rt_ratio", per_round("L5.runtime", "L1.amac"), "ratio");
    rep.metric("amac_server.serve_ratio", per_round("L6.serve", "L5.runtime"), "ratio");
    rep.metric("amac_shard.shard_ratio", per_round("L7.shard", "L6.serve"), "ratio");
    rep.metric("amac_ops.mutate.wal_ratio", per_round("L8.wal_on", "L8.wal_off"), "ratio");
    let nodes = counts.nodes_visited as f64;
    rep.metric(
        "amac_ops.probe.nodes_per_lookup",
        ratio(nodes, counts.lookups as f64),
        "nodes/lookup",
    );
    rep.metric("amac_ops.probe.tag_reject_share", ratio(counts.tag_rejects as f64, nodes), "ratio");
}

fn probe_pair(
    ht: &amac_hashtable::HashTable,
    s: &Relation,
    tech: Technique,
    cfg: &ProbeConfig,
) -> (u64, u64) {
    let o = probe(ht, s, tech, cfg);
    (o.matches, o.checksum)
}

/// `(matches, checksum)` of the single query a serving rung ran.
fn one_report(r: Option<&amac_server::QueryReport>, rep: &mut Report) -> (u64, u64) {
    let r = r.expect("the query reported");
    rep.check(r.outcome == QueryOutcome::Completed, || {
        format!("ladder query ended {:?}", r.outcome)
    });
    (r.matches, r.checksum)
}
