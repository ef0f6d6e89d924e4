//! `serve-mixed`: an open loop against `ShardedServe` over two shards of a
//! cache-resident catalog, generator and server on one thread. Poisson
//! arrivals at a fixed offered rate; about 80% probe queries, 10% fused
//! probe→filter→group-by pipelines and 10% upserts with the WAL on. After
//! every pump the benchmark is the durability client: it drains each
//! shard's WAL records, encodes them, appends them to that shard's `Wal`
//! and seals.
//!
//! Latency is timed from each query's due time: a read completes when the
//! pump that finished it returns, a write when the seal covering its
//! records returns.

use std::time::Instant;

use amac_hashtable::agg::AggValues;
use amac_hashtable::{AggTable, HashTable};
use amac_ops::join::ProbeConfig;
use amac_ops::mutate::{replay, MutateConfig};
use amac_ops::pipeline::PipelineConfig;
use amac_server::{QueryOutcome, Request, ServeConfig, ShardedServe, SubmitOpts};
use amac_shard::{ShardRouter, ShardedTable};
use amac_tier::{Wal, WalRecord};
use amac_workload::{FilterSpec, Relation, Tuple, ZipfSampler};

use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{fastest_mean, quantile, ratio, Rng};

/// Offered rate of the fixed-rate run, queries per second.
pub const OFFERED_QPS: f64 = 5000.0;
/// Latency limit on read and write p99 for the capacity search, in µs.
pub const LIMIT_US: f64 = 1000.0;
/// Shards (= serving sessions).
pub const SHARDS: usize = 2;
const TENANTS: u32 = 16;
const GROUPS: u64 = 256;
const PROBE_KEYS: usize = 512;
const PIPE_KEYS: usize = 512;
const UPSERT_KEYS: usize = 64;
const PROBES_PER_TENANT: usize = 16;
const PIPES_PER_TENANT: usize = 16;
const UPSERTS_PER_TENANT: usize = 8;
/// Admission queue per shard, deep enough that no arrival is refused: a
/// host stall shows up as latency, not as failed queries.
const MAX_PENDING: usize = 1 << 20;

/// Catalog tuples.
pub fn catalog_len(tiny: bool) -> usize {
    if tiny {
        1 << 12
    } else {
        1 << 16
    }
}

/// Generated catalog, query pools and their references.
pub struct ServeMixed {
    /// The two-shard catalog.
    pub st: ShardedTable,
    /// Expected catalog payload of every key (index = key), kept current
    /// with every accepted upsert: the sequential model.
    pub model: Vec<u64>,
    probes: Vec<(u32, Relation)>,
    probe_refs: Vec<(u64, u64)>,
    pipes: Vec<(u32, Relation)>,
    pipe_refs: Vec<Vec<(u64, AggValues)>>,
    upserts: Vec<(u32, Relation)>,
    filter: FilterSpec,
    seed: u64,
    windows: u64,
}

/// Generate the catalog and query pools from `seed`.
pub fn setup(seed: u64, tiny: bool, sp: &mut Spans) -> ServeMixed {
    let n = catalog_len(tiny);
    let catalog = sp.time("gen", || Relation::fk_dimension(n, GROUPS, seed));
    let st = sp.time("build", || ShardedTable::build(&catalog, ShardRouter::new(6, SHARDS)));
    sp.time("reference", || pools(seed, catalog, st))
}

fn pools(seed: u64, catalog: Relation, st: ShardedTable) -> ServeMixed {
    let n = catalog.len();
    let mut model = vec![0u64; n + 1];
    for t in &catalog.tuples {
        model[t.key as usize] = t.payload;
    }
    // Every eighth key is written, the rest are read: reads never see a
    // write, so read references hold for the whole run.
    let router = st.router();
    let keys_of = |shard: usize, written: bool| -> Vec<u64> {
        (1..=n as u64)
            .filter(|k| (k % 8 == 0) == written && router.shard_of_key(*k) == shard)
            .collect()
    };
    let reads: Vec<Vec<u64>> = (0..SHARDS).map(|s| keys_of(s, false)).collect();
    let writes: Vec<Vec<u64>> = (0..SHARDS).map(|s| keys_of(s, true)).collect();
    let mut rng = Rng::new(seed, 1);
    // Tenants below TENANTS/2 draw their home shard's read keys uniformly,
    // the rest Zipf-1 over a tenant-private ordering of them.
    let mut samplers: Vec<(Vec<u64>, Option<ZipfSampler>)> = (0..TENANTS)
        .map(|t| {
            let mut keys = reads[router.shard_of_tenant(t)].clone();
            assert!(!keys.is_empty(), "shard without read keys");
            for i in (1..keys.len()).rev() {
                keys.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let zipf = (t >= TENANTS / 2)
                .then(|| ZipfSampler::new(keys.len() as u64, 1.0, seed ^ (u64::from(t) << 8)));
            (keys, zipf)
        })
        .collect();
    let mut draw = |t: u32, rng: &mut Rng| -> u64 {
        let (keys, zipf) = &mut samplers[t as usize];
        match zipf {
            Some(z) => keys[z.sample() as usize - 1],
            None => keys[rng.below(keys.len() as u64) as usize],
        }
    };

    let mut probes = Vec::new();
    for t in 0..TENANTS {
        for _ in 0..PROBES_PER_TENANT {
            let q = (0..PROBE_KEYS).map(|i| Tuple::new(draw(t, &mut rng), i as u64)).collect();
            probes.push((t, Relation::from_tuples(q)));
        }
    }
    let probe_refs = probes
        .iter()
        .map(|(_, q)| {
            let sum = q.tuples.iter().fold(0u64, |s, t| s.wrapping_add(model[t.key as usize]));
            (q.len() as u64, sum)
        })
        .collect();

    let filter = FilterSpec::selectivity(0.5);
    let mut pipes = Vec::new();
    for t in 0..TENANTS {
        for _ in 0..PIPES_PER_TENANT {
            let f = (0..PIPE_KEYS)
                .map(|_| Tuple::new(draw(t, &mut rng), rng.next_u64() >> 32))
                .collect();
            pipes.push((t, Relation::from_tuples(f)));
        }
    }
    let pipe_refs = pipes
        .iter()
        .map(|(_, f)| {
            let mut groups = std::collections::BTreeMap::<u64, AggValues>::new();
            for t in f.tuples.iter().filter(|t| filter.passes(t.payload)) {
                groups
                    .entry(model[t.key as usize])
                    .and_modify(|a| a.update(t.payload))
                    .or_insert_with(|| AggValues::first(t.payload));
            }
            groups.into_iter().collect()
        })
        .collect();

    let mut upserts = Vec::new();
    for t in 0..TENANTS {
        let keys = &writes[router.shard_of_tenant(t)];
        for _ in 0..UPSERTS_PER_TENANT {
            let u = (0..UPSERT_KEYS)
                .map(|_| {
                    Tuple::new(keys[rng.below(keys.len() as u64) as usize], 1 + rng.below(1000))
                })
                .collect();
            upserts.push((t, Relation::from_tuples(u)));
        }
    }
    ServeMixed {
        st,
        model,
        probes,
        probe_refs,
        pipes,
        pipe_refs,
        upserts,
        filter,
        seed,
        windows: 0,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Probe,
    Pipeline,
    Upsert,
}

/// One accepted query: when it was due, what it was, which pool entry.
#[derive(Debug, Clone, Copy)]
struct Sent {
    due: f64,
    kind: Kind,
    idx: usize,
}

/// What one open-loop window measured.
#[derive(Debug, Default)]
pub struct Window {
    /// Read latencies (probes and pipelines) from due time, seconds.
    pub read: Vec<f64>,
    /// Pipeline latencies from due time, seconds.
    pub pipe: Vec<f64>,
    /// Upsert latencies from due time to the covering seal, seconds.
    pub write: Vec<f64>,
    /// Wall time of each `pump` call, seconds.
    pub pumps: Vec<f64>,
    /// Seconds per tuple fed of each serving step (one pump plus its
    /// durability work) that fed any tuple.
    pub steps: Vec<f64>,
    /// Tuples fed over all serving steps.
    pub fed: u64,
    /// Seconds spent in serving steps.
    pub step_s: f64,
    /// Per shard: total time in that shard's session pumps (traced only).
    pub shard_pump_s: [f64; SHARDS],
    /// Generator lateness (submit time minus due time), seconds.
    pub late: Vec<f64>,
    /// Queries alive (accepted, not completed) before each pump.
    pub depth: Vec<f64>,
    /// Non-empty seals (one per shard with drained records per pump).
    pub seals: u64,
    /// WAL records sealed.
    pub records: u64,
    /// Encoded bytes of the sealed records.
    pub bytes: u64,
    /// Lookups the sessions retired.
    pub lookups: u64,
    /// Mean shared-window occupancy over the shard sessions.
    pub occupancy: f64,
    /// Queries submitted (accepted or refused).
    pub attempted: u64,
    /// Queries refused or not completed.
    pub failed: u64,
    /// Wall time of the window, from start until the last query settled.
    pub wall_s: f64,
    /// Time from the end of arrivals until the last query settled.
    pub drain_s: f64,
}

impl ServeMixed {
    /// Run one open-loop window of `seconds` at `rate` queries/s. With
    /// spans on, each shard session's pump is recorded separately (what
    /// `ShardedServe::pump` does, one shard after the other).
    pub fn window(&mut self, rate: f64, seconds: f64, sp: &mut Spans, rep: &mut Report) -> Window {
        self.windows += 1;
        let mut rng = Rng::new(self.seed, 1000 + self.windows);
        let snaps: Vec<_> = self.st.shards().iter().map(HashTable::snapshot).collect();
        // One output table per tenant, shared by all of its pipeline
        // queries (the group-by latches its buckets, so queries in flight
        // together merge safely).
        let tables: Vec<AggTable> =
            (0..TENANTS).map(|_| AggTable::for_groups(GROUPS as usize)).collect();
        let mut uses = vec![0u64; self.pipes.len()];
        let mut wals: Vec<Wal> = (0..SHARDS).map(|_| Wal::new()).collect();
        let mut logs: Vec<Vec<u8>> = vec![Vec::new(); SHARDS];
        let mut sent: Vec<Vec<Option<Sent>>> = vec![Vec::new(); SHARDS];
        let mut settled: Vec<Vec<(f64, f64)>> = vec![Vec::new(); SHARDS];
        let mut w = Window::default();

        let pcfg = ProbeConfig { materialize: false, ..Default::default() };
        let fcfg = PipelineConfig { filter: Some(self.filter), ..Default::default() };
        let mcfg = MutateConfig::default();
        let cfg = ServeConfig { max_pending: MAX_PENDING, ..Default::default() };
        let mut srv = ShardedServe::new(&self.st, cfg);
        let mut alive = 0usize;
        let t0 = Instant::now();
        let mut due = rng.exp_gap(rate);
        loop {
            let now = t0.elapsed().as_secs_f64();
            while due <= now && due < seconds {
                let pick = rng.next_f64();
                let (kind, idx) = if pick < 0.8 {
                    (Kind::Probe, rng.below(self.probes.len() as u64) as usize)
                } else if pick < 0.9 {
                    (Kind::Pipeline, rng.below(self.pipes.len() as u64) as usize)
                } else {
                    (Kind::Upsert, rng.below(self.upserts.len() as u64) as usize)
                };
                let (tenant, req) = match kind {
                    Kind::Probe => {
                        let (t, q) = &self.probes[idx];
                        (*t, Request::Probe { probes: q, cfg: pcfg.clone() })
                    }
                    Kind::Pipeline => {
                        let (t, f) = &self.pipes[idx];
                        (
                            *t,
                            Request::Pipeline {
                                fact: f,
                                table: &tables[*t as usize],
                                cfg: fcfg.clone(),
                            },
                        )
                    }
                    Kind::Upsert => {
                        let (t, u) = &self.upserts[idx];
                        (*t, Request::Upsert { input: u, cfg: mcfg.clone() })
                    }
                };
                let opts = SubmitOpts { tenant, ..Default::default() };
                w.late.push(t0.elapsed().as_secs_f64() - due);
                w.attempted += 1;
                match sp.time("submit", || srv.submit(req, opts)) {
                    Ok((s, qid)) => {
                        let slot = qid.0 as usize;
                        if sent[s].len() <= slot {
                            sent[s].resize(slot + 1, None);
                        }
                        sent[s][slot] = Some(Sent { due, kind, idx });
                        alive += 1;
                        match kind {
                            Kind::Pipeline => uses[idx] += 1,
                            Kind::Upsert => {
                                for t in &self.upserts[idx].1.tuples {
                                    let m = &mut self.model[t.key as usize];
                                    *m = m.wrapping_add(t.payload);
                                }
                            }
                            Kind::Probe => {}
                        }
                    }
                    Err(_) => w.failed += 1,
                }
                due += rng.exp_gap(rate);
            }
            if alive == 0 {
                if due >= seconds {
                    break;
                }
                while t0.elapsed().as_secs_f64() < due {
                    std::hint::spin_loop();
                }
                continue;
            }
            w.depth.push(alive as f64);
            let open = sp.begin("pump");
            let t = Instant::now();
            let fed = if sp.on() {
                let mut fed = 0;
                for (s, total) in w.shard_pump_s.iter_mut().enumerate() {
                    let ts = Instant::now();
                    fed += sp.time("shard.pump", || srv.session_mut(s).pump());
                    *total += ts.elapsed().as_secs_f64();
                }
                fed
            } else {
                srv.pump()
            };
            w.pumps.push(t.elapsed().as_secs_f64());
            sp.end(open);
            let pumped = t0.elapsed().as_secs_f64();
            let open = sp.begin("durability");
            let drained = sp.time("drain_wals", || srv.drain_wals());
            for (s, recs) in drained.into_iter().enumerate() {
                if recs.is_empty() {
                    continue;
                }
                let open = sp.begin("wal.seal");
                for r in &recs {
                    let bytes = r.encode();
                    w.bytes += bytes.len() as u64;
                    logs[s].extend_from_slice(&bytes);
                }
                w.records += recs.len() as u64;
                wals[s].extend(recs);
                wals[s].seal();
                sp.end(open);
                w.seals += 1;
            }
            sp.end(open);
            let step = t.elapsed().as_secs_f64();
            if fed > 0 {
                w.steps.push(step / fed as f64);
            }
            w.fed += fed as u64;
            w.step_s += step;
            let sealed = t0.elapsed().as_secs_f64();
            for (s, done) in settled.iter_mut().enumerate() {
                let now_done = srv.session(s).completed_queries();
                alive -= now_done - done.len();
                done.resize(now_done, (pumped, sealed));
            }
        }
        w.wall_s = t0.elapsed().as_secs_f64();
        w.drain_s = (w.wall_s - seconds).max(0.0);
        let out = srv.finish();

        // Everything below is untimed: route each report back to its due
        // time and check it against the references.
        rep.check(out.ledger_violations() == 0, || "serve-mixed ledgers do not sum".into());
        for (s, shard) in out.shards.iter().enumerate() {
            rep.check(shard.reports.len() == settled[s].len(), || {
                format!("shard {s}: {} reports, {} settled", shard.reports.len(), settled[s].len())
            });
            for (r, &(pumped, sealed)) in shard.reports.iter().zip(&settled[s]) {
                let q = sent[s]
                    .get(r.qid.0 as usize)
                    .copied()
                    .flatten()
                    .expect("report of a sent query");
                if r.outcome != QueryOutcome::Completed {
                    w.failed += 1;
                    continue;
                }
                match q.kind {
                    Kind::Probe => {
                        w.read.push(pumped - q.due);
                        let want = self.probe_refs[q.idx];
                        rep.check((r.matches, r.checksum) == want, || {
                            format!(
                                "probe {}: got {:?}, want {want:?}",
                                r.qid,
                                (r.matches, r.checksum)
                            )
                        });
                    }
                    Kind::Pipeline => {
                        w.read.push(pumped - q.due);
                        w.pipe.push(pumped - q.due);
                        let want: u64 = self.pipe_refs[q.idx].iter().map(|(_, a)| a.count).sum();
                        rep.check(r.matches == want, || {
                            format!("pipeline {}: aggregated {}, want {want}", r.qid, r.matches)
                        });
                    }
                    Kind::Upsert => w.write.push(sealed - q.due),
                }
            }
        }
        for (t, table) in tables.iter().enumerate() {
            let mut want = std::collections::BTreeMap::<u64, AggValues>::new();
            for (i, ((owner, _), &k)) in self.pipes.iter().zip(&uses).enumerate() {
                if *owner as usize != t || k == 0 {
                    continue;
                }
                for (g, a) in &self.pipe_refs[i] {
                    let scaled = AggValues {
                        count: a.count * k,
                        sum: a.sum.wrapping_mul(k),
                        sumsq: a.sumsq.wrapping_mul(k),
                        ..*a
                    };
                    want.entry(*g)
                        .and_modify(|w| {
                            w.count += scaled.count;
                            w.sum = w.sum.wrapping_add(scaled.sum);
                            w.sumsq = w.sumsq.wrapping_add(scaled.sumsq);
                            w.min = w.min.min(scaled.min);
                            w.max = w.max.max(scaled.max);
                        })
                        .or_insert(scaled);
                }
            }
            let mut got = table.groups();
            got.sort_by_key(|(g, _)| *g);
            rep.check(got == want.into_iter().collect::<Vec<_>>(), || {
                format!("tenant {t}: pipeline aggregates differ from the sum of its queries' references")
            });
        }
        for s in 0..SHARDS {
            rep.check(WalRecord::decode_all(&logs[s]).as_deref() == Some(wals[s].sealed()), || {
                format!("shard {s}: encoded WAL does not decode to the sealed records")
            });
            let restored = HashTable::restore(&snaps[s]);
            replay(&restored, wals[s].sealed());
            rep.check(restored.contents_sorted() == self.st.shard(s).contents_sorted(), || {
                format!("shard {s}: snapshot + sealed WAL replay differs from the live table")
            });
        }
        let live = self.st.contents_sorted();
        let model: Vec<(u64, u64)> =
            (1..self.model.len() as u64).map(|k| (k, self.model[k as usize])).collect();
        rep.check(live == model, || "catalog differs from the sequential upsert model".into());
        w.lookups = out.stats.lookups;
        w.occupancy = out.shards.iter().map(|s| s.occupancy).sum::<f64>() / SHARDS as f64;
        w
    }

    /// Highest offered rate (searched geometrically, then by bisection)
    /// at which a window of `seconds` keeps read and write p99 within
    /// [`LIMIT_US`], refuses nothing and drains within the limit.
    pub fn max_qps(&mut self, seconds: f64, sp: &mut Spans, rep: &mut Report) -> f64 {
        let mut meets = |rate: f64, sp: &mut Spans, rep: &mut Report| -> bool {
            let mut w = self.window(rate, seconds, sp, rep);
            let p99 = |v: &mut Vec<f64>| if v.is_empty() { 0.0 } else { quantile(v, 0.99).value };
            let ok = w.failed == 0
                && p99(&mut w.read) * 1e6 <= LIMIT_US
                && p99(&mut w.write) * 1e6 <= LIMIT_US
                && w.drain_s * 1e6 <= LIMIT_US;
            println!("# capacity: {rate:.0} q/s {}", if ok { "meets the limit" } else { "misses" });
            ok
        };
        let (mut lo, mut hi) = (0.0, OFFERED_QPS);
        while hi < 64.0 * OFFERED_QPS && meets(hi, sp, rep) {
            lo = hi;
            hi *= 1.5;
        }
        for _ in 0..3 {
            let mid = (lo + hi) / 2.0;
            if meets(mid, sp, rep) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// End-to-end metrics of a fixed-rate window: `tuples_per_s` over the
/// fastest `share` of serving steps (by time per tuple fed); latencies are
/// reported, not gated.
pub fn end_to_end(w: &mut Window, share: f64, at_least: usize, rep: &mut Report) {
    let (best, k) = fastest_mean(&w.steps, share, at_least);
    println!("# tuples_per_s: over the fastest {k} of {} serving steps", w.steps.len());
    rep.metric("tuples_per_s", 1.0 / best, "tuples/s");
    println!("# reported mean_tuples_per_s = {} tuples/s", ratio(w.fed as f64, w.step_s));
    rep.reported("read_p50_us", &mut w.read, 0.50, 1e6, "us");
    rep.reported("call_p99_ms", &mut w.pumps, 0.99, 1e3, "ms");
    rep.reported("read_p99_us", &mut w.read, 0.99, 1e6, "us");
    rep.reported("write_p50_us", &mut w.write, 0.50, 1e6, "us");
    rep.reported("write_p99_us", &mut w.write, 0.99, 1e6, "us");
}

/// Per-layer metrics of a traced fixed-rate window, its spans, and the
/// capacity search.
pub fn per_layer(w: &mut Window, sp: &Spans, max_qps: f64, rep: &mut Report) {
    rep.quantile("write_p50_us", &mut w.write, 0.50, 1e6, "us");
    rep.quantile("write_p99_us", &mut w.write, 0.99, 1e6, "us");
    rep.metric("max_qps", max_qps, "q/s");
    rep.quantile("amac_server.submit_ns_p50", &mut sp.durations("submit"), 0.50, 1.0, "ns");
    let mut pumps = sp.durations("pump");
    rep.quantile("amac_server.pump_us_p50", &mut pumps, 0.50, 1e-3, "us");
    rep.quantile("amac_server.pump_us_p99", &mut pumps, 0.99, 1e-3, "us");
    rep.metric("amac_server.busy_share", w.pumps.iter().sum::<f64>() / w.wall_s, "ratio");
    rep.metric("amac_server.occupancy", w.occupancy, "slots");
    rep.metric(
        "amac_server.queue_depth_mean",
        w.depth.iter().sum::<f64>() / w.depth.len() as f64,
        "queries",
    );
    rep.quantile("amac_ops.pipeline.p50_us", &mut w.pipe, 0.50, 1e6, "us");
    let mean = w.shard_pump_s.iter().sum::<f64>() / SHARDS as f64;
    let max = w.shard_pump_s.iter().copied().fold(0.0, f64::max);
    rep.metric("amac_shard.pump_imbalance", ratio(max, mean), "ratio");
    rep.quantile("amac_tier.wal.seal_us_p50", &mut sp.durations("wal.seal"), 0.50, 1e-3, "us");
    rep.metric("amac_tier.wal.bytes_per_record", ratio(w.bytes as f64, w.records as f64), "bytes");
    rep.metric(
        "amac_tier.wal.records_per_seal",
        ratio(w.records as f64, w.seals as f64),
        "records",
    );
    rep.quantile("bench.gen_late_p99_us", &mut w.late, 0.99, 1e6, "us");
}
