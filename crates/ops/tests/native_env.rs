//! `Native` vs `MemEnv` bit-identity: with tier, fault, coalescing and
//! tracing all off, an op compiled against the zero-cost [`Native`] env
//! must produce exactly the outputs, checksums and full [`EngineStats`]
//! (issued loads included) of the same op over an untiered scalar
//! [`MemEnv`] — under every executor, the AMAC ablations, a session fed
//! uneven morsels, and the morsel runtime at 1/2/4 threads under every
//! scheduling. Also pins the untiered lookup state's size, so it cannot
//! quietly grow again.

use amac::engine::{
    run, run_amac_modulo, run_amac_no_merge, EngineStats, LaneEnv, LookupOp, Native, Technique,
    TuningParams,
};
use amac_hashtable::agg::AggValues;
use amac_hashtable::{AggTable, HashTable};
use amac_ops::groupby::{groupby, GroupByConfig, GroupByOp};
use amac_ops::join::{BuildConfig, BuildOp, ProbeConfig, ProbeOp, ProbeState};
use amac_ops::parallel::{build_mt_rt, groupby_mt_rt, probe_groupby_mt_rt, probe_mt_rt};
use amac_ops::pipeline::{fused_probe_groupby_op_in, FusedProbeGroupBy, PipelineConfig};
use amac_runtime::{execute, AmacSession, MorselConfig, Scheduling};
use amac_tier::{MemEnv, OpEnv};
use amac_workload::{Relation, Tuple};

const M: usize = 8;

/// Every single-threaded way to run an op: the four executors, the two
/// AMAC ablations, and an `AmacSession` fed uneven morsels then drained.
#[derive(Debug, Clone, Copy)]
enum Exec {
    Tech(Technique),
    NoMerge,
    Modulo,
    Session,
}

fn execs() -> Vec<Exec> {
    let mut v: Vec<Exec> = Technique::ALL.iter().map(|&t| Exec::Tech(t)).collect();
    v.extend([Exec::NoMerge, Exec::Modulo, Exec::Session]);
    v
}

fn drive<O: LookupOp<Input = Tuple>>(exec: Exec, op: &mut O, inputs: &[Tuple]) -> EngineStats {
    match exec {
        Exec::Tech(t) => run(t, op, inputs, TuningParams::with_in_flight(M)),
        Exec::NoMerge => run_amac_no_merge(op, inputs, M),
        Exec::Modulo => run_amac_modulo(op, inputs, M),
        Exec::Session => {
            let mut session = AmacSession::new(M);
            let mut stats = EngineStats::default();
            let mut rest = inputs;
            for len in [1usize, 7, 0, 300, 3, 1000].into_iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (morsel, tail) = rest.split_at(len.min(rest.len()));
                session.feed(op, morsel, &mut stats);
                rest = tail;
            }
            session.drain(op, &mut stats);
            stats
        }
    }
}

/// A chained table (8 tuples per bucket, so lookups walk several nodes
/// and the SWAR filter rejects some) and probes with ~1/8 misses.
fn lab() -> (Relation, HashTable, Relation) {
    let r = Relation::dense_unique(1 << 11, 3);
    let ht = HashTable::with_buckets((1 << 11) / 8);
    {
        let mut h = ht.build_handle();
        for t in &r.tuples {
            h.insert(t.key, t.payload);
        }
    }
    let mut s = Relation::fk_uniform(&r, 3000, 4);
    for (i, t) in s.tuples.iter_mut().enumerate().filter(|(i, _)| i % 8 == 0) {
        t.key = 1_000_000 + i as u64;
    }
    (r, ht, s)
}

fn rt(threads: usize, scheduling: Scheduling) -> MorselConfig {
    MorselConfig { threads, morsel_tuples: 97, scheduling, auto_tune: false }
}

fn runtimes() -> Vec<MorselConfig> {
    let mut v = Vec::new();
    for threads in [1, 2, 4] {
        for s in [Scheduling::StaticChunk, Scheduling::SharedCursor, Scheduling::WorkSteal] {
            v.push(rt(threads, s));
        }
    }
    v
}

/// Latch retries across threads depend on the interleaving, so
/// multi-threaded latched ops compare everything else.
fn mask_latch(mut s: EngineStats, threads: usize) -> EngineStats {
    if threads > 1 {
        s.latch_retries = 0;
    }
    s
}

type ProbeRun = (u64, u64, Vec<u64>, EngineStats);

fn probe_run<E: OpEnv>(exec: Exec, ht: &HashTable, s: &Relation, cfg: &ProbeConfig) -> ProbeRun {
    let mut op = ProbeOp::<E>::new_in(ht, cfg, s.len());
    let stats = drive(exec, &mut op, &s.tuples);
    (op.matches(), op.checksum(), op.take_out(), stats)
}

#[test]
fn probe_native_matches_mem_env_under_every_executor() {
    let (_r, ht, s) = lab();
    for scan_all in [false, true] {
        for materialize in [false, true] {
            let cfg = ProbeConfig { scan_all, materialize, ..Default::default() };
            assert!(cfg.native());
            for exec in execs() {
                let native = probe_run::<Native>(exec, &ht, &s, &cfg);
                let mem = probe_run::<MemEnv>(exec, &ht, &s, &cfg);
                assert_eq!(native, mem, "{exec:?} scan_all={scan_all} materialize={materialize}");
                assert!(native.3.issued_loads > native.3.lookups, "{exec:?}: chains walked");
            }
        }
    }
}

fn probe_mt<E: OpEnv>(
    ht: &HashTable,
    s: &Relation,
    cfg: &ProbeConfig,
    rt: &MorselConfig,
) -> ((u64, u64), EngineStats) {
    let run =
        execute(&s.tuples, Technique::Amac, cfg.params, rt, |_| ProbeOp::<E>::new_in(ht, cfg, 0));
    let sums =
        run.ops.iter().fold((0, 0u64), |(m, c), o| (m + o.matches(), c.wrapping_add(o.checksum())));
    (sums, run.report.stats)
}

#[test]
fn probe_mt_native_matches_mem_env_at_every_thread_count_and_scheduling() {
    let (_r, ht, s) = lab();
    let cfg = ProbeConfig { materialize: false, scan_all: true, ..Default::default() };
    let traced = ProbeConfig { trace: true, ..cfg.clone() };
    for rt in runtimes() {
        let native = probe_mt::<Native>(&ht, &s, &cfg, &rt);
        assert_eq!(native, probe_mt::<MemEnv>(&ht, &s, &cfg, &rt), "{rt:?}");
        // The driver picks Native for `cfg` and MemEnv for `traced`;
        // tracing never moves a result or a counter.
        for c in [&cfg, &traced] {
            let out = probe_mt_rt(&ht, &s, Technique::Amac, c, &rt);
            assert_eq!(((out.matches, out.checksum), out.stats), native, "{rt:?}");
        }
    }
}

fn build_run<E: OpEnv>(exec: Exec, r: &Relation) -> (Vec<(u64, u64)>, EngineStats) {
    let ht = HashTable::for_tuples(r.len());
    let mut op = BuildOp::<E>::new(&ht, None);
    let stats = drive(exec, &mut op, &r.tuples);
    drop(op);
    (ht.contents_sorted(), stats)
}

#[test]
fn build_native_matches_mem_env() {
    // Duplicate keys: inserts into the same chains.
    let r = Relation::zipf(4000, 500, 0.8, 9);
    for exec in execs() {
        assert_eq!(build_run::<Native>(exec, &r), build_run::<MemEnv>(exec, &r), "{exec:?}");
    }
    let want = build_run::<MemEnv>(Exec::Tech(Technique::Amac), &r).0;
    for rt in runtimes() {
        let native = build_mt::<Native>(&r, &rt);
        assert_eq!(native.0, want, "{rt:?}");
        assert_eq!(native, build_mt::<MemEnv>(&r, &rt), "{rt:?}");
        let ht = HashTable::for_tuples(r.len());
        let driver = build_mt_rt(&ht, &r, Technique::Amac, &BuildConfig::default(), &rt);
        assert_eq!((ht.contents_sorted(), mask_latch(driver.stats, rt.threads)), native, "{rt:?}");
    }
}

fn build_mt<E: OpEnv>(r: &Relation, rt: &MorselConfig) -> (Vec<(u64, u64)>, EngineStats) {
    let ht = HashTable::for_tuples(r.len());
    let run = execute(&r.tuples, Technique::Amac, TuningParams::default(), rt, |_| {
        BuildOp::<E>::new(&ht, None)
    });
    drop(run.ops);
    (ht.contents_sorted(), mask_latch(run.report.stats, rt.threads))
}

type GroupRun = (u64, Vec<(u64, AggValues)>, EngineStats);

fn snapshot(table: &AggTable) -> Vec<(u64, AggValues)> {
    let mut g = table.groups();
    g.sort_by_key(|(k, _)| *k);
    g
}

/// A table of `buckets` buckets already holding one `(key, 0)` tuple per
/// distinct key of `keys`. Runs then only update existing groups, so the
/// chain layout — and with it every counter but cross-thread latch
/// retries — does not depend on which thread appends a group first.
fn seeded(buckets: usize, keys: impl Iterator<Item = u64>) -> AggTable {
    let table = AggTable::with_buckets(buckets);
    let mut keys: Vec<u64> = keys.collect();
    keys.sort_unstable();
    keys.dedup();
    let seed = Relation::from_tuples(keys.into_iter().map(|k| Tuple::new(k, 0)).collect());
    groupby(&table, &seed, Technique::Baseline, &GroupByConfig::default());
    table
}

/// Group-by lab: Zipf-1 over 64 groups into 16 buckets — latched
/// multi-node walks and intra-window latch conflicts.
fn groupby_table(input: &Relation) -> AggTable {
    seeded(16, input.tuples.iter().map(|t| t.key))
}

fn groupby_run<E: OpEnv>(exec: Exec, input: &Relation) -> GroupRun {
    let table = groupby_table(input);
    let mut op = GroupByOp::<E>::new_in(&table, &GroupByConfig::default());
    let stats = drive(exec, &mut op, &input.tuples);
    let tuples = op.tuples();
    drop(op);
    (tuples, snapshot(&table), stats)
}

fn groupby_mt<E: OpEnv>(input: &Relation, rt: &MorselConfig) -> GroupRun {
    let table = groupby_table(input);
    let cfg = GroupByConfig::default();
    let run = execute(&input.tuples, Technique::Amac, cfg.params, rt, |_| {
        GroupByOp::<E>::new_in(&table, &cfg)
    });
    let tuples = run.ops.iter().map(|o| o.tuples()).sum();
    drop(run.ops);
    (tuples, snapshot(&table), mask_latch(run.report.stats, rt.threads))
}

#[test]
fn groupby_native_matches_mem_env() {
    let input = Relation::zipf(4000, 64, 1.0, 21);
    for exec in execs() {
        let native = groupby_run::<Native>(exec, &input);
        assert_eq!(native, groupby_run::<MemEnv>(exec, &input), "{exec:?}");
    }
    let want = groupby_run::<MemEnv>(Exec::Tech(Technique::Amac), &input).1;
    for rt in runtimes() {
        let native = groupby_mt::<Native>(&input, &rt);
        assert_eq!(native.1, want, "{rt:?}");
        assert_eq!(native, groupby_mt::<MemEnv>(&input, &rt), "{rt:?}");
        let table = groupby_table(&input);
        let driver = groupby_mt_rt(&table, &input, Technique::Amac, &Default::default(), &rt);
        let got = (driver.matches, snapshot(&table), mask_latch(driver.stats, rt.threads));
        assert_eq!(got, native, "{rt:?}");
    }
}

/// Fused lab: 1K-row dimension over 24 categories, 3K fact rows.
fn fused_lab() -> (Relation, HashTable, Relation) {
    let dim = Relation::fk_dimension(1 << 10, 24, 0x5);
    let fact = Relation::fk_uniform(&dim, 3000, 0x6);
    (dim.clone(), HashTable::build_serial(&dim), fact)
}

fn fused_table(dim: &Relation) -> AggTable {
    seeded(8, dim.tuples.iter().map(|t| t.payload))
}

fn fused_run<E: OpEnv>(exec: Exec, dim: &Relation, ht: &HashTable, s: &Relation) -> GroupRun {
    let table = fused_table(dim);
    let cfg = PipelineConfig::default();
    let mut op: FusedProbeGroupBy<'_, E> = fused_probe_groupby_op_in(ht, &table, &cfg);
    let stats = drive(exec, &mut op, &s.tuples);
    let counts = op.pipe().up().matches() * 1_000_000 + op.pipe().down().inner().tuples();
    drop(op);
    (counts, snapshot(&table), stats)
}

#[test]
fn fused_probe_groupby_native_matches_mem_env() {
    let (dim, ht, s) = fused_lab();
    for exec in execs() {
        let native = fused_run::<Native>(exec, &dim, &ht, &s);
        assert_eq!(native, fused_run::<MemEnv>(exec, &dim, &ht, &s), "{exec:?}");
    }
    let want = fused_run::<MemEnv>(Exec::Tech(Technique::Amac), &dim, &ht, &s).1;
    let cfg = PipelineConfig::default();
    let traced = PipelineConfig { trace: true, ..Default::default() };
    for rt in runtimes() {
        let mut runs = Vec::new();
        // The driver picks Native for the default config and MemEnv for
        // the traced one; tracing never moves a result or a counter.
        for c in [&cfg, &traced] {
            let table = fused_table(&dim);
            let out = probe_groupby_mt_rt(&ht, &table, &s, Technique::Amac, c, &rt);
            assert_eq!(snapshot(&table), want, "{rt:?}");
            runs.push((out.matched, out.out.matches, mask_latch(out.out.stats, rt.threads)));
        }
        assert_eq!(runs[0], runs[1], "{rt:?}");
    }
}

#[test]
fn untiered_lookup_state_is_four_fields() {
    assert_eq!(core::mem::size_of::<<Native as LaneEnv>::Lane>(), 0);
    // key, idx, ptr, probe word: nothing else rides in a native lookup.
    assert_eq!(core::mem::size_of::<ProbeState<Native>>(), 32);
}
