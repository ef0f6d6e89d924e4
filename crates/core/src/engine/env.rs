//! The memory-environment plug-in point: simulated time, AMU commit
//! groups and tracing, reached through one hook.
//!
//! An op that charges a simulated clock, seals AMU commit groups or
//! records trace events owns one [`Env`] per clock (a plain op owns one,
//! `amac_tier::MemEnv`; a fused chain owns one per member; a
//! [`Mux`](super::mux::Mux) exposes its shared window clock). The op
//! hands them out through [`LookupOp::envs`] (or
//! [`PipelineOp::envs`](super::pipeline::PipelineOp::envs)), and the
//! free functions here are everything executors, the morsel runtime and
//! the serving layer do with them:
//!
//! | helper | meaning over the visited envs |
//! |---|---|
//! | [`sim_now`] | max of their `now` (0 with none) |
//! | [`sim_advance_to`] | lift every one to `now` (monotone) |
//! | [`sim_idle`] | `sim_advance_to(sim_now + ticks)` — a slot visit that ran no stage |
//! | [`commit`] | seal every AMU commit group |
//! | [`set_tracer`] | the first env gets the tracer, later ones a fork of it |
//! | [`take_tracer`] | take every tracer, merged in visit order |
//! | [`tracing`] / [`record`] | any tracer on? / record into the first env's tracer |
//!
//! Composition layers visit their members in a fixed order (a chain's
//! upstream before its downstream), so tracer forks and merges are
//! deterministic. Tracing never reads or moves a clock: results are
//! bit-identical with tracing on or off.
//!
//! An AMU-routed op drives its env through the per-lookup [`LaneEnv`]
//! protocol and is generic over it. `amac_tier::MemEnv` is the full env
//! (AMU unit, optional clock, tracer); [`Native`] is the env of a run
//! with every feature off: no unit, no clock, no tracer, a zero-sized
//! lane — only the issued-load count survives, so [`EngineStats`] stays
//! exact while the stage compiles down to the bare pointer chase.

use super::amu::{AddrClass, Ticket};
use super::{EngineStats, LookupOp};
use amac_trace::{TraceEvent, Tracer};

/// One memory environment: a simulated clock, the AMU unit whose commit
/// groups it seals, and a tracer. Object-safe, so a visitor can reach
/// heterogeneous environments through one closure.
pub trait Env {
    /// Current simulated time. Default: no clock, always 0.
    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }

    /// Lift the clock to `now` if it is behind (monotone; a stale `now`
    /// is a no-op). Composition layers call this before routing a stage,
    /// so time spent on other members' stages counts toward this one's
    /// prefetch distances. Default: no clock, nothing to lift.
    #[inline(always)]
    fn advance_to(&mut self, now: u64) {
        let _ = now;
    }

    /// Seal the current AMU commit group (see [`amu`](super::amu)): lane
    /// births after this point cannot coalesce against loads issued
    /// before it. Default: no unit, nothing to seal.
    #[inline(always)]
    fn commit_group(&mut self) {}

    /// The environment's tracer, if it carries one. Default: none.
    #[inline(always)]
    fn tracer(&mut self) -> Option<&mut Tracer> {
        None
    }
}

/// The per-lookup AMU protocol an op drives its env through. A `Lane`
/// rides in every lookup's state and carries whatever the env needs to
/// resume that lookup's pending load:
///
/// ```text
/// begin(lane, header)  ─►  load + wait  ─►  hop(lane, key, slab, ptr)  ─►  …  ─►  retire(lane, …)
///   stage + issue          trace, stall       fault-checked issue                trace, free lane
///                          + stage
/// ```
///
/// The defaults are an env with no clock, no unit state and no tracer:
/// every method but `begin`, `hop` and `flush` does nothing.
pub trait LaneEnv: Env {
    /// Per-lookup record of the pending load.
    type Lane: Copy + Default;

    /// Stage 0 of a lookup: register the lane, charge the stage and
    /// request the first (header) line. Gate the hardware prefetch hint
    /// on the returned ticket's `fresh`.
    fn begin(&mut self, lane: &mut Self::Lane, class: AddrClass) -> Ticket;

    /// Request the next chain node `ptr` in arena slab `slab`, fault
    /// token `(key, hop)`. A `failed` ticket means the lookup must retire
    /// as failed.
    fn hop<T>(&mut self, lane: &mut Self::Lane, key: u64, slab: u32, ptr: *const T) -> Ticket;

    /// Drain the env's load counts and simulated ticks into `stats` (the
    /// `flush_observed` contract).
    fn flush(&mut self, stats: &mut EngineStats);

    /// Record the load `lane` is about to wait on (a no-op unless
    /// tracing). Call it before [`wait`](LaneEnv::wait): the recorded
    /// stall is then exactly what the wait charges.
    #[inline(always)]
    fn load(&mut self, op: &'static str, key: u64, lane: &Self::Lane) {
        let _ = (op, key, lane);
    }

    /// Dereference `lane`'s pending line: stall until it is resident,
    /// then charge the stage that reads it.
    #[inline(always)]
    fn wait(&mut self, lane: &Self::Lane) {
        let _ = lane;
    }

    /// The lookup left the window: record its retirement (preceded by the
    /// fault that aborted it, if `failed`) and free its lane.
    #[inline(always)]
    fn retire(&mut self, lane: &Self::Lane, op: &'static str, key: u64, failed: bool) {
        let _ = (op, key, failed);
        self.release(lane);
    }

    /// Free `lane` without a trace event (a fused stage handing its tuple
    /// downstream, where the terminal operator records the retirement).
    #[inline(always)]
    fn release(&mut self, lane: &Self::Lane) {
        let _ = lane;
    }

    /// Charge one executed code stage that waits on nothing.
    #[inline(always)]
    fn stage(&mut self) {}

    /// Stall until tick `ready_at` (for ops with their own stall model).
    #[inline(always)]
    fn wait_until(&mut self, ready_at: u64) {
        let _ = ready_at;
    }
}

/// The env of an untiered, unfaulted, uncoalesced, untraced run: every
/// load issues, is instantly resident and never fails, and nothing is
/// kept but the issued count (so `EngineStats::issued_loads` stays exact).
#[derive(Debug, Default)]
pub struct Native {
    issued: u64,
}

impl Native {
    const TICKET: Ticket = Ticket { ready_at: 0, failed: false, fresh: true };
}

impl Env for Native {}

impl LaneEnv for Native {
    type Lane = ();

    #[inline(always)]
    fn begin(&mut self, _lane: &mut (), _class: AddrClass) -> Ticket {
        self.issued += 1;
        Native::TICKET
    }

    #[inline(always)]
    fn hop<T>(&mut self, _lane: &mut (), _key: u64, _slab: u32, _ptr: *const T) -> Ticket {
        self.issued += 1;
        Native::TICKET
    }

    #[inline(always)]
    fn flush(&mut self, stats: &mut EngineStats) {
        stats.issued_loads += core::mem::take(&mut self.issued);
    }
}

/// Current simulated time of `op`: the max over its envs.
#[inline]
pub fn sim_now<O: LookupOp>(op: &mut O) -> u64 {
    let mut now = 0;
    op.envs(|e| now = now.max(e.now()));
    now
}

/// Lift every env of `op` to `now` (monotone).
#[inline]
pub fn sim_advance_to<O: LookupOp>(op: &mut O, now: u64) {
    op.envs(|e| e.advance_to(now));
}

/// Let `ticks` of simulated time pass without `op` executing a stage.
/// Executors call this once per visit to an idle window slot (a GP/SPP
/// no-op check, a drained AMAC slot), so a tiered op's clock keeps pace
/// with the window rotation even when the op itself is not called.
#[inline]
pub fn sim_idle<O: LookupOp>(op: &mut O, ticks: u64) {
    let now = sim_now(op) + ticks;
    sim_advance_to(op, now);
}

/// Seal `op`'s AMU commit groups. Executors call this at their batch
/// boundaries — GP after each group's start pass, the baseline after
/// each lookup, the morsel runtime at feed ends. AMAC and SPP rely on
/// the unit's automatic every-`G`-births advance.
#[inline]
pub fn commit<O: LookupOp>(op: &mut O) {
    op.envs(|e| e.commit_group());
}

/// Install `tracer` on `op`: its first env takes it, every later env a
/// [`fork`](Tracer::fork) (same mode and stamps). Envs without a tracer
/// are skipped; an op with none drops it.
pub fn set_tracer<O: LookupOp>(op: &mut O, tracer: Tracer) {
    let mut first = Some(tracer);
    let mut proto = Tracer::off();
    op.envs(|e| {
        let Some(slot) = e.tracer() else { return };
        *slot = match first.take() {
            Some(t) => {
                proto = t.fork();
                t
            }
            None => proto.fork(),
        };
    });
}

/// Remove every tracer of `op` and merge them in visit order (a disabled
/// tracer when the op traces nothing).
pub fn take_tracer<O: LookupOp>(op: &mut O) -> Tracer {
    let mut out = Tracer::off();
    op.envs(|e| {
        if let Some(t) = e.tracer() {
            out.merge(t.take());
        }
    });
    out
}

/// Whether any env of `op` records trace events — the one branch callers
/// pay before building an event on the op's behalf.
pub fn tracing<O: LookupOp>(op: &mut O) -> bool {
    let mut on = false;
    op.envs(|e| on |= e.tracer().is_some_and(|t| t.enabled()));
    on
}

/// Record a pre-built event (morsel, deadline, …) into the tracer of
/// `op`'s first env that carries one.
pub fn record<O: LookupOp>(op: &mut O, ev: TraceEvent) {
    let mut ev = Some(ev);
    op.envs(|e| {
        if let Some(t) = e.tracer() {
            if let Some(ev) = ev.take() {
                t.record(ev);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::amu::{MemUnit, ScalarUnit};
    use crate::engine::Step;

    #[test]
    fn native_tickets_match_a_free_scalar_unit_and_count_every_issue() {
        let x = 0u64;
        let mut native = Native::default();
        let mut unit = ScalarUnit::new(());
        let mut lane = ();
        let header = AddrClass::header_ptr(&x);
        let group = unit.begin_lane();
        assert_eq!(native.begin(&mut lane, header), unit.issue(header, 0, group));
        for hop in 1..4u32 {
            let got = native.hop(&mut lane, 7, hop, &x);
            assert_eq!(got, unit.issue(AddrClass::slab_ptr(hop, &x), hop as u64, 0));
        }
        native.load("probe", 7, &lane);
        native.wait(&lane);
        native.retire(&lane, "probe", 7, false);
        let (mut a, mut b) = (EngineStats::default(), EngineStats::default());
        native.flush(&mut a);
        unit.flush(&mut b);
        assert_eq!(a, b);
        assert_eq!(a.issued_loads, 4);
        native.flush(&mut a);
        assert_eq!(a.issued_loads, 4, "flush drains and resets");
        assert_eq!(core::mem::size_of::<<Native as LaneEnv>::Lane>(), 0);
    }

    /// A one-stage op over a `Native` env, to drive the env helpers.
    struct NativeOp(Native);

    impl LookupOp for NativeOp {
        type Input = u64;
        type State = ();
        fn budgeted_steps(&self) -> usize {
            1
        }
        fn start(&mut self, _input: u64, lane: &mut ()) {
            self.0.begin(lane, AddrClass::Header { line: 0 });
        }
        fn step(&mut self, _lane: &mut ()) -> Step {
            Step::Done
        }
        fn envs(&mut self, mut f: impl FnMut(&mut dyn Env)) {
            f(&mut self.0);
        }
    }

    #[test]
    fn native_has_no_clock_and_no_tracer() {
        let mut op = NativeOp(Native::default());
        sim_idle(&mut op, 5);
        sim_advance_to(&mut op, 9);
        commit(&mut op);
        assert_eq!(sim_now(&mut op), 0);
        set_tracer(&mut op, Tracer::on());
        assert!(!tracing(&mut op), "a native env drops the tracer");
        record(&mut op, TraceEvent::shed(0, 1));
        assert!(!take_tracer(&mut op).enabled());
    }
}
