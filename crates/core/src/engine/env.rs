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

use super::LookupOp;
use amac_trace::{TraceEvent, Tracer};

/// One memory environment: a simulated clock, the AMU unit whose commit
/// groups it seals, and a tracer. Object-safe, so a visitor can reach
/// heterogeneous environments through one closure.
pub trait Env {
    /// Current simulated time (0 for an environment without a clock).
    fn now(&self) -> u64;

    /// Lift the clock to `now` if it is behind (monotone; a stale `now`
    /// is a no-op). Composition layers call this before routing a stage,
    /// so time spent on other members' stages counts toward this one's
    /// prefetch distances.
    fn advance_to(&mut self, now: u64);

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
