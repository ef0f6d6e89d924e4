//! [`MemEnv`]: the memory environment of every AMU-routed op that runs
//! with a simulated clock, a fault plan, a coalescing unit or a tracer.
//!
//! An op's loads go through an AMU unit (`amac::engine::amu`) charging an
//! optional [`SimClock`]; the loads it waits on, its faults and its
//! retirements go to a tracer; and the placement policy classifies each
//! load for stall attribution. `MemEnv` holds all three, derives them
//! from the op config's `tier`/`fault`/`coalesce` knobs in one place
//! ([`MemEnv::new`]), and implements the [`LaneEnv`] protocol with the
//! trace hooks at the exact points the clock charges. An op config with
//! every one of those knobs off runs on [`amac::engine::Native`] instead
//! (see [`OpEnv`]).

use amac::engine::amu::{AddrClass, LoadUnit, MemUnit, Ticket};
use amac::engine::{EngineStats, Env, LaneEnv, Native};
use amac_trace::{ClassKind, TierKind, Tracer};

use crate::{fault_token, trace_tier, FaultPlan, SimClock, TierSpec};

/// The per-lookup AMU record: what the lane's pending load is and where
/// it stands. Embedded in every AMU-routed op's per-lookup state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lane {
    /// Simulated tick the pending line arrives (0 untiered).
    pub ready_at: u64,
    /// Chain hop of the pending load (0 = header), the second half of the
    /// schedule-invariant fault token [`fault_token`]`(key, hop)`.
    pub hop: u32,
    /// Arena slab of the pending load's node (0 for the header), so traced
    /// stalls attribute to the slab's tier.
    pub slab: u32,
    /// AMU commit group the lane was born into.
    pub group: u32,
}

/// An op's memory environment: AMU unit over an optional simulated clock,
/// the effective tier spec, and a tracer (disabled until installed).
pub struct MemEnv {
    unit: LoadUnit<Option<SimClock>>,
    spec: Option<TierSpec>,
    trace: Tracer,
}

impl MemEnv {
    /// The environment for an op configured with `tier`, `fault` and
    /// `coalesce` (the knobs every op config carries):
    ///
    /// * `tier` builds the clock; without one the op is untiered and
    ///   every load is free;
    /// * `fault` attaches a [`FaultPlan`] to the clock. A plan needs a
    ///   clock to hook into, so a fault plan **without** a tier assumes
    ///   [`TierSpec::headers_near`]`(1)` — the minimal far placement
    ///   (chain slabs far at 1× latency), which makes chain loads
    ///   checkable without asking for tiered costs;
    /// * `coalesce` picks the unit: `None` = scalar, `Some(G)` = dedup
    ///   within commit groups of `G` lane births.
    pub fn new(tier: Option<TierSpec>, fault: Option<FaultPlan>, coalesce: Option<usize>) -> Self {
        let spec = tier.or(fault.map(|_| TierSpec::headers_near(1)));
        let clock = spec.map(|s| match fault {
            Some(plan) => s.clock().with_fault(plan),
            None => s.clock(),
        });
        MemEnv { unit: LoadUnit::new(clock, coalesce), spec, trace: Tracer::off() }
    }

    /// The tier spec the clock charges (`None` untiered) — the same
    /// derivation [`new`](MemEnv::new) applies, so callers that degrade
    /// or price a placement agree with what the op's loads cost.
    pub fn spec(&self) -> Option<TierSpec> {
        self.spec
    }

    /// Stall attribution for `lane`'s pending load: hop 0 is the header
    /// line, later hops are slab nodes, and the tier is whatever the
    /// effective policy assigns that address (untiered loads still
    /// classify, with no tier).
    fn class_of(&self, lane: &Lane) -> (ClassKind, TierKind) {
        let header = lane.hop == 0;
        let class = if header { ClassKind::Header } else { ClassKind::Slab };
        let tier = match self.spec {
            None => TierKind::Untiered,
            Some(s) if header => trace_tier(s.policy.header_tier()),
            Some(s) => trace_tier(s.policy.slab_tier(lane.slab)),
        };
        (class, tier)
    }
}

impl LaneEnv for MemEnv {
    type Lane = Lane;

    #[inline(always)]
    fn begin(&mut self, lane: &mut Lane, class: AddrClass) -> Ticket {
        lane.hop = 0;
        lane.slab = 0;
        lane.group = self.unit.begin_lane();
        self.unit.stage();
        let t = self.unit.issue(class, 0, lane.group);
        lane.ready_at = t.ready_at;
        t
    }

    #[inline(always)]
    fn hop<T>(&mut self, lane: &mut Lane, key: u64, slab: u32, ptr: *const T) -> Ticket {
        // A `(key, hop)` token makes the fault set identical under every
        // executor and schedule, and under coalescing, which re-runs the
        // decision per request.
        let token = fault_token(key, lane.hop);
        lane.hop += 1;
        lane.slab = slab;
        let t = self.unit.issue(AddrClass::slab_ptr(slab, ptr), token, lane.group);
        lane.ready_at = t.ready_at;
        t
    }

    #[inline(always)]
    fn load(&mut self, op: &'static str, key: u64, lane: &Lane) {
        if self.trace.enabled() {
            let (class, tier) = self.class_of(lane);
            let now = self.unit.now();
            self.trace.load(now, op, key, class, tier, hop16(lane.hop), lane.ready_at);
        }
    }

    #[inline(always)]
    fn wait(&mut self, lane: &Lane) {
        self.unit.wait(lane.ready_at);
        self.unit.stage();
    }

    #[inline(always)]
    fn retire(&mut self, lane: &Lane, op: &'static str, key: u64, failed: bool) {
        if self.trace.enabled() {
            let now = self.unit.now();
            if failed {
                self.trace.fault(now, op, key, hop16(lane.hop));
            }
            self.trace.retire(now, op, key, hop16(lane.hop), failed);
        }
        self.release(lane);
    }

    #[inline(always)]
    fn release(&mut self, lane: &Lane) {
        self.unit.retire_lane(lane.group);
    }

    #[inline(always)]
    fn stage(&mut self) {
        self.unit.stage();
    }

    #[inline(always)]
    fn wait_until(&mut self, ready_at: u64) {
        self.unit.wait(ready_at);
    }

    #[inline]
    fn flush(&mut self, stats: &mut EngineStats) {
        self.unit.flush(stats);
    }
}

impl Env for MemEnv {
    #[inline(always)]
    fn now(&self) -> u64 {
        self.unit.now()
    }

    #[inline(always)]
    fn advance_to(&mut self, now: u64) {
        self.unit.advance_to(now);
    }

    #[inline(always)]
    fn commit_group(&mut self) {
        self.unit.commit_group();
    }

    #[inline(always)]
    fn tracer(&mut self) -> Option<&mut Tracer> {
        Some(&mut self.trace)
    }
}

/// A bare clock is an env too (no unit to seal, no tracer): enough for a
/// hand-written tiered op.
impl Env for SimClock {
    #[inline(always)]
    fn now(&self) -> u64 {
        SimClock::now(self)
    }

    #[inline(always)]
    fn advance_to(&mut self, now: u64) {
        SimClock::advance_to(self, now);
    }
}

/// An env an op can be built in from its config's `tier`/`fault`/`coalesce`
/// knobs. Each op config has one `native()` rule picking [`Native`] when
/// every knob is off and tracing is too, else [`MemEnv`].
pub trait OpEnv: LaneEnv + Send + Sized {
    /// The env for these knobs.
    fn from_knobs(
        tier: Option<TierSpec>,
        fault: Option<FaultPlan>,
        coalesce: Option<usize>,
    ) -> Self;
}

impl OpEnv for MemEnv {
    fn from_knobs(
        tier: Option<TierSpec>,
        fault: Option<FaultPlan>,
        coalesce: Option<usize>,
    ) -> Self {
        MemEnv::new(tier, fault, coalesce)
    }
}

impl OpEnv for Native {
    /// Only valid with every knob off: `Native` has no clock to tier,
    /// no plan to fault and no unit to coalesce with.
    fn from_knobs(
        tier: Option<TierSpec>,
        fault: Option<FaultPlan>,
        coalesce: Option<usize>,
    ) -> Self {
        assert!(
            tier.is_none() && fault.is_none() && coalesce.is_none(),
            "a Native env cannot tier, fault or coalesce"
        );
        Native::default()
    }
}

/// Saturating hop narrowing for trace events (chains are short; the cap
/// only matters for adversarial inputs).
#[inline]
fn hop16(hop: u32) -> u16 {
    hop.min(u16::MAX as u32) as u16
}
