//! The explicit AMU load protocol: `issue` / `commit_group` / `wait_group`.
//!
//! Every executor in this repo used to do implicit prefetch-then-hope: an
//! op issued a hardware prefetch hint, separately poked an optional
//! simulated clock (`issue_header` / `issue_slab_checked` / `sim_idle`),
//! and trusted the executor's rotation cadence to give the line time to
//! arrive. The Asynchronous Memory-access Unit line of follow-up work
//! (AMAU, DAMOV) makes that contract *explicit*: the engine asks a memory
//! unit for a load and receives a **ticket**; the unit owns batching,
//! duplicate suppression and completion accounting. The same idiom is
//! what GPU pipelines expose as `cp.async` — loads are issued, sealed
//! into a *commit group*, and later awaited as a group.
//!
//! This module is that seam:
//!
//! * [`LoadBackend`] is the cost/fault model a unit charges — implemented
//!   by `amac_tier::SimClock` (and `Option<SimClock>`), with `()` as the
//!   free untiered backend;
//! * [`MemUnit`] is the protocol the ops speak:
//!   [`issue`](MemUnit::issue)`(addr-class, token) -> `[`Ticket`],
//!   [`commit_group`](MemUnit::commit_group)`()`,
//!   [`wait_group`](MemUnit::wait_group)`()` /
//!   [`poll`](MemUnit::poll)`(ticket) -> Ready|Pending`;
//! * [`ScalarUnit`] issues every request verbatim — the reference unit,
//!   bit-exact with the pre-AMU plumbing;
//! * [`CoalescingUnit`] dedups duplicate cache-line requests across the
//!   in-flight lanes of one commit group, surfacing the two deterministic
//!   counters [`EngineStats::issued_loads`] and
//!   [`EngineStats::coalesced_loads`];
//! * [`LoadUnit`] is the enum the ops embed (knob-selected per run).
//!
//! # Ticket lifecycle
//!
//! ```text
//! begin_lane ──► issue(class, token) ──► Ticket { ready_at, failed, fresh }
//!    │                │                        │
//!    │                │ (dup line in group)    ├─ poll(t)  -> Ready|Pending
//!    │                └─► coalesced_loads++    ├─ wait(t.ready_at)  (stall)
//!    │                                         └─ failed -> Step::Failed
//!    └─► retire_lane  (lane Done/Failed; last lane frees the group's
//!                      dedup set)        commit_group seals the group
//! ```
//!
//! A *lane* is one in-flight lookup; [`MemUnit::begin_lane`] assigns it to
//! the current commit group and returns the group id the lane stores in
//! its per-lookup state. Groups advance automatically every `G` lane
//! births and explicitly at [`MemUnit::commit_group`] (executors call it
//! through [`super::env::commit`] — GP seals per start pass,
//! the baseline per lookup; AMAC/SPP rely on the automatic advance, the
//! deterministic analogue of `cp.async.commit_group` for executors whose
//! "groups" are a sliding window rather than a barrier).
//!
//! # Commit/wait vs `cp.async`
//!
//! `cp.async` waits on *transfer completion* observed by hardware;
//! a deterministic software reproduction cannot observe cache fills, so
//! completion here is *simulated time*: a ticket is ready once the
//! backend clock reaches its `ready_at`. [`MemUnit::wait_group`] is the
//! `cp.async.wait_group 0` analogue — it advances the clock to the latest
//! `ready_at` issued so far, charging the difference as stall.
//!
//! # When coalescing wins (and loses)
//!
//! Dedup only fires when two lanes *of the same group* request the same
//! cache line while both are in flight: skewed (Zipf) probe keys collide
//! on hot bucket headers and hot chain nodes, so `issued_loads/lookup`
//! drops below 1; uniform keys almost never collide and pay the dedup
//! lookup for nothing (`bench/bin/amu.rs` sweeps exactly this contrast).
//! Coalescing never changes results or fault decisions — a duplicate
//! request re-runs the per-request fault check (`resolve_dup`) so
//! `load_faults` and every `Step::Failed` are identical with the unit on
//! or off; only the *hardware* prefetch hint is suppressed
//! ([`Ticket::fresh`]` == false`) and `issued_loads` shrinks.
//!
//! # Quickstart
//!
//! ```
//! use amac::engine::amu::{AddrClass, Completion, LoadUnit, MemUnit};
//! use amac::engine::EngineStats;
//!
//! // A coalescing unit over the free untiered backend, groups of 4.
//! let mut unit: LoadUnit<()> = LoadUnit::coalescing((), 4);
//! let g = unit.begin_lane();
//! let a = unit.issue(AddrClass::Header { line: 7 }, 0, g);
//! assert!(a.fresh, "first request for line 7 really issues");
//! let g2 = unit.begin_lane();
//! let b = unit.issue(AddrClass::Header { line: 7 }, 0, g2);
//! assert!(!b.fresh, "same line, same group: coalesced away");
//! assert_eq!(unit.poll(&b), Completion::Ready, "untiered loads are instant");
//! unit.retire_lane(g);
//! unit.retire_lane(g2);
//! let mut stats = EngineStats::default();
//! unit.flush(&mut stats);
//! assert_eq!((stats.issued_loads, stats.coalesced_loads), (1, 1));
//! ```

use super::EngineStats;

/// The address class of a load request — which memory region the line
/// belongs to, in the vocabulary the tier cost model prices
/// (`amac_tier::TierPolicy` assigns a tier per region).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrClass {
    /// A bucket-header / root line (stage-0 loads). Header loads resolve
    /// unchecked: the header array is the dense hot region, and the
    /// pre-AMU ops never routed it through the fault plan.
    Header {
        /// Cache-line index (`address >> 6`).
        line: u64,
    },
    /// A chain-node line in arena slab `slab` (every later hop). Slab
    /// loads resolve through the backend's fault-checked path.
    Slab {
        /// Arena slab holding the node (`amac_mem::slab_of_index`).
        slab: u32,
        /// Cache-line index (`address >> 6`).
        line: u64,
    },
}

impl AddrClass {
    /// Header class for the line containing `ptr`.
    #[inline(always)]
    pub fn header_ptr<T>(ptr: *const T) -> Self {
        AddrClass::Header { line: ptr as u64 >> 6 }
    }

    /// Slab class for the line containing `ptr` in arena slab `slab`.
    #[inline(always)]
    pub fn slab_ptr<T>(slab: u32, ptr: *const T) -> Self {
        AddrClass::Slab { slab, line: ptr as u64 >> 6 }
    }

    /// The cache-line index of this request.
    #[inline(always)]
    pub fn line(&self) -> u64 {
        match *self {
            AddrClass::Header { line } | AddrClass::Slab { line, .. } => line,
        }
    }
}

/// The unit's receipt for one load request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    /// Simulated tick the line is resident (0 for untiered backends —
    /// always ready).
    pub ready_at: u64,
    /// The backend's fault model poisoned this request: the lookup must
    /// retire as `Step::Failed`. Decided *per request* even for
    /// coalesced duplicates, so fault sets are identical with coalescing
    /// on or off.
    pub failed: bool,
    /// This request actually issued a load (`false` = deduped against an
    /// earlier request for the same line in the same commit group). Ops
    /// gate their *hardware* prefetch hint on this, so a coalesced lane
    /// rides the original line fill.
    pub fresh: bool,
}

/// Completion state of a ticket, as observed by [`MemUnit::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// The line is resident at the backend's current time.
    Ready,
    /// The load is still in flight; waiting now would stall.
    Pending,
}

/// The cost/fault model a [`MemUnit`] charges its loads against.
///
/// `amac_tier::SimClock` implements this over the deterministic tick
/// rules (and `Option<SimClock>` via the blanket lift below); `()` is the
/// free backend for untiered runs — every load is instantly ready and no
/// time passes. Keeping the trait here (and not in `amac_tier`) breaks
/// the dependency cycle: the executors cannot depend on the tier crate.
pub trait LoadBackend {
    /// Charge one executed code stage (tier rule 1).
    #[inline(always)]
    fn stage(&mut self) {}

    /// Current simulated time (0 when the backend keeps none).
    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }

    /// Lift the clock to `now` if behind (monotone composition protocol;
    /// letting `t` ticks of other lanes' time pass — tier rule 2 — is
    /// `advance_to(now + t)`).
    #[inline(always)]
    fn advance_to(&mut self, now: u64) {
        let _ = now;
    }

    /// Resolve a load of `class` under fault token `token`:
    /// `(ready_at, failed)`. `ready_at` is charged even for failed loads
    /// so a coalesced duplicate of a failed request still has a wait
    /// target.
    #[inline(always)]
    fn resolve(&mut self, class: AddrClass, token: u64) -> (u64, bool) {
        let _ = (class, token);
        (0, false)
    }

    /// Re-run *only* the per-request fault decision for a duplicate
    /// request of an already-issued line (no new load, no new latency).
    /// Must make the same decision — and charge the same fault counter —
    /// as [`resolve`](LoadBackend::resolve) would for this `(class,
    /// token)`, which is what keeps results bit-identical with
    /// coalescing on or off.
    #[inline(always)]
    fn resolve_dup(&mut self, class: AddrClass, token: u64) -> bool {
        let _ = (class, token);
        false
    }

    /// Dereference a line that arrives at `ready_at`: stall until
    /// resident (tier rule 3).
    #[inline(always)]
    fn wait_until(&mut self, ready_at: u64) {
        let _ = ready_at;
    }

    /// Drain accumulated work/stall/fault ticks into `stats`
    /// (drain-and-reset; a clock's `now` keeps running).
    #[inline(always)]
    fn flush(&mut self, stats: &mut EngineStats) {
        let _ = stats;
    }
}

/// The free backend: no clock, no faults, every load instantly ready.
impl LoadBackend for () {}

/// Lift: `Option<B>` is a backend that does nothing when `None` — the
/// shape the op configs already carry (`tier: Option<TierSpec>` builds a
/// `Option<SimClock>` backend).
impl<B: LoadBackend> LoadBackend for Option<B> {
    #[inline(always)]
    fn stage(&mut self) {
        if let Some(b) = self {
            b.stage();
        }
    }

    #[inline(always)]
    fn now(&self) -> u64 {
        self.as_ref().map_or(0, |b| b.now())
    }

    #[inline(always)]
    fn advance_to(&mut self, now: u64) {
        if let Some(b) = self {
            b.advance_to(now);
        }
    }

    #[inline(always)]
    fn resolve(&mut self, class: AddrClass, token: u64) -> (u64, bool) {
        match self {
            Some(b) => b.resolve(class, token),
            None => (0, false),
        }
    }

    #[inline(always)]
    fn resolve_dup(&mut self, class: AddrClass, token: u64) -> bool {
        match self {
            Some(b) => b.resolve_dup(class, token),
            None => false,
        }
    }

    #[inline(always)]
    fn wait_until(&mut self, ready_at: u64) {
        if let Some(b) = self {
            b.wait_until(ready_at);
        }
    }

    #[inline(always)]
    fn flush(&mut self, stats: &mut EngineStats) {
        if let Some(b) = self {
            b.flush(stats);
        }
    }
}

/// The explicit load protocol (see the module docs for the lifecycle).
///
/// Ops hold a unit and route **every** memory request through it; the
/// unit decides what actually issues. All bookkeeping is deterministic:
/// counters depend only on the sequence of `begin_lane`/`issue`/
/// `commit_group` calls, which the executors derive from input order.
pub trait MemUnit {
    /// Register a new in-flight lane (one lookup) and return the commit
    /// group it was born into. The lane passes this id to every
    /// [`issue`](MemUnit::issue) and to [`retire_lane`](MemUnit::retire_lane).
    fn begin_lane(&mut self) -> u32;

    /// The lane retired (`Done`/`Failed`); the last lane of a group frees
    /// the group's dedup set.
    fn retire_lane(&mut self, group: u32);

    /// Request an asynchronous load of `class` for a lane of `group`.
    /// `token` keys the backend's per-request fault decision
    /// (`amac_tier::fault_token(key, hop)` in the ops).
    fn issue(&mut self, class: AddrClass, token: u64, group: u32) -> Ticket;

    /// Seal the current commit group: subsequent lane births join a new
    /// group (the `cp.async.commit_group` analogue). A no-op when the
    /// current group is empty, so executors may call it redundantly at
    /// batch boundaries without perturbing group alignment.
    fn commit_group(&mut self);

    /// Is `t`'s line resident at the current simulated time?
    fn poll(&self, t: &Ticket) -> Completion;

    /// Stall until the load landing at `ready_at` is resident (ops store
    /// the ticket's `ready_at` in their per-lookup state).
    fn wait(&mut self, ready_at: u64);

    /// Stall until **every** load issued so far is resident — the
    /// `cp.async.wait_group 0` analogue, used by drain barriers and the
    /// conformance tests.
    fn wait_group(&mut self);

    /// Charge one executed code stage to the backend.
    fn stage(&mut self);

    /// The backend's current simulated time.
    fn now(&self) -> u64;

    /// Lift the backend clock to `now` if behind (`advance_to(now() + t)`
    /// lets `t` ticks of other lanes' time pass).
    fn advance_to(&mut self, now: u64);

    /// Loads actually issued since the last flush.
    fn issued(&self) -> u64;

    /// Requests deduped against an in-group duplicate since the last
    /// flush.
    fn coalesced(&self) -> u64;

    /// Total requests since the last flush
    /// (`requested == issued + coalesced`, the ledger the property tests
    /// pin).
    fn requested(&self) -> u64;

    /// Drain `issued`/`coalesced` into
    /// [`EngineStats::issued_loads`]/[`EngineStats::coalesced_loads`] and
    /// flush the backend (work/stall/fault ticks) — the op's
    /// `flush_observed` contract.
    fn flush(&mut self, stats: &mut EngineStats);
}

/// The reference unit: every request issues, nothing is deduped.
///
/// Bit-exact with the pre-AMU plumbing (same backend calls in the same
/// order), which the conformance suite pins.
pub struct ScalarUnit<B> {
    backend: B,
    issued: u64,
    max_ready: u64,
}

impl<B: LoadBackend> ScalarUnit<B> {
    /// A scalar unit charging `backend`.
    pub fn new(backend: B) -> Self {
        ScalarUnit { backend, issued: 0, max_ready: 0 }
    }
}

impl<B: LoadBackend> MemUnit for ScalarUnit<B> {
    #[inline(always)]
    fn begin_lane(&mut self) -> u32 {
        0
    }

    #[inline(always)]
    fn retire_lane(&mut self, _group: u32) {}

    #[inline(always)]
    fn issue(&mut self, class: AddrClass, token: u64, _group: u32) -> Ticket {
        self.issued += 1;
        let (ready_at, failed) = self.backend.resolve(class, token);
        self.max_ready = self.max_ready.max(ready_at);
        Ticket { ready_at, failed, fresh: true }
    }

    #[inline(always)]
    fn commit_group(&mut self) {}

    #[inline(always)]
    fn poll(&self, t: &Ticket) -> Completion {
        if t.ready_at <= self.backend.now() {
            Completion::Ready
        } else {
            Completion::Pending
        }
    }

    #[inline(always)]
    fn wait(&mut self, ready_at: u64) {
        self.backend.wait_until(ready_at);
    }

    #[inline(always)]
    fn wait_group(&mut self) {
        self.backend.wait_until(self.max_ready);
    }

    #[inline(always)]
    fn stage(&mut self) {
        self.backend.stage();
    }

    #[inline(always)]
    fn now(&self) -> u64 {
        self.backend.now()
    }

    #[inline(always)]
    fn advance_to(&mut self, now: u64) {
        self.backend.advance_to(now);
    }

    #[inline(always)]
    fn issued(&self) -> u64 {
        self.issued
    }

    #[inline(always)]
    fn coalesced(&self) -> u64 {
        0
    }

    #[inline(always)]
    fn requested(&self) -> u64 {
        self.issued
    }

    fn flush(&mut self, stats: &mut EngineStats) {
        stats.issued_loads += core::mem::take(&mut self.issued);
        self.backend.flush(stats);
    }
}

/// One live commit group's dedup state.
struct GroupLines {
    id: u32,
    /// Lanes born into this group that have not retired.
    lanes: u32,
    /// `(line, ready_at)` of each request that actually issued. A group
    /// holds about one line per lane, so a linear scan beats hashing.
    lines: Vec<(u64, u64)>,
}

/// A batching unit that dedups duplicate cache-line requests across the
/// in-flight lanes of one commit group.
///
/// Group membership is assigned at lane birth and advances every
/// `group_size` births (plus explicit [`commit_group`](MemUnit::commit_group)
/// seals). Because every executor starts lookups in input order, group
/// `g` of a run always covers the same inputs — which makes
/// `issued_loads`/`coalesced_loads` identical across executors'
/// schedules, thread counts and morsel schedulings (morsel boundaries are
/// fixed input chunks; see `bench/bin/amu.rs`).
pub struct CoalescingUnit<B> {
    backend: B,
    group_size: u32,
    /// Lane births since the last group advance.
    births: u32,
    /// Current (open) group id.
    cur: u32,
    /// Live groups (a handful at a time: a group dies when its last lane
    /// retires, and executors keep at most `M` lanes in flight).
    groups: Vec<GroupLines>,
    /// Emptied line lists of dead groups, reused by new ones so a group
    /// birth does not allocate.
    spare: Vec<Vec<(u64, u64)>>,
    issued: u64,
    coalesced: u64,
    max_ready: u64,
}

impl<B: LoadBackend> CoalescingUnit<B> {
    /// A coalescing unit over `backend` advancing groups every
    /// `group_size` lane births (`>= 1` enforced).
    pub fn new(backend: B, group_size: usize) -> Self {
        CoalescingUnit {
            backend,
            group_size: group_size.max(1) as u32,
            births: 0,
            cur: 0,
            groups: Vec::new(),
            spare: Vec::new(),
            issued: 0,
            coalesced: 0,
            max_ready: 0,
        }
    }

    fn group_mut(&mut self, id: u32) -> &mut GroupLines {
        let idx = self
            .groups
            .iter()
            .position(|g| g.id == id)
            .expect("AMU protocol violation: issue/retire for a group with no live lanes");
        &mut self.groups[idx]
    }

    /// Seal the open group and sweep sealed groups with no live lanes
    /// (nothing can reference them again).
    fn advance_group(&mut self) {
        self.cur = self.cur.wrapping_add(1);
        self.births = 0;
        self.sweep(|g| g.lanes == 0);
    }

    /// Drop the groups matching `dead`, keeping their line lists for reuse.
    fn sweep(&mut self, dead: impl Fn(&GroupLines) -> bool) {
        let spare = &mut self.spare;
        self.groups.retain_mut(|g| {
            let keep = !dead(g);
            if !keep {
                g.lines.clear();
                spare.push(core::mem::take(&mut g.lines));
            }
            keep
        });
    }
}

impl<B: LoadBackend> MemUnit for CoalescingUnit<B> {
    fn begin_lane(&mut self) -> u32 {
        if self.births == self.group_size {
            self.advance_group();
        }
        self.births += 1;
        let id = self.cur;
        match self.groups.iter_mut().find(|g| g.id == id) {
            Some(g) => g.lanes += 1,
            None => {
                let lines = self.spare.pop().unwrap_or_default();
                self.groups.push(GroupLines { id, lanes: 1, lines });
            }
        }
        id
    }

    fn retire_lane(&mut self, group: u32) {
        let open = self.cur;
        let g = self.group_mut(group);
        g.lanes -= 1;
        // The OPEN group's line map must survive losing its last live
        // lane: later births join the same group, and dropping the map
        // mid-group would forget lines already issued — the dedup count
        // would then depend on lane lifetimes (which vary with carried
        // window state) instead of group composition alone. Sealed
        // groups gain no new lanes, so theirs can go at zero.
        if g.lanes == 0 && group != open {
            self.sweep(|g| g.id == group);
        }
    }

    fn issue(&mut self, class: AddrClass, token: u64, group: u32) -> Ticket {
        let line = class.line();
        let idx = self
            .groups
            .iter()
            .position(|g| g.id == group)
            .expect("AMU protocol violation: issue for a group with no live lanes");
        if let Some(&(_, ready_at)) = self.groups[idx].lines.iter().find(|&&(l, _)| l == line) {
            // Duplicate line within the commit group: ride the original
            // fill. The fault decision is still per-request (same
            // decision the scalar unit would have made), so results and
            // `load_faults` are identical with coalescing on or off.
            self.coalesced += 1;
            let failed = self.backend.resolve_dup(class, token);
            return Ticket { ready_at, failed, fresh: false };
        }
        self.issued += 1;
        let (ready_at, failed) = self.backend.resolve(class, token);
        self.groups[idx].lines.push((line, ready_at));
        self.max_ready = self.max_ready.max(ready_at);
        Ticket { ready_at, failed, fresh: true }
    }

    fn commit_group(&mut self) {
        if self.births > 0 {
            self.advance_group();
        }
    }

    #[inline(always)]
    fn poll(&self, t: &Ticket) -> Completion {
        if t.ready_at <= self.backend.now() {
            Completion::Ready
        } else {
            Completion::Pending
        }
    }

    #[inline(always)]
    fn wait(&mut self, ready_at: u64) {
        self.backend.wait_until(ready_at);
    }

    #[inline(always)]
    fn wait_group(&mut self) {
        self.backend.wait_until(self.max_ready);
    }

    #[inline(always)]
    fn stage(&mut self) {
        self.backend.stage();
    }

    #[inline(always)]
    fn now(&self) -> u64 {
        self.backend.now()
    }

    #[inline(always)]
    fn advance_to(&mut self, now: u64) {
        self.backend.advance_to(now);
    }

    #[inline(always)]
    fn issued(&self) -> u64 {
        self.issued
    }

    #[inline(always)]
    fn coalesced(&self) -> u64 {
        self.coalesced
    }

    #[inline(always)]
    fn requested(&self) -> u64 {
        self.issued + self.coalesced
    }

    fn flush(&mut self, stats: &mut EngineStats) {
        stats.issued_loads += core::mem::take(&mut self.issued);
        stats.coalesced_loads += core::mem::take(&mut self.coalesced);
        self.backend.flush(stats);
    }
}

/// The unit an op embeds, selected by its config's `coalesce` knob
/// (`None` = scalar, bit-exact with the pre-AMU plumbing; `Some(G)` =
/// dedup within groups of `G` lane births).
pub enum LoadUnit<B> {
    /// Issue every request verbatim.
    Scalar(ScalarUnit<B>),
    /// Dedup duplicate lines within a commit group.
    Coalescing(CoalescingUnit<B>),
}

impl<B: LoadBackend> LoadUnit<B> {
    /// A scalar unit over `backend`.
    pub fn scalar(backend: B) -> Self {
        LoadUnit::Scalar(ScalarUnit::new(backend))
    }

    /// A coalescing unit over `backend` with groups of `group_size`.
    pub fn coalescing(backend: B, group_size: usize) -> Self {
        LoadUnit::Coalescing(CoalescingUnit::new(backend, group_size))
    }

    /// Knob-driven constructor: `None` = scalar, `Some(G)` = coalescing.
    pub fn new(backend: B, coalesce: Option<usize>) -> Self {
        match coalesce {
            None => LoadUnit::scalar(backend),
            Some(g) => LoadUnit::coalescing(backend, g),
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $u:ident => $e:expr) => {
        match $self {
            LoadUnit::Scalar($u) => $e,
            LoadUnit::Coalescing($u) => $e,
        }
    };
}

impl<B: LoadBackend> MemUnit for LoadUnit<B> {
    #[inline(always)]
    fn begin_lane(&mut self) -> u32 {
        dispatch!(self, u => u.begin_lane())
    }

    #[inline(always)]
    fn retire_lane(&mut self, group: u32) {
        dispatch!(self, u => u.retire_lane(group))
    }

    #[inline(always)]
    fn issue(&mut self, class: AddrClass, token: u64, group: u32) -> Ticket {
        dispatch!(self, u => u.issue(class, token, group))
    }

    #[inline(always)]
    fn commit_group(&mut self) {
        dispatch!(self, u => u.commit_group())
    }

    #[inline(always)]
    fn poll(&self, t: &Ticket) -> Completion {
        dispatch!(self, u => u.poll(t))
    }

    #[inline(always)]
    fn wait(&mut self, ready_at: u64) {
        dispatch!(self, u => u.wait(ready_at))
    }

    #[inline(always)]
    fn wait_group(&mut self) {
        dispatch!(self, u => u.wait_group())
    }

    #[inline(always)]
    fn stage(&mut self) {
        dispatch!(self, u => u.stage())
    }

    #[inline(always)]
    fn now(&self) -> u64 {
        dispatch!(self, u => u.now())
    }

    #[inline(always)]
    fn advance_to(&mut self, now: u64) {
        dispatch!(self, u => u.advance_to(now))
    }

    #[inline(always)]
    fn issued(&self) -> u64 {
        dispatch!(self, u => u.issued())
    }

    #[inline(always)]
    fn coalesced(&self) -> u64 {
        dispatch!(self, u => u.coalesced())
    }

    #[inline(always)]
    fn requested(&self) -> u64 {
        dispatch!(self, u => u.requested())
    }

    #[inline(always)]
    fn flush(&mut self, stats: &mut EngineStats) {
        dispatch!(self, u => u.flush(stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backend with a real clock and a scripted fault set, so unit
    /// tests can exercise every protocol edge without the tier crate.
    #[derive(Default)]
    struct FakeBackend {
        now: u64,
        work: u64,
        stalls: u64,
        faults: u64,
        latency: u64,
        /// Tokens that fail (checked per request, like a fault plan).
        fail_tokens: Vec<u64>,
    }

    impl FakeBackend {
        fn with_latency(latency: u64) -> Self {
            FakeBackend { latency, ..Default::default() }
        }
    }

    impl LoadBackend for FakeBackend {
        fn stage(&mut self) {
            self.now += 1;
            self.work += 1;
        }
        fn now(&self) -> u64 {
            self.now
        }
        fn advance_to(&mut self, now: u64) {
            self.now = self.now.max(now);
        }
        fn resolve(&mut self, class: AddrClass, token: u64) -> (u64, bool) {
            let failed = matches!(class, AddrClass::Slab { .. }) && self.resolve_dup(class, token);
            (self.now + self.latency, failed)
        }
        fn resolve_dup(&mut self, class: AddrClass, token: u64) -> bool {
            if matches!(class, AddrClass::Slab { .. }) && self.fail_tokens.contains(&token) {
                self.faults += 1;
                return true;
            }
            false
        }
        fn wait_until(&mut self, ready_at: u64) {
            if ready_at > self.now {
                self.stalls += ready_at - self.now;
                self.now = ready_at;
            }
        }
        fn flush(&mut self, stats: &mut EngineStats) {
            stats.sim_cycles += core::mem::take(&mut self.work);
            stats.sim_stalls += core::mem::take(&mut self.stalls);
            stats.load_faults += core::mem::take(&mut self.faults);
        }
    }

    #[test]
    fn scalar_unit_issues_everything() {
        let mut u = ScalarUnit::new(FakeBackend::with_latency(4));
        let g = u.begin_lane();
        let a = u.issue(AddrClass::Header { line: 1 }, 0, g);
        let b = u.issue(AddrClass::Header { line: 1 }, 0, g);
        assert!(a.fresh && b.fresh, "scalar never dedups");
        assert_eq!((u.issued(), u.coalesced(), u.requested()), (2, 0, 2));
        assert_eq!(a.ready_at, 4);
        u.retire_lane(g);
        let mut s = EngineStats::default();
        u.flush(&mut s);
        assert_eq!((s.issued_loads, s.coalesced_loads), (2, 0));
        assert_eq!(u.issued(), 0, "flush drains the counters");
    }

    #[test]
    fn coalescing_dedups_within_a_group_only() {
        let mut u = CoalescingUnit::new((), 2);
        let a = u.begin_lane();
        let b = u.begin_lane();
        assert_eq!(a, b, "two births fit one group of 2");
        assert!(u.issue(AddrClass::Header { line: 9 }, 0, a).fresh);
        assert!(!u.issue(AddrClass::Header { line: 9 }, 0, b).fresh, "same group dedups");
        // Third lane overflows into the next group: no dedup across.
        let c = u.begin_lane();
        assert_ne!(c, a);
        assert!(u.issue(AddrClass::Header { line: 9 }, 0, c).fresh, "new group, fresh line");
        assert_eq!((u.issued(), u.coalesced(), u.requested()), (2, 1, 3));
        u.retire_lane(a);
        u.retire_lane(b);
        u.retire_lane(c);
        // The sealed group freed its dedup set at the last retire; the
        // OPEN group keeps its map (later births join it and must see
        // the lines already issued, whatever the retire timing was).
        assert_eq!(u.groups.len(), 1, "only the open group survives its lanes");
        assert_eq!(u.groups[0].id, c);
        u.commit_group();
        assert!(u.groups.is_empty(), "the seal sweeps the emptied group");
    }

    #[test]
    fn commit_group_seals_early() {
        let mut u = CoalescingUnit::new((), 8);
        let a = u.begin_lane();
        u.issue(AddrClass::Header { line: 5 }, 0, a);
        u.commit_group();
        let b = u.begin_lane();
        assert_ne!(a, b, "commit sealed the half-full group");
        assert!(u.issue(AddrClass::Header { line: 5 }, 0, b).fresh, "no dedup across the seal");
        // An empty current group makes commit a no-op.
        u.commit_group();
        u.commit_group();
        let c = u.begin_lane();
        assert_eq!(c, b.wrapping_add(1), "redundant commits do not burn group ids");
        u.retire_lane(a);
        u.retire_lane(b);
        u.retire_lane(c);
    }

    #[test]
    fn group_advance_matches_explicit_commit_at_boundary() {
        // Auto-advance at a full group == an explicit commit at the same
        // boundary: the property that keeps morsel feeds and one-shot
        // runs on identical groupings.
        let mut auto_u = CoalescingUnit::new((), 2);
        let mut explicit = CoalescingUnit::new((), 2);
        let mut auto_ids = Vec::new();
        let mut explicit_ids = Vec::new();
        for i in 0..6 {
            auto_ids.push(auto_u.begin_lane());
            explicit_ids.push(explicit.begin_lane());
            if i % 2 == 1 {
                explicit.commit_group();
            }
        }
        assert_eq!(auto_ids, explicit_ids);
    }

    #[test]
    fn dup_of_failed_request_still_decides_its_own_fault() {
        let mut b = FakeBackend::with_latency(4);
        b.fail_tokens = vec![7];
        let mut u = CoalescingUnit::new(b, 4);
        let g = u.begin_lane();
        let g2 = u.begin_lane();
        let first = u.issue(AddrClass::Slab { slab: 0, line: 3 }, 7, g);
        assert!(first.failed && first.fresh);
        // Same line, healthy token: coalesced, not failed.
        let dup = u.issue(AddrClass::Slab { slab: 0, line: 3 }, 8, g2);
        assert!(!dup.failed && !dup.fresh);
        assert_eq!(dup.ready_at, first.ready_at, "dup rides the original fill");
        // Same line, failing token: coalesced AND failed — the per-request
        // decision a scalar unit would also have made.
        let dup_bad = u.issue(AddrClass::Slab { slab: 0, line: 3 }, 7, g2);
        assert!(dup_bad.failed && !dup_bad.fresh);
        let mut s = EngineStats::default();
        u.retire_lane(g);
        u.retire_lane(g2);
        u.flush(&mut s);
        assert_eq!(s.load_faults, 2, "both failing requests charged the fault counter");
        assert_eq!((s.issued_loads, s.coalesced_loads), (1, 2));
    }

    #[test]
    fn poll_wait_and_wait_group_track_the_clock() {
        let mut u: LoadUnit<FakeBackend> = LoadUnit::scalar(FakeBackend::with_latency(10));
        let g = u.begin_lane();
        let t = u.issue(AddrClass::Header { line: 0 }, 0, g);
        assert_eq!(u.poll(&t), Completion::Pending);
        u.stage();
        assert_eq!(u.now(), 1);
        u.wait(t.ready_at);
        assert_eq!(u.poll(&t), Completion::Ready);
        let t2 = u.issue(AddrClass::Header { line: 1 }, 0, g);
        u.wait_group();
        assert_eq!(u.poll(&t2), Completion::Ready, "wait_group awaits every issued load");
        let mut s = EngineStats::default();
        u.retire_lane(g);
        u.flush(&mut s);
        assert_eq!(s.sim_stalls, 9 + 10, "both waits charged their stalls");
    }

    #[test]
    fn untiered_backend_is_always_ready() {
        let mut u: LoadUnit<()> = LoadUnit::new((), Some(4));
        let g = u.begin_lane();
        let t = u.issue(AddrClass::Slab { slab: 2, line: 11 }, 99, g);
        assert_eq!((t.ready_at, t.failed, t.fresh), (0, false, true));
        assert_eq!(u.poll(&t), Completion::Ready);
        u.wait(t.ready_at);
        u.wait_group();
        assert_eq!(u.now(), 0, "the free backend keeps no time");
        u.retire_lane(g);
    }

    #[test]
    fn option_backend_lifts_none_to_noop() {
        let mut none: Option<FakeBackend> = None;
        assert_eq!(none.resolve(AddrClass::Header { line: 0 }, 0), (0, false));
        none.stage();
        assert_eq!(LoadBackend::now(&none), 0);
        let mut some = Some(FakeBackend::with_latency(3));
        some.stage();
        assert_eq!(LoadBackend::now(&some), 1);
        assert_eq!(some.resolve(AddrClass::Header { line: 0 }, 0), (4, false));
    }

    #[test]
    fn addr_class_lines_are_pointer_cache_lines() {
        let x = [0u8; 256];
        let p = x.as_ptr();
        assert_eq!(AddrClass::header_ptr(p).line(), p as u64 >> 6);
        let q = unsafe { p.add(64) };
        assert_ne!(AddrClass::header_ptr(p).line(), AddrClass::header_ptr(q).line());
        assert_eq!(AddrClass::slab_ptr(3, p).line(), p as u64 >> 6);
    }
}
