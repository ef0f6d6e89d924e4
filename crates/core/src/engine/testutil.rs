//! Mock lookup ops used by the executor unit tests.

use super::{Env, LookupOp, Step};
use amac_trace::Tracer;

/// A simulated pointer chase: lookup `i` needs exactly `chains[i]` steps
/// and then materializes `10 * chains[i]` at output position `i`.
///
/// No real memory is chased — this isolates executor *scheduling* logic so
/// stage/no-op/bailout accounting can be asserted exactly.
pub struct ChainOp {
    chains: Vec<usize>,
    /// Output slot per input index (paper: materialized via the rid field).
    pub outputs: Vec<u64>,
    budget: usize,
    in_flight: usize,
    /// Highest number of simultaneously in-flight lookups observed.
    pub max_concurrent: usize,
}

/// Per-lookup state for [`ChainOp`].
#[derive(Default)]
pub struct ChainState {
    idx: usize,
    remaining: usize,
}

impl ChainOp {
    /// Mock with the default stage budget (4, the paper's common case).
    pub fn new(chains: &[usize]) -> Self {
        Self::with_budget(chains, 4)
    }

    /// Mock with an explicit GP/SPP stage budget `n`.
    pub fn with_budget(chains: &[usize], n: usize) -> Self {
        ChainOp {
            chains: chains.to_vec(),
            outputs: vec![0; chains.len()],
            budget: n,
            in_flight: 0,
            max_concurrent: 0,
        }
    }
}

impl LookupOp for ChainOp {
    type Input = usize;
    type State = ChainState;

    fn budgeted_steps(&self) -> usize {
        self.budget
    }

    fn start(&mut self, input: usize, state: &mut ChainState) {
        assert!(self.chains[input] >= 1, "chains must need at least one step");
        state.idx = input;
        state.remaining = self.chains[input];
        self.in_flight += 1;
        self.max_concurrent = self.max_concurrent.max(self.in_flight);
    }

    fn step(&mut self, state: &mut ChainState) -> Step {
        if state.remaining > 1 {
            state.remaining -= 1;
            Step::Continue
        } else {
            self.outputs[state.idx] = 10 * self.chains[state.idx] as u64;
            self.in_flight -= 1;
            Step::Done
        }
    }
}

/// A mock with an in-flight latch dependency: lookup 0 blocks until every
/// other lookup has completed (a deliberately adversarial single-threaded
/// conflict that dead-locks any executor that spins in place while holding
/// back the blocker's progress).
pub struct LatchedOp {
    n: usize,
    remaining_others: usize,
    /// Completion order.
    pub completed: Vec<usize>,
}

/// Per-lookup state for [`LatchedOp`].
#[derive(Default)]
pub struct LatchedState {
    idx: usize,
    steps_left: usize,
}

impl LatchedOp {
    /// `n` lookups; inputs must be `0..n`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2);
        LatchedOp { n, remaining_others: n - 1, completed: Vec::new() }
    }
}

impl LookupOp for LatchedOp {
    type Input = usize;
    type State = LatchedState;

    fn budgeted_steps(&self) -> usize {
        2
    }

    fn start(&mut self, input: usize, state: &mut LatchedState) {
        assert!(input < self.n);
        state.idx = input;
        state.steps_left = 2;
    }

    fn step(&mut self, state: &mut LatchedState) -> Step {
        if state.idx == 0 && self.remaining_others > 0 {
            return Step::Blocked;
        }
        state.steps_left -= 1;
        if state.steps_left == 0 {
            if state.idx != 0 {
                self.remaining_others -= 1;
            }
            self.completed.push(state.idx);
            Step::Done
        } else {
            Step::Continue
        }
    }
}

/// A one-step op that is its own memory environment, exposing everything
/// that reached it: its clock, the commit groups sealed on it and its
/// tracer. `start` and `step` each charge one tick; a traced `step`
/// records a retirement keyed by `id`, so tests can see which member env
/// an event landed in.
#[derive(Default)]
pub struct EnvOp {
    /// Identifies this op's events (`key` of its retire events).
    pub id: u64,
    /// Simulated time.
    pub now: u64,
    /// `commit_group` calls received.
    pub commits: u32,
    /// The installed tracer (disabled until one is set).
    pub trace: Tracer,
}

impl EnvOp {
    /// An op `id` whose clock starts at `now`.
    pub fn at(id: u64, now: u64) -> Self {
        EnvOp { id, now, ..Default::default() }
    }
}

impl Env for EnvOp {
    fn now(&self) -> u64 {
        self.now
    }

    fn advance_to(&mut self, now: u64) {
        self.now = self.now.max(now);
    }

    fn commit_group(&mut self) {
        self.commits += 1;
    }

    fn tracer(&mut self) -> Option<&mut Tracer> {
        Some(&mut self.trace)
    }
}

impl LookupOp for EnvOp {
    type Input = ();
    type State = ();

    fn budgeted_steps(&self) -> usize {
        1
    }

    fn start(&mut self, _input: (), _state: &mut ()) {
        self.now += 1;
    }

    fn step(&mut self, _state: &mut ()) -> Step {
        self.now += 1;
        self.trace.retire(self.now, "env", self.id, 0, false);
        Step::Done
    }

    fn envs(&mut self, mut f: impl FnMut(&mut dyn Env)) {
        f(self);
    }
}
