//! The simulated-clock window calibration against a synthetic chain op:
//! `TuningParams::auto_sim` must hill-climb to a ladder rung, stay on
//! the default when the latency is already hidden, and deepen the window
//! once the far tier out-runs it. (The same property over the real
//! `ProbeOp` lives in `crates/ops/tests/tier_sim.rs`.)

use amac::engine::{
    EngineStats, Env, LookupOp, Step, TuningParams, AUTO_MAX_IN_FLIGHT, AUTO_MIN_IN_FLIGHT,
};
use amac_tier::{SimClock, Tier, TierSpec};

/// A chain-walking op whose every hop lands in the far tier — the
/// minimal tiered `LookupOp` (mirrors what `ProbeOp` does with a clock).
struct FarChainOp {
    chains: Vec<usize>,
    clock: SimClock,
}

#[derive(Default)]
struct ChainState {
    left: usize,
    ready_at: u64,
}

impl FarChainOp {
    fn new(chains: &[usize], mult: u64) -> Self {
        FarChainOp { chains: chains.to_vec(), clock: TierSpec::headers_near(mult).clock() }
    }
}

impl LookupOp for FarChainOp {
    type Input = usize;
    type State = ChainState;

    fn budgeted_steps(&self) -> usize {
        3
    }

    fn start(&mut self, input: usize, state: &mut ChainState) {
        state.left = self.chains[input];
        self.clock.stage();
        state.ready_at = self.clock.issue(Tier::Far);
    }

    fn step(&mut self, state: &mut ChainState) -> Step {
        self.clock.touch(state.ready_at);
        self.clock.stage();
        if state.left <= 1 {
            return Step::Done;
        }
        state.left -= 1;
        state.ready_at = self.clock.issue(Tier::Far);
        Step::Continue
    }

    fn flush_observed(&mut self, stats: &mut EngineStats) {
        self.clock.flush(stats);
    }

    fn envs(&mut self, mut f: impl FnMut(&mut dyn Env)) {
        f(&mut self.clock);
    }
}

fn chains(n: usize) -> Vec<usize> {
    (0..n).map(|i| 1 + (i * 13) % 5).collect()
}

#[test]
fn auto_sim_rests_on_default_when_latency_is_hidden() {
    let ch = chains(4096);
    let inputs: Vec<usize> = (0..ch.len()).collect();
    let m = TuningParams::auto_sim(|| FarChainOp::new(&ch, 1), &inputs).in_flight;
    assert_eq!(m, TuningParams::default().in_flight, "4-tick loads are hidden at M = 10");
}

#[test]
fn auto_sim_deepens_the_window_at_8x() {
    let ch = chains(4096);
    let inputs: Vec<usize> = (0..ch.len()).collect();
    let m1 = TuningParams::auto_sim(|| FarChainOp::new(&ch, 1), &inputs).in_flight;
    let m8 = TuningParams::auto_sim(|| FarChainOp::new(&ch, 8), &inputs).in_flight;
    assert!((AUTO_MIN_IN_FLIGHT..=AUTO_MAX_IN_FLIGHT).contains(&m1), "picked {m1}");
    assert!((AUTO_MIN_IN_FLIGHT..=AUTO_MAX_IN_FLIGHT).contains(&m8), "picked {m8}");
    assert!(m8 > 32, "8x far latency = 32 ticks: M = {m8} must out-window it");
    assert!(m8 > m1, "deeper far tier must mean deeper window ({m1} -> {m8})");
}

#[test]
fn auto_sim_small_samples_fall_back_to_default() {
    let ch = chains(100);
    let inputs: Vec<usize> = (0..ch.len()).collect();
    let m = TuningParams::auto_sim(|| FarChainOp::new(&ch, 8), &inputs).in_flight;
    assert_eq!(m, TuningParams::default().in_flight);
}
