//! The metric names and units this benchmark prints. `BENCHMARK.json`
//! lists the same names; a test holds the two together.

/// Which workload's ops a metric is taken from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Home {
    /// `play_n4f1` and `play_n10f3`, which share their layers.
    Play,
    Sweep,
    Flood,
    /// Whichever workload the run is of.
    Run,
}

/// One metric: its name, its unit and where it is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub home: Home,
}

const fn def(home: Home, name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, home }
}

/// What a user of the system sees; printed by the timed run. The two
/// time metrics of the ops are taken from the fast end of the run, as
/// `setup_s` is from the fast end of its repetitions: the host's other
/// tenants only ever slow an op down, and the whole-run rate and the
/// median spread too far between same-code runs to carry a bound (the
/// README has the numbers), so those are `run.*` layers.
pub const END_TO_END: [Def; 6] = [
    def(Home::Run, "ops_per_s_best", "ops/s"),
    def(Home::Run, "op_ms_p05", "ms"),
    def(Home::Run, "setup_s", "s"),
    def(Home::Run, "peak_rss_mib", "MiB"),
    def(Home::Run, "bytes_per_op", "bytes"),
    def(Home::Run, "rounds_per_op", "rounds"),
];

/// Single layers; printed by the traced run. Every traced run fills the
/// whole list: its own workload's layers from its traced ops, the other
/// layers from a short probe of the workload they belong to.
pub const PER_LAYER: [Def; 59] = [
    // game-authority, on the plays: one `Simulation::step` per pulse,
    // attributed to the phase the clock value names.
    def(Home::Play, "core.phase_wrap_ms", "ms"),
    def(Home::Play, "core.phase_ba1_ms", "ms"),
    def(Home::Play, "core.phase_commit_ms", "ms"),
    def(Home::Play, "core.phase_ba2_ms", "ms"),
    def(Home::Play, "core.phase_reveal_ms", "ms"),
    def(Home::Play, "core.phase_ba3_ms", "ms"),
    def(Home::Play, "core.phase_exec_ms", "ms"),
    def(Home::Play, "core.phase_wrap_bytes", "bytes"),
    def(Home::Play, "core.phase_ba1_bytes", "bytes"),
    def(Home::Play, "core.phase_commit_bytes", "bytes"),
    def(Home::Play, "core.phase_ba2_bytes", "bytes"),
    def(Home::Play, "core.phase_reveal_bytes", "bytes"),
    def(Home::Play, "core.phase_ba3_bytes", "bytes"),
    def(Home::Play, "core.phase_exec_bytes", "bytes"),
    def(Home::Play, "core.msgs_per_op", "count"),
    // ga-agreement, isolated at the play's (n, f).
    def(Home::Play, "agreement.om_ms", "ms"),
    def(Home::Play, "agreement.dolev_strong_ms", "ms"),
    def(Home::Play, "agreement.om_bytes", "bytes"),
    def(Home::Play, "agreement.dolev_strong_bytes", "bytes"),
    def(Home::Play, "agreement.om_rounds", "rounds"),
    def(Home::Play, "agreement.om_share", "ratio"),
    // ga-simnet under the plays.
    def(Home::Play, "simnet.floor_pulse_ns", "ns"),
    def(Home::Play, "simnet.floor_share", "ratio"),
    // ga-clocksync, ga-crypto, ga-game-theory, isolated.
    def(Home::Play, "clocksync.clock_step_ns", "ns"),
    def(Home::Play, "crypto.commit_verify_ns", "ns"),
    def(Home::Play, "crypto.sha256_1k_ns", "ns"),
    def(Home::Play, "game_theory.best_response_ns", "ns"),
    // ga-scenario, on the sweep.
    def(Home::Sweep, "scenario.spec_build_ms", "ms"),
    def(Home::Sweep, "scenario.run_ms.smoke", "ms"),
    def(Home::Sweep, "scenario.run_ms.unsupportive", "ms"),
    def(Home::Sweep, "scenario.us_per_round", "us"),
    def(Home::Sweep, "scenario.rounds_per_run", "rounds"),
    def(Home::Sweep, "scenario.msgs_per_run", "count"),
    def(Home::Sweep, "scenario.topology_build_us", "us"),
    def(Home::Sweep, "sweep.dispatch_ms", "ms"),
    def(Home::Sweep, "summary.aggregate_ms", "ms"),
    def(Home::Sweep, "summary.to_json_ms", "ms"),
    def(Home::Sweep, "summary.render_ms", "ms"),
    def(Home::Sweep, "summary.json_bytes", "bytes"),
    // ga-simnet, on the flood.
    def(Home::Flood, "topology.build_ms", "ms"),
    def(Home::Flood, "simnet.build_slab_ms", "ms"),
    def(Home::Flood, "simnet.build_boxed_ms", "ms"),
    def(Home::Flood, "simnet.step_ms_p50", "ms"),
    def(Home::Flood, "simnet.step_ms_p99", "ms"),
    def(Home::Flood, "simnet.ns_per_msg", "ns"),
    def(Home::Flood, "simnet.msgs_per_round", "count"),
    def(Home::Flood, "simnet.step_ms_boxed", "ms"),
    def(Home::Flood, "simnet.step_ms_events_on", "ms"),
    def(Home::Flood, "simnet.step_ms_s2", "ms"),
    def(Home::Flood, "simnet.shard_speedup_s2", "ratio"),
    def(Home::Flood, "simnet.step_ms_s2_replan", "ms"),
    // The run itself: the untraced ops as a whole.
    def(Home::Run, "run.ops_per_s", "ops/s"),
    def(Home::Run, "run.ops_per_s_q1", "ops/s"),
    def(Home::Run, "run.ops_per_s_q3", "ops/s"),
    def(Home::Run, "run.op_ms_p50", "ms"),
    def(Home::Run, "run.op_ms_p99", "ms"),
    def(Home::Run, "run.setup_cold_s", "s"),
    def(Home::Run, "run.cpu_busy_frac", "ratio"),
    def(Home::Run, "run.trace_overhead_pct", "%"),
];

/// Measured values for a fixed list of metrics, every one starting at 0.
#[derive(Debug, Clone)]
pub struct Ledger {
    defs: &'static [Def],
    values: Vec<f64>,
}

impl Ledger {
    /// A ledger over `defs`, all zero.
    pub fn new(defs: &'static [Def]) -> Ledger {
        Ledger {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of the ledger's metrics.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not a metric of this ledger"));
        self.values[i] = value;
    }

    /// The value recorded under `name` (0 if never set).
    pub fn get(&self, name: &str) -> f64 {
        self.rows()
            .find(|(d, _)| d.name == name)
            .map_or(0.0, |(_, v)| v)
    }

    /// Every metric with its value, in definition order.
    pub fn rows(&self) -> impl Iterator<Item = (Def, f64)> + '_ {
        self.defs.iter().copied().zip(self.values.iter().copied())
    }
}
