//! The Harmonia-style second RL agent: a tick-level C51 policy that
//! chooses how aggressively to migrate, trained online from the latency
//! change each plan causes.
//!
//! Where the placement agent decides *per request*, this agent decides
//! per migration *tick*: its three actions are "move nothing", "promote
//! hot pages", and "promote and demote". The candidate machinery is the
//! same deterministic scan the heuristic uses ([`hot_cold_plan`]); what
//! the agent learns is *when* each intensity pays — promotion is free
//! latency when the hot set went stale after a phase shift, but pure
//! cost when residency already matches the workload. It reuses
//! `sibyl-core`'s [`Learner`] (replay buffer, C51 head, two-network
//! training) and [`DecisionCore`] (the ε-greedy loop) with its own feature
//! vector, reward and tick cadence, exactly the "second agent, same
//! machinery" structure Harmonia describes.

use sibyl_core::{DecisionCore, Learner, SibylConfig};
use sibyl_hss::PageMove;

use crate::config::MigrateConfig;
use crate::policy::{hot_cold_plan, CandidateScan, TickWindow};

/// Tick actions: nothing, promote-only, promote + demote.
const N_ACTIONS: usize = 3;

/// Observation features: fast fill, candidate heat, candidate
/// availability, hit-rate delta.
const OBS_LEN: usize = 4;

/// Ticks between training steps.
const TRAIN_TICKS: u64 = 4;

/// Counters describing the RL migration agent's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RlMigrationStats {
    /// Ticks decided.
    decisions: u64,
    /// Decisions taken by random exploration.
    explorations: u64,
    /// Tick transitions pushed into the replay buffer.
    experiences: u64,
    /// Training steps completed.
    train_steps: u64,
}

/// The tick-level RL migration policy.
#[derive(Debug)]
pub(crate) struct RlMigration {
    learner: Learner,
    core: DecisionCore,
    /// Fast-placement fraction of the previous window (hit-rate-delta
    /// feature).
    prev_fast_fraction: f64,
    stats: RlMigrationStats,
}

impl RlMigration {
    /// Builds the agent, seeded from the migration configuration.
    pub(crate) fn new(cfg: &MigrateConfig) -> Self {
        // The learner is sibyl-core's, configured for the tick-level MDP.
        // Smaller than the placement agent's everywhere — it decides once
        // per *tick*, not once per request, so its experience stream is two
        // to three orders of magnitude thinner; the anneal runs over ticks.
        // `train_interval` is unused (training is driven by tick count
        // here), so it is pinned to 1.
        let sibyl = SibylConfig {
            discount: 0.8,
            learning_rate: 1e-2,
            exploration: 0.02,
            exploration_initial: 0.4,
            exploration_decay_requests: 150,
            batch_size: 32,
            buffer_capacity: 256,
            batches_per_step: 2,
            train_interval: 1,
            hidden_dims: [16, 16],
            n_atoms: 21,
            v_min: -2.0,
            v_max: 2.0,
            seed: cfg.seed ^ 0x4A8A_9D2E,
            ..Default::default()
        };
        Self::with_agent(&sibyl, cfg.seed)
    }

    /// [`RlMigration::new`] with the agent's hyper-parameters given, for
    /// the tests that vary them.
    fn with_agent(sibyl: &SibylConfig, seed: u64) -> Self {
        RlMigration {
            learner: Learner::new(sibyl, N_ACTIONS, OBS_LEN),
            core: DecisionCore::new(sibyl, N_ACTIONS, seed ^ 0x31C2_A70D),
            prev_fast_fraction: 0.0,
            stats: RlMigrationStats::default(),
        }
    }

    /// Activity counters.
    #[cfg(test)]
    fn stats(&self) -> &RlMigrationStats {
        &self.stats
    }

    /// The observation for one tick: every feature normalized into
    /// `[0, 1]`.
    fn observe(
        &self,
        scan: &CandidateScan,
        window: &TickWindow,
        cfg: &MigrateConfig,
    ) -> [f32; OBS_LEN] {
        let mean_heat = if scan.promote.is_empty() {
            0.0
        } else {
            scan.promote.iter().map(|&(h, _, _)| h as f64).sum::<f64>() / scan.promote.len() as f64
        };
        let avail = scan.promote.len() as f64 / cfg.max_moves_per_tick.max(1) as f64;
        let hit_delta = (window.fast_fraction - self.prev_fast_fraction).clamp(-0.5, 0.5) + 0.5;
        [
            scan.fast_fill.clamp(0.0, 1.0) as f32,
            (mean_heat / (mean_heat + 8.0)) as f32,
            avail.clamp(0.0, 1.0) as f32,
            hit_delta as f32,
        ]
    }

    /// Shapes the previous plan's reward from the post-migration latency
    /// change: the relative improvement of `window`, the one that followed
    /// the plan, over `prev`, the one that preceded it (`None` on the
    /// first tick), clamped to `[-1, 1]`, minus a small cost proportional
    /// to the `moved_pages` the plan moved — so "move everything every
    /// tick" only wins when moving actually pays.
    pub(crate) fn feedback(
        &mut self,
        window: &TickWindow,
        prev: Option<&TickWindow>,
        moved_pages: u64,
    ) {
        // A window that cannot be compared earns the plan no reward.
        self.core.set_reward(None);
        let Some(prev) = prev else {
            return;
        };
        if prev.requests == 0 || window.requests == 0 || prev.avg_latency_us <= 0.0 {
            return;
        }
        let improvement =
            ((prev.avg_latency_us - window.avg_latency_us) / prev.avg_latency_us).clamp(-1.0, 1.0);
        let cost = 0.05 * (moved_pages as f64 / 64.0).min(1.0);
        self.core.set_reward(Some((improvement - cost) as f32));
    }

    /// Plans this tick's moves: demotions before promotions, so the
    /// executor can hand the room they free to the promotions.
    pub(crate) fn plan(
        &mut self,
        scan: &CandidateScan,
        window: &TickWindow,
        cfg: &MigrateConfig,
    ) -> Vec<PageMove> {
        let obs = self.observe(scan, window, cfg);
        // The previous tick's decision closes now that its reward (from
        // `feedback`) and next observation are both known.
        if let Some(exp) = self.core.close(&obs) {
            self.learner.push(exp);
            self.stats.experiences += 1;
        }
        // Train on the tick schedule.
        if self.stats.decisions > 0
            && self.stats.decisions.is_multiple_of(TRAIN_TICKS)
            && self.learner.train_step()
        {
            self.stats.train_steps = self.learner.train_steps();
        }
        let action = self.core.act(self.learner.inference(), &obs)[0];
        self.stats.decisions = self.core.decisions();
        self.stats.explorations = self.core.explorations();
        self.prev_fast_fraction = window.fast_fraction;
        match action {
            0 => Vec::new(),
            1 => hot_cold_plan(scan, cfg, true, false),
            _ => hot_cold_plan(scan, cfg, true, true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MigratePolicyKind;
    use sibyl_hss::DeviceId;

    fn cfg() -> MigrateConfig {
        MigrateConfig::new(MigratePolicyKind::Rl)
    }

    fn scan() -> CandidateScan {
        CandidateScan {
            promote: vec![(5, 100, DeviceId(1)), (4, 101, DeviceId(1))],
            demote: vec![(900, 7)],
            fast_fill: 0.8,
            free_fast: 16,
            fast: DeviceId(0),
            demote_to: DeviceId(1),
        }
    }

    fn window(avg: f64) -> TickWindow {
        TickWindow {
            requests: 100,
            avg_latency_us: avg,
            fast_fraction: 0.5,
        }
    }

    /// Drives the agent through `n` ticks with a fixed improvement signal.
    fn drive(agent: &mut RlMigration, n: u64, improving: bool) {
        let c = cfg();
        let mut prev: Option<TickWindow> = None;
        let mut moved = 0u64;
        for i in 0..n {
            let avg = if improving {
                1_000.0 / (1.0 + i as f64 * 0.01)
            } else {
                1_000.0
            };
            let w = window(avg);
            agent.feedback(&w, prev.as_ref(), moved);
            let moves = agent.plan(&scan(), &w, &c);
            moved = moves.len() as u64;
            prev = Some(w);
        }
    }

    #[test]
    fn agent_collects_experiences_and_trains() {
        let mut agent = RlMigration::new(&cfg());
        drive(&mut agent, 60, true);
        let st = agent.stats();
        assert_eq!(st.decisions, 60);
        assert!(st.experiences >= 50, "experiences: {}", st.experiences);
        assert!(st.train_steps > 0, "agent must train on the tick schedule");
        assert!(st.explorations > 0, "initial ε must explore");
    }

    #[test]
    fn seeded_agents_are_deterministic() {
        let run = || {
            let mut agent = RlMigration::new(&cfg());
            let mut trail = Vec::new();
            let c = cfg();
            let mut prev: Option<TickWindow> = None;
            for i in 0..40u64 {
                let w = window(500.0 + (i % 7) as f64 * 50.0);
                agent.feedback(&w, prev.as_ref(), i % 3);
                trail.push(agent.plan(&scan(), &w, &c));
                prev = Some(w);
            }
            format!("{trail:?}|{:?}", agent.stats())
        };
        let trail = run();
        assert_eq!(trail, run(), "seeded RL migration must be deterministic");
        // Absolute, so a refactor that shifts every run alike still fails:
        // FNV-1a of the plan trail and counters, nine train steps in.
        let digest = trail.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(
            digest, 3_388_402_632_189_236_064,
            "plan trail drifted: {trail}"
        );
    }

    #[test]
    fn first_tick_has_no_reward_to_learn_from() {
        let mut agent = RlMigration::new(&cfg());
        agent.feedback(&window(100.0), None, 0);
        let _ = agent.plan(&scan(), &window(100.0), &cfg());
        assert_eq!(agent.stats().experiences, 0);
        // Second tick closes the first window: now an experience exists.
        agent.feedback(&window(90.0), Some(&window(100.0)), 2);
        let _ = agent.plan(&scan(), &window(90.0), &cfg());
        assert_eq!(agent.stats().experiences, 1);
    }

    #[test]
    fn actions_map_to_plan_shapes() {
        // Whatever the agent picks, the plan is one of the three shapes;
        // over many ticks with an always-exploring agent all three appear.
        let c = cfg();
        let always_explore = SibylConfig {
            exploration: 1.0,
            exploration_initial: 1.0,
            ..Default::default()
        };
        let mut agent = RlMigration::with_agent(&always_explore, c.seed);
        let mut shapes = std::collections::HashSet::new();
        let mut prev: Option<TickWindow> = None;
        for _ in 0..60 {
            let w = window(100.0);
            agent.feedback(&w, prev.as_ref(), 0);
            let moves = agent.plan(&scan(), &w, &c);
            let demotes = moves.iter().filter(|m| m.to == DeviceId(1)).count();
            let promotes = moves.len() - demotes;
            shapes.insert((promotes > 0, demotes > 0));
            prev = Some(w);
        }
        assert!(shapes.contains(&(false, false)), "action 0: nothing");
        assert!(shapes.contains(&(true, false)), "action 1: promote only");
        assert!(shapes.contains(&(true, true)), "action 2: promote+demote");
    }
}
