//! Enumerated policy constructors for the experiment runner.

use sibyl_core::{SibylAgent, SibylConfig};
use sibyl_hss::PlacementPolicy;
use sibyl_policies::{Archivist, Cde, FastOnly, Hps, Oracle, RnnHss, SlowOnly, TriHybridHeuristic};

/// A buildable description of a placement policy — what the figures'
/// legends enumerate.
#[derive(Debug, Clone)]
pub enum PolicyKind {
    /// All data on the slowest device.
    SlowOnly,
    /// All data on the fastest device (run with unlimited capacity; the
    /// normalization baseline).
    FastOnly,
    /// Cold-data eviction heuristic.
    Cde,
    /// History-based page selection heuristic.
    Hps,
    /// Supervised NN classifier.
    Archivist,
    /// RNN hotness predictor (Kleio-style).
    RnnHss,
    /// Future-knowledge oracle.
    Oracle,
    /// Hot/cold/frozen tri-device heuristic (§8.7 baseline).
    TriHybridHeuristic,
    /// The RL agent, with its full configuration.
    Sibyl(Box<SibylConfig>),
}

impl PolicyKind {
    /// Sibyl with the paper's default hyper-parameters (Table 2).
    pub fn sibyl() -> Self {
        PolicyKind::Sibyl(Box::default())
    }

    /// Sibyl with an explicit configuration.
    pub fn sibyl_with(config: SibylConfig) -> Self {
        PolicyKind::Sibyl(Box::new(config))
    }

    /// The `Sibyl_Opt` mixed-workload variant (§8.3).
    pub fn sibyl_opt() -> Self {
        PolicyKind::Sibyl(Box::new(SibylConfig::mixed_workload_optimized()))
    }

    /// The display name used in figures.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::SlowOnly => "Slow-Only",
            PolicyKind::FastOnly => "Fast-Only",
            PolicyKind::Cde => "CDE",
            PolicyKind::Hps => "HPS",
            PolicyKind::Archivist => "Archivist",
            PolicyKind::RnnHss => "RNN-HSS",
            PolicyKind::Oracle => "Oracle",
            PolicyKind::TriHybridHeuristic => "Heuristic-Tri-Hybrid",
            PolicyKind::Sibyl(_) => "Sibyl",
        }
    }

    /// `true` for the Fast-Only baseline, which runs with unlimited
    /// capacities (§7: all data resides in the fast storage).
    pub fn wants_unlimited_capacity(&self) -> bool {
        matches!(self, PolicyKind::FastOnly)
    }

    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn PlacementPolicy + Send> {
        match self {
            PolicyKind::SlowOnly => Box::new(SlowOnly),
            PolicyKind::FastOnly => Box::new(FastOnly),
            PolicyKind::Cde => Box::new(Cde::default()),
            PolicyKind::Hps => Box::new(Hps::default()),
            PolicyKind::Archivist => Box::new(Archivist::default()),
            PolicyKind::RnnHss => Box::new(RnnHss::default()),
            PolicyKind::Oracle => Box::new(Oracle),
            PolicyKind::TriHybridHeuristic => Box::new(TriHybridHeuristic::default()),
            PolicyKind::Sibyl(cfg) => Box::new(SibylAgent::new((**cfg).clone())),
        }
    }

    /// The policies of the paper's main comparison (Fig. 9/10 legends,
    /// minus the Fast-Only normalization baseline).
    pub fn standard_suite() -> Vec<PolicyKind> {
        vec![
            PolicyKind::SlowOnly,
            PolicyKind::Cde,
            PolicyKind::Hps,
            PolicyKind::Archivist,
            PolicyKind::RnnHss,
            PolicyKind::sibyl(),
            PolicyKind::Oracle,
        ]
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_figure_legends() {
        assert_eq!(PolicyKind::SlowOnly.name(), "Slow-Only");
        assert_eq!(PolicyKind::sibyl().name(), "Sibyl");
        assert_eq!(PolicyKind::Oracle.name(), "Oracle");
    }

    #[test]
    fn standard_suite_has_seven_policies() {
        let suite = PolicyKind::standard_suite();
        assert_eq!(suite.len(), 7);
        assert!(suite.iter().any(|p| matches!(p, PolicyKind::Sibyl(_))));
        assert!(!suite.iter().any(|p| matches!(p, PolicyKind::FastOnly)));
    }

    #[test]
    fn all_kinds_build() {
        for kind in [
            PolicyKind::SlowOnly,
            PolicyKind::FastOnly,
            PolicyKind::Cde,
            PolicyKind::Hps,
            PolicyKind::Archivist,
            PolicyKind::RnnHss,
            PolicyKind::Oracle,
            PolicyKind::TriHybridHeuristic,
            PolicyKind::sibyl(),
        ] {
            let policy = kind.build();
            assert_eq!(policy.name(), kind.name());
        }
    }

    #[test]
    fn only_fast_only_wants_unlimited_capacity() {
        assert!(PolicyKind::FastOnly.wants_unlimited_capacity());
        assert!(!PolicyKind::sibyl().wants_unlimited_capacity());
        assert!(!PolicyKind::Oracle.wants_unlimited_capacity());
    }

    #[test]
    fn sibyl_opt_uses_lower_learning_rate() {
        if let PolicyKind::Sibyl(cfg) = PolicyKind::sibyl_opt() {
            assert_eq!(cfg.learning_rate, 1e-5);
        } else {
            panic!("sibyl_opt should be a Sibyl kind");
        }
    }
}
