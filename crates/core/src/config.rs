use gdsearch_graph::sparse::Normalization;

use crate::forwarding::PolicyKind;
use crate::personalization::Aggregation;
use crate::SearchError;

/// Full configuration of the diffusion-search scheme.
///
/// Defaults mirror the paper's evaluation: `alpha = 0.5`, TTL 50, single
/// walk (fanout 1), top-1 retrieval, sum aggregation, PPR-greedy
/// forwarding, diffusion over the column-stochastic `A = W D⁻¹`.
///
/// # Example
///
/// ```
/// use gdsearch::{PolicyKind, SchemeConfig};
///
/// # fn main() -> Result<(), gdsearch::SearchError> {
/// let cfg = SchemeConfig::builder()
///     .alpha(0.9)
///     .ttl(50)
///     .fanout(2)
///     .policy(PolicyKind::PprGreedy)
///     .build()?;
/// assert_eq!(cfg.alpha(), 0.9);
/// assert_eq!(cfg.fanout(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeConfig {
    alpha: f32,
    ttl: u32,
    fanout: usize,
    top_k: usize,
    aggregation: Aggregation,
    policy: PolicyKind,
    tolerance: f32,
    max_iterations: usize,
}

impl Default for SchemeConfig {
    fn default() -> Self {
        SchemeConfig {
            alpha: 0.5,
            ttl: 50,
            fanout: 1,
            top_k: 1,
            aggregation: Aggregation::Sum,
            policy: PolicyKind::PprGreedy,
            tolerance: 1e-5,
            max_iterations: 1000,
        }
    }
}

/// Builder for [`SchemeConfig`].
#[derive(Debug, Clone, Default)]
pub struct SchemeConfigBuilder {
    // Crate-visible so engine::config's tests can exercise the typed
    // validator on raw (unvalidated) configurations, and so the Fig. 3
    // driver can rebuild a configuration with only alpha changed.
    pub(crate) config: SchemeConfig,
}

impl SchemeConfigBuilder {
    /// Teleport probability `a ∈ (0, 1]` (paper: 0.1 / 0.5 / 0.9).
    pub fn alpha(mut self, alpha: f32) -> Self {
        self.config.alpha = alpha;
        self
    }

    /// Maximum number of forwards per walk (paper: 50).
    pub fn ttl(mut self, ttl: u32) -> Self {
        self.config.ttl = ttl;
        self
    }

    /// Number of parallel walk heads spawned at the querying node
    /// (1 = the paper's single random walk); relays always forward one
    /// copy per walk.
    pub fn fanout(mut self, fanout: usize) -> Self {
        self.config.fanout = fanout;
        self
    }

    /// Number of top results a query tracks (paper: 1).
    pub fn top_k(mut self, top_k: usize) -> Self {
        self.config.top_k = top_k;
        self
    }

    /// Personalization aggregation (paper: sum).
    pub fn aggregation(mut self, aggregation: Aggregation) -> Self {
        self.config.aggregation = aggregation;
        self
    }

    /// Forwarding policy (paper: PPR-greedy; others are baselines).
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.config.policy = policy;
        self
    }

    /// Diffusion convergence tolerance.
    pub fn tolerance(mut self, tolerance: f32) -> Self {
        self.config.tolerance = tolerance;
        self
    }

    /// Diffusion iteration budget.
    pub fn max_iterations(mut self, max_iterations: usize) -> Self {
        self.config.max_iterations = max_iterations;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// Validation is delegated to the typed
    /// [`engine::validate_scheme`](crate::engine::validate_scheme) pass;
    /// this signature converts its [`ConfigError`](crate::engine::ConfigError)
    /// into [`SearchError::InvalidParameter`].
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::InvalidParameter`] for `alpha` outside
    /// `(0, 1]`, zero `ttl`, zero `fanout`, zero `top_k`, non-positive
    /// `tolerance` or zero `max_iterations`.
    pub fn build(self) -> Result<SchemeConfig, SearchError> {
        crate::engine::validate_scheme(&self.config)?;
        Ok(self.config)
    }
}

impl SchemeConfig {
    /// Starts a builder initialized with the paper's defaults.
    pub fn builder() -> SchemeConfigBuilder {
        SchemeConfigBuilder::default()
    }

    /// Teleport probability `a`.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// Walk TTL.
    pub fn ttl(&self) -> u32 {
        self.ttl
    }

    /// Parallel walk heads spawned at the querying node.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Number of tracked top results.
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Personalization aggregation.
    pub fn aggregation(&self) -> Aggregation {
        self.aggregation
    }

    /// Forwarding policy.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// The transition operator the scheme diffuses over, `A = W D⁻¹`.
    pub fn normalization(&self) -> Normalization {
        Normalization::ColumnStochastic
    }

    /// Diffusion tolerance.
    pub fn tolerance(&self) -> f32 {
        self.tolerance
    }

    /// Diffusion iteration budget.
    pub fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    /// The equivalent PPR configuration for the diffusion substrate.
    pub(crate) fn ppr_config(&self) -> Result<gdsearch_diffusion::PprConfig, SearchError> {
        Ok(gdsearch_diffusion::PprConfig::new(self.alpha)?
            .with_tolerance(self.tolerance)?
            .with_max_iterations(self.max_iterations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SchemeConfig::default();
        assert_eq!(c.alpha(), 0.5);
        assert_eq!(c.ttl(), 50);
        assert_eq!(c.fanout(), 1);
        assert_eq!(c.top_k(), 1);
        assert_eq!(c.aggregation(), Aggregation::Sum);
        assert_eq!(c.policy(), PolicyKind::PprGreedy);
    }

    #[test]
    fn builder_validates() {
        assert!(SchemeConfig::builder().alpha(0.0).build().is_err());
        assert!(SchemeConfig::builder().alpha(1.2).build().is_err());
        assert!(SchemeConfig::builder().ttl(0).build().is_err());
        assert!(SchemeConfig::builder().fanout(0).build().is_err());
        assert!(SchemeConfig::builder().top_k(0).build().is_err());
        assert!(SchemeConfig::builder().tolerance(0.0).build().is_err());
        assert!(SchemeConfig::builder().max_iterations(0).build().is_err());
        assert!(SchemeConfig::builder().alpha(0.9).ttl(10).build().is_ok());
    }

    #[test]
    fn ppr_config_propagates_settings() {
        let c = SchemeConfig::builder()
            .alpha(0.3)
            .tolerance(1e-4)
            .max_iterations(77)
            .build()
            .unwrap();
        let ppr = c.ppr_config().unwrap();
        assert_eq!(ppr.alpha(), 0.3);
        assert_eq!(ppr.tolerance(), 1e-4);
        assert_eq!(ppr.max_iterations(), 77);
    }
}
