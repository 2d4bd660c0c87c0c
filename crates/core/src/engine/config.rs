//! Typed configuration for the serving engine, plus the consolidated
//! validation of [`SchemeConfig`] it is built on.
//!
//! [`validate_scheme`] is one typed pass whose [`ConfigError`] variants
//! name the violated constraint;
//! [`SchemeConfig::builder`](crate::SchemeConfig::builder)'s `build`
//! delegates here and converts through `From<ConfigError> for SearchError`.

use std::error::Error;
use std::fmt;

use crate::{PolicyKind, SchemeConfig, SearchError};

/// A configuration constraint violation, one variant per rejection path.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `alpha` must lie in `(0, 1]` and be finite.
    AlphaOutOfRange {
        /// The rejected teleport probability.
        alpha: f32,
    },
    /// `ttl` must be positive.
    ZeroTtl,
    /// `fanout` must be positive.
    ZeroFanout,
    /// `top_k` must be positive.
    ZeroTopK,
    /// `tolerance` must be positive and finite.
    ToleranceOutOfRange {
        /// The rejected tolerance.
        tolerance: f32,
    },
    /// `max_iterations` must be positive.
    ZeroMaxIterations,
    /// A [`PolicyKind::Hybrid`] exploration probability must lie in
    /// `[0, 1]` and be finite.
    EpsilonOutOfRange {
        /// The rejected exploration probability.
        epsilon: f32,
    },
    /// The engine's worker-thread count must be positive.
    ZeroThreads,
    /// The engine's submission queue must admit at least one request.
    ZeroQueueCapacity,
    /// The engine's batch window must admit at least one request.
    ZeroBatchSize,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::AlphaOutOfRange { alpha } => {
                write!(f, "alpha must lie in (0, 1], got {alpha}")
            }
            ConfigError::ZeroTtl => write!(f, "ttl must be positive"),
            ConfigError::ZeroFanout => write!(f, "fanout must be positive"),
            ConfigError::ZeroTopK => write!(f, "top_k must be positive"),
            ConfigError::ToleranceOutOfRange { tolerance } => {
                write!(f, "tolerance must be positive and finite, got {tolerance}")
            }
            ConfigError::ZeroMaxIterations => write!(f, "max_iterations must be positive"),
            ConfigError::EpsilonOutOfRange { epsilon } => {
                write!(f, "hybrid epsilon must lie in [0, 1], got {epsilon}")
            }
            ConfigError::ZeroThreads => write!(f, "serving threads must be positive"),
            ConfigError::ZeroQueueCapacity => {
                write!(f, "engine queue capacity must be positive")
            }
            ConfigError::ZeroBatchSize => write!(f, "engine batch size must be positive"),
        }
    }
}

impl Error for ConfigError {}

impl From<ConfigError> for SearchError {
    fn from(e: ConfigError) -> Self {
        SearchError::InvalidParameter {
            reason: e.to_string(),
        }
    }
}

/// Validates every scheme parameter, returning the first violated
/// constraint. The single source of truth behind both
/// [`SchemeConfig::builder`](crate::SchemeConfig::builder) and
/// [`EngineConfigBuilder::build`].
pub fn validate_scheme(c: &SchemeConfig) -> Result<(), ConfigError> {
    let alpha = c.alpha();
    if !alpha.is_finite() || alpha <= 0.0 || alpha > 1.0 {
        return Err(ConfigError::AlphaOutOfRange { alpha });
    }
    if c.ttl() == 0 {
        return Err(ConfigError::ZeroTtl);
    }
    if c.fanout() == 0 {
        return Err(ConfigError::ZeroFanout);
    }
    if c.top_k() == 0 {
        return Err(ConfigError::ZeroTopK);
    }
    let tolerance = c.tolerance();
    if !tolerance.is_finite() || tolerance <= 0.0 {
        return Err(ConfigError::ToleranceOutOfRange { tolerance });
    }
    if c.max_iterations() == 0 {
        return Err(ConfigError::ZeroMaxIterations);
    }
    if let PolicyKind::Hybrid { epsilon } = c.policy() {
        if !(0.0..=1.0).contains(&epsilon) {
            return Err(ConfigError::EpsilonOutOfRange { epsilon });
        }
    }
    Ok(())
}

/// Full configuration of a [`QueryEngine`](crate::engine::QueryEngine):
/// the scheme it serves plus the serving-side knobs (admission queue,
/// batch window, worker threads, hot-column cache).
///
/// None of the serving knobs affect results — batched, threaded and
/// cached execution is bitwise identical to sequential uncached queries
/// (proptested in `tests/engine_equivalence.rs`). They only trade
/// throughput, latency and memory.
///
/// # Example
///
/// ```
/// use gdsearch::engine::EngineConfig;
/// use gdsearch::SchemeConfig;
///
/// # fn main() -> Result<(), gdsearch::engine::ConfigError> {
/// let cfg = EngineConfig::builder()
///     .scheme(SchemeConfig::default())
///     .batch_size(32)
///     .threads(4)
///     .cache_capacity(256)
///     .build()?;
/// assert_eq!(cfg.batch_size(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    scheme: SchemeConfig,
    queue_capacity: usize,
    batch_size: usize,
    threads: usize,
    cache_capacity: usize,
}

impl Default for EngineConfig {
    /// Paper-default scheme, 1024-deep queue, 16-query batches, 4 worker
    /// threads, 256 cached columns.
    fn default() -> Self {
        EngineConfig {
            scheme: SchemeConfig::default(),
            queue_capacity: 1024,
            batch_size: 16,
            threads: 4,
            cache_capacity: 256,
        }
    }
}

impl EngineConfig {
    /// Starts a builder initialized with the defaults.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::default()
    }

    /// The scheme configuration the engine builds its network with.
    pub fn scheme(&self) -> &SchemeConfig {
        &self.scheme
    }

    /// Bound of the submission queue; [`submit`] rejects past it.
    ///
    /// [`submit`]: crate::engine::QueryEngine::submit
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Maximum number of admitted queries one [`step`] executes together.
    ///
    /// [`step`]: crate::engine::QueryEngine::step
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Worker threads of the batched column/walk dispatch (results are
    /// identical for every count).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Most columns the hot-column cache holds, evicting the least
    /// recently used; 0 never caches, so every walk scores through a
    /// column of its own.
    pub fn cache_capacity(&self) -> usize {
        self.cache_capacity
    }
}

/// Builder for [`EngineConfig`].
#[derive(Debug, Clone, Default)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// The scheme configuration (personalization, diffusion tolerance, walk
    /// policy, …) the engine serves.
    #[must_use]
    pub fn scheme(mut self, scheme: SchemeConfig) -> Self {
        self.config.scheme = scheme;
        self
    }

    /// Bound of the submission queue (must be positive).
    #[must_use]
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.config.queue_capacity = queue_capacity;
        self
    }

    /// Batch window of one engine step (must be positive).
    #[must_use]
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.config.batch_size = batch_size;
        self
    }

    /// Worker threads of the batched dispatch (must be positive).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Most columns the hot-column cache holds (default 256; 0 never
    /// caches).
    #[must_use]
    pub fn cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.config.cache_capacity = cache_capacity;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Any scheme violation (see [`validate_scheme`]) plus
    /// [`ConfigError::ZeroQueueCapacity`], [`ConfigError::ZeroBatchSize`]
    /// and [`ConfigError::ZeroThreads`] for the serving knobs.
    pub fn build(self) -> Result<EngineConfig, ConfigError> {
        validate_scheme(&self.config.scheme)?;
        if self.config.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.config.batch_size == 0 {
            return Err(ConfigError::ZeroBatchSize);
        }
        if self.config.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeConfigBuilder;

    /// A raw (unvalidated) scheme configuration straight off the builder.
    fn raw(f: impl FnOnce(SchemeConfigBuilder) -> SchemeConfigBuilder) -> SchemeConfig {
        f(SchemeConfig::builder()).config
    }

    #[test]
    fn every_scheme_rejection_path_is_typed() {
        // One assertion per ConfigError variant reachable from a scheme.
        assert_eq!(
            validate_scheme(&raw(|b| b.alpha(0.0))),
            Err(ConfigError::AlphaOutOfRange { alpha: 0.0 })
        );
        assert_eq!(
            validate_scheme(&raw(|b| b.alpha(1.5))),
            Err(ConfigError::AlphaOutOfRange { alpha: 1.5 })
        );
        assert!(matches!(
            validate_scheme(&raw(|b| b.alpha(f32::NAN))),
            Err(ConfigError::AlphaOutOfRange { alpha }) if alpha.is_nan()
        ));
        assert_eq!(
            validate_scheme(&raw(|b| b.ttl(0))),
            Err(ConfigError::ZeroTtl)
        );
        assert_eq!(
            validate_scheme(&raw(|b| b.fanout(0))),
            Err(ConfigError::ZeroFanout)
        );
        assert_eq!(
            validate_scheme(&raw(|b| b.top_k(0))),
            Err(ConfigError::ZeroTopK)
        );
        assert_eq!(
            validate_scheme(&raw(|b| b.tolerance(-1.0))),
            Err(ConfigError::ToleranceOutOfRange { tolerance: -1.0 })
        );
        assert_eq!(
            validate_scheme(&raw(|b| b.max_iterations(0))),
            Err(ConfigError::ZeroMaxIterations)
        );
        assert_eq!(validate_scheme(&raw(|b| b)), Ok(()));
    }

    #[test]
    fn hybrid_epsilon_outside_the_unit_interval_is_rejected() {
        let hybrid = |epsilon| raw(|b| b.policy(PolicyKind::Hybrid { epsilon }));
        for epsilon in [-0.1, 1.5, f32::INFINITY] {
            assert_eq!(
                validate_scheme(&hybrid(epsilon)),
                Err(ConfigError::EpsilonOutOfRange { epsilon })
            );
        }
        assert!(matches!(
            validate_scheme(&hybrid(f32::NAN)),
            Err(ConfigError::EpsilonOutOfRange { epsilon }) if epsilon.is_nan()
        ));
        for epsilon in [0.0, 1.0] {
            assert_eq!(validate_scheme(&hybrid(epsilon)), Ok(()));
        }
        // The scheme builder runs the same check.
        let nan = PolicyKind::Hybrid { epsilon: f32::NAN };
        assert!(SchemeConfig::builder().policy(nan).build().is_err());
    }

    #[test]
    fn legacy_builder_delegates_to_typed_validation() {
        // The SchemeConfig builder's public signature still yields
        // SearchError, carrying the typed variant's message.
        let err = SchemeConfig::builder().ttl(0).build().unwrap_err();
        assert!(err.to_string().contains("ttl must be positive"));
        assert!(SchemeConfig::builder().build().is_ok());
    }

    #[test]
    fn engine_builder_validates_serving_knobs() {
        assert_eq!(
            EngineConfig::builder().queue_capacity(0).build(),
            Err(ConfigError::ZeroQueueCapacity)
        );
        assert_eq!(
            EngineConfig::builder().batch_size(0).build(),
            Err(ConfigError::ZeroBatchSize)
        );
        assert_eq!(
            EngineConfig::builder().threads(0).build(),
            Err(ConfigError::ZeroThreads)
        );
        // A scheme violation surfaces through the engine builder too.
        assert_eq!(
            EngineConfig::builder().scheme(raw(|b| b.ttl(0))).build(),
            Err(ConfigError::ZeroTtl)
        );
        let cfg = EngineConfig::builder()
            .queue_capacity(8)
            .batch_size(4)
            .threads(2)
            .cache_capacity(usize::MAX)
            .build()
            .unwrap();
        assert_eq!(cfg.queue_capacity(), 8);
        assert_eq!(cfg.batch_size(), 4);
        assert_eq!(cfg.threads(), 2);
        assert_eq!(cfg.cache_capacity(), usize::MAX);
    }

    #[test]
    fn cache_capacity_enablement() {
        // 256 columns by default; 0 (never cache) is a valid setting.
        assert_eq!(EngineConfig::default().cache_capacity(), 256);
        let off = EngineConfig::builder().cache_capacity(0).build().unwrap();
        assert_eq!(off.cache_capacity(), 0);
    }

    #[test]
    fn config_error_converts_to_search_error() {
        let e: SearchError = ConfigError::ZeroTtl.into();
        assert!(e.to_string().contains("ttl must be positive"));
    }
}
