//! Typed configuration for the serving engine, plus the consolidated
//! validation of [`SchemeConfig`] it is built on.
//!
//! Before this module, every scheme parameter was checked by an ad-hoc
//! `if … return Err(invalid_parameter(…))` inside
//! [`SchemeConfig::builder`](crate::SchemeConfig::builder)'s `build`;
//! [`validate_scheme`] replaces that scatter with one typed pass whose
//! [`ConfigError`] variants name the violated constraint, and the legacy
//! builder now delegates here (converting through
//! `From<ConfigError> for SearchError` so its signature is unchanged).

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{DiffusionEngine, SchemeConfig, SearchError};

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
    /// Push `rmax` must be positive and finite.
    PushRmaxOutOfRange {
        /// The rejected granularity.
        rmax: f32,
    },
    /// A worker-thread count must be positive.
    ZeroThreads {
        /// Which engine's thread knob was zero.
        engine: &'static str,
    },
    /// A shard count must be positive.
    ZeroShards {
        /// Which engine's shard knob was zero.
        engine: &'static str,
    },
    /// Distributed frame loss must lie in `[0, 1)` so frames can
    /// eventually arrive.
    LossProbabilityOutOfRange {
        /// The rejected loss probability.
        loss: f64,
    },
    /// The distributed transport profile was rejected by the simulator's
    /// builders (bandwidth / queue bounds).
    Transport {
        /// The simulator's reason.
        reason: String,
    },
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
            ConfigError::PushRmaxOutOfRange { rmax } => {
                write!(f, "push rmax must be positive and finite, got {rmax}")
            }
            ConfigError::ZeroThreads { engine } => {
                write!(f, "{engine} threads must be positive")
            }
            ConfigError::ZeroShards { engine } => {
                write!(f, "{engine} shard count must be positive")
            }
            ConfigError::LossProbabilityOutOfRange { loss } => write!(
                f,
                "distributed loss probability must lie in [0, 1) so frames can \
                 eventually arrive, got {loss}"
            ),
            ConfigError::Transport { reason } => write!(f, "transport profile: {reason}"),
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
    match c.engine() {
        DiffusionEngine::Push { rmax, threads } => {
            if !rmax.is_finite() || rmax <= 0.0 {
                return Err(ConfigError::PushRmaxOutOfRange { rmax });
            }
            if threads == 0 {
                return Err(ConfigError::ZeroThreads { engine: "push" });
            }
        }
        DiffusionEngine::Dense { threads } => {
            if threads == 0 {
                return Err(ConfigError::ZeroThreads { engine: "dense" });
            }
        }
        DiffusionEngine::Sharded { shards, threads } => {
            if shards == 0 {
                return Err(ConfigError::ZeroShards { engine: "sharded" });
            }
            if threads == 0 {
                return Err(ConfigError::ZeroThreads { engine: "sharded" });
            }
        }
        DiffusionEngine::Distributed {
            shards,
            threads,
            transport,
        } => {
            if shards == 0 {
                return Err(ConfigError::ZeroShards {
                    engine: "distributed",
                });
            }
            if threads == 0 {
                return Err(ConfigError::ZeroThreads {
                    engine: "distributed",
                });
            }
            if !(0.0..1.0).contains(&transport.loss_probability) {
                return Err(ConfigError::LossProbabilityOutOfRange {
                    loss: transport.loss_probability,
                });
            }
            // Bandwidth/queue bounds are validated by the simulator's
            // builders; surface violations at build time, not inside the
            // diffusion run.
            transport
                .to_transport_config()
                .map_err(|e| ConfigError::Transport {
                    reason: e.to_string(),
                })?;
        }
        DiffusionEngine::Auto | DiffusionEngine::PerSource | DiffusionEngine::Gossip => {}
    }
    Ok(())
}

/// Capacity policy of the engine's hot-column cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheCapacity {
    /// Never cache; every query scores candidates inline.
    Disabled,
    /// Hold at most this many columns, evicting the least recently used.
    /// `Bounded(0)` behaves like [`CacheCapacity::Disabled`].
    Bounded(usize),
    /// Hold every column ever started.
    Unbounded,
}

impl CacheCapacity {
    /// Whether a cache under this policy can ever store a column.
    #[must_use]
    pub fn enabled(self) -> bool {
        !matches!(self, CacheCapacity::Disabled | CacheCapacity::Bounded(0))
    }
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
/// use gdsearch::engine::{CacheCapacity, EngineConfig};
/// use gdsearch::SchemeConfig;
///
/// # fn main() -> Result<(), gdsearch::engine::ConfigError> {
/// let cfg = EngineConfig::builder()
///     .scheme(SchemeConfig::default())
///     .batch_size(32)
///     .threads(4)
///     .cache_capacity(CacheCapacity::Bounded(256))
///     .build()?;
/// assert_eq!(cfg.batch_size(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    scheme: SchemeConfig,
    queue_capacity: usize,
    batch_size: usize,
    threads: usize,
    cache_capacity: CacheCapacity,
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
            cache_capacity: CacheCapacity::Bounded(256),
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

    /// Capacity policy of the hot-column cache.
    pub fn cache_capacity(&self) -> CacheCapacity {
        self.cache_capacity
    }
}

/// Builder for [`EngineConfig`].
#[derive(Debug, Clone, Default)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// The scheme configuration (personalization, diffusion engine, walk
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

    /// Capacity policy of the hot-column cache.
    #[must_use]
    pub fn cache_capacity(mut self, cache_capacity: CacheCapacity) -> Self {
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
            return Err(ConfigError::ZeroThreads { engine: "serving" });
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeConfigBuilder;
    use crate::TransportProfile;

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
        assert_eq!(
            validate_scheme(&raw(|b| b.engine(DiffusionEngine::Push {
                rmax: 0.0,
                threads: 1
            }))),
            Err(ConfigError::PushRmaxOutOfRange { rmax: 0.0 })
        );
        assert_eq!(
            validate_scheme(&raw(|b| b.engine(DiffusionEngine::push(0)))),
            Err(ConfigError::ZeroThreads { engine: "push" })
        );
        assert_eq!(
            validate_scheme(&raw(|b| b.engine(DiffusionEngine::dense(0)))),
            Err(ConfigError::ZeroThreads { engine: "dense" })
        );
        assert_eq!(
            validate_scheme(&raw(|b| b.engine(DiffusionEngine::sharded(0, 1)))),
            Err(ConfigError::ZeroShards { engine: "sharded" })
        );
        assert_eq!(
            validate_scheme(&raw(|b| b.engine(DiffusionEngine::sharded(1, 0)))),
            Err(ConfigError::ZeroThreads { engine: "sharded" })
        );
        assert_eq!(
            validate_scheme(&raw(|b| b.engine(DiffusionEngine::distributed(0, 1)))),
            Err(ConfigError::ZeroShards {
                engine: "distributed"
            })
        );
        assert_eq!(
            validate_scheme(&raw(|b| b.engine(DiffusionEngine::distributed(1, 0)))),
            Err(ConfigError::ZeroThreads {
                engine: "distributed"
            })
        );
        assert_eq!(
            validate_scheme(&raw(|b| b.engine(DiffusionEngine::Distributed {
                shards: 1,
                threads: 1,
                transport: TransportProfile {
                    loss_probability: 1.0,
                    ..TransportProfile::default()
                },
            }))),
            Err(ConfigError::LossProbabilityOutOfRange { loss: 1.0 })
        );
        assert!(matches!(
            validate_scheme(&raw(|b| b.engine(DiffusionEngine::Distributed {
                shards: 1,
                threads: 1,
                transport: TransportProfile::default().with_bandwidth(0),
            }))),
            Err(ConfigError::Transport { .. })
        ));
        assert_eq!(validate_scheme(&raw(|b| b)), Ok(()));
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
            Err(ConfigError::ZeroThreads { engine: "serving" })
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
            .cache_capacity(CacheCapacity::Unbounded)
            .build()
            .unwrap();
        assert_eq!(cfg.queue_capacity(), 8);
        assert_eq!(cfg.batch_size(), 4);
        assert_eq!(cfg.threads(), 2);
        assert_eq!(cfg.cache_capacity(), CacheCapacity::Unbounded);
    }

    #[test]
    fn cache_capacity_enablement() {
        assert!(!CacheCapacity::Disabled.enabled());
        assert!(!CacheCapacity::Bounded(0).enabled());
        assert!(CacheCapacity::Bounded(1).enabled());
        assert!(CacheCapacity::Unbounded.enabled());
    }

    #[test]
    fn config_error_converts_to_search_error() {
        let e: SearchError = ConfigError::ZeroTtl.into();
        assert!(e.to_string().contains("ttl must be positive"));
    }
}
