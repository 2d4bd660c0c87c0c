use gdsearch_graph::sparse::Normalization;

use crate::DiffusionError;

/// Parameters of the Personalized PageRank filter and its iterative
/// evaluation.
///
/// `alpha` is the paper's teleport probability `a`: at every step a random
/// walk returns to its origin with probability `a`, so diffusion reaches
/// `1/a` hops on average. Low `alpha` = heavy (wide) diffusion, high
/// `alpha` = light (local) diffusion. The paper evaluates
/// `a ∈ {0.1, 0.5, 0.9}`.
///
/// # Tolerance semantics
///
/// This is the single normative statement of what [`tolerance`] means —
/// every engine's docs refer here. The tolerance is an additive **L∞
/// accuracy target on the PPR fixed point** `E = a (I − (1−a) A)^{-1} E0`:
///
/// * the sweep engines ([`crate::power`], [`crate::per_source`]) stop when
///   the max-abs residual `‖E(t+1) − E(t)‖∞` of one synchronous update
///   falls below it. The update is a `(1−a)`-contraction in the
///   `D⁻¹`-weighted norm `‖x‖_D = max_u |x_u| / max(deg u, 1)`, where
///   `‖A‖_D ≤ 1` for `A = W D⁻¹` (`D⁻¹ A D = D⁻¹ W` is row-stochastic) —
///   not in L∞, where `‖A‖∞ = d_max` (a hub's row sums to its number of
///   leaves). So `‖E* − E(t+1)‖_D ≤ (1−a)/a · ‖E(t+1) − E(t)‖_D`, and the
///   true L∞ distance to the fixed point `E*` is at most
///   `d_max · (1−a)/a · tolerance`, with `d_max` the largest degree;
/// * the push engine ([`crate::push`]) certifies
///   `‖estimate − fixed point‖∞ ≤ tolerance` directly from its residual
///   mass.
///
/// Either way, two engines run at the same tolerance agree entrywise to
/// `O(tolerance)`, which is what the cross-engine tests assert.
///
/// [`tolerance`]: PprConfig::tolerance
///
/// # Example
///
/// ```
/// use gdsearch_diffusion::PprConfig;
///
/// # fn main() -> Result<(), gdsearch_diffusion::DiffusionError> {
/// let cfg = PprConfig::new(0.5)?.with_tolerance(1e-6)?.with_max_iterations(500);
/// assert_eq!(cfg.alpha(), 0.5);
/// assert!(PprConfig::new(0.0).is_err()); // never teleporting never converges
/// assert!(cfg.with_tolerance(f32::NAN).is_err()); // tolerance must be finite
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PprConfig {
    alpha: f32,
    tolerance: f32,
    max_iterations: usize,
}

impl PprConfig {
    /// Creates a configuration with the given teleport probability and
    /// defaults: tolerance `1e-6`, 1,000 max iterations.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidParameter`] unless
    /// `0 < alpha <= 1`.
    pub fn new(alpha: f32) -> Result<Self, DiffusionError> {
        if !alpha.is_finite() || alpha <= 0.0 || alpha > 1.0 {
            return Err(DiffusionError::invalid_parameter(format!(
                "alpha must lie in (0, 1], got {alpha}"
            )));
        }
        Ok(PprConfig {
            alpha,
            tolerance: 1e-6,
            max_iterations: 1000,
        })
    }

    /// Sets the convergence tolerance (see the [type docs](PprConfig)
    /// for the exact semantics: an additive L∞ target on the fixed point).
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidParameter`] unless `tolerance` is
    /// positive and finite — a NaN or infinite tolerance would make every
    /// engine's convergence check vacuous or unsatisfiable.
    pub fn with_tolerance(mut self, tolerance: f32) -> Result<Self, DiffusionError> {
        if !tolerance.is_finite() || tolerance <= 0.0 {
            return Err(DiffusionError::invalid_parameter(format!(
                "tolerance must be positive and finite, got {tolerance}"
            )));
        }
        self.tolerance = tolerance;
        Ok(self)
    }

    /// Sets the iteration budget.
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Returns the configuration unchanged: every engine diffuses over the
    /// one operator [`Normalization`] names.
    #[must_use]
    pub fn with_normalization(self, _normalization: Normalization) -> Self {
        self
    }

    /// Teleport probability `a`.
    #[must_use]
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// Convergence tolerance — an additive L∞ accuracy target on the fixed
    /// point; see the [type docs](PprConfig) for the per-engine reading.
    #[must_use]
    pub fn tolerance(&self) -> f32 {
        self.tolerance
    }

    /// Iteration budget.
    #[must_use]
    pub fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    /// The transition operator every engine diffuses over, `A = W D⁻¹`.
    #[must_use]
    pub fn normalization(&self) -> Normalization {
        Normalization::ColumnStochastic
    }
}

impl Default for PprConfig {
    /// The paper's moderate setting: `a = 0.5`.
    fn default() -> Self {
        // Mirrors `new(0.5)` without the fallible path: 0.5 is statically
        // inside (0, 1], and `Default` must not be able to panic.
        PprConfig {
            alpha: 0.5,
            tolerance: 1e-6,
            max_iterations: 1000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_alpha_domain() {
        assert!(PprConfig::new(0.0).is_err());
        assert!(PprConfig::new(-0.3).is_err());
        assert!(PprConfig::new(1.5).is_err());
        assert!(PprConfig::new(f32::NAN).is_err());
        assert!(PprConfig::new(1.0).is_ok());
        assert!(PprConfig::new(0.001).is_ok());
    }

    #[test]
    fn validates_tolerance_domain() {
        let cfg = PprConfig::default();
        assert!(cfg.with_tolerance(f32::NAN).is_err());
        assert!(cfg.with_tolerance(f32::INFINITY).is_err());
        assert!(cfg.with_tolerance(f32::NEG_INFINITY).is_err());
        assert!(cfg.with_tolerance(0.0).is_err());
        assert!(cfg.with_tolerance(-1e-6).is_err());
        assert!(cfg.with_tolerance(1e-9).is_ok());
    }

    #[test]
    fn builder_chain() {
        let cfg = PprConfig::new(0.1)
            .unwrap()
            .with_tolerance(1e-4)
            .unwrap()
            .with_max_iterations(50);
        assert_eq!(cfg.tolerance(), 1e-4);
        assert_eq!(cfg.max_iterations(), 50);
    }

    #[test]
    fn default_is_papers_moderate_alpha() {
        assert_eq!(PprConfig::default().alpha(), 0.5);
    }
}
