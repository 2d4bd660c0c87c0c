//! Shared residual/convergence bookkeeping for the iterative engines.
//!
//! Every engine in this crate ([`crate::power`], [`crate::per_source`],
//! [`crate::push`]) tracks the same three facts about its progress toward
//! the PPR fixed point: how many residual observations it has made, the
//! most recent residual, and whether that residual met the configured
//! tolerance. [`Convergence`] centralizes that bookkeeping so every engine
//! reports budget exhaustion identically (see
//! [`PprConfig::tolerance`](crate::PprConfig::tolerance) for what the
//! tolerance means).

/// Progress of an iterative diffusion toward its fixed point.
///
/// `record` each residual observation (a power-iteration sweep, a
/// push-phase residual bound); the struct keeps the iteration count, the
/// last residual, and the converged flag consistent.
///
/// # Example
///
/// ```
/// use gdsearch_diffusion::Convergence;
///
/// let mut conv = Convergence::new();
/// assert!(!conv.record(0.5, 1e-3)); // still above tolerance
/// assert!(conv.record(1e-4, 1e-3)); // converged
/// assert_eq!(conv.iters, 2);
/// assert!(conv.converged);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Convergence {
    /// Residual observations recorded so far (sweeps, certifications,
    /// drain phases — whatever the engine's unit of progress is).
    pub iters: usize,
    /// Most recently recorded residual; `f32::INFINITY` before the first
    /// observation.
    pub residual: f32,
    /// Whether the most recent residual met the tolerance it was recorded
    /// against.
    pub converged: bool,
}

impl Convergence {
    /// Starts tracking: zero iterations, infinite residual, not converged.
    #[must_use]
    pub fn new() -> Self {
        Convergence {
            iters: 0,
            residual: f32::INFINITY,
            converged: false,
        }
    }

    /// Records one residual observation against `tolerance` and returns
    /// whether the engine may stop (`residual <= tolerance`).
    pub fn record(&mut self, residual: f32, tolerance: f32) -> bool {
        self.iters += 1;
        self.residual = residual;
        self.converged = residual <= tolerance;
        self.converged
    }
}

/// The larger of `acc` and `x`, or NaN once either is: folded over the
/// cell residuals of a sweep in any grouping, it gives their max, and NaN
/// if any is — so a sweep's stopping rule sees a NaN row.
pub(crate) fn max_or_nan(acc: f32, x: f32) -> f32 {
    if x > acc || x.is_nan() {
        x
    } else {
        acc
    }
}

/// The smaller of `acc` and `x`, or NaN once either is: the NaN-keeping
/// twin of [`max_or_nan`].
pub(crate) fn min_or_nan(acc: f32, x: f32) -> f32 {
    if x < acc || x.is_nan() {
        x
    } else {
        acc
    }
}

impl Default for Convergence {
    fn default() -> Self {
        Convergence::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_unconverged_with_infinite_residual() {
        let conv = Convergence::new();
        assert_eq!(conv.iters, 0);
        assert!(conv.residual.is_infinite());
        assert!(!conv.converged);
    }

    #[test]
    fn record_tracks_iters_and_convergence() {
        let mut conv = Convergence::new();
        assert!(!conv.record(1.0, 0.1));
        assert!(!conv.record(0.5, 0.1));
        assert!(conv.record(0.05, 0.1));
        assert_eq!(conv.iters, 3);
        assert_eq!(conv.residual, 0.05);
        assert!(conv.converged);
    }

    #[test]
    fn convergence_is_not_sticky() {
        // A residual that rises back above tolerance (asynchronous engines)
        // must clear the flag again.
        let mut conv = Convergence::new();
        assert!(conv.record(0.05, 0.1));
        assert!(!conv.record(0.2, 0.1));
        assert!(!conv.converged);
    }
}
