use std::fmt;
use std::ops::Add;

/// Virtual simulation time, in abstract seconds.
///
/// Totally ordered (NaN is rejected at construction) so churn schedules
/// can be sorted by it.
///
/// # Example
///
/// ```
/// use gdsearch_sim::SimTime;
///
/// let t = SimTime::new(1.5).unwrap() + SimTime::new(0.5).unwrap();
/// assert_eq!(t.as_secs(), 2.0);
/// assert!(SimTime::ZERO < t);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct SimTime(f64);

impl SimTime {
    /// The start of simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time point; returns `None` for negative, NaN or infinite
    /// values.
    pub fn new(secs: f64) -> Option<Self> {
        if secs.is_finite() && secs >= 0.0 {
            Some(SimTime(secs))
        } else {
            None
        }
    }

    /// The time value in abstract seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(SimTime::new(0.0).is_some());
        assert!(SimTime::new(3.5).is_some());
        assert!(SimTime::new(-1.0).is_none());
        assert!(SimTime::new(f64::NAN).is_none());
        assert!(SimTime::new(f64::INFINITY).is_none());
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::new(1.0).unwrap();
        let b = SimTime::new(2.0).unwrap();
        assert!(a < b);
        assert_eq!((a + b).as_secs(), 3.0);
    }

    #[test]
    fn display_format() {
        assert_eq!(SimTime::new(1.25).unwrap().to_string(), "1.250000s");
    }
}
