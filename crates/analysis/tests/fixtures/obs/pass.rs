//! Obs fixture (pass): the engine returns its work counts beside the
//! result and its tests read a registry to assert on what a driver
//! recorded from them — both are the sanctioned shapes.

pub struct Swept {
    pub value: u64,
    pub sweeps: u64,
}

pub fn diffuse(n: u64) -> Swept {
    Swept {
        value: n * 2,
        sweeps: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdsearch_obs::trace::TraceLog;
    use gdsearch_obs::MetricsRegistry;

    #[test]
    fn records_one_sweep() {
        let mut reg = MetricsRegistry::new();
        let out = diffuse(3);
        reg.add("engine.sweeps", out.sweeps);
        assert_eq!(out.value, 6);
        assert!(reg.get("engine.sweeps").is_some());
    }

    #[test]
    fn tests_may_read_the_flight_recorder() {
        let mut log = TraceLog::new();
        log.begin("engine.sweep");
        assert_eq!(log.len(), 1);
    }
}
