use std::sync::Arc;

use netlist::CellId;

/// The result of a timing analysis.
#[must_use = "a TimingReport is the entire output of a timing analysis"]
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Longest register-to-register (or port-to-register) path delay, ps.
    pub critical_path_ps: f64,
    /// Worst negative slack against the clock period, ps (positive =
    /// timing met).
    pub slack_ps: f64,
    /// Cells on the critical path, launch to capture. Shared, so reports
    /// whose paths are equal (a run's before and after timing, most
    /// often) can hold one copy.
    pub critical_cells: Arc<[CellId]>,
}

impl TimingReport {
    /// Relative delay change from `self` to `after`, in percent — the
    /// "timing overhead" number the paper reports for its techniques.
    pub fn overhead_to(&self, after: &TimingReport) -> f64 {
        if self.critical_path_ps <= 0.0 {
            return 0.0;
        }
        (after.critical_path_ps - self.critical_path_ps) / self.critical_path_ps * 100.0
    }
}

impl std::fmt::Display for TimingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "critical path {:.1} ps (slack {:+.1} ps, {} cells)",
            self.critical_path_ps,
            self.slack_ps,
            self.critical_cells.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_relative_delay_growth() {
        let a = TimingReport {
            critical_path_ps: 1000.0,
            slack_ps: 0.0,
            critical_cells: Arc::from([]),
        };
        let b = TimingReport {
            critical_path_ps: 1020.0,
            slack_ps: -20.0,
            critical_cells: Arc::from([]),
        };
        assert!((a.overhead_to(&b) - 2.0).abs() < 1e-12);
        assert!((b.overhead_to(&a) + 1.96).abs() < 0.01);
    }
}
