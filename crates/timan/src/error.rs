use netlist::CellId;

/// Errors raised by static timing analysis.
#[derive(Debug)]
pub enum TimingError {
    /// A cell has no placement, so wire lengths and local temperatures
    /// are undefined.
    UnplacedCell {
        /// The offending cell.
        cell: CellId,
    },
}

impl std::fmt::Display for TimingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimingError::UnplacedCell { cell } => {
                write!(
                    f,
                    "timing requires a fully placed design: cell {cell:?} is unplaced"
                )
            }
        }
    }
}

impl std::error::Error for TimingError {}
