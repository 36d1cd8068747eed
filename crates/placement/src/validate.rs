//! Placement legality checks.

use netlist::{CellId, Netlist};

use crate::fillers::{filler_masters, tile_gap};
use crate::{Floorplan, Placement};

/// A single legality violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A netlist cell has no slot.
    Unplaced {
        /// The unplaced cell.
        cell: CellId,
    },
    /// A cell extends past its row's last site.
    OutsideRow {
        /// The offending cell.
        cell: CellId,
    },
    /// Two placed objects overlap.
    Overlap {
        /// Row index.
        row: u32,
        /// Site where the overlap starts.
        site: u32,
    },
    /// A site is covered by neither a cell nor a filler — the library
    /// has no filler master to tile it, so the power rail continuity
    /// invariant is broken.
    UncoveredGap {
        /// Row index.
        row: u32,
        /// First uncovered site.
        site: u32,
        /// Gap width in sites.
        width: u32,
    },
}

/// Checks full placement legality: everything placed, inside rows,
/// non-overlapping, and every free site covered by the filler tiling
/// derived from the row gaps ([`Placement::fillers`]), which leaves a
/// site uncovered only when no filler master of the library fits it.
///
/// Returns all violations found (empty = legal).
pub fn validate(netlist: &Netlist, floorplan: &Floorplan, placement: &Placement) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (id, _) in netlist.cells() {
        if placement.location(id).is_none() {
            violations.push(Violation::Unplaced { cell: id });
        }
    }
    let masters = filler_masters(netlist.library());
    let mut fillers = Vec::new();
    for row in 0..floorplan.num_rows() as u32 {
        let row_sites = floorplan.row(row as usize).num_sites;
        let mut spans: Vec<(u32, u32, Option<CellId>)> = placement
            .row_cells(row)
            .iter()
            .map(|&(s, c, w)| (s, w, Some(c)))
            .collect();
        fillers.clear();
        for (start, width) in placement.row_gaps(floorplan, row) {
            // An untiled remainder shows up below as an uncovered gap.
            let _ = tile_gap(&masters, row, start, width, &mut fillers);
        }
        spans.extend(fillers.iter().map(|f| (f.site, f.width_sites, None)));
        spans.sort_unstable_by_key(|&(s, _, _)| s);
        let mut cursor = 0u32;
        for (s, w, cell) in spans {
            if s + w > row_sites {
                if let Some(c) = cell {
                    violations.push(Violation::OutsideRow { cell: c });
                }
            }
            if s < cursor {
                violations.push(Violation::Overlap { row, site: s });
            } else if s > cursor {
                violations.push(Violation::UncoveredGap {
                    row,
                    site: cursor,
                    width: s - cursor,
                });
            }
            cursor = cursor.max(s + w);
        }
        if cursor < row_sites {
            violations.push(Violation::UncoveredGap {
                row,
                site: cursor,
                width: row_sites - cursor,
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::NetlistBuilder;
    use stdcell::{CellFunction, Drive, Library};

    /// One inverter over a 50-site row, cut from `lib`.
    fn setup_with(lib: Library) -> (Netlist, Floorplan, Placement) {
        let mut b = NetlistBuilder::new("t", lib);
        let u = b.add_unit("u");
        let a = b.input_port("a", u);
        let n0 = b.net("n0");
        b.cell(u, CellFunction::Inv, Drive::X1, &[a], &[n0])
            .unwrap();
        let nl = b.finish().unwrap();
        let fp = Floorplan::new(nl.library(), 15.0, 1);
        let p = Placement::new(&nl, &fp);
        (nl, fp, p)
    }

    fn setup() -> (Netlist, Floorplan, Placement) {
        setup_with(Library::c65())
    }

    /// The `c65` library without its filler masters.
    fn without_fillers() -> Library {
        let cells = stdcell::c65_cells()
            .into_iter()
            .filter(|c| c.function() != CellFunction::Filler)
            .collect();
        Library::new("no-fillers", 0.3, 2.7, 1.0, cells)
    }

    #[test]
    fn unplaced_and_uncovered_are_reported() {
        let (nl, fp, p) = setup_with(without_fillers());
        let v = validate(&nl, &fp, &p);
        assert!(v.iter().any(|v| matches!(v, Violation::Unplaced { .. })));
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::UncoveredGap { .. })));
    }

    #[test]
    fn complete_placement_is_clean() {
        let (nl, fp, mut p) = setup();
        p.place(&nl, &fp, CellId::new(0), 0, 12);
        assert!(validate(&nl, &fp, &p).is_empty());
    }

    #[test]
    fn missing_fillers_break_continuity() {
        let (nl, fp, mut p) = setup_with(without_fillers());
        p.place(&nl, &fp, CellId::new(0), 0, 12);
        let v = validate(&nl, &fp, &p);
        // Gaps on both sides of the lone cell.
        let gaps = v
            .iter()
            .filter(|v| matches!(v, Violation::UncoveredGap { .. }))
            .count();
        assert_eq!(gaps, 2);
    }
}
