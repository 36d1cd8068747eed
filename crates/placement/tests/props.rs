//! Property-based placement invariants: the placer must produce legal,
//! fully-covered placements at any feasible utilization, and the ERI row
//! remapping must preserve legality.

use arithgen::{build_benchmark, BenchmarkConfig};
use placement::{validate, Placer, PlacerConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn placer_is_legal_at_any_feasible_utilization(u in 0.3f64..0.9) {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let result = Placer::new(PlacerConfig::with_utilization(u)).place(&nl).unwrap();
        prop_assert!(result.placement.is_fully_placed(&nl));
        prop_assert!(validate(&nl, &result.floorplan, &result.placement).is_empty());
        let achieved = result.floorplan.utilization(nl.total_cell_area_um2());
        prop_assert!((achieved - u).abs() < 0.05, "target {u}, achieved {achieved}");
    }

    #[test]
    fn row_insertion_preserves_legality(
        u in 0.4f64..0.8,
        positions in prop::collection::vec(0usize..40, 1..12),
    ) {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let result = Placer::new(PlacerConfig::with_utilization(u)).place(&nl).unwrap();
        let n_rows = result.floorplan.num_rows();
        let positions: Vec<usize> = positions.iter().map(|&p| p % (n_rows + 1)).collect();
        let (fp2, mapping) = result.floorplan.with_rows_inserted(&positions);
        let pl2 = result.placement.remap_rows(&fp2, &mapping);
        prop_assert!(validate(&nl, &fp2, &pl2).is_empty());
        // Area grows by exactly one pitch per inserted row.
        let dh = fp2.core().height() - result.floorplan.core().height();
        prop_assert!((dh - positions.len() as f64 * fp2.row_height()).abs() < 1e-9);
        // The cell set is untouched.
        for (id, _) in nl.cells() {
            prop_assert!(pl2.location(id).is_some());
        }
    }

    #[test]
    fn fillers_exactly_tile_the_whitespace(u in 0.35f64..0.85) {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let result = Placer::new(PlacerConfig::with_utilization(u)).place(&nl).unwrap();
        let lib = nl.library();
        let cell_sites: u64 = nl
            .cells()
            .map(|(_, c)| lib.cell(c.master()).width_sites() as u64)
            .sum();
        let filler_sites: u64 = result
            .placement
            .fillers(&nl, &result.floorplan)
            .unwrap()
            .iter()
            .map(|f| f.width_sites as u64)
            .sum();
        prop_assert_eq!(cell_sites + filler_sites, result.floorplan.total_sites());
    }
}
